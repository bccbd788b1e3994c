"""The column formatter of the CLI tables against Python's own '%.17g' % v, byte for byte."""

import numpy as np
import pytest

from edgecurrents import table

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

fixed_examples = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def formatted(values) -> str:
    return "".join(table.csv_rows([np.asarray(values, dtype=float)]))


def reference(values) -> str:
    return "".join(["%.17g\n" % v for v in np.asarray(values, dtype=float).tolist()])


def assert_same(values):
    got, want = formatted(values).splitlines(), reference(values).splitlines()
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def bit_patterns(ints) -> np.ndarray:
    return np.asarray(ints, dtype=np.uint64).view(np.float64)


@fixed_examples
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_floats_match_percent_format(values):
    assert_same(values)


@fixed_examples
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_bit_patterns_match_percent_format(ints):
    assert_same(bit_patterns(ints))


def test_random_bit_patterns_match_percent_format():
    rng = np.random.default_rng(20261019)
    assert_same(bit_patterns(rng.integers(0, 2**64, 10**6, dtype=np.uint64)))


def test_decades_binades_subnormals_and_specials_match_percent_format():
    tens = np.array([10.0**k for k in range(-323, 309)])  # 10**k rounded to the nearest double
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    edges = np.concatenate([tens, twos])
    tiny = np.ldexp(np.arange(1.0, 4097.0), -1074)  # the first subnormals
    values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf), tiny,
                             [0.0, np.inf, np.nan, 2.2250738585072014e-308,
                              1.7976931348623157e308, 0.1, 1e-4, 1e-5, 1e16, 1e17, 123.0]])
    assert_same(np.concatenate([values, -values, [-np.nan]]))


def test_integers_and_quarter_ties_above_1e15():
    k = np.arange(20_000, dtype=float)
    ints = np.concatenate([1e15 + k, 1e16 + 2.0 * k, 2.0**53 + 2.0 * k])
    ties = 1e15 + 0.25 * (2.0 * k + 1.0)  # 17 significant digits end in a 5 that is exact
    assert_same(np.concatenate([ints, ties, -ties]))
    # an exact half-way case is never decided by the double-double estimate, but by '%'
    _, _, slow = table._decimal(ties, np.full((6, 2 * table._E0), np.nan))
    assert slow.all()


def test_rows_and_tail_bytes():
    cols = [np.array([1.0, -0.0, 1e-5]), np.array([np.nan, 2.5, -np.inf])]
    tail = np.array([b"true\n", b"false\n", b"true\n"]).view(np.uint8).reshape(3, -1)
    assert "".join(table.csv_rows(cols)) == "1,nan\n-0,2.5\n1.0000000000000001e-05,-inf\n"
    assert "".join(table.csv_rows(cols, tail)) == (
        "1,nan,true\n-0,2.5,false\n1.0000000000000001e-05,-inf,true\n")


def test_many_blocks_match_percent_format():
    x = np.geomspace(1e-3, 60.0, 3 * table._BLOCK + 7)
    cols = [x, np.exp(-2.0 * x), -1.0 / (x * x), np.zeros_like(x)]
    want = "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in zip(*(c.tolist() for c in cols)))
    assert "".join(table.csv_rows(cols)) == want


def test_digit_table_is_bytes_not_words():
    # the lookup tables are built as bytes and written back as the same machine words
    assert table._DIGITS4[1234:1235].view(np.uint8).tobytes() == b"1\x002\x003\x004\x00"
    assert table._EXP[324 - 5:324 - 4].view(np.uint8).tobytes() == b"e-05\x00\x00\x00,"
