"""The column formatter of the CLI tables against Python's own '%.17g' % v, byte for byte."""

import math

import numpy as np
import pytest

from edgecurrents import table
from edgecurrents.cli import main

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

fixed_examples = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def reference_rows(columns) -> str:
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in zip(*(c.tolist() for c in columns)))


def assert_same(*columns):
    """csv_rows of the columns is '%.17g' % v byte for byte; a mismatch names its first rows."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    got = "".join(table.csv_rows(columns)).splitlines(keepends=True)
    want = reference_rows(columns).splitlines(keepends=True)
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
    _, _, slow = table._decimal(ties)
    assert slow.all()


def test_constants_are_built_once_per_exponent_per_process(monkeypatch):
    # the double-double constants of a binary exponent are built the first time a value meets
    # it, and kept: a second call on the same columns builds none
    monkeypatch.setattr(table, "_SCALES", np.full_like(table._SCALES, np.nan))
    built, scale = [], table._scale
    monkeypatch.setattr(table, "_scale", lambda e: built.append(e) or scale(e))
    x = np.geomspace(1e-3, 60.0, 3 * table._BLOCK + 7)
    cols = [x, np.exp(-2.0 * x), -1.0 / (x * x)]
    assert_same(*cols)
    first = len(built)
    assert first >= 1 and len(set(built)) == first
    assert_same(*cols)
    assert len(built) == first


def test_fixed_notation_digit_counts_and_point_positions_match_percent_format():
    # in fixed notation with 1 <= X <= 15 the trailing-zero mask and the byte shift of the point
    # meet, a case random bit patterns almost never reach: a digit count n < 17 with the point
    # among the digits.  Draw every X from -6 to 18 uniformly per decade; dyadic k / 2^j, whose
    # j digits after the point put the point inside n = X + 1 + j digits up to 17, and past 17
    # round into the carry to word 3; and integers m 10^z of n < X + 1 significant digits
    rng = np.random.default_rng(23)
    decades = [rng.uniform(10.0**x, 10.0**(x + 1), 300) for x in range(-6, 19)]
    dyadic = []
    for x in range(-6, 19):
        for j in range(-12, 60):
            lo, hi = max(10.0**x * 2.0**j, 1.0), min(10.0**(x + 1) * 2.0**j, 2.0**53 - 2)
            if lo < hi:  # k odd and below 2^53: k / 2^j is exact
                k = rng.integers(math.ceil(lo), math.floor(hi), 4, endpoint=True) | 1
                dyadic.append(np.ldexp(k.astype(float), -j))
    ms = [rng.integers(10 ** (n - 1), 10**n, 8) // 10 * 10 + rng.integers(1, 10, 8)
          for n in range(1, 18)]  # n digits, the last not 0
    integers = [m * 10.0**z for m in ms for z in range(17)]
    values = np.concatenate(decades + dyadic + integers)
    assert_same(np.concatenate([values, -values]))
    cases = {(len(t.split(".")[0]) - 1, len(t.replace(".", "").rstrip("0")))
             for t in ("%.17g" % v for v in values.tolist()) if "e" not in t and t[0] != "0"}
    assert cases >= {(x, n) for x in range(1, 16) for n in range(1, 18)}


def test_rows_and_tail_bytes():
    cols = [np.array([1.0, -0.0, 1e-5]), np.array([np.nan, 2.5, -np.inf])]
    tail = np.array([b"true\n", b"false\n", b"true\n"]).view(np.uint8).reshape(3, -1)
    assert "".join(table.csv_rows(cols)) == "1,nan\n-0,2.5\n1.0000000000000001e-05,-inf\n"
    assert "".join(table.csv_rows(cols, tail)) == (
        "1,nan,true\n-0,2.5,false\n1.0000000000000001e-05,-inf,true\n")


def test_many_blocks_match_percent_format():
    x = np.geomspace(1e-3, 60.0, 3 * table._BLOCK + 7)
    cols = [x, np.exp(-2.0 * x), -1.0 / (x * x), np.zeros_like(x)]
    assert_same(*cols)


def test_digit_table_is_bytes_not_words():
    # the lookup tables are built as bytes and are little-endian words, so that a word written
    # back, or shifted by whole bytes, is the same bytes on any host
    assert table._DIGITS4.dtype == np.dtype("<u4") and table._EXP.dtype == np.dtype("<u8")
    assert table._DIGITS4[1234:1235].view(np.uint8).tobytes() == b"1234"
    assert table._EXP[324 - 5:324 - 4].view(np.uint8).tobytes() == b"e-05\x00\x00\x00,"
    assert table._EXP[324 + 3:324 + 4].view(np.uint8).tobytes() == b"\x00" * 7 + b","
    lead = table._LEAD[table._LEAD_AT[324 - 2] + 100 + 2 * 7:][:1]  # -0.07, fixed notation
    assert lead.view(np.uint8).tobytes() == b"-0.0\x00\x007\x00"
    assert table._LEAD[table._LEAD_AT[324 + 0] + 2 * 3:][:1].view(np.uint8).tobytes() == (
        b"\x00" * 6 + b"3.")  # X = 0: the point follows the first digit
    assert "".join(table.csv_rows([np.array([1234.5, 1e-5, 3.0, -0.07])])) == (
        "1234.5\n1.0000000000000001e-05\n3\n-0.070000000000000007\n")


SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])


def special_tables(n: int):
    """Multi-column tables of n rows that mix nan, +-inf and +-0 with values that have digits."""
    rng = np.random.default_rng(29)
    digits = np.geomspace(1e-7, 1e7, n) * rng.choice([-1.0, 1.0], n)
    sprinkled = np.where(rng.random(n) < 0.3, rng.choice(SPECIALS, n), digits)
    run = np.where((np.arange(n) >= table._BLOCK - 50) & (np.arange(n) < table._BLOCK + 50),
                   np.nan, digits)  # a run of nan across the first block boundary
    return {
        "no-digits": [rng.choice(SPECIALS, n), np.zeros(n), np.full(n, np.nan), -np.zeros(n)],
        "all-digits": [digits, np.exp(-digits * digits), -1.0 / digits],
        "mixed": [digits, sprinkled, run, np.zeros(n), sprinkled[::-1]],
    }


@pytest.mark.parametrize("name", sorted(special_tables(1)))
def test_tables_with_special_cells_match_percent_format(name):
    # nan, +-inf and +-0 are taken from a table and only the other values of a block reach the
    # digit steps: blocks with no such value, with only such values, and with both across the
    # block boundary
    cols = special_tables(2 * table._BLOCK + 13)[name]
    assert_same(*cols)


def test_ties_among_specials_take_the_percent_fallback(monkeypatch):
    # every value with digits in this table is half-way, so '%' formats each of them, found by
    # its index among the values with digits of its block, not among all the block's values
    slow, decimal = [], table._decimal
    monkeypatch.setattr(table, "_decimal", lambda a: slow.append((r := decimal(a))[2]) or r)
    n = table._BLOCK + 100
    ties = 1e15 + 0.25 * (2.0 * np.arange(n) + 1.0)  # half-way: '%' formats them
    cols = [np.where(np.arange(n) % 3 == 0, np.nan, ties), np.zeros(n),
            np.where(np.arange(n) % 5 == 0, -np.inf, -ties)]
    assert_same(*cols)
    assert len(slow) == 2 and all(s.all() for s in slow)
    assert sum(s.size for s in slow) == sum(np.isfinite(c).sum() - (c == 0.0).sum() for c in cols)


def test_only_values_with_digits_reach_the_digit_steps(monkeypatch, tmp_path):
    seen, decimal = [], table._decimal
    monkeypatch.setattr(table, "_decimal", lambda a: seen.append(a.copy()) or decimal(a))
    cols = special_tables(2 * table._BLOCK + 13)["mixed"]
    assert_same(*cols)
    blocks = [np.stack(cols, axis=1)[start:start + table._BLOCK].ravel()
              for start in range(0, len(cols[0]), table._BLOCK)]
    want = [np.abs(b[np.isfinite(b) & (b != 0.0)]) for b in blocks]
    assert len(seen) == len(want)
    assert all(np.array_equal(got, w) for got, w in zip(seen, want))
    # at gamma = inf five of the profile's six columns are 0: only x has digits
    seen.clear()
    out = tmp_path / "p.csv"
    assert main(["profile", "--m", "1", "--gamma", "inf", "--x-min", "0.1", "--x-max", "5",
                 "--points", "5000", "--out", str(out)]) == 0
    assert len(seen) == 3
    assert np.array_equal(np.concatenate(seen), np.geomspace(0.1, 5.0, 5000))
    assert out.read_text().splitlines()[1] == "0.10000000000000001,0,0,0,0,0"
