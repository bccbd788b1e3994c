"""CSV rows of float columns, each value as '%.17g' % v, formatted column by column in numpy.

A finite |v| > 0 is f 2^e (np.frexp, 1/2 <= f < 1).  Its decimal exponent X
is X0 = floor(log10 2^(e-1)) or X0 + 1, decided by comparing |v| with the
least double >= 10^(X0+1).  Then y = f (2^e 10^(16-X)) lies in [1e16, 1e17).
It is taken in double-double arithmetic (Dekker's exact product) from a
constant built exactly with Python ints, once per binary exponent per
process, the first time a value meets that exponent, and its error is below
1e-14.  Its nearest integer q carries the 17 significant digits of '%.17g'.
Where y lies within 1e-9 of a half-integer, that error could decide the
rounding, and '%' formats the value itself.

Each value fills 32 bytes, NUL where unused: four little-endian words looked
up in tables, so that a word written back is the same bytes on any host.
  word 0    the sign, the '0.' .. '0.000' prefix of 1e-4 <= |v| < 1, the
            first digit and, in byte 7, the point that follows it in
            exponent form or at X = 0;
  words 1-2 digits 2 to 17, one a byte, the trailing zeros masked off as %g
            does;
  word 3    'e+dd[d]' or NULs, then the separator in byte 7.
In fixed notation with 1 <= X <= 15 the point goes after digit X + 1: the
digits behind it move up a byte, the last into byte 0 of word 3.  nan, +-inf
and +-0 are formatted as a finite stand-in, and their cells then overwritten.
The NULs are dropped at the end.  The rows go out in blocks of _BLOCK, which
bounds the memory in use.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

_BLOCK = 2048  # rows formatted at a time
_WIDTH = 32  # bytes per value, four words; a "V32" view of a cell is one item
_E0 = 1075  # frexp's binary exponents e lie in [-1073, 1024]; 2 (e + _E0) indexes the constants


def _words(texts) -> np.ndarray:
    """Byte strings of whole words as little-endian words: written back, the same bytes."""
    return np.frombuffer(b"".join(texts), "<u8")


_D = np.arange(48, 58, dtype=np.uint8)  # then the bytes of 0000 .. 9999, and their trailing zeros
_DIGITS4 = np.stack(np.meshgrid(_D, _D, _D, _D, indexing="ij"), -1).view("<u4").ravel()
_TRAILING0 = sum(np.arange(10**4, dtype=np.uint16) % 10**j == 0 for j in range(1, 5)).astype("u1")
# word 0 at 100 sign + 20 prefix + 2 digit + point: '-', '0.' .. '0.000', the digit, '.'
_LEAD = _words([sign + prefix.ljust(5, b"\0") + bytes([d, point]) for sign in (b"\0", b"-")
                for prefix in (b"", b"0.", b"0.0", b"0.00", b"0.000")
                for d in range(48, 58) for point in (0, 46)])
_XS = range(-324, 309)  # the decimal exponents X of doubles; X + 324 indexes the next two
_LEAD_AT = np.array([20 * (-5 < x < 0) * -x + (x < -4 or x > 16 or x == 0) for x in _XS])  # prefix
_EXP = _words([(b"e%+03d" % x if x < -4 or x > 16 else b"").ljust(7, b"\0") + b"," for x in _XS])
# the cell of a value that shows k digits, less digits k + 1 .. 17 and the point after a lone digit
_KEEP = _words([b"\xff" * 7 + (b"\xff" if k > 1 else b"\0") + (b"\xff" * (k - 1)).ljust(16, b"\0")
                + b"\xff" * 8 for k in range(18)]).reshape(18, 4)
# words 1-2 of the bytes from byte p on, and of '.' at byte p, for a point after digit p + 1
_POINT = _words([bytes(p) + b"\xff" * (16 - p) for p in range(16)]
                + [bytes(p) + b"." + bytes(15 - p) for p in range(16)]).reshape(2, 16, 2)
_SPECIAL = _words([t.ljust(31, b"\0") + b"," for t in b"0 -0 inf -inf nan".split()]).view("V32")
_SCALES = np.full((4, 4 * _E0), np.nan)  # the columns of _scale(e), nan until a value meets e


def _scale(e: int) -> list:
    """The constants of binary exponent e, in columns 2 (e + _E0) + bump for bump = 0, 1.

    They are the least double >= 10^(X0+1) (in both), X = X0 + bump and
    2^e 10^(16-X) as a double-double hi + lo, where X0 = floor(log10 2^(e-1)).
    Each double is an int / int, which is correctly rounded.
    """
    x0 = math.floor((e - 1) * math.log10(2.0))  # exact: (e-1) log10 2 is never near an integer
    num, den = 10 ** max(x0 + 1, 0), 10 ** max(-1 - x0, 0)
    a, b = (num / den).as_integer_ratio()
    thresh = math.nextafter(num / den, math.inf) if a * den < num * b else num / den
    hi_lo = []
    for x in (x0, x0 + 1):
        num, den = 2 ** max(e, 0) * 10 ** max(16 - x, 0), 2 ** max(-e, 0) * 10 ** max(x - 16, 0)
        a, b = (num / den).as_integer_ratio()
        hi_lo.append((a / b, (num * b - a * den) / (den * b)))
    return [(thresh, thresh), (x0, x0 + 1), *zip(*hi_lo)]


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo, each of at most 26 significant bits (Dekker's split)."""
    t = 134217729.0 * a  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For finite a > 0: q in [1e16, 1e17), X with a ~ q 10^(X-16), and where '%' must decide."""
    f, e = np.frexp(a)
    k = 2 * (e + _E0)
    for j in np.flatnonzero(np.bincount(k[np.isnan(_SCALES[0].take(k))])).tolist():
        _SCALES[:, j:j + 2] = _scale(j // 2 - _E0)  # the exponents met first
    k += a >= _SCALES[0].take(k)
    x, c_hi, c_lo = _SCALES[1:].take(k, axis=1)
    (f_hi, f_lo), (c_hh, c_hl) = _split(f), _split(c_hi)
    p = f * c_hi  # p + (f_hi c_hh - p + ... + f_lo c_hl) is f c_hi exactly
    lo = (((f_hi * c_hh - p) + f_hi * c_hl + f_lo * c_hh) + f_lo * c_hl) + f * c_lo
    near = np.rint(lo)
    q, x = p.astype(np.int64) + near.astype(np.int64), x.astype(np.int64)
    top = np.flatnonzero(q == 10**17)  # rounded up to the next decade
    q[top], x[top] = 10**16, x[top] + 1
    return q, x, np.abs(lo - near) > 0.5 - 1e-9


def _cells(v: np.ndarray) -> np.ndarray:
    """The (len(v), 4) words whose bytes are '%.17g' % v NUL-padded, each followed by ','."""
    special = ~(np.abs(v) < math.inf) | (v == 0.0)  # nan, +-inf, +-0
    q, x, slow = _decimal(np.where(special, math.pi, np.abs(v)))  # pi: 17 digits at X = 0
    hi = q // 10**8  # floor division by a constant is ~4x faster than divmod
    lo, d0 = q - hi * 10**8, hi // 10**8
    hi -= d0 * 10**8
    g1, g3 = hi // 10**4, lo // 10**4
    groups = (g1, hi - g1 * 10**4, g3, lo - g3 * 10**4)
    cells = np.empty((v.size, 4), "<u8")  # rows move by take and "V32" views, ~10x faster than [i]
    cells[:, 0] = _LEAD.take(_LEAD_AT.take(x + 324) + np.signbit(v) * 100 + d0 * 2)
    for col, g in enumerate(groups, 2):
        cells.view("<u4")[:, col] = _DIGITS4.take(g)
    cells[:, 3] = _EXP.take(x + 324)
    i, zeros = np.flatnonzero(_TRAILING0.take(groups[3])), 0  # the values whose digit 17 is 0
    for g in [g.take(i) for g in groups]:
        zeros = _TRAILING0.take(g) + (g == 0) * zeros
    nd = np.full(v.size, 17)  # significant digits
    nd[i] -= zeros
    shown = np.maximum(17 - zeros, (x.take(i) + 1) * (x.take(i) < 17))  # fixed: X + 1 or more
    cells.view("V32")[i, 0] = (cells.take(i, axis=0) & _KEEP.take(shown, axis=0)).view("V32")[:, 0]
    i = np.flatnonzero((x > 0) & (x < nd - 1))  # fixed, with a digit after the point
    (high, dot), w = _POINT.take(x.take(i), axis=1), cells.take(i, axis=0)
    h = w[:, 1:3] & high
    w[:, 1:3] = w[:, 1:3] ^ h | h << 8 | dot  # the digits from the point on move up a byte,
    w[:, 2:] |= h >> 56  # the last of words 1 and 2 into the next
    cells.view("V32")[i, 0] = w.view("V32")[:, 0]
    for j in np.flatnonzero(slow).tolist():
        cells[j] = np.frombuffer(("%.17g" % v[j]).encode().ljust(_WIDTH - 1, b"\0") + b",", "<u8")
    kind = np.where(np.isnan(s := v[special]), 4, 2 * np.isinf(s) + np.signbit(s))
    cells.view("V32")[special, 0] = _SPECIAL.take(kind)
    return cells


def csv_rows(columns, tail: np.ndarray | None = None) -> Iterator[str]:
    """The rows of equal-length float columns as CSV lines, each value as '%.17g' % v.

    Yields the text block by block.  tail, an (n, w) uint8 array, ends each
    row after a comma: its own bytes, newline included, NUL where unused.
    """
    for start in range(0, len(columns[0]), _BLOCK):
        block = slice(start, start + _BLOCK)
        rows = _cells(np.stack([c[block] for c in columns], axis=1).ravel()).view(np.uint8)
        rows = rows.reshape(-1, len(columns) * _WIDTH)
        if tail is None:
            rows[:, -1] = ord("\n")
        else:
            rows = np.concatenate([rows, tail[block]], axis=1)
        yield rows.tobytes().translate(None, b"\0").decode()
