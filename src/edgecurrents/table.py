"""CSV rows of float columns, each value as '%.17g' % v, formatted column by column in numpy.

A finite |v| > 0 is f 2^e (np.frexp, 1/2 <= f < 1).  Its decimal exponent X
is X0 = floor(log10 2^(e-1)) or X0 + 1, decided by comparing |v| with the
least double >= 10^(X0+1).  Then y = f (2^e 10^(16-X)) lies in [1e16, 1e17).
It is taken in double-double arithmetic (Dekker's exact product) from a
constant built exactly with Python ints, once per binary exponent present,
and its error is below 1e-14.  Its nearest integer q carries the 17
significant digits of '%.17g'.  Where y lies within 1e-9 of a half-integer,
that error could decide the rounding, and '%' formats the value itself.

Each value fills 48 bytes, NUL where unused, written as six machine words
from lookup tables: the sign, the '0.000' prefix of 1e-4 <= |v| < 1 and the
first digit; four words of four digits, each digit followed by a slot for the
decimal point; then 'e+dd[d]' and the separator.  Trailing zeros are masked
off, as %g does, and the NULs are dropped at the end.  nan, +-inf and +-0 are
whole table rows.  The rows go out in blocks of _BLOCK, which bounds the
memory in use.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

_BLOCK = 2048  # rows formatted at a time
_WIDTH = 48  # bytes per value, six words
_E0 = 1075  # frexp's binary exponents e lie in [-1073, 1024]; e + _E0 indexes the constants


def _words(texts, width: int = 8) -> np.ndarray:
    """Byte strings, NUL-padded to width, as machine words: a word written back is the bytes."""
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), np.uint64)


_D = np.arange(48, 58, dtype=np.uint8)
_DIGITS4 = np.zeros((10, 10, 10, 10, 8), np.uint8)  # 'd\0d\0d\0d\0' of 0000 .. 9999
_DIGITS4[..., 0], _DIGITS4[..., 2], _DIGITS4[..., 4], _DIGITS4[..., 6] = np.ix_(_D, _D, _D, _D)
_DIGITS4 = _DIGITS4.view(np.uint64).ravel()
_Z = np.ix_(*[(_D == 48).astype(np.uint8)] * 4)  # trailing zeros of 0000 .. 9999
_TRAILING0 = (_Z[3] * (1 + _Z[2] * (1 + _Z[1] * (1 + _Z[0])))).ravel()
_KEEP = _words([b"\xff" * 2 * k for k in range(5)])  # the first k digits of a word
_LEAD = _words([sign + prefix.ljust(5, b"\0") + bytes([d]) for sign in (b"\0", b"-")
                for prefix in (b"", b"0.", b"0.0", b"0.00", b"0.000") for d in range(48, 58)])
_EXP = _words([(b"e%+03d" % x).ljust(7, b"\0") + b"," for x in range(-324, 309)]
              + [b"\0" * 7 + b","])  # X = -324 .. 308, and no exponent
_SPECIAL = np.frombuffer(b"".join(t.ljust(_WIDTH - 1, b"\0") + b","
                                  for t in (b"0", b"-0", b"inf", b"-inf", b"nan")), np.uint8).reshape(5, -1)


def _scale(e: int) -> list[float]:
    """X0 = floor(log10 2^(e-1)), the least double >= 10^(X0+1), 2^e 10^(16-X) at X = X0, X0 + 1.

    Each double is an int / int, which is correctly rounded; 2^e 10^(16-X) is
    a double-double hi + lo.
    """
    x0 = math.floor((e - 1) * math.log10(2.0))  # exact: (e-1) log10 2 is never near an integer
    num, den = 10 ** max(x0 + 1, 0), 10 ** max(-1 - x0, 0)
    a, b = (num / den).as_integer_ratio()
    row = [x0, math.nextafter(num / den, math.inf) if a * den < num * b else num / den]
    for x in (x0, x0 + 1):
        num, den = 2 ** max(e, 0) * 10 ** max(16 - x, 0), 2 ** max(-e, 0) * 10 ** max(x - 16, 0)
        a, b = (num / den).as_integer_ratio()
        row += [num / den, (num * b - a * den) / (den * b)]
    return row


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo, each of at most 26 significant bits (Dekker's split)."""
    t = 134217729.0 * a  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _decimal(a: np.ndarray, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For finite a > 0: q in [1e16, 1e17), X with a ~ q 10^(X-16), and where '%' must decide.

    scales holds _scale(e) in its column e + _E0, nan where not yet built; the
    exponents met first here are built.
    """
    f, e = np.frexp(a)
    e += _E0
    for k in np.flatnonzero(np.bincount(e[np.isnan(scales[0, e])])).tolist():
        scales[:, k] = _scale(k - _E0)
    x0, thresh, hi0, lo0, hi1, lo1 = (column[e] for column in scales)
    bump = a >= thresh
    x = x0.astype(np.int64) + bump
    c_hi, c_lo = np.where(bump, hi1, hi0), np.where(bump, lo1, lo0)
    (f_hi, f_lo), (c_hh, c_hl) = _split(f), _split(c_hi)
    p = f * c_hi  # p + (f_hi c_hh - p + ... + f_lo c_hl) is f c_hi exactly
    lo = (((f_hi * c_hh - p) + f_hi * c_hl + f_lo * c_hh) + f_lo * c_hl) + f * c_lo
    near = np.rint(lo)
    q = p.astype(np.int64) + near.astype(np.int64)
    top = q == 10**17  # rounded up to the next decade
    q[top], x[top] = 10**16, x[top] + 1
    return q, x, np.abs(lo - near) > 0.5 - 1e-9


def _cells(v: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """The (len(v), _WIDTH) NUL-padded bytes of '%.17g' % v, each followed by ','."""
    special = ~np.isfinite(v) | (v == 0.0)
    if special.any():  # rows of _SPECIAL; only the other values take the steps below
        cells = np.empty((v.size, _WIDTH), np.uint8)
        i = np.flatnonzero(special)
        cells[i] = _SPECIAL[np.where(np.isnan(v[i]), 4, 2 * np.isinf(v[i]) + np.signbit(v[i]))]
        cells[~special] = _cells(v[~special], scales)
        return cells
    q, x, slow = _decimal(np.abs(v), scales)
    hi8, lo8 = np.divmod(q, 10**8)
    d0, hi8 = np.divmod(hi8, 10**8)
    groups = (*np.divmod(hi8, 10**4), *np.divmod(lo8, 10**4))
    nd, run = np.full(v.size, 17), np.ones(v.size, bool)  # significant digits
    for g in groups[::-1]:
        nd -= run * _TRAILING0[g]
        run &= g == 0
    expo = (x < -4) | (x >= 17)
    fixed_neg = (x < 0) & ~expo
    shown = np.where(expo | fixed_neg, nd, np.maximum(nd, x + 1))
    words = np.stack([_LEAD[(np.signbit(v) * 5 + fixed_neg * -x) * 10 + d0],
                      *(_DIGITS4[g] for g in groups), _EXP[np.where(expo, x + 324, 633)]], axis=1)
    i = np.flatnonzero(shown < 17)
    words[i, 1:5] &= _KEEP[np.clip(shown[i, None] - np.arange(1, 17, 4), 0, 4)]
    cells = words.view(np.uint8)
    pt = np.where(expo, 0, x)  # the point follows this digit
    i = np.flatnonzero(~fixed_neg & (nd > pt + 1))
    cells.ravel()[i * _WIDTH + 7 + 2 * pt[i]] = ord(".")
    for j in np.flatnonzero(slow).tolist():
        text = ("%.17g" % v[j]).encode()
        cells[j] = np.frombuffer(text.ljust(_WIDTH - 1, b"\0") + b",", np.uint8)
    return cells


def csv_rows(columns, tail: np.ndarray | None = None) -> Iterator[str]:
    """The rows of equal-length float columns as CSV lines, each value as '%.17g' % v.

    Yields the text block by block.  tail, an (n, w) uint8 array, ends each
    row after a comma: its own bytes, newline included, NUL where unused.
    """
    scales = np.full((6, 2 * _E0), np.nan)
    for start in range(0, len(columns[0]), _BLOCK):
        block = slice(start, start + _BLOCK)
        rows = _cells(np.stack([c[block] for c in columns], axis=1).ravel(), scales)
        rows = rows.reshape(-1, len(columns) * _WIDTH)
        if tail is None:
            rows[:, -1] = ord("\n")
        else:
            rows = np.concatenate([rows, tail[block]], axis=1)
        yield rows.tobytes().translate(None, b"\0").decode()
