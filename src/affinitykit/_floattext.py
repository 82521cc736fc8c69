"""Float64 matrices as the JSON text that ``json.dumps(m.tolist(), indent=2)`` nests in a report.

``matrix_text(m)`` is the text that ``json.dumps(payload, indent=2)`` writes for
a matrix value of a top-level key: every float in Python's ``repr`` spelling
(``NaN`` and ``Infinity`` as JSON spells them), one per line, rows as indented
lists. It is computed by whole-array numpy operations over blocks of rows, with
no Python call per value:

* The shortest round-trip digits of each value come from the Schubfach method
  (R. Giulietti, "The Schubfach way to render doubles", 2020), in the form of
  its reference implementation, ``jdk.internal.math.DoubleToDecimal``, without
  Java's rule of at least two digits. Among the shortest decimals that read
  back as the value it picks the one nearest to it, ties to an even last digit,
  which is the choice of the ``dtoa`` behind ``repr``. Its 126-bit powers of
  ten are a table of two 63-bit halves built at import, and each 126 x 64-bit
  product is formed from 32-bit halves in ``uint64`` arithmetic.
* Each value fills one 64-byte template from lookup tables of 4- and 8-byte
  words: sign, the ``0`` of ``0.``, the digits before the point, the point
  and up to three zeros, the digits after it, the exponent and the separator
  that follows the value. A byte the value does not use stays zero, and
  ``bytes.translate`` deletes them all at the end.

Every operand of the wrapping ``uint64`` arithmetic is a ``np.uint64`` (Python
ints meet only ``int64`` arrays), so numpy 1.x value-based casting never turns
it into float64.
"""

from __future__ import annotations

import numpy as np

from ._validate import block_rows

_U = np.uint64
_M32 = _U(0xFFFF_FFFF)
_M63 = _U(0x7FFF_FFFF_FFFF_FFFF)
_B32, _B63 = _U(32), _U(63)
_ONE, _TWO, _TEN = _U(1), _U(2), _U(10)

_K_MIN, _K_MAX = -324, 292  # decimal exponents of the scaled powers of ten
# Bytes of each uint64 temporary of a block of rows, whose templates take eight
# times as many: 64 KiB, below glibc's 128 KiB mmap threshold, so the temporaries
# are reused from the heap rather than mapped, faulted in and unmapped per block.
_BLOCK_BYTES = 1 << 16

_INDENT = b"\n      "
_ITEM_SEP = b"," + _INDENT  # between two values of a row
_ROW_SEP = b"\n    ],\n    [" + _INDENT  # between two rows
_OPEN, _CLOSE = "[\n    [\n      ", "\n    ]\n  ]"


def _flog10pow2(e):
    """floor(log10(2^e)), exact for |e| <= 5456721."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 * 2^e)), exact for |e| <= 5456721."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(log2(10^e)), exact for |e| <= 1838394."""
    return (e * 913_124_641_741) >> 38


_POW10 = np.array([10 ** i for i in range(18)], dtype=np.uint64)


def _words(texts, dtype="<u4") -> np.ndarray:
    """Each text as one little-endian word of its bytes, zero-padded."""
    size = np.dtype(dtype).itemsize
    return np.frombuffer(b"".join(text.encode().ljust(size, b"\0") for text in texts), dtype=dtype)


# A value's 17 digits sit at bytes 3..19 of a 20-byte region, five 4-byte words:
# the leading digit alone in the first word, then four groups of four.
_LEAD = _words(f"\0\0\0{a}" for a in range(10))
# _SHOWN[i, p]: word i's mask of the digits at places below p.
_SHOWN = np.array([[sum(0xFF << 8 * b for b in range(4) if 0 <= 4 * i + b - 3 < p) for p in range(18)]
                   for i in range(5)], dtype="<u4")
_POINT = _words(["", ".", ".0", ".00", ".000"])  # the point and up to three zeros after it
_SEPARATOR = _words([_ITEM_SEP.decode()], "<u8")[0]


def _power_table() -> tuple[np.ndarray, np.ndarray]:
    """g = floor(10^-k * 2^(125 - floor(log2 10^-k))) + 1 for each k, as its
    high and low 63 bits: 2^125 < g < 2^126."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        g = (10 ** -k << shift if shift >= 0 else 10 ** -k >> -shift) if k <= 0 else (1 << shift) // 10 ** k
        g1.append((g + 1) >> 63)
        g0.append((g + 1) & (1 << 63) - 1)
    return np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)


def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of 0..9999 as one word each, and the same words with
    the trailing zero digits as zero bytes."""
    g = np.arange(10_000)[:, None]
    digits = (g // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    trimmed = np.where(g % np.array([10_000, 1000, 100, 10]) == 0, np.uint8(0), digits)
    return digits.view("<u4")[:, 0], trimmed.view("<u4")[:, 0]


_G1, _G0 = _power_table()
_GROUP, _GROUP_TRAILING = _digit_words()
_EXPONENT = _words((f"e{e:+03d}" for e in range(-324, 309)), "<u8")  # "e-324" to "e+308"


def _mul128(a, b):
    """The high and low 64-bit words of the products a * b, from 32-bit halves."""
    a_lo, a_hi = a & _M32, a >> _B32
    b_lo, b_hi = b & _M32, b >> _B32
    lo_hi = a_lo * b_hi
    hi_lo = a_hi * b_lo
    mid = ((a_lo * b_lo) >> _B32) + (hi_lo & _M32) + lo_hi  # < 2^64
    return a_hi * b_hi + (hi_lo >> _B32) + (mid >> _B32), a * b


def _add_shifted(high, low, a, shift, sign):
    """The words of high:low + sign * a * 2^shift, for 1 <= shift <= 63."""
    a_high, a_low = a >> (_U(64) - shift), a << shift
    if sign > 0:
        total = low + a_low
        return high + a_high + (total < low), total
    total = low - a_low
    return high - a_high - (total > low), total


def _round_to_odd(y1, y0, x1):
    """rop(g * cp / 2^127) from the words y1:y0 of g1 * cp and the high word x1 of
    g0 * cp, where g = g1 * 2^63 + g0: the floor, its last bit set when the bits
    below were not all zero."""
    z = (y0 >> _ONE) + x1
    return y1 + (z >> _B63) | ((z & _M63) + _M63) >> _B63


def _shortest(bits):
    """(d, k): the shortest decimal d * 10^k that reads back as the positive finite
    value of each bit pattern."""
    t = bits & _U((1 << 52) - 1)
    biased = (bits >> _U(52)).astype(np.int64)
    subnormal = biased == 0
    c = np.where(subnormal, t, t | _U(1 << 52))
    q = np.where(subnormal, -1074, biased - 1075)
    # Below a power of two the next value down is half as far as the next one up.
    irregular = (t == 0) & (biased > 1)
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)  # 2..5
    index = k - _K_MIN
    g1, g0 = _G1[index], _G0[index]
    # The value and the ends of its rounding interval, in units of 10^k / 4:
    # c * 4 and c * 4 +- 2 (c * 4 - 1 below a power of two), each scaled by 2^h.
    cp = c << (h + _TWO)
    y, x = _mul128(g1, cp), _mul128(g0, cp)
    vb = _round_to_odd(*y, x[0])
    shift = h + _ONE
    vbr = _round_to_odd(*_add_shifted(*y, g1, shift, 1), _add_shifted(*x, g0, shift, 1)[0])
    shift = shift - irregular
    vbl = _round_to_odd(*_add_shifted(*y, g1, shift, -1), _add_shifted(*x, g0, shift, -1)[0])
    out = c & _ONE  # an odd significand excludes the interval's ends
    vbl += out
    vbr -= out
    s = vb >> _TWO
    # One digit fewer: at most one multiple of 10^(k+1) lies in the interval.
    sp10 = s // _TEN * _TEN
    upin = vbl <= sp10 << _TWO
    wpin = (sp10 + _TEN) << _TWO <= vbr
    # Otherwise s * 10^k or (s + 1) * 10^k; when both lie in it, the nearer, ties to even.
    s4 = s << _TWO
    lower = vb + (s & _ONE) <= s4 + _TWO  # below the midpoint, or on it with s even
    pick_s = (vbl <= s4) & ((vbr < s4 + _U(4)) | lower)
    d = np.where(upin != wpin, np.where(upin, sp10, sp10 + _TEN), s + ~pick_s)
    return d, k


def _block_bytes(block: np.ndarray) -> bytes:
    """The text of a block of rows, each value followed by its separator."""
    rows, cols = block.shape
    bits = np.ascontiguousarray(block, dtype=np.float64).view(np.uint64)
    magnitude = bits & _M63
    special = magnitude >= _U(0x7FF << 52)
    nan = magnitude > _U(0x7FF << 52)
    # Zero and the non-finite values are spelled below; 1.0 stands in for them.
    stand_in = special | (magnitude == _U(0))
    d, k = _shortest(np.where(stand_in, _U(0x3FF << 52), magnitude))
    if stand_in.any():
        d[stand_in], k[stand_in] = 0, 0
    # s + 1 can reach 10^17: drop its trailing zero.
    carry = d >= _POW10[17]
    if carry.any():
        d[carry] //= _TEN
        k += carry
    width = np.searchsorted(_POW10, d, side="right")  # d's digit count, 0 for zero
    decpt = width + k  # the value is 0.DIGITS * 10^decpt; zero is "0." and the digit 0
    x = d * _POW10[17 - width]  # d's digits left-aligned in 17 places
    # The lead digit and four groups of four.
    groups = np.empty((5,) + bits.shape, dtype=np.uint64)
    groups[0], hi = np.divmod(x, _U(10 ** 16))
    hi, lo = np.divmod(hi, _U(10 ** 8))
    groups[1], groups[2] = np.divmod(hi, _U(10 ** 4))
    groups[3], groups[4] = np.divmod(lo, _U(10 ** 4))
    groups = groups.astype(np.intp)
    words = _GROUP[groups]
    words[0] = _LEAD[groups[0]]
    # Digits after the last nonzero one are dropped; "later_zero[i]": groups after i are 0.
    later_zero = np.ones(groups.shape, dtype=bool)
    np.logical_and.accumulate(groups[:0:-1] == 0, axis=0, out=later_zero[-2::-1])
    trimmed = np.where(later_zero, _GROUP_TRAILING[groups], words)
    trimmed[0] = words[0]

    # repr's rule: positional notation for 1e-4 <= |v| < 1e16, an exponent otherwise.
    fixed = (decpt > -4) & (decpt <= 16) & ~special
    exponent = ~fixed & ~special
    # The digits before the point: all places below decpt, one in exponent form.
    shown = _SHOWN[:, np.where(fixed, np.maximum(decpt, 0), exponent.astype(np.int64))]
    words_before = words & shown
    words_after = trimmed & ~shown
    if special.any():
        for value, text in ((nan, "NaN"), (special & ~nan, "Infinity")):
            words_before[0][value], words_before[1][value] = _words([text[:4], text[4:]])
        words_after[0][special] = 0
    any_after = np.bitwise_or.reduce(words_after) != 0
    # ".000" before the digits of a small value, ".0" after an integral one, "." otherwise.
    small = fixed & (decpt <= 0)
    point = np.where(small, 1 - decpt, np.where(any_after, 1, 2 * fixed))

    # Each value takes 64 bytes: sign, "0" of "0.", 2 unused, 20 digit bytes, point and
    # zeros, 20 digit bytes, exponent, separator. Rows end in the rest of the row separator.
    slots = np.zeros((rows, cols * 64 + 16), dtype=np.uint8)
    values = slots[:, :cols * 64]
    t8 = values.reshape(rows, cols, 64)
    t32 = values.view("<u4").reshape(rows, cols, 16)
    t64 = values.view("<u8").reshape(rows, cols, 8)
    t8[..., 0] = ((bits > _M63) & ~nan) * np.uint8(ord("-"))
    t8[..., 1] = small * np.uint8(ord("0"))
    for i in range(5):
        t32[..., 1 + i] = words_before[i]
        t32[..., 7 + i] = words_after[i]
    t32[..., 6] = _POINT[point]
    t64[..., 6] = exponent * _EXPONENT[decpt + 323]
    t64[..., 7] = _SEPARATOR
    slots[:, cols * 64 - len(_ITEM_SEP):cols * 64 - len(_ITEM_SEP) + len(_ROW_SEP)] = np.frombuffer(_ROW_SEP, np.uint8)
    return slots.tobytes().translate(None, b"\0")


def matrix_text(matrix: np.ndarray) -> str:
    """``json.dumps(matrix.tolist(), indent=2)`` as nested one level deep, for a
    matrix with at least one row and one column."""
    matrix = np.asarray(matrix, dtype=np.float64)
    step = block_rows(matrix.shape[1], _BLOCK_BYTES)
    pieces = [_OPEN]
    for start in range(0, matrix.shape[0], step):
        pieces.append(_block_bytes(matrix[start:start + step]).decode("ascii"))
    pieces[-1] = pieces[-1][:-len(_ROW_SEP)] + _CLOSE
    return "".join(pieces)
