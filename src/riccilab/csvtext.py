"""CSV text of float64 columns, each value printed as ``format(x, ".17g")``
prints it, byte for byte, built by numpy a block of values at a time.

Digits.  A finite x with 1e-280 < |x| < 1e300 takes its 17 significant
digits D = round-half-even(|x| * 10^(16 - k)), k = floor(log10 |x|), from
a Dekker two-product of |x| with ``10^(16 - k)`` held as an exactly rounded
pair hi + lo: x * hi = P + E exactly, and P + (E + |x| * lo) is |x| *
10^(16 - k) to within 1e-14.  P is an integer (it exceeds 2^53), so D is P
plus the floor of the small part, plus one where its fraction is above a
half.  log10 can be off by one next to a power of ten: k is lowered where
|x| < 10^k, decided exactly by the same table, and raised where D reaches
10^17 (log10 one low, or a fraction just below a half carried), D then
taken once more.  A value whose fraction lies within
``TIE_MARGIN`` of a half, or whose magnitude lies outside that range
(subnormals among them), takes D and k from Python's own ``"%.16e"``, the
same correctly rounded 17 digits ``"%.17g"`` prints, so exactness never
rests on the error bound.

Bytes.  Each value owns a fixed field of 47 bytes, written at static
columns:

    [-][0.000][17 integer-side digits][.][17 fraction-side digits][e+hto][,]

Both digit zones hold D's 17 digits.  A keep mask, one row of a table
indexed by (sign, layout, significant digits), drops the unused bytes, and
one 1-D boolean index of the flat fields packs what is left, in field
order, into the line text.  The table encodes the ``%g`` rules: scientific
notation iff k < -4 or k >= 17; trailing zeros and a bare point dropped; an
exponent of at least two digits; ``0``, ``-0``, ``inf``, ``-inf`` and
``nan`` (never ``-nan``).  Bools print as 1 and 0.
"""

from __future__ import annotations

import numpy as np

# Values formatted, and bytes written, per block (one row per block when a
# row has more values).
BLOCK_VALUES = 2**11
# Distance from a half below which a fraction goes to Python's formatter.
TIE_MARGIN = 1e-6
# Magnitudes whose digits the two-product takes: 10^(16 - k) and its
# Veltkamp halves stay normal and finite for every k they give.
_LOW, _HIGH = 1e-280, 1e300

# Field byte offsets.
_SIGN, _PREFIX, _INT, _POINT, _FRAC, _EXP, _SEP = 0, 1, 6, 23, 24, 41, 46
_FIELD = 47
_STATIC = {_SIGN: b"-", _PREFIX: b"0.000", _POINT: b".", _EXP: b"e"}

# Layouts: fixed notation at k = -4 .. 16 (layout k + 4), zero, the
# three-letter inf and nan, and scientific notation with a two- or
# three-digit exponent.
_ZERO, _WORD, _SCI2, _SCI3 = 21, 22, 23, 24
_LAYOUTS = 25


def _split(a):
    """Veltkamp halves of a: a = high + low, each with at most 26 bits."""
    c = 134217729.0 * a  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _pow10_table(p_min: int, p_max: int) -> tuple[np.ndarray, ...]:
    """hi, lo and hi's Veltkamp halves of 10^p for p_min <= p <= p_max: hi
    is 10^p and lo 10^p - hi, each correctly rounded (Python's int / int
    is), so hi + lo holds 10^p to about 2^-106 of itself."""
    his, los = [], []
    for p in range(p_min, p_max + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        hi = num / den
        n, d = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * d - n * den) / (den * d))
    hi = np.array(his)
    return (hi, np.array(los), *_split(hi))


# 10^p for |p| <= 300: 10^k and 10^(16 - k) for every k the fast path takes.
_P_MIN = -300
_HI, _LO, _HI_HIGH, _HI_LOW = _pow10_table(_P_MIN, 300)


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """By four-digit group g: its ASCII digits, and the count of D's
    significant digits when g, at place i = 0..3 after D's leading digit,
    is D's last nonzero group (1, the leading digit alone, for g = 0).
    Written into their outputs by broadcasting, so that building them
    leaves no large temporaries on malloc's heap."""
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    codes = 48 + np.arange(10, dtype=np.uint8)
    for j, shape in enumerate([(10, 1, 1, 1), (10, 1, 1), (10, 1), (10,)]):
        digits[..., j] = codes.reshape(shape)
    length = np.zeros((10, 10, 10, 10), np.int8)  # to g's last nonzero digit
    length[1:, 0, 0, 0], length[:, 1:, 0, 0], length[:, :, 1:, 0] = 1, 2, 3
    length[..., 1:] = 4
    length = length.ravel()
    significant = np.ones((4, 10**4), np.int8)
    for place, row in enumerate(significant):
        np.add(length, 1 + 4 * place, out=row, where=length > 0)
    return digits.reshape(10**4, 4), significant


_DIGITS4, _SIGNIFICANT = _group_tables()
# By k + 400: the exponent's sign, hundreds, tens and ones bytes, and the
# layout of a finite nonzero value.
_EXPONENTS = np.frombuffer(b"".join(
    b"%c%03d" % (45 if k < 0 else 43, abs(k)) for k in range(-400, 400)),
    np.uint8).reshape(-1, 4)
_LAYOUT_OF_K = np.array([
    (_SCI2 if abs(k) < 100 else _SCI3) if k < -4 or k >= 17 else k + 4
    for k in range(-400, 400)], np.int16)


def _keep_masks() -> np.ndarray:
    """Keep masks by (negative, layout, significant digits 0..17), a row of
    ``_FIELD`` bools each; the sign is kept where negative, the separator
    always."""
    masks = np.zeros((2, _LAYOUTS, 18, _FIELD), bool)
    nd = np.arange(18)[:, None]
    zone = np.arange(17)
    for layout, m in enumerate(masks.transpose(1, 0, 2, 3)):
        if layout == _ZERO:
            m[..., _PREFIX] = True
        elif layout == _WORD:
            m[..., _INT:_INT + 3] = True
        elif layout < 4:  # k < 0: "0." and -k - 1 zeros, then the digits
            m[..., _PREFIX:_PREFIX + 5 - layout] = True
            m[..., _FRAC:_FRAC + 17] = zone < nd
        else:  # k + 1 integer digits (one in scientific notation)
            last = 0 if layout in (_SCI2, _SCI3) else layout - 4
            m[..., _INT:_INT + last + 1] = True
            m[..., _POINT] = last + 1 < nd[:, 0]
            m[..., _FRAC:_FRAC + 17] = (zone > last) & (zone < nd)
            if layout in (_SCI2, _SCI3):
                m[..., _EXP:_EXP + 5] = True
                m[..., _EXP + 2] = layout == _SCI3
    masks[1, ..., _SIGN] = True
    masks[..., _SEP] = True
    return masks.reshape(-1, _FIELD)


_MASKS = _keep_masks()


def _digits(a: np.ndarray, k: np.ndarray):
    """D = round-half-even(a * 10^(16 - k)) for positive normal a, and
    where its fraction lies within ``TIE_MARGIN`` of a half."""
    i = 16 - _P_MIN - k
    ah, al = _split(a)
    p = a * _HI.take(i)
    hh, hl = _HI_HIGH.take(i), _HI_LOW.take(i)
    e = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    small = e + a * _LO.take(i)
    whole = np.floor(small)
    frac = small - whole
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    return d, np.abs(frac - 0.5) < TIE_MARGIN


def _decimal(x: np.ndarray):
    """D and k of the finite nonzero values of x, 17 significant digits and
    the decimal exponent, Python's own where the fast path cannot vouch for
    them (D = 10^16, k = 0 at 0, inf and nan)."""
    a = np.abs(x)
    fast = (a > _LOW) & (a < _HIGH)
    slow = None if fast.all() else ~fast & np.isfinite(x) & (x != 0.0)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int16)
    i = k - _P_MIN
    hi = _HI.take(i)
    k -= (a < hi) | ((a == hi) & (_LO.take(i) > 0.0))  # |x| < 10^k, exactly
    d, spliced = _digits(a, k)
    off = np.flatnonzero(d >= 10**17)  # |x| >= 10^(k + 1), or a carry
    if off.size:
        k[off] += 1
        d[off], spliced[off] = _digits(a[off], k[off])
        spliced[off] |= (d[off] < 10**16) | (d[off] >= 10**17)
    if slow is not None:
        spliced |= slow
    for j in np.flatnonzero(spliced):
        mantissa, exponent = ("%.16e" % abs(x[j])).split("e")
        d[j], k[j] = int(mantissa.replace(".", "")), int(exponent)
    return d, k


def _put_digits(field: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Write D's 17 digits into both digit zones of the fields; return the
    count of D's significant digits, trailing zeros dropped."""
    head, tail = np.divmod(d, 10**8)
    groups = np.empty((len(d), 4), np.int16)
    lead, groups[:, 1] = np.divmod(head, 10**4)
    groups[:, 0] = lead % 10**4
    groups[:, 2], groups[:, 3] = np.divmod(tail, 10**4)
    field[:, _INT] = field[:, _FRAC] = lead // 10**4 + 48
    digits = _DIGITS4.take(groups, axis=0).reshape(len(d), 16)
    field[:, _INT + 1:_INT + 17] = digits
    field[:, _FRAC + 1:_FRAC + 17] = digits
    nd = _SIGNIFICANT[0].take(groups[:, 0])
    for place in range(1, 4):
        np.maximum(nd, _SIGNIFICANT[place].take(groups[:, place]), out=nd)
    return nd


def _format_block(x: np.ndarray, buf: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The text bytes of the values x (flat, in line order) in the fields
    buf[:len(x)], whose static bytes are already set."""
    field = buf[:len(x)]
    d, k = _decimal(x)
    nd = _put_digits(field, d)
    k += 400
    field[:, _EXP + 1:_EXP + 5] = _EXPONENTS.take(k, axis=0)
    layout = _LAYOUT_OF_K.take(k)
    negative = np.signbit(x)
    if not np.isfinite(x).all() or not x.all():
        layout[x == 0.0] = _ZERO
        for j in np.flatnonzero(~np.isfinite(x)):
            field[j, _INT:_INT + 3] = np.frombuffer(b"%.17g" % abs(x[j]), np.uint8)
            layout[j] = _WORD
        negative &= ~np.isnan(x)  # nan prints unsigned
    code = (negative * _LAYOUTS + layout) * 18 + nd
    keep = mask[:len(x)]
    _MASKS.take(code, axis=0, out=keep, mode="clip")  # clip: unbuffered
    return field.ravel()[keep.ravel()]


def write_rows(f, columns) -> None:
    """Write the lines of the equal-length columns to the binary file f:
    each value as ``format(float(x), ".17g")`` prints it, comma separated,
    each line ending in LF.  Blocks of at most ``BLOCK_VALUES`` values (one
    row when a row has more) are formatted and written in turn, in buffers
    allocated once per table."""
    if not columns or not len(columns[0]):
        return
    cols, rows = len(columns), len(columns[0])
    step = min(rows, max(1, BLOCK_VALUES // cols))
    values = np.empty((step, cols))
    buf = np.empty((step * cols, _FIELD), np.uint8)
    for offset, text in _STATIC.items():
        buf[:, offset:offset + len(text)] = np.frombuffer(text, np.uint8)
    buf.reshape(step, cols, _FIELD)[:, :, _SEP] = ord(",")
    buf.reshape(step, cols, _FIELD)[:, -1, _SEP] = ord("\n")
    mask = np.empty((step * cols, _FIELD), bool)
    for start in range(0, rows, step):
        n = min(step, rows - start)
        for j, c in enumerate(columns):
            values[:n, j] = c[start:start + n]
        f.write(_format_block(values[:n].ravel(), buf, mask))
