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

Bytes.  Each value owns a fixed field of 36 bytes, written at static
columns:

    [-][0.000][6 slots of 4 bytes][e+hto][,]

The slots hold "0" and D's 17 digits in three-digit groups, so D's digits
are written once: one ``take`` of a table by ``q * 1000 + group`` gives
each slot's four bytes as one uint32, the group's digits with the decimal
point before its digit q where the layout puts it there (q = 0..2), or
followed by a NUL (q = 3).  A keep mask, one row of a table indexed by
(sign, layout, significant digits), holds 1 for the bytes the value
prints: the digits as one run from D's leading digit, with any point or
NUL inside it.  The mask is multiplied into the fields and
``bytes.translate`` deletes every NUL, which leaves the line text in field
order (``%.17g`` prints no NUL).  The table encodes the ``%g`` rules:
scientific notation iff k < -4 or k >= 17; trailing zeros and a bare point
dropped; an exponent of at least two digits; ``0``, ``-0``, ``inf``,
``-inf`` and ``nan`` (never ``-nan``).  Bools print as 1 and 0.  A block
holds ``BLOCK_VALUES`` values: their fields, reused from block to block,
and a mask of the same size.
"""

from __future__ import annotations

import numpy as np

# Values formatted, and bytes written, per block (one row per block when a
# row has more values): 147 KB of fields.
BLOCK_VALUES = 2**12
# Distance from a half below which a fraction goes to Python's formatter.
# No value of the benchmark workloads' CSVs (seed 1) comes within it or
# lies outside _LOW .. _HIGH.
TIE_MARGIN = 1e-6
# Magnitudes whose digits the two-product takes: 10^(16 - k) and its
# Veltkamp halves stay normal and finite for every k they give.
_LOW, _HIGH = 1e-280, 1e300

# Field byte offsets: the sign, "0.000", six slots of four bytes (a
# three-digit group of "0" and D's 17 digits, with a point or a NUL),
# "e+hto" and the separator; D's leading digit follows the padding "0".
_SIGN, _PREFIX, _SLOTS, _EXP, _SEP = 0, 1, 6, 30, 35
_FIELD = 36
_LEAD = _SLOTS + 1
_STATIC = {_SIGN: b"-", _PREFIX: b"0.000", _EXP: b"e"}

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
    """By slot code q * 1000 + g, for a three-digit group g: the slot's four
    bytes as one uint32, g's digits with a point before digit q (q = 0..2)
    or followed by a NUL (q = 3); and by slot j = 0..5 and g, the count of
    D's significant digits when g is D's last nonzero group (1, the leading
    digit alone, for g = 0)."""
    digits = np.empty((10, 10, 10, 3), np.uint8)
    codes = 48 + np.arange(10, dtype=np.uint8)
    for j, shape in enumerate([(10, 1, 1), (10, 1), (10,)]):
        digits[..., j] = codes.reshape(shape)
    digits = digits.reshape(1000, 3)
    slots = np.zeros((4, 1000, 4), np.uint8)
    for q, slot in enumerate(slots):
        slot[:, :q], slot[:, q + 1:] = digits[:, :q], digits[:, q:]
        slot[:, q] = ord(".") if q < 3 else 0
    g = np.arange(1000)
    last = np.where(g % 10, 2, np.where(g % 100, 1, 0))  # g's last nonzero place
    # Slot j holds digits 3 j - 1 .. 3 j + 1 of D.
    significant = np.where(g > 0, 3 * np.arange(6)[:, None] + last, 1)
    return slots.view(np.uint32).ravel(), significant.astype(np.int8)


_SLOT_BYTES, _SIGNIFICANT = _group_tables()
# By k + 400: the exponent's sign, hundreds, tens and ones bytes, as one
# uint32, and the layout of a finite nonzero value.
_EXPONENTS = np.frombuffer(b"".join(
    b"%c%03d" % (45 if k < 0 else 43, abs(k)) for k in range(-400, 400)),
    np.uint32)
_LAYOUT_OF_K = np.array([
    (_SCI2 if abs(k) < 100 else _SCI3) if k < -4 or k >= 17 else k + 4
    for k in range(-400, 400)], np.int16)


def _point_codes() -> np.ndarray:
    """q * 1000 by slot and layout.  The point follows D's digit k, so it
    comes before digit k + 1, which is digit k + 2 of "0" and D: in slot
    (k + 2) // 3 at place (k + 2) % 3, in fixed notation at k = 0 .. 15 and
    at k = 0 in scientific notation; fixed notation at k = 16 and k < 0 has
    no point among the digits (q = 3)."""
    points = np.full((6, _LAYOUTS), 3 * 1000)
    for layout, k in [(_SCI2, 0), (_SCI3, 0), *((k + 4, k) for k in range(16))]:
        points[(k + 2) // 3, layout] = (k + 2) % 3 * 1000
    return points


_POINTS = _point_codes()


def _keep_masks() -> np.ndarray:
    """Keep masks by (negative, layout, significant digits 0..17), a row of
    ``_FIELD`` bytes, 1 to keep; the sign is kept where negative, the
    separator always.  The digits are kept as one run from D's leading
    digit to the last one printed, so a point among them is kept, and a
    point after them is not."""
    masks = np.zeros((2, _LAYOUTS, 18, _FIELD), np.uint8)
    column = np.arange(_FIELD)
    # By layout: the offset just past each of D's 17 digits, digit i being
    # digit i + 1 of "0" and D.
    slot, place = np.divmod(np.arange(1, 18), 3)
    ends = _SLOTS + 1 + 4 * slot + place + (_POINTS[slot].T // 1000 <= place)
    for layout, m in enumerate(masks.transpose(1, 0, 2, 3)):
        if layout == _ZERO:
            m[..., _PREFIX] = 1
        elif layout == _WORD:
            m[..., _LEAD:_LEAD + 3] = 1
        else:  # the digits to the last significant one, or to D's digit k
            k = 0 if layout in (_SCI2, _SCI3) else layout - 4
            last = np.maximum(np.arange(18), max(k + 1, 1)) - 1
            m[...] = (column >= _LEAD) & (column < ends[layout, last, None])
            if k < 0:  # "0." and -k - 1 zeros
                m[..., _PREFIX:_PREFIX + 1 - k] = 1
            elif layout in (_SCI2, _SCI3):
                m[..., _EXP:_SEP] = 1
                m[..., _EXP + 2] = layout == _SCI3
    masks[1, ..., _SIGN] = 1
    masks[..., _SEP] = 1
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
    del ah, al, hh, hl  # freed early: a block's temporaries set the peak
    small = e + a * _LO.take(i)
    del e
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


def _put_digits(field: np.ndarray, d: np.ndarray, layout: np.ndarray) -> np.ndarray:
    """Write "0" and D's 17 digits, and the point the layout puts among
    them, into the fields' slots; return the count of D's significant
    digits, trailing zeros dropped.  D's array is overwritten."""
    groups = np.empty((6, len(d)), np.int64)
    head = d // 10**9
    d -= head * 10**9
    for rest, group in ((head, groups[:3]), (d, groups[3:])):  # nine digits
        np.floor_divide(rest, 10**6, out=group[0])
        rest -= group[0] * 10**6
        np.floor_divide(rest, 1000, out=group[1])
        np.subtract(rest, group[1] * 1000, out=group[2])
    del head
    nd = np.ones(len(d), np.int8)
    for j, row in enumerate(groups):
        np.maximum(nd, _SIGNIFICANT[j].take(row), out=nd)
        row += _POINTS[j].take(layout)
    # The fields' slots as unaligned uint32s: one store a slot.
    slots = np.ndarray(groups.shape, np.uint32, field, _SLOTS, (4, _FIELD))
    slots[:] = _SLOT_BYTES.take(groups)
    return nd


def _format_block(x: np.ndarray, field: np.ndarray) -> bytes:
    """The text bytes of the values x (flat, in line order) in the fields
    field[:len(x)], whose static bytes are already set."""
    field = field[:len(x)]
    d, k = _decimal(x)
    k += 400
    layout = _LAYOUT_OF_K.take(k)
    nd = _put_digits(field, d, layout)
    # The fields' exponent bytes as one unaligned uint32 each: one store.
    exponents = np.ndarray(len(x), np.uint32, field, _EXP + 1, (_FIELD,))
    exponents[:] = _EXPONENTS.take(k)
    negative = np.signbit(x)
    if not np.isfinite(x).all() or not x.all():
        layout[x == 0.0] = _ZERO
        for j in np.flatnonzero(~np.isfinite(x)):
            field[j, _LEAD:_LEAD + 3] = np.frombuffer(b"%.17g" % abs(x[j]), np.uint8)
            layout[j] = _WORD
        negative &= ~np.isnan(x)  # nan prints unsigned
    keep = _MASKS.take((negative * _LAYOUTS + layout) * 18 + nd, axis=0)
    np.multiply(keep, field, out=keep)
    text = keep.tobytes()
    del keep  # freed before translate allocates its output
    return text.translate(None, b"\0")  # %.17g prints no NUL


def write_rows(f, columns) -> None:
    """Write the lines of the equal-length columns to the binary file f:
    each value as ``format(float(x), ".17g")`` prints it, comma separated,
    each line ending in LF.  Blocks of at most ``BLOCK_VALUES`` values (one
    row when a row has more) are formatted and written in turn, their
    fields in one buffer allocated per table."""
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
    for start in range(0, rows, step):
        n = min(step, rows - start)
        for j, c in enumerate(columns):
            values[:n, j] = c[start:start + n]
        f.write(_format_block(values[:n].ravel(), buf))
