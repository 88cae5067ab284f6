"""The CSV text writer: every byte as ``format(x, ".17g")`` prints it, on
every float64 bit pattern and bool, in blocks of bounded memory."""

import io
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from riccilab import csvtext
from riccilab.harness import _fmt, _write_csv


def text(columns) -> str:
    f = io.BytesIO()
    csvtext.write_rows(f, columns)
    return f.getvalue().decode("ascii")


def expected(columns) -> str:
    return "".join(",".join(_fmt(x) for x in row) + "\n"
                   for row in zip(*(c.tolist() for c in columns)))


def from_bits(bits: int) -> float:
    return float(np.array(bits, np.uint64).view(np.float64))


# Every float64: hypothesis' floats (subnormals, +-0, +-inf, nan) and raw
# bit patterns, which give nan with either sign bit and every exponent.
FLOATS = st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(from_bits))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), kinds=st.lists(st.booleans(), min_size=1, max_size=5),
       rows=st.integers(0, 30))
def test_rows_match_format_17g_on_any_float_and_bool(data, kinds, rows):
    columns = [np.array(data.draw(st.lists(st.booleans() if flag else FLOATS,
                                           min_size=rows, max_size=rows)),
                        bool if flag else float)
               for flag in kinds]
    assert text(columns) == expected(columns)


def test_tables_of_several_blocks_one_row_and_no_rows(tmp_path):
    rng = np.random.default_rng(5)
    cols = 7
    rows = 3 * (csvtext.BLOCK_VALUES // cols) + 5
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
               for _ in range(cols - 1)] + [np.arange(rows) % 2 == 0]
    assert text(columns) == expected(columns)
    one = [c[:1] for c in columns]
    assert text(one) == expected(one) and text(one).count("\n") == 1
    _write_csv(tmp_path / "empty.csv", ["a", "b"], [c[:0] for c in columns[:2]])
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"
    _write_csv(tmp_path / "none.csv", ["a"], [])
    assert (tmp_path / "none.csv").read_bytes() == b"a\n"


def test_row_wider_than_a_block_is_one_block():
    row = [np.array([float(j) / 7.0]) for j in range(csvtext.BLOCK_VALUES + 3)]
    assert text(row) == expected(row)


def test_exact_ties_round_half_to_even():
    # m / 8 for odd m near 1.2e15 has 15 integer digits and 3 decimals, so
    # its 18th significant digit is an exact 5: .125 and .625 round down to
    # an even 17th digit, .375 and .875 up.
    m = np.arange(1_200_000_000_000_001, 1_200_000_000_000_001 + 4000, 2)
    x = m / 8.0
    assert np.all(x * 8.0 == m)
    lines = text([x, -x]).splitlines()
    assert lines == expected([x, -x]).splitlines()
    last = np.array([int(line.split(",")[0][-1]) for line in lines])
    assert np.all(last % 2 == 0)
    assert set(last[m % 8 == 1]) == {2} and set(last[m % 8 == 3]) == {8}


def test_powers_of_ten_and_the_notation_switch():
    powers = np.array([float(f"1e{p}") for p in range(-323, 309)]
                      + [1e16 + 2.0, 1e16 - 2.0, 1e17, 1e-4, 1e-5, 9.9999e-5,
                         99999999999999999.0, 0.5e-4, 1.0, 10.0])
    with np.errstate(over="ignore"):
        near = [np.nextafter(np.nextafter(powers, s), s)
                for s in (0.0, -np.inf, np.inf)]
        near += [np.nextafter(powers, s) for s in (0.0, np.inf)]
    columns = [np.concatenate([powers, *near])]
    out = text(columns)
    assert out == expected(columns)
    lines = out.splitlines()
    assert lines[16 + 323] == "10000000000000000" and lines[17 + 323] == "1e+17"
    assert "0.0001" in lines and "1.0000000000000001e-05" in lines


def test_signed_zero_infinities_and_nan_of_either_sign():
    nan_bits = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                0xFFF0000000000001]
    x = np.array([0.0, -0.0, np.inf, -np.inf] + [from_bits(b) for b in nan_bits])
    assert np.signbit(x).tolist() == [False, True, False, True,
                                      False, True, False, True]
    assert text([x]) == "0\n-0\ninf\n-inf\nnan\nnan\nnan\nnan\n"
    assert text([x == 0.0]) == "1\n1\n0\n0\n0\n0\n0\n0\n"


def layout_code(s: str):
    """The (sign, layout, significant digits) a ``%.17g`` string shows: the
    layout is fixed notation at decimal exponent k, scientific notation
    with a two- or three-digit exponent, zero, inf or nan."""
    sign, body = ("-", s[1:]) if s.startswith("-") else ("", s)
    if body in ("inf", "nan") or float(body) == 0.0:
        return sign, body if body in ("inf", "nan") else "zero", 0
    mantissa, _, exponent = body.partition("e")
    digits = mantissa.replace(".", "").lstrip("0").rstrip("0")
    if exponent:
        layout = ("sci", len(exponent) - 1)
    elif body.startswith("0."):
        layout = ("fixed", -1 - (len(mantissa) - 2 - len(mantissa[2:].lstrip("0"))))
    else:
        layout = ("fixed", len(mantissa.partition(".")[0]) - 1)
    return sign, layout, len(digits)


# Every code %.17g can print: either sign with fixed notation at k = -4 ..
# 16 or a two- or three-digit exponent, and 1 .. 17 significant digits;
# zero and inf of either sign; nan unsigned.
REACHABLE = {(sign, layout, nd) for sign in ("", "-")
             for layout in [("fixed", k) for k in range(-4, 17)]
             + [("sci", 2), ("sci", 3)] for nd in range(1, 18)}
REACHABLE |= {(sign, word, 0) for sign in ("", "-") for word in ("zero", "inf")}
REACHABLE |= {("", "nan", 0)}


def test_every_layout_code_is_printed_across_block_boundaries():
    # A value per reachable code, found by printing decimal strings of nd
    # digits at each exponent and reading back the code %.17g shows.
    rng = np.random.default_rng(7)
    found = {layout_code(format(x, ".17g")): x
             for x in (0.0, -0.0, np.inf, -np.inf, np.nan)}
    exponents = list(range(-4, 17)) + [-5, 17, -42, 42, -99, 99,
                                       -150, 150, -307, 300]
    for k in exponents:
        for nd in range(1, 18):
            for _ in range(200):
                digits = "".join(map(str, rng.integers(1, 10, nd)))
                x = float(f"{digits[0]}.{digits[1:]}e{k}")
                for value in (x, -x):
                    found.setdefault(layout_code(format(value, ".17g")), value)
                if (("", ("fixed", k) if -4 <= k <= 16 else
                     ("sci", 3 if abs(k) >= 100 else 2), nd) in found):
                    break
    assert set(found) == REACHABLE
    values = np.array(list(found.values()))
    for cols in (1, 3):
        step = csvtext.BLOCK_VALUES // cols
        for rows in (step - 1, step, step + 1):
            flat = np.resize(values, rows * cols)
            columns = [flat[j::cols] for j in range(cols)]
            assert text(columns) == expected(columns)


def test_writer_peak_memory_is_one_block():
    # 6251 rows of 18 columns, the size of the round-sphere data.csv of the
    # homogeneous benchmark.  Formatting 1024 rows at a time by a %-template
    # peaks at 1.0-1.4 MB traced on such a table; block buffers of 2^12
    # values keep this writer at 0.8 MB.
    rng = np.random.default_rng(2)
    columns = [rng.standard_normal(6251) for _ in range(18)]
    f = io.BytesIO()
    f.write(bytes(8 * 2**20))  # the file's own growth is not the writer's
    f.seek(0)
    tracemalloc.start()
    try:
        csvtext.write_rows(f, columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.tell() > 6251 * 18 * 18
    assert peak < 1_000_000, peak
