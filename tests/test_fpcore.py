import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tm2tf.fpcore import (
    EXACT,
    PRESETS,
    TABLE_CAP,
    FloatFormat,
    Precision,
    is_representable,
    parse_precision,
    representables_between,
    round_array,
    round_nearest,
    round_nearest_info,
)


def brute_force_nearest(x: float, fmt: FloatFormat) -> float:
    """Independent oracle: scan the whole format grid around x."""
    lo = -fmt.max_value if x < 0 else 0.0
    hi = fmt.max_value if x > 0 else 0.0
    candidates = representables_between(fmt, min(lo, hi) - 1.0, max(lo, hi) + 1.0)
    best = min(candidates, key=lambda v: (abs(v - x), abs(v)))
    return best


def test_round_quarter_values_exact():
    fmt = FloatFormat(1, 3)
    assert round_nearest(0.75, fmt) == 0.75
    assert round_nearest(-0.75, fmt) == -0.75
    assert round_nearest(0.25, fmt) == 0.25


def test_round_third_bf16():
    # 1/3 in a 7-mantissa-bit format: 1.0101011b * 2^-2 = 171/512
    fmt = PRESETS["bf16"]
    assert round_nearest(1.0 / 3.0, fmt) == 0.333984375
    assert brute_force_nearest(1.0 / 3.0, FloatFormat(4, 4)) == round_nearest(
        1.0 / 3.0, FloatFormat(4, 4)
    )


def test_round_idempotent_on_representables():
    fmt = FloatFormat(3, 4)
    for v in representables_between(fmt, -5.0, 5.0):
        assert round_nearest(v, fmt) == v
        assert is_representable(v, fmt)


def test_normal_range_bf16():
    fmt = PRESETS["bf16"]
    assert fmt.min_normal == 2.0 ** -126
    assert fmt.max_value == (2 - 2.0 ** -7) * 2.0 ** 127


def test_normal_range_tiny_format():
    fmt = FloatFormat(1, 2)
    assert fmt.min_normal == 1.0  # e_min = 0
    assert fmt.max_value == 3.0  # 1.5 * 2^1


@pytest.mark.parametrize("bm,be", [(1, 2), (1, 3), (4, 4), (7, 8), (10, 5)])
def test_max_exceeds_min_normal(bm, be):
    fmt = FloatFormat(bm, be)
    assert fmt.max_value > fmt.min_normal


def test_is_representable_examples():
    assert is_representable(0.0, FloatFormat(1, 2))
    assert is_representable(2.0 ** 10, FloatFormat(1, 5))
    assert not is_representable(1.0 / 3.0, PRESETS["bf16"])
    assert is_representable(1.0 / 3.0, FloatFormat(52, 11))  # fp64 is the host


def test_saturation_flag():
    fmt = FloatFormat(1, 2)  # max 3.0
    val, sat = round_nearest_info(7.5, fmt)
    assert val == 3.0 and sat
    val, sat = round_nearest_info(-128.0, fmt)
    assert val == -3.0 and sat
    val, sat = round_nearest_info(2.9, fmt)
    assert val == 3.0 and not sat
    vec, saturated = round_array(np.array([7.5, -128.0, 2.9, 0.0]), fmt)
    assert vec.tolist() == [3.0, -3.0, 3.0, 0.0] and saturated == 2


def test_round_half_to_even():
    fmt = FloatFormat(2, 4)
    # Grid near 1: 1, 1.25, 1.5, ...; 1.125 is a tie -> even mantissa 1.0
    assert round_nearest(1.125, fmt) == 1.0
    # 1.375 is a tie between 1.25 (odd) and 1.5 (even) -> 1.5
    assert round_nearest(1.375, fmt) == 1.5


def test_subnormal_spacing():
    fmt = FloatFormat(2, 3)  # e_min = -2, subnormal step 2^-4
    assert round_nearest(2.0 ** -4, fmt) == 2.0 ** -4
    assert round_nearest(0.9 * 2.0 ** -4, fmt) == 2.0 ** -4
    assert round_nearest(0.4 * 2.0 ** -4, fmt) == 0.0


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=-1e30, max_value=1e30, allow_nan=False),
    st.sampled_from([(1, 3), (3, 4), (7, 8), (10, 5)]),
)
def test_matches_brute_force_small_formats(x, fmt_bits):
    fmt = FloatFormat(*fmt_bits)
    got, sat = round_nearest_info(x, fmt)
    # Compare against brute force only where the scan is tractable.
    if abs(x) <= 4.0 and fmt.mantissa_bits <= 4:
        want = brute_force_nearest(x, fmt)
        if abs(x - want) != abs(x - got):  # not a tie
            assert got == want
    assert abs(got) <= fmt.max_value
    assert sat == (abs(x) > fmt.max_value)


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=1e-30, max_value=1e30), st.booleans())
def test_relative_error_bound(mag, neg):
    fmt = FloatFormat(4, 8)
    x = -mag if neg else mag
    if not (fmt.min_normal <= abs(x) <= fmt.max_value):
        return
    y = round_nearest(x, fmt)
    assert abs(y - x) <= 2.0 ** (-fmt.mantissa_bits - 1) * abs(x)


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=-64, max_value=64), st.floats(min_value=-0.3, max_value=0.3))
def test_perturbation_doubling(k, y):
    fmt = FloatFormat(3, 5)
    grid = representables_between(fmt, -4.0, 4.0)
    x = grid[abs(k) % len(grid)]
    if abs(x + y) > fmt.max_value:
        return
    assert abs(round_nearest(x + y, fmt) - x) <= 2 * abs(y)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=-100, max_value=100),
    st.floats(min_value=-100, max_value=100),
)
def test_monotonic(a, b):
    fmt = FloatFormat(3, 4)
    lo, hi = min(a, b), max(a, b)
    assert round_nearest(lo, fmt) <= round_nearest(hi, fmt)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-1e20, max_value=1e20))
def test_negation_symmetry(x):
    fmt = FloatFormat(5, 6)
    assert round_nearest(-x, fmt) == -round_nearest(x, fmt)


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(7)
    xs = np.concatenate(
        [
            rng.uniform(-10, 10, 500),
            rng.uniform(-1e-6, 1e-6, 200),
            rng.uniform(-1e6, 1e6, 200),
            np.array([0.0, -0.0, 1.0, -1.0, 0.5, 2.0 ** -20, 3.5e5]),
            np.array([-0.1, -1e-30, -2.0 ** -40, -5e-324]),  # negatives that round to zero
        ]
    )
    for fmt in [
        FloatFormat(1, 2), FloatFormat(1, 3), FloatFormat(4, 5), PRESETS["bf16"], PRESETS["fp16"]
    ]:
        vec, _ = round_array(xs, fmt)
        for x, v in zip(xs, vec):
            # bytes, not ==, so that -0.0 and +0.0 differ
            assert v.tobytes() == np.float64(round_nearest(float(x), fmt)).tobytes(), (x, fmt)


def test_fp64_roundtrip_identity():
    fmt = PRESETS["fp64"]
    rng = np.random.default_rng(3)
    xs = rng.standard_normal(100) * 10.0 ** rng.integers(-30, 30, 100)
    vec, sat = round_array(xs, fmt)
    assert not sat
    assert np.array_equal(vec, xs)


def test_parse_precision():
    assert parse_precision("exact") is EXACT or parse_precision("exact").exact
    assert parse_precision("bf16") == Precision(FloatFormat(7, 8))
    assert parse_precision("custom:3,4") == Precision(FloatFormat(3, 4))
    with pytest.raises(ValueError):
        parse_precision("custom:x,y")
    with pytest.raises(ValueError):
        parse_precision("fp128")


def _elements(fmt: FloatFormat, binades) -> np.ndarray:
    """Positive format elements of the given binades, built from integer
    mantissas: None is the subnormal binade, k the normal binade [2^k, 2^(k+1))."""
    mb = fmt.mantissa_bits
    parts = []
    for k in binades:
        if k is None:
            parts.append(np.ldexp(np.arange(1.0, 2.0 ** mb), fmt.e_min - mb))
        else:
            parts.append(np.ldexp(np.arange(2.0 ** mb, 2.0 ** (mb + 1)), k - mb))
    return np.concatenate(parts)


def _grid_points(fmt: FloatFormat, binades) -> np.ndarray:
    """Every element of the binades, every midpoint between neighbouring
    elements (the ties), both float64 neighbours of each, their negatives,
    and the edge cases of the format and of float64."""
    elems = np.concatenate([[0.0], _elements(fmt, binades)])
    mids = elems[:-1] / 2 + elems[1:] / 2  # exact, and finite next to max_value
    base = np.concatenate([elems, mids])
    pos = np.concatenate([base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf)])
    top = fmt.max_value
    edges = [top, np.nextafter(top, np.inf), 5e-324, 0.0, np.finfo(np.float64).max]
    return np.concatenate([pos, -pos, edges, np.negative(edges)])


def _assert_matches_scalar(xs: np.ndarray, fmt: FloatFormat) -> None:
    """round_array against round_nearest_info, by bytes and per-element
    saturation: the saturated elements count fully, the others not at all.
    The elements that do not saturate are also rounded on their own, as
    one saturating element sends a whole array past a format's table."""
    want = [round_nearest_info(float(x), fmt) for x in xs]
    values = np.array([v for v, _ in want])
    got, saturated = round_array(xs, fmt)
    assert got.tobytes() == values.tobytes(), fmt
    flags = np.array([s for _, s in want])
    assert saturated == np.count_nonzero(flags), fmt
    assert round_array(xs[flags], fmt)[1] == np.count_nonzero(flags), fmt
    inside, saturated = round_array(xs[~flags], fmt)
    assert inside.tobytes() == values[~flags].tobytes() and saturated == 0, fmt


def test_round_array_matches_scalar_on_every_element_and_tie():
    """The formats the conversions evaluate in, enumerated whole: the
    activation formats `act_format_containing` returns and the attention
    formats for context bounds 2 .. 4096."""
    from tm2tf.softmaxify import act_format_containing, min_att_exponent_bits

    formats = {FloatFormat(1, 2)}
    formats |= {act_format_containing(2.0 ** k) for k in range(1024)}
    formats |= {FloatFormat(4, min_att_exponent_bits(2 ** k)) for k in range(1, 13)}
    assert {FloatFormat(1, b) for b in range(3, 12)} <= formats
    for fmt in sorted(formats, key=lambda f: (f.mantissa_bits, f.exponent_bits)):
        _assert_matches_scalar(_grid_points(fmt, [None, *range(fmt.e_min, fmt.e_max + 1)]), fmt)


# bf16 and fp16 round by table; FloatFormat(6, 10), 64 points per binade and
# 130943 elements, is just over TABLE_CAP and takes the scaling rule.
@pytest.mark.parametrize("name", ["bf16", "fp16", "custom:6,10"])
def test_round_array_matches_scalar_on_subnormal_unit_and_top_binades(name):
    fmt = parse_precision(name).fmt
    _assert_matches_scalar(_grid_points(fmt, [None, 0, fmt.e_max]), fmt)


# Formats on both sides of TABLE_CAP: every FloatFormat(m, e) with m <= 6
# (the ones over the cap are (5, 11), (6, 10) and (6, 11)), and presets
# (fp32 is over the cap).
FORMATS_BOTH_SIDES = [FloatFormat(m, e) for m in range(1, 7) for e in range(2, 12)]
FORMATS_BOTH_SIDES += [PRESETS[name] for name in ("bf16", "fp16", "fp32")]


@st.composite
def _format_and_points(draw):
    """A format and an array that mixes values in and out of its range,
    ties between neighbouring elements with their float64 neighbours, +-0,
    float64 subnormals, and +-max_value with its neighbours."""
    fmt = draw(st.sampled_from(FORMATS_BOTH_SIDES))
    mb, top = fmt.mantissa_bits, fmt.max_value

    @st.composite
    def tie(draw):
        # Neighbours a < b: integer mantissas t, t + 1 at step 2^(k - mb),
        # with t >= 2^mb above the subnormal binade and b <= max_value.
        k = draw(st.integers(fmt.e_min, fmt.e_max))
        lo = 0 if k == fmt.e_min else 2 ** mb
        t = draw(st.integers(lo, 2 ** (mb + 1) - (2 if k == fmt.e_max else 1)))
        mid = np.ldexp(float(t), k - mb) / 2 + np.ldexp(float(t + 1), k - mb) / 2
        return float(np.nextafter(mid, draw(st.sampled_from([-np.inf, mid, np.inf]))))

    edges = [top, np.nextafter(top, np.inf), np.nextafter(top, 0.0), 0.0, -0.0]
    point = st.one_of(
        st.floats(-top, top),
        tie(),
        st.sampled_from([float(v) for v in edges]),
        st.floats(-2.0 ** -1022, 2.0 ** -1022),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    signed = st.tuples(point, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])
    return fmt, np.array(draw(st.lists(signed, min_size=1, max_size=24)))


@settings(max_examples=200, deadline=None)
@given(_format_and_points())
def test_round_array_matches_scalar_on_both_sides_of_the_table_cap(case):
    """The table, its fall-back on a sentinel and the scaling rule all give
    the scalar routine's bytes and saturation count."""
    fmt, xs = case
    _assert_matches_scalar(xs, fmt)


def test_the_table_cap_holds_every_format_of_the_theorem():
    """Every activation and attention format of the conversions rounds by
    table, and so do bf16 and fp16; fp32 and fp64 build no table. A later
    edit then neither sends rounded-softmax decoding, the scaled conversion's
    bf16 included, back to the scaling rule nor tries to table a format of
    billions of elements."""
    from tm2tf.softmaxify import act_format_containing, min_att_exponent_bits

    formats = {act_format_containing(2.0 ** k) for k in range(1024)}
    exponent_bits = {min_att_exponent_bits(2 ** k) for k in range(65)}
    formats |= {FloatFormat(4, b) for b in exponent_bits}
    assert max(exponent_bits) == min_att_exponent_bits(2 ** 64)
    for fmt in formats:
        elements, bounds = fmt.round_table
        assert fmt.n_elements <= TABLE_CAP and elements.size == fmt.n_elements + 2, fmt
        assert bounds.size == fmt.n_elements + 1, fmt
    for name in ("bf16", "fp16"):
        elements, bounds = PRESETS[name].round_table
        assert elements.size == PRESETS[name].n_elements + 2, name
    for name in ("fp32", "fp64"):
        assert PRESETS[name].round_table is None, name


def _reference_table(fmt: FloatFormat) -> tuple[np.ndarray, np.ndarray]:
    """`round_table` built in one piece: every element by bit pattern, then
    every midpoint, with each tie the scaling rule rounds down moved up."""
    from tm2tf.fpcore import _round_scaled

    mb = fmt.mantissa_bits
    codes = np.arange(1, (2 ** fmt.exponent_bits - 1) << mb)
    k = np.maximum((codes >> mb) - 1, 0)
    positive = np.ldexp((codes - (k << mb)).astype(np.float64), k + fmt.e_min - mb)
    finite = np.concatenate([-positive[::-1], [0.0], positive])
    mids = finite[:-1] / 2 + finite[1:] / 2
    down = _round_scaled(mids, fmt)[0] < finite[1:]
    bounds = np.where(down, np.nextafter(mids, np.inf), mids)
    elements = np.concatenate([[np.nan], finite, [np.nan]])
    bounds = np.concatenate([[-fmt.max_value], bounds, [np.nextafter(fmt.max_value, np.inf)]])
    return elements, bounds


def test_every_round_table_equals_the_unchunked_build():
    tabled = [fmt for fmt in FORMATS_BOTH_SIDES if fmt.n_elements <= TABLE_CAP]
    assert {PRESETS["bf16"], PRESETS["fp16"]} <= set(tabled)
    for fmt in tabled:
        got, want = fmt.round_table, _reference_table(fmt)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], fmt


@pytest.mark.parametrize("name", ["bf16", "fp16"])
def test_a_table_build_costs_little_more_than_the_table(name, traced_memory):
    """The build writes chunk by chunk into the table: its peak of traced
    memory is the table's bytes plus at most 0.5 MB (a one-piece build of
    bf16 peaks at 3.5 times the table)."""
    fmt = dataclasses.replace(PRESETS[name])  # a new instance, with no table cached yet
    (elements, bounds), _, peak = traced_memory(lambda: fmt.round_table)
    assert peak <= elements.nbytes + bounds.nbytes + 2 ** 19, peak


@pytest.mark.parametrize("fmt", [FloatFormat(1, 2), FloatFormat(2, 3), FloatFormat(3, 4)])
def test_a_round_table_lists_every_element(fmt):
    elements, _ = fmt.round_table
    listed = representables_between(fmt, -fmt.max_value, fmt.max_value)
    assert fmt.n_elements == len(listed)
    assert np.isnan(elements[[0, -1]]).all() and elements[1:-1].tolist() == listed


# Tabled formats, and fp32, which takes the scaling rule alone.
@pytest.mark.parametrize(
    "fmt", [FloatFormat(1, 2), FloatFormat(4, 8), PRESETS["bf16"], PRESETS["fp32"]]
)
@pytest.mark.parametrize("scale", [1.0, 1e300])  # in range for a table, or saturating
@pytest.mark.parametrize("shape", [(), (6, 2, 5)])  # 0-d, and (P*B, H, d)
def test_a_rounded_array_is_new_and_rounding_is_repeatable(fmt, scale, shape):
    x = np.random.default_rng(5).uniform(-3.0, 3.0, shape) * scale
    first, _ = round_array(x, fmt)
    assert first.shape == shape and first.flags.writeable
    assert not np.shares_memory(first, x)
    for array in fmt.round_table or ():
        assert not np.shares_memory(first, array)
    want = first.tobytes()
    first[...] = 7.0
    assert round_array(x, fmt)[0].tobytes() == want


def test_a_cached_table_leaves_the_format_value_alone():
    fmt = FloatFormat(3, 4)
    before = (fmt == FloatFormat(3, 4), hash(fmt), repr(fmt), dataclasses.asdict(fmt))
    round_array(np.array([0.3, -2.5]), fmt)
    assert "round_table" in vars(fmt)
    assert (fmt == FloatFormat(3, 4), hash(fmt), repr(fmt), dataclasses.asdict(fmt)) == before


def test_round_array_keeps_the_shape_of_a_0d_array():
    for x, fmt in ((-0.3, FloatFormat(1, 2)), (1.3, FloatFormat(2, 3)), (7.5, FloatFormat(1, 2))):
        got, saturated = round_array(np.array(x), fmt)
        want, flag = round_nearest_info(x, fmt)
        assert got.shape == () and got.tobytes() == np.float64(want).tobytes()
        assert saturated == flag


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_round_array_refuses_non_finite_inputs(bad):
    fmt = FloatFormat(1, 2)  # max 3.0
    for xs in ([bad], [1.0, bad, -0.5], [7.5, bad, -128.0], [bad, 1e308]):
        with pytest.raises(ValueError):
            round_array(np.array(xs), fmt)


# Each refusal as (call, message).
FPCORE_REFUSALS = {
    "no mantissa bits": (lambda: FloatFormat(0, 5), "mantissa_bits must be >= 1"),
    "one exponent bit": (lambda: FloatFormat(3, 1), "exponent_bits must be >= 2"),
    "mantissa past float64": (lambda: FloatFormat(53, 5), "format exceeds float64 host precision"),
    "exponent past float64": (lambda: FloatFormat(3, 12), "format exceeds float64 host precision"),
    "round inf": (
        lambda: round_nearest_info(float("inf"), FloatFormat(3, 4)),
        "round_nearest requires a finite input",
    ),
    "round nan": (
        lambda: round_nearest_info(float("nan"), FloatFormat(3, 4)),
        "round_nearest requires a finite input",
    ),
}


@pytest.mark.parametrize("case", list(FPCORE_REFUSALS))
def test_fpcore_refuses(case):
    call, message = FPCORE_REFUSALS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
