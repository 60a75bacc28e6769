"""Emulated binary floating-point formats with round-to-nearest-even.

A format is a finite set of reals parameterized by mantissa and exponent
bit counts. There are no infinities or NaNs: values beyond the largest
finite element saturate. All host-side arithmetic runs in float64, which
is wide enough to hold every element of every supported format exactly
(mantissa_bits <= 52, exponent_bits <= 11).

`round_array` has two paths. The scaling rule (frexp, ldexp, rint) rounds
in any format. A format of at most TABLE_CAP = 2^16 elements, which holds
every format the conversions evaluate in and bf16 and fp16, also keeps a
table of its elements and the rounding bounds between them, and rounds an
array by one binary search per element. The table's ties were decided by
the scaling rule when it was built, so there is one rounding rule and the
table is its cache. fp32 and fp64 are over the cap and keep the scaling
rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "FloatFormat",
    "Precision",
    "EXACT",
    "PRESETS",
    "TABLE_CAP",
    "parse_precision",
    "round_nearest",
    "round_nearest_info",
    "round_array",
    "is_representable",
    "representables_between",
]


# The most elements a format may have to round by table lookup. Every
# activation format of the conversions, FloatFormat(1, b) for b <= 11
# (at most 8187 elements), every attention format FloatFormat(4,
# min_att_exponent_bits(N)) for N <= 2^64 (at most 8159), bf16 (65279) and
# fp16 (63487) fit; bf16's table is two arrays of 0.5 MB each. fp32 (over
# 2^32 elements) keeps the scaling rule.
TABLE_CAP = 2 ** 16

# Elements per chunk of a table build. The build writes each chunk straight
# into the table, so it holds the table plus a few arrays of this length.
_TABLE_CHUNK = 2 ** 12


@dataclass(frozen=True)
class FloatFormat:
    mantissa_bits: int  # b_m >= 1
    exponent_bits: int  # b_e >= 2

    def __post_init__(self) -> None:
        if self.mantissa_bits < 1:
            raise ValueError("mantissa_bits must be >= 1")
        if self.exponent_bits < 2:
            raise ValueError("exponent_bits must be >= 2")
        if self.mantissa_bits > 52 or self.exponent_bits > 11:
            raise ValueError("format exceeds float64 host precision")

    # Derived exponent bounds, e_min = 2 - 2^(b_e-1), e_max = 2^(b_e-1) - 1.
    # Each derived value is computed on first use and kept on the instance;
    # equality and hashing read only the two fields.
    @cached_property
    def e_min(self) -> int:
        return 2 - 2 ** (self.exponent_bits - 1)

    @cached_property
    def e_max(self) -> int:
        return 2 ** (self.exponent_bits - 1) - 1

    @cached_property
    def min_normal(self) -> float:
        return math.ldexp(1.0, self.e_min)

    @cached_property
    def max_value(self) -> float:
        return (2.0 - math.ldexp(1.0, -self.mantissa_bits)) * math.ldexp(1.0, self.e_max)

    @cached_property
    def min_subnormal(self) -> float:
        return math.ldexp(1.0, self.e_min - self.mantissa_bits)

    @cached_property
    def n_elements(self) -> int:
        """Number of elements: on each side of 0, 2^b_e - 1 binades of
        2^b_m values (the subnormal binade's first value is 0 itself)."""
        return 2 * ((2 ** self.exponent_bits - 1) << self.mantissa_bits) - 1

    @cached_property
    def round_table(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(elements, bounds) for rounding by lookup, or None for a format
        of more than TABLE_CAP elements. Read-only.

        x rounds to elements[bounds.searchsorted(x, "right")]. elements
        holds the format's elements in ascending order between two NaN
        sentinels. Between two neighbouring elements the bound is their
        midpoint, or the next float64 above it where the scaling rule
        rounds that tie down. The outer bounds are -max_value and the next
        float64 above max_value, so NaN, +-inf and every saturating value
        meet a sentinel.

        The table is built in chunks of _TABLE_CHUNK elements, so building
        it takes little more memory than the table itself.
        """
        if self.n_elements > TABLE_CAP:
            return None
        n, mb = self.n_elements, self.mantissa_bits
        elements = np.empty(n + 2)
        bounds = np.empty(n + 1)
        elements[0] = elements[-1] = np.nan
        bounds[0], bounds[-1] = -self.max_value, np.nextafter(self.max_value, np.inf)
        for start in range(0, n, _TABLE_CHUNK):
            stop = min(start + _TABLE_CHUNK, n)
            # The chunk's elements and the one after it, whose midpoint with
            # the chunk's last element is the chunk's last bound, by signed
            # bit pattern: |codes| = (E << b_m) | f is f * 2^(e_min - b_m) for
            # E = 0 (subnormal), else (2^b_m + f) * 2^(E - 1 + e_min - b_m).
            codes = np.arange(start, min(stop + 1, n)) - n // 2
            magnitude = np.abs(codes)
            k = np.maximum((magnitude >> mb) - 1, 0)
            significand = np.sign(codes) * (magnitude - (k << mb))
            finite = np.ldexp(significand.astype(np.float64), k + self.e_min - mb)
            elements[1 + start:1 + stop] = finite[:stop - start]
            mids = bounds[1 + start:start + finite.size]
            np.divide(finite[:-1], 2, out=mids)
            mids += finite[1:] / 2  # exact, and finite next to max_value
            down = _round_scaled(mids, self)[0] < finite[1:]
            np.nextafter(mids, np.inf, out=mids, where=down)
        elements.setflags(write=False)
        bounds.setflags(write=False)
        return elements, bounds


@dataclass(frozen=True)
class Precision:
    """Either exact host arithmetic (fmt is None) or a finite format."""

    fmt: FloatFormat | None = None

    @property
    def exact(self) -> bool:
        return self.fmt is None

    def __str__(self) -> str:
        if self.fmt is None:
            return "exact"
        return f"custom:{self.fmt.mantissa_bits},{self.fmt.exponent_bits}"


EXACT = Precision()

PRESETS: dict[str, FloatFormat] = {
    "bf16": FloatFormat(7, 8),
    "fp16": FloatFormat(10, 5),
    "fp32": FloatFormat(23, 8),
    "fp64": FloatFormat(52, 11),
}


def parse_precision(name: str) -> Precision:
    """Parse "exact", a preset name, or "custom:<b_m>,<b_e>"."""
    name = name.strip()
    if name == "exact":
        return EXACT
    if name in PRESETS:
        return Precision(PRESETS[name])
    if name.startswith("custom:"):
        try:
            bm_str, be_str = name[len("custom:"):].split(",")
            return Precision(FloatFormat(int(bm_str), int(be_str)))
        except ValueError as exc:
            raise ValueError(f"bad custom format spec {name!r}") from exc
    raise ValueError(f"unknown precision {name!r}")


def round_nearest_info(x: float, fmt: FloatFormat) -> tuple[float, bool]:
    """Round x to the nearest format element, ties to even.

    Returns (value, saturated). Saturation means |x| exceeded the largest
    finite element and the result was clamped to it; the compiled-model
    constructions never produce such values, so a set flag indicates a bug
    in whatever produced x.
    """
    if math.isinf(x) or math.isnan(x):
        raise ValueError("round_nearest requires a finite input")
    if x == 0.0:
        return 0.0, False
    saturated = abs(x) > fmt.max_value
    if saturated:
        return math.copysign(fmt.max_value, x), True
    _, e = math.frexp(x)  # x = m * 2^e with 0.5 <= |m| < 1
    eff = min(max(e - 1, fmt.e_min), fmt.e_max)
    # Scale so the grid step becomes 1; both scalings are exact powers of 2.
    # |x| <= max_value, an element, so the rounded value needs no clamp.
    n = math.ldexp(x, fmt.mantissa_bits - eff)
    return math.ldexp(round(n), eff - fmt.mantissa_bits), False


def round_nearest(x: float, fmt: FloatFormat) -> float:
    return round_nearest_info(x, fmt)[0]


def round_array(x: np.ndarray, fmt: FloatFormat) -> tuple[np.ndarray, int]:
    """Vectorized round_nearest over a float64 array.

    Returns (rounded array, number of saturated elements): a new array of
    x's shape, bit-for-bit identical to the scalar routine on every element.

    A format of at most TABLE_CAP (2^16) elements, bf16 and fp16 among
    them, rounds by its `round_table`, whose ties the scaling rule decided:
    one search, one gather and one max, which NaN passes. If the max is NaN,
    an element met a sentinel, as it saturates or is not finite, and the
    scaling rule rounds the array again, so that it counts the saturations
    and refuses non-finite input. A format over the cap (fp32, fp64) takes
    the scaling rule alone.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return x.copy(), 0
    table = fmt.round_table
    if table is not None:
        elements, bounds = table
        y = elements[bounds.searchsorted(x, "right")]
        top = np.maximum.reduce(y, axis=None)
        if top == top:  # not NaN: no element met a sentinel
            return np.asarray(y), 0  # a 0-d x indexes a numpy scalar
    return _round_scaled(x, fmt)


def _round_scaled(x: np.ndarray, fmt: FloatFormat) -> tuple[np.ndarray, int]:
    """The scaling rule of `round_array`, for a non-empty float64 array.

    One abs-max reduction does three jobs: NaN propagates through it and
    +-inf reach it, so it finds non-finite inputs; it decides whether any
    element saturates; and when none does, the clamp is skipped, as rounding
    is monotone and max_value is an element, so |x| <= max_value gives
    |y| <= max_value.
    """
    scalar = x.ndim == 0  # frexp of a 0-d array gives scalars, which take no out=
    if scalar:
        x = x.reshape(1)
    max_value = fmt.max_value
    magnitude = np.abs(x)
    top = magnitude.max()
    saturated = 0
    if not top <= max_value:
        if not np.isfinite(top):
            raise ValueError("round_array requires finite inputs")
        saturated = int(np.count_nonzero(magnitude > max_value))
        x = np.maximum(x, -max_value)
        np.minimum(x, max_value, out=x)  # +-max_value round to themselves
    # With x = m * 2^e (0.5 <= |m| < 1) and |x| <= max_value, the grid step
    # is 2^(eff - mantissa_bits), eff = max(e - 1, e_min) <= e_max; scale it
    # to 1 by 2^shift, shift = min(mantissa_bits + 1 - e, mantissa_bits - e_min).
    _, shift = np.frexp(x)
    np.subtract(fmt.mantissa_bits + 1, shift, out=shift)
    np.minimum(shift, fmt.mantissa_bits - fmt.e_min, out=shift)
    y = np.ldexp(x, shift)
    np.rint(y, out=y)  # ties to even, as round() in the scalar routine
    np.negative(shift, out=shift)
    np.ldexp(y, shift, out=y)  # both scalings are exact powers of 2
    y += 0.0  # -0.0 becomes +0.0, as round_nearest_info gives
    return (y.reshape(()) if scalar else y), saturated


def is_representable(x: float, fmt: FloatFormat) -> bool:
    return abs(x) <= fmt.max_value and round_nearest(x, fmt) == x


def representables_between(fmt: FloatFormat, lo: float, hi: float) -> list[float]:
    """All format elements in [lo, hi], ascending. Intended for small formats."""
    if lo > hi:
        return []
    out: set[float] = set()
    if lo <= 0.0 <= hi:
        out.add(0.0)
    step = fmt.min_subnormal
    for t in range(1, 2 ** fmt.mantissa_bits):
        for v in (t * step, -t * step):
            if lo <= v <= hi:
                out.add(v)
    for kappa in range(fmt.e_min, fmt.e_max + 1):
        base = math.ldexp(1.0, kappa)
        if base > max(abs(lo), abs(hi)) * 2:
            break
        for t in range(2 ** fmt.mantissa_bits):
            v = (1.0 + math.ldexp(t, -fmt.mantissa_bits)) * base
            if lo <= v <= hi:
                out.add(v)
            if lo <= -v <= hi:
                out.add(-v)
    return sorted(out)
