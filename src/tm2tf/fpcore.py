"""Emulated binary floating-point formats with round-to-nearest-even.

A format is a finite set of reals parameterized by mantissa and exponent
bit counts. There are no infinities or NaNs: values beyond the largest
finite element saturate. All host-side arithmetic runs in float64, which
is wide enough to hold every element of every supported format exactly
(mantissa_bits <= 52, exponent_bits <= 11).
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
    "parse_precision",
    "round_nearest",
    "round_nearest_info",
    "round_array",
    "is_representable",
    "representables_between",
]


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

    Returns (rounded array, number of saturated elements). Bit-for-bit
    identical to the scalar routine on every element.

    One abs-max reduction does three jobs: NaN propagates through it and
    +-inf reach it, so it finds non-finite inputs; it decides whether any
    element saturates; and when none does, the clamp is skipped, as rounding
    is monotone and max_value is an element, so |x| <= max_value gives
    |y| <= max_value.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return x.copy(), 0
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
