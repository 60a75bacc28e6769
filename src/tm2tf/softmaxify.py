"""Hardmax-to-softmax conversion: query/key scaling and denoising layers.

Scaling queries and keys by c multiplies attention-score separations by
c^2, driving softmax weights toward the hardmax ones. With exact attention
weights a large enough c makes the rounded softmax model token-identical.
When attention weights themselves are rounded, each layer is split in two:
attention plus an error-absorbing MLP that snaps coordinates within 1/4
back onto {-1, 0, 1}, then the original MLP in an attention-free layer.

The error-absorbing MLP denoises only the coordinates that the layer's
heads write, the union of their nonzero W_O rows. Every other coordinate
is exact: attention adds 0.0 to it, so it keeps its value from the layer
below, which is in {-1, 0, 1}, and a denoiser maps such a value to itself.
So the lean denoisers compute what the theorem's 6d-wide ones compute, in
at most its max(d_ff, 6d) width.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .fpcore import PRESETS, FloatFormat, Precision, is_representable
from .gadgets import denoising_neurons, mlp_weights
from .netcore import (
    MODES,
    Dims,
    EvalConfig,
    TransformerParams,
    check_dims,
)
from .weights import HeadEntries, LayerParams

__all__ = [
    "ConversionError",
    "scale_qk",
    "theorem_c",
    "c0_exact_attention",
    "c0_denoising",
    "min_att_exponent_bits",
    "next_pow2_at_least",
    "act_format_containing",
    "convert_with_denoising",
    "convert",
    "eval_config",
]

_CERTIFIED_SOURCES = {"compile_dfa", "compile_cot", "compile_scot", "rope_prefix"}


class ConversionError(ValueError):
    pass


def _require_convertible(params: TransformerParams, c: float) -> list[np.ndarray]:
    """Refuse what the conversion theorems do not cover: a scale c that is
    not positive and finite, a model no certified compiler built, a model
    already converted, or a layer where two heads write one coordinate.
    Returns each layer's (d,) mask of the coordinates its heads write."""
    if not (c > 0 and math.isfinite(c)):
        raise ConversionError(f"c must be a positive finite number, got {c}")
    if params.source not in _CERTIFIED_SOURCES:
        raise ConversionError(
            f"conversion is only certified for compiler output, not source {params.source!r}"
        )
    if params.mode != "hardmax":
        raise ConversionError(
            f"model is already converted (mode {params.mode}); convert its hardmax model"
        )
    d, d_k, d_v = params.dims.d, params.dims.d_k, params.dims.d_v
    masks = []
    for li, layer in enumerate(params.layers):
        heads = layer.parts()[0]
        at, _ = heads.entries()
        head, at = np.divmod(at, (2 * d_k + d_v) * d + d * d_v)
        wo = at >= (2 * d_k + d_v) * d  # the heads' W_O entries
        coord = (at[wo] - (2 * d_k + d_v) * d) // d_v
        # each coordinate a head writes, by coordinate and then head
        coord, head = np.divmod(np.sort(coord * heads.n + head[wo]), max(heads.n, 1))
        again = (coord[1:] == coord[:-1]) & (head[1:] != head[:-1])  # by an earlier head too
        if again.any():
            raise ConversionError(
                f"layer {li} head {head[1:][again].min()} writes coordinates of another head"
            )
        written = np.zeros(d, dtype=bool)
        written[coord] = True
        masks.append(written)
    return masks


def scale_qk(params: TransformerParams, c: float) -> TransformerParams:
    """Scale query/key projections by c; hardmax behavior is unchanged."""
    _require_convertible(params, c)
    return replace(
        params,
        vocab=list(params.vocab),
        meta=dict(params.meta),
        qk_scale=float(c),
        mode="scaled_only",
    )


def c0_exact_attention(d: int, d_ff: int, d_k: int, n_layers: int, context_bound: int) -> float:
    """Scale threshold for token-identical conversion with exact att weights."""
    if min(d, d_ff, d_k, n_layers, context_bound) < 1:
        raise ValueError("all arguments must be >= 1")
    log_term = (
        math.log(16.0 / 6.0)
        + math.log(max(4 * d, 20 * d_k))
        + math.log(context_bound)
        + n_layers * math.log(48 * d * d_ff + 12)
    )
    return math.sqrt(2.0 * math.sqrt(d_k) * log_term)


def c0_denoising(d_k: int, context_bound: int) -> float:
    """Scale threshold when attention weights are rounded and denoised."""
    if d_k < 1 or context_bound < 1:
        raise ValueError("arguments must be >= 1")
    # math.log takes any int; 96.0 * N overflows once N is past float range
    return d_k ** 0.25 * math.sqrt(math.log(96) + math.log(context_bound))


def min_att_exponent_bits(context_bound: int) -> int:
    """Smallest b_e whose subnormal threshold covers attention weights 1/N."""
    if context_bound < 1:
        raise ValueError("context bound must be >= 1")
    need = (context_bound - 1).bit_length()  # ceil(log2 N)
    b_e = 2
    while 2 - 2 ** (b_e - 1) > -need:
        b_e += 1
    return b_e


def next_pow2_at_least(x: float) -> float:
    if x <= 0:
        raise ValueError("x must be positive")
    return 2.0 ** math.ceil(math.log2(x))


def theorem_c(mode: str, dims: Dims, context_bound: int) -> float:
    """The scale c a conversion uses: c0 of its theorem, up to a power of two.

    mode "scaled_only" takes c0_exact_attention (exact attention weights),
    "denoised" takes c0_denoising (rounded attention weights).
    """
    if mode == "scaled_only":
        c0 = c0_exact_attention(dims.d, dims.d_ff, dims.d_k, dims.n_layers, context_bound)
    elif mode == "denoised":
        c0 = c0_denoising(dims.d_k, context_bound)
    else:
        raise ValueError("mode must be scaled_only or denoised")
    return next_pow2_at_least(c0)


def act_format_containing(c: float) -> FloatFormat:
    """Smallest format with 1 mantissa bit and b_e >= 3 that represents c exactly."""
    for b_e in range(3, 12):
        fmt = FloatFormat(1, b_e)
        if is_representable(c, fmt):
            return fmt
    raise ConversionError(f"no supported format with 1 mantissa bit contains {c}")


def convert_with_denoising(params: TransformerParams, c: float) -> TransformerParams:
    """Depth-doubling conversion: attention + denoising MLP, then the MLP.

    Each layer's denoising MLP has 6 rows per coordinate its heads write
    (none for a layer without heads); d_ff becomes max(d_ff, 6 * the most
    coordinates one layer writes), never more than the theorem's
    max(d_ff, 6d). Weight codes stay in {0,+-1,+-2}; the c scale lives on
    query/key projections. Evaluate with `eval_config` to reproduce the
    hardmax tokens; it needs meta["N"], which `convert` sets.
    """
    written = [np.flatnonzero(mask).tolist() for mask in _require_convertible(params, c)]
    dims, d = params.dims, params.dims.d
    widest = max(map(len, written), default=0)
    new_dims = replace(dims, d_ff=max(dims.d_ff, 6 * widest), n_layers=2 * dims.n_layers)
    check_dims(new_dims, len(params.vocab))  # before any layer is built
    # Per layer its heads with their denoisers, then its MLP without heads.
    denoisers = (mlp_weights(denoising_neurons(coords), d) for coords in written)
    no_heads = HeadEntries(0, (d, dims.d_k, dims.d_v), np.zeros(0, np.intp), np.zeros(0, np.int8))
    layers: list[LayerParams] = []
    for layer, denoiser in zip(params.layers, denoisers):
        heads, mlp = layer.parts()
        layers += [LayerParams.held(heads, denoiser), LayerParams.held(no_heads, mlp)]
    out = replace(
        params,
        dims=new_dims,
        vocab=list(params.vocab),
        layers=layers,
        meta=dict(params.meta),
        qk_scale=float(c),
        mode="denoised",
    )
    out.validate_weights()
    return out


def eval_config(params: TransformerParams) -> EvalConfig:
    """The evaluation settings under which the theorem of `params.mode` holds.

    "hardmax": exact hardmax. "scaled_only": softmax attention with bf16
    activations and exact attention weights. "denoised": softmax attention
    with 1-mantissa-bit activations that contain qk_scale and attention
    weights with 4 mantissa bits and enough exponent bits for 1/meta["N"];
    a denoised model without meta["N"] raises ValueError. The settings
    never capture a trace.
    """
    if params.mode == "hardmax":
        return EvalConfig()
    if params.mode == "scaled_only":
        return EvalConfig(attention="softmax", act_precision=Precision(PRESETS["bf16"]))
    if params.mode != "denoised":
        raise ValueError(f"mode must be one of {', '.join(MODES)}, got {params.mode!r}")
    if "N" not in params.meta:
        raise ValueError("a denoised model needs meta.N, the context bound it was converted for")
    return EvalConfig(
        attention="softmax",
        act_precision=Precision(act_format_containing(params.qk_scale)),
        att_precision=Precision(FloatFormat(4, min_att_exponent_bits(params.meta["N"]))),
    )


def convert(
    params: TransformerParams, mode: str, context_bound: int, c: float | None = None
) -> tuple[TransformerParams, EvalConfig]:
    """The model of one conversion mode and its `eval_config`.

    "hardmax": the model itself. "scaled_only": `scale_qk` at c.
    "denoised": `convert_with_denoising` at c. c defaults to `theorem_c`;
    the converted model records context_bound as meta["N"].
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {', '.join(MODES)}")
    if mode == "hardmax":
        return params, EvalConfig()
    if type(context_bound) is not int or context_bound < 1:
        raise ValueError(f"context bound must be an integer >= 1, got {context_bound!r}")
    if c is None:
        c = theorem_c(mode, params.dims, context_bound)
    out = (scale_qk if mode == "scaled_only" else convert_with_denoising)(params, c)
    out.meta["N"] = context_bound
    return out, eval_config(out)
