"""Transformer parameters and the exact evaluation engine.

Weights are stored as small-integer codes in {0,+-1,+-2}; query/key
projections additionally carry one shared positive scale c (1 for plain
hardmax constructions). Evaluation is causal and incremental: positions
are appended to cached keys and values, so autoregressive generation never
recomputes a prefix; a prefix, once run, never changes.
Hardmax decisions compare raw integer dot products, sidestepping the
1/sqrt(d_k) division.

A step runs P new positions of B equal-length sequences through each layer
at once: one fused Q/K/V matmul, one KV cache of shape (positions, B*H,
d_k + d_v), causally masked attention for all heads, one (d, H*d_v) output
matmul, and one rounding call per quantity. The Q/K/V, output and W1
matmuls gather only the live input coordinates, those with a nonzero
weight, and multiply float64 weights cut from the int8 codes on those rows
alone. Where every order-dependent sum is exact (no rotary positions, and
hardmax or rounded softmax whose formats pass `sum_bits`) a whole block of
known tokens is one step, which is what lets generation verify a draft of
expected tokens in one pass; there a block row's softmax denominator sums
its own keys as a one-position step does. Every other model steps one
position at a time, so its rounding is that of plain incremental
decoding. The trace holds one array per quantity whose first axis is
position, with a (B,) axis after it for a batch: (P, H, .) for q, k, v and
o, (P, H, P) for the causally masked dots, (P, H) for att_err, (P, d) or
(P, m) for y, x_mid, hidden and x_out. They are views into buffers that
grow with the KV cache.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

from .fpcore import EXACT, FloatFormat, Precision, round_array

__all__ = [
    "MODES",
    "Dims",
    "check_dims",
    "HeadParams",
    "LayerParams",
    "BinaryAbsolute",
    "RotaryOnly",
    "NoPositional",
    "TransformerParams",
    "EvalConfig",
    "ActivationTrace",
    "EvalError",
    "hardmax_weights",
    "softmax_weights",
    "separation",
    "rope_rotate",
    "sum_bits",
    "Evaluator",
    "forward",
    "next_token",
    "params_to_json",
    "params_from_json",
]


class EvalError(RuntimeError):
    pass


# What a model is: compiled for hardmax, or the output of one of the two
# softmax conversions; `softmaxify.eval_config` maps each to the settings
# the model is evaluated with.
MODES = ("hardmax", "scaled_only", "denoised")


@dataclass(frozen=True)
class Dims:
    d: int
    d_k: int
    d_v: int
    d_ff: int
    n_heads: int
    n_layers: int


# The most weight entries dims may imply (n_layers layers of n_heads heads
# and d_ff MLP rows, plus emb and unemb): about 35 times the denoised
# bouncer8 CoT r=10 model, and ten times that model at the theorem's width
# of 6d denoising rows per layer, so that neither a few bytes of JSON nor a
# large r can ask for a huge allocation.
MAX_DIMS_ENTRIES = 2 ** 28


def check_dims(dims: Dims, n_vocab: int) -> None:
    """Integer dims >= 0 whose weights, for a vocabulary of n_vocab tokens,
    fit MAX_DIMS_ENTRIES entries. Compilers call it before they build,
    the loader before it allocates, and `validate_weights` on every model."""
    for name, value in vars(dims).items():
        if type(value) is not int or value < 0:
            raise ValueError(f"dims.{name} must be an integer >= 0, got {value!r}")
    per_layer = dims.n_heads * 2 * (dims.d_k + dims.d_v) * dims.d + dims.d_ff * (2 * dims.d + 1)
    if dims.n_layers * per_layer + 2 * n_vocab * dims.d > MAX_DIMS_ENTRIES:
        raise ValueError(f"dims imply more than {MAX_DIMS_ENTRIES} weight entries")


@dataclass
class HeadParams:
    wq: np.ndarray  # (d_k, d)
    wk: np.ndarray  # (d_k, d)
    wv: np.ndarray  # (d_v, d)
    wo: np.ndarray  # (d, d_v)


@dataclass
class LayerParams:
    heads: list[HeadParams]  # the <= n_heads heads built
    w1: np.ndarray  # (m, d) for the m <= d_ff neurons built
    bias4: np.ndarray  # (m,) numerators of quarter-integer biases
    w2: np.ndarray  # (d, m)


@dataclass(frozen=True)
class BinaryAbsolute:
    r: int
    coords: tuple[int, ...]  # registers receiving bin_r(i), LSB first


@dataclass(frozen=True)
class RotaryOnly:
    freqs: tuple[float, ...]  # rotates query/key coordinate pairs (2s, 2s+1)


@dataclass(frozen=True)
class NoPositional:
    pass


@dataclass
class TransformerParams:
    dims: Dims
    vocab: list[str]
    emb: np.ndarray  # (|V|, d) ternary
    unemb: np.ndarray  # (|V|, d) ternary
    positional: BinaryAbsolute | RotaryOnly | NoPositional
    layers: list[LayerParams]
    qk_scale: float = 1.0
    source: str = ""  # which compiler produced this
    mode: str = "hardmax"  # one of MODES
    meta: dict = field(default_factory=dict)  # r; N, the context bound converted for

    @cached_property
    def _token_ids(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.vocab)}

    def token_index(self, tok: str) -> int:
        try:
            return self._token_ids[tok]
        except KeyError:
            raise EvalError(f"token {tok!r} not in vocabulary") from None

    def validate_weights(self) -> None:
        """Check the model contract: dims that pass `check_dims`, a
        vocabulary of unique strings, ternary embeddings and attention
        weights, MLP codes in {0,+-1,+-2}, biases in [-d-1, d+1], a
        positive finite qk_scale, a string source, a mode in MODES, a dict
        meta whose N and r are integers >= 1 if present (r equal to a
        binary positional's r), at most d_k // 2 finite rotary
        frequencies, and every shape within the dims budgets (n_layers
        layers, at most n_heads heads and d_ff MLP rows each).
        This is the one place that states the contract; builders and
        loaders call it."""
        dims, d, n_vocab = self.dims, self.dims.d, len(self.vocab)
        check_dims(dims, n_vocab)
        if not all(isinstance(t, str) for t in self.vocab):
            raise ValueError("vocabulary tokens must be strings")
        if len(set(self.vocab)) != n_vocab:
            raise ValueError("vocabulary tokens must be unique")
        if type(self.source) is not str:
            raise ValueError(f"source must be a string, got {self.source!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")
        if type(self.meta) is not dict:
            raise ValueError(f"meta must be an object, got {self.meta!r}")
        for key in ("N", "r"):
            if key in self.meta and (type(self.meta[key]) is not int or self.meta[key] < 1):
                raise ValueError(f"meta.{key} must be an integer >= 1, got {self.meta[key]!r}")
        pos = self.positional
        if isinstance(pos, BinaryAbsolute):
            if type(pos.r) is not int or pos.r < 1:
                raise ValueError(f"positional r must be an integer >= 1, got {pos.r!r}")
            if len(pos.coords) != pos.r or len(set(pos.coords)) != pos.r:
                raise ValueError(f"positional coordinates must be {pos.r} distinct registers")
            if not all(type(c) is int and 0 <= c < d for c in pos.coords):
                raise ValueError(f"positional coordinates must be integers in [0, {d})")
            if self.meta.get("r", pos.r) != pos.r:
                raise ValueError(f"meta.r = {self.meta['r']} but positional.r = {pos.r}")
        if isinstance(pos, RotaryOnly):
            if not all(type(f) is float and math.isfinite(f) for f in pos.freqs):
                raise ValueError("rotary frequencies must be finite floats")
            if len(pos.freqs) > dims.d_k // 2:
                raise ValueError(
                    f"{len(pos.freqs)} rotary frequencies, more than the "
                    f"d_k // 2 = {dims.d_k // 2} coordinate pairs"
                )
        if len(self.layers) != dims.n_layers:
            raise ValueError(f"{len(self.layers)} layers but dims.n_layers = {dims.n_layers}")
        # (name, array, shape, largest absolute code)
        arrays = [("emb", self.emb, (n_vocab, d), 1), ("unemb", self.unemb, (n_vocab, d), 1)]
        for li, layer in enumerate(self.layers):
            m = layer.bias4.size
            if len(layer.heads) > dims.n_heads or m > dims.d_ff:
                raise ValueError(
                    f"layer {li} has {len(layer.heads)} heads and {m} MLP rows, "
                    f"over the budgets n_heads = {dims.n_heads}, d_ff = {dims.d_ff}"
                )
            for hi, h in enumerate(layer.heads):
                arrays += [
                    (f"layer {li} head {hi} wq", h.wq, (dims.d_k, d), 1),
                    (f"layer {li} head {hi} wk", h.wk, (dims.d_k, d), 1),
                    (f"layer {li} head {hi} wv", h.wv, (dims.d_v, d), 1),
                    (f"layer {li} head {hi} wo", h.wo, (d, dims.d_v), 1),
                ]
            arrays += [
                (f"layer {li} w1", layer.w1, (m, d), 2),
                (f"layer {li} bias4", layer.bias4, (m,), 4 * (d + 1)),
                (f"layer {li} w2", layer.w2, (d, m), 2),
            ]
        for name, a, shape, bound in arrays:
            if a.shape != shape:
                raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
            # min/max, not abs: np.abs wraps at the dtype minimum (int8 -128)
            if a.min(initial=0) < -bound or a.max(initial=0) > bound:
                raise ValueError(f"{name} codes must lie in [-{bound}, {bound}]")
        if not (self.qk_scale > 0 and math.isfinite(self.qk_scale)):
            raise ValueError(f"qk_scale must be positive and finite, got {self.qk_scale}")


@dataclass(frozen=True)
class EvalConfig:
    attention: str = "hardmax"  # hardmax | softmax
    act_precision: Precision = EXACT
    att_precision: Precision = EXACT
    capture_trace: bool = False

    def __post_init__(self) -> None:
        if self.attention not in ("hardmax", "softmax"):
            raise ValueError("attention must be 'hardmax' or 'softmax'")
        if self.attention == "hardmax" and not (
            self.act_precision.exact and self.att_precision.exact
        ):
            raise ValueError("hardmax evaluation is exact; finite precisions not allowed")


def _no_positions() -> np.ndarray:
    return np.empty(0)


@dataclass
class LayerTrace:
    """One layer's activations: first axis position, then (B,) for a batch."""

    q: np.ndarray = field(default_factory=_no_positions)  # (P, H, d_k)
    k: np.ndarray = field(default_factory=_no_positions)  # (P, H, d_k)
    v: np.ndarray = field(default_factory=_no_positions)  # (P, H, d_v)
    dots: np.ndarray = field(default_factory=_no_positions)  # (P, H, P) q.k, -inf past i
    # (P, H) sum_j |rounded - raw softmax weight j|; 0 for hardmax and exact weights
    att_err: np.ndarray = field(default_factory=_no_positions)
    o: np.ndarray = field(default_factory=_no_positions)  # (P, H, d_v)
    y: np.ndarray = field(default_factory=_no_positions)  # (P, d)
    x_mid: np.ndarray = field(default_factory=_no_positions)  # (P, d)
    hidden: np.ndarray = field(default_factory=_no_positions)  # (P, m) MLP activations
    x_out: np.ndarray = field(default_factory=_no_positions)  # (P, d)


@dataclass
class ActivationTrace:
    x0: np.ndarray = field(default_factory=_no_positions)  # (P, d)
    layers: list[LayerTrace] = field(default_factory=list)
    output_scores: list[np.ndarray] = field(default_factory=list)  # per decoded step
    tie_warnings: int = 0
    saturations: int = 0  # rounded elements that exceeded their format

    def representation_arrays(self) -> Iterable[tuple[str, np.ndarray]]:
        """Every activation the ternary-activation definition quantifies over.

        The last axis of every array is one activation vector: (P, d) for
        x0, y, x_mid and x_out, (P, m) for hidden, (P, H, d_k|d_v) for q, k,
        v and o, with a (B,) axis after P for a batch. Raw MLP outputs are
        excluded: a zero-and-rewrite operation pair legitimately sums to +-2
        there, while the post-residual x stays ternary. Everything listed
        here must be exactly in {-1, 0, 1} on valid inputs of compiled models.
        """
        yield "x0", self.x0
        for li, lt in enumerate(self.layers):
            for name in ("q", "k", "v", "o", "y", "x_mid", "hidden", "x_out"):
                yield f"L{li}.{name}", getattr(lt, name)


def hardmax_weights(scores: np.ndarray) -> np.ndarray:
    """1/|J| on the argmax set J, 0 elsewhere."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("hardmax of empty score list")
    best = scores.max()
    mask = scores == best
    return mask / mask.sum()


def softmax_weights(scores: np.ndarray, causal: bool = False) -> np.ndarray:
    """Standard softmax over the last axis with max subtraction, in float64.

    `causal` reads (..., P, n) scores as the queries of the last P of n
    positions, -inf past each: row i's denominator sums only its own first
    n - P + 1 + i terms (`_causal_sum`), as a call on that row alone would.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim == 0 or scores.shape[-1] == 0:
        raise ValueError("softmax of empty score list")
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / (_causal_sum(e) if causal else e.sum(axis=-1, keepdims=True))


def _causal_sum(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis of a causal (..., P, n) block, keeping it:
    row i sums its first n - P + 1 + i entries in a call of its own, since
    a float sum's grouping depends on its length and trailing zeros would
    change it."""
    n_rows, n = a.shape[-2:]
    if n_rows == 1:
        return a.sum(axis=-1, keepdims=True)
    out = np.empty((*a.shape[:-1], 1))
    for i in range(n_rows):
        out[..., i : i + 1, :] = a[..., i : i + 1, : n - n_rows + 1 + i].sum(axis=-1, keepdims=True)
    return out


def separation(scores: np.ndarray) -> np.ndarray:
    """Gap between the maximum and the largest non-maximal score over the
    last axis (inf where there is none)."""
    scores = np.asarray(scores, dtype=np.float64)
    best = scores.max(axis=-1, keepdims=True)
    rest = np.where(scores < best, scores, -np.inf).max(axis=-1)
    return best[..., 0] - rest


def rope_rotate(vec: np.ndarray, position: int, freqs: tuple[float, ...]) -> np.ndarray:
    """Rotate coordinate pairs (2s, 2s+1) of the last axis by position*freqs[s]."""
    n = len(freqs)
    if 2 * n > vec.shape[-1]:
        raise ValueError("more frequency pairs than vector coordinates")
    out = np.array(vec, dtype=np.float64)
    c = np.array([math.cos(position * w) for w in freqs])
    sn = np.array([math.sin(position * w) for w in freqs])
    a, b = out[..., 0 : 2 * n : 2], out[..., 1 : 2 * n : 2]
    out[..., 0 : 2 * n : 2], out[..., 1 : 2 * n : 2] = c * a + sn * b, -sn * a + c * b
    return out


def sum_bits(
    dims: Dims, act: FloatFormat | None, att: FloatFormat | None, n_keys: int | None
) -> float:
    """The bits that the widest order-dependent sum of a rounded-softmax
    step can need on its grid, for activations in `act`, attention weights
    in `att` and at most n_keys keys; inf for an exact format (None) or an
    unbounded context (n_keys None), which put a sum on no grid.

    With g_a and M_a the smallest subnormal and the largest element of act
    and g_w the smallest subnormal of att, every product and partial sum of
    a matmul is a multiple of its grid step, and these bound it in steps:
    Q/K/V d M_a/g_a, W_O H d_v M_a/g_a, W1 plus its quarter-integer bias
    (2d M_a + d + 1)/min(g_a, 1/4), W2 2 d_ff M_a/g_a, the scores
    d_k M_a^2/g_a^2 and the attention output n_keys M_a/(g_w g_a). Within
    53 bits float64 holds every partial sum exactly, so any grouping of a
    sum, and so any block of positions, gives the same bits.
    """
    if act is None or att is None or n_keys is None:
        return math.inf
    g_a, m_a, g_w = map(Fraction, (act.min_subnormal, act.max_value, att.min_subnormal))
    d = dims.d
    steps = (
        d * m_a / g_a,
        dims.n_heads * dims.d_v * m_a / g_a,
        (2 * d * m_a + d + 1) / min(g_a, Fraction(1, 4)),
        2 * dims.d_ff * m_a / g_a,
        dims.d_k * (m_a / g_a) ** 2,
        n_keys * m_a / (g_w * g_a),
    )
    return math.log2(math.ceil(max(steps)))  # an int: no overflow past float range


class Evaluator:
    """Causal evaluator over a growing token sequence, or, given `batch`,
    over that many sequences of equal length run together.

    One step runs P new positions of all B sequences through every layer as
    matmuls on (P*B, d) rows against the KV cache, with a causal mask when
    P > 1. A layer's H heads run at once: Q/K/V rows are stacked per head as
    [q_h; k_h; v_h] into one (H*(2 d_k + d_v), d) matrix, keys and values of
    every head share one cache row per position, and the head outputs are
    concatenated into one H*d_v vector per position for the (d, H*d_v)
    output matrix. A layer without heads skips its attention half and a
    layer without MLP rows its MLP half: `x_mid` = x + 0.0 and `x_out` =
    x_mid + 0.0, which is what the full half gives bit for bit, since x is
    already a value of the activation format and the half adds +0.0. The
    trace keeps its shapes, with a zero `y`.

    The Q/K/V, W_O and W1 products gather the live input coordinates of
    their rows (`x.take(live, axis=1)`) and multiply float64 weights on
    those coordinates alone: dropping a zero weight drops a +-0 term. W2
    stays whole, since every neuron is one of its inputs. `_exact` decides
    only the step. It holds without rotary positions under hardmax, where
    the compiled models' values are small integers, and under rounded
    softmax whose formats keep every sum within `sum_bits` <= 53 for the
    2^r keys of binary positions. Then no sum depends on its grouping, and
    `extend` runs a whole block as one step, with future keys masked by
    -inf and each row's softmax denominator and att_err summed over its own
    keys (`_causal_sum`). Every other model steps one position at a time.
    """

    def __init__(self, params: TransformerParams, cfg: EvalConfig, batch: int | None = None):
        if batch is not None and batch < 1:
            raise ValueError("batch must be >= 1")
        self.params = params
        self.cfg = cfg
        self.batch = batch
        self.tokens: list = []  # per position: a str, or B strs for a batch
        n_seq = batch or 1
        dims = params.dims
        d, d_k, d_v = dims.d, dims.d_k, dims.d_v
        pos = params.positional
        self._emb = params.emb.astype(np.float64)
        if isinstance(pos, BinaryAbsolute):  # the coordinates of bits 0..r-1, and 2^0..2^(r-1)
            self._pos_bits = np.array(pos.coords, np.intp), 1 << np.arange(pos.r)
        self._unemb_t = params.unemb.astype(np.float64).T
        self._rotary = pos if isinstance(pos, RotaryOnly) else None
        self._formats = cfg.act_precision.fmt, cfg.att_precision.fmt  # None: exact
        n_keys = 2 ** pos.r if isinstance(pos, BinaryAbsolute) else None
        self._exact = self._rotary is None and (
            cfg.attention == "hardmax" or sum_bits(dims, *self._formats, n_keys) <= 53
        )
        # Per layer, (attention, MLP) plans: (H, then the input coordinates
        # read and W^T on them for Q/K/V and W_O), None without heads;
        # (W1's input coordinates and W1^T on them, bias, W2^T), None
        # without MLP rows. Rows times W^T, as ndarray.dot, which costs less
        # per call than matmul.
        self._w = []
        for layer in params.layers:
            heads, n_heads = layer.heads, len(layer.heads)
            attention = mlp = None
            if heads:
                wqkv = np.array([np.concatenate([h.wq, h.wk, h.wv]) for h in heads], np.int8)
                wo = np.array([h.wo for h in heads], np.int8)
                attention = (
                    n_heads,
                    *_read(wqkv.reshape(n_heads * (2 * d_k + d_v), d)),
                    *_read(wo.transpose(1, 0, 2).reshape(d, n_heads * d_v)),
                )
            if layer.bias4.size:
                bias = layer.bias4.astype(np.float64) / 4.0
                mlp = (*_read(layer.w1), bias, layer.w2.astype(np.float64).T)
            self._w.append((attention, mlp))
        # Per position: (B*H, d_k + d_v) rotated, scaled and rounded keys,
        # then values, of each sequence and head; (B, d) final
        # representations. With capture, the (B, .) rows of x0, then of
        # each layer's traced quantities, dots as (B, H, positions) scores
        # and att_err as (B, H). Grown by _reserve.
        self._capacity = 0
        self._kv = [np.empty((0, n_seq * len(layer.heads), d_k + d_v)) for layer in params.layers]
        self._x = np.empty((0, n_seq, d))
        self._traced: list[dict[str, np.ndarray]] = []
        if cfg.capture_trace:
            self._traced.append({"x0": np.empty((0, n_seq, d))})
            for layer in params.layers:
                h, m = len(layer.heads), layer.bias4.size
                shapes = dict(q=(h, d_k), k=(h, d_k), v=(h, d_v), dots=(h, 0), att_err=(h,))
                shapes.update(o=(h, d_v), y=(d,), x_mid=(d,), hidden=(m,), x_out=(d,))
                self._traced.append({k: np.empty((0, n_seq, *v)) for k, v in shapes.items()})
        self._sqrt_dk = math.sqrt(d_k)
        self.trace = ActivationTrace(layers=[LayerTrace() for _ in params.layers])

    # -- rounding helpers ---------------------------------------------------

    def _round(self, x: np.ndarray, fmt: FloatFormat | None) -> np.ndarray:
        """x rounded to fmt, or x itself for exact arithmetic (fmt None)."""
        if fmt is None:
            return x
        y, saturated = round_array(x, fmt)
        self.trace.saturations += saturated
        return y

    # -- core ---------------------------------------------------------------

    def _embed(self, tokens: list, start: int) -> np.ndarray:
        """(B, P, d) embeddings of P new positions from `start` on, the
        +-1 binary code of each position written over its coordinates."""
        params = self.params
        rows = [tokens]
        if self.batch is not None:
            for i, row in enumerate(tokens, start):
                if isinstance(row, str) or not hasattr(row, "__len__"):
                    raise ValueError(f"position {i}: a batch position is a sequence, not {row!r}")
                if len(row) != self.batch:
                    raise ValueError(
                        f"position {i}: each position needs {self.batch} tokens, got {len(row)}"
                    )
            rows = list(zip(*tokens))
        x = self._emb[np.array([[params.token_index(tok) for tok in row] for row in rows])]
        pos = params.positional
        if isinstance(pos, BinaryAbsolute):
            if start + len(tokens) > 2 ** pos.r:
                raise EvalError(
                    f"position {max(start, 2 ** pos.r)} does not fit {pos.r} positional bits"
                )
            coords, bit_values = self._pos_bits
            bits = np.arange(start, start + len(tokens))[:, None] & bit_values
            x[..., coords] = np.where(bits, 1.0, -1.0)
        return x

    def extend(self, tokens: Iterable) -> None:
        """Append positions: strs for one sequence, or for a batch one
        sequence of B tokens per position. Every token and position is
        checked before any is processed."""
        tokens = list(tokens)
        if not tokens:
            return
        start = len(self.tokens)
        self._reserve(start + len(tokens))
        x = self._embed(tokens, start)
        self.tokens += tokens
        if self._exact:
            self._step(x, start)
        else:
            for i in range(len(tokens)):
                self._step(x[:, i : i + 1], start + i)
        n, pick = len(self.tokens), 0 if self.batch is None else slice(None)
        for target, bufs in zip([self.trace, *self.trace.layers], self._traced):
            for name, buf in bufs.items():  # the captured trace: views of the first n positions
                setattr(target, name, buf[:n, pick, ..., :n] if name == "dots" else buf[:n, pick])

    def _reserve(self, n: int) -> None:
        """Room for n positions, doubling the capacity (16 at least)."""
        if n <= self._capacity:
            return
        while self._capacity < n:
            self._capacity = max(16, 2 * self._capacity)

        def grown(a: np.ndarray, name: str = "") -> np.ndarray:
            """a with the new capacity on its first axis. The dots buffer
            grows on its last axis too, with -inf in the new room, and
            att_err with 0, since only rounded softmax weights write it."""
            cap = self._capacity
            shape = (cap, *a.shape[1:-1], cap) if name == "dots" else (cap, *a.shape[1:])
            fill = {"dots": -np.inf, "att_err": 0.0}.get(name)
            out = np.empty(shape, a.dtype) if fill is None else np.full(shape, fill)
            out[tuple(map(slice, a.shape))] = a
            return out

        self._kv = [grown(kv) for kv in self._kv]
        self._x = grown(self._x)
        self._traced = [{k: grown(a, k) for k, a in t.items()} for t in self._traced]

    def _step(self, x: np.ndarray, start: int) -> None:
        """Run the (B, P, d) embeddings of positions start .. start+P-1.

        The residual stream is (P*B, d) rows, position-major, and attention
        runs on (B*H, .) stacks, so that one position of one sequence takes
        the same numpy calls as a plain incremental step.
        """
        params, cfg = self.params, self.cfg
        n_seq, n_new, d = x.shape
        n = start + n_new
        capture = cfg.capture_trace
        rotary = self._rotary
        c = params.qk_scale
        d_k, d_v = params.dims.d_k, params.dims.d_v
        softmax_mode = cfg.attention == "softmax"
        act, att = self._formats
        rnd = _unrounded if act is None and att is None else self._round
        # key j is in the future of query row i when j > start + i
        future = np.arange(n) > np.arange(start, n)[:, None] if n_new > 1 else None

        x = rnd(x.swapaxes(0, 1).reshape(n_new * n_seq, d), act)
        if capture:
            self._traced[0]["x0"][start:n] = x.reshape(n_new, n_seq, d)
        for li, ((attention, mlp), kv) in enumerate(zip(self._w, self._kv)):
            # x is a value of act, rounded at the embedding or at the end of
            # the layer before. Without heads y is +0.0, so x_mid = rnd(x +
            # y, act) is x + 0.0, bit for bit and with no saturation, and
            # without MLP rows x_out is x_mid + 0.0 the same way.
            if attention is None:
                x_mid = x + 0.0
            else:
                n_heads, qkv_in, wqkv, o_in, wo = attention
                qkv = x.take(qkv_in, axis=1).dot(wqkv)
                qkv = qkv.reshape(n_new * n_seq, n_heads, 2 * d_k + d_v)  # q, k, v per head
                if rotary is not None:  # one position per step
                    for qk in (slice(0, d_k), slice(d_k, 2 * d_k)):
                        qkv[..., qk] = rope_rotate(qkv[..., qk], start, rotary.freqs)
                if c != 1.0:
                    qkv[..., : 2 * d_k] *= c
                qkv = rnd(qkv, act)
                rows = n_seq * n_heads  # one attention stack per sequence and head
                kv[start:n] = qkv[..., d_k:].reshape(n_new, rows, d_k + d_v)
                keys = kv[:n, :, :d_k].transpose(1, 0, 2)  # (B*H, n, d_k)
                values = kv[:n, :, d_k:].transpose(1, 0, 2)  # (B*H, n, d_v)
                q = qkv[..., :d_k].reshape(n_new, rows, d_k).transpose(1, 2, 0)  # (B*H, d_k, P)
                dots = (keys @ q).transpose(0, 2, 1)  # (B*H, P, n)
                dots = dots if future is None else np.where(future, -np.inf, dots)
                if softmax_mode:
                    raw = softmax_weights(dots / self._sqrt_dk, causal=True)
                    weights = rnd(raw, att)
                    o = weights @ values
                else:
                    # Sum over the argmax set, then divide once: exact for
                    # the integer-valued activations of compiled models.
                    mask = dots == dots.max(axis=-1, keepdims=True)
                    o = (mask.astype(np.float64) @ values) / mask.sum(axis=-1, keepdims=True)
                # (P, B, H, d_v) head outputs
                o = rnd(o.reshape(n_seq, n_heads, n_new, d_v).transpose(2, 0, 1, 3), act)
                y = rnd(o.reshape(n_new * n_seq, n_heads * d_v).take(o_in, axis=1).dot(wo), act)
                x_mid = rnd(x + y, act)
            if mlp is None:
                x = x_mid + 0.0
            else:
                w1_in, w1, bias, w2 = mlp
                hidden = x_mid.take(w1_in, axis=1).dot(w1)
                hidden += bias
                hidden = rnd(np.maximum(hidden, 0.0, out=hidden), act)
                x = rnd(x_mid + rnd(hidden.dot(w2), act), act)
            if capture:  # (P*B, ...) rows, position-major
                bufs = self._traced[li + 1]
                new = dict(x_mid=x_mid, x_out=x)
                if attention is None:  # q, k, v, o, dots and att_err are empty
                    bufs["y"][start:n] = 0.0  # the buffers grow with np.empty
                else:
                    new.update(q=qkv[..., :d_k], k=qkv[..., d_k : 2 * d_k], v=qkv[..., 2 * d_k :])
                    new.update(o=o, y=y)
                    dots = dots.reshape(n_seq, n_heads, n_new, n).transpose(2, 0, 1, 3)
                    bufs["dots"][start:n, ..., :n] = dots
                    if softmax_mode and att is not None:  # one error per row
                        err = _causal_sum(np.abs(weights - raw)).reshape(n_seq, n_heads, n_new)
                        bufs["att_err"][start:n] = err.transpose(2, 0, 1)
                if mlp is not None:  # hidden is empty without MLP rows
                    new["hidden"] = hidden
                for name, a in new.items():
                    bufs[name][start:n] = a.reshape(n_new, *bufs[name].shape[1:])
        self._x[start:n] = x.reshape(n_new, n_seq, d)

    # -- outputs ------------------------------------------------------------

    def final_representations(self) -> np.ndarray:
        """(positions, d), or (B, positions, d) for a batch."""
        reps = self._x[: len(self.tokens)]
        return reps[:, 0].copy() if self.batch is None else reps.transpose(1, 0, 2).copy()

    def output_scores(self, position: int | None = None) -> np.ndarray:
        """Unembedding scores at `position` (default the last): (|V|,), or
        (B, |V|) for a batch."""
        if not self.tokens:
            raise EvalError("no tokens processed")
        if position is None:
            position = len(self.tokens) - 1
        elif not 0 <= position < len(self.tokens):
            raise ValueError(f"position {position} not processed")
        scores = self._x[position].dot(self._unemb_t)
        return scores[0] if self.batch is None else scores

    def next_tokens(self, position: int | None = None) -> list[str]:
        """The greedy rule, row by row: the argmax over unembedding scores
        at `position` (default the last) of every sequence.

        Ties within 1e-6 resolve to the lowest vocabulary index and are
        counted as diagnostics; the constructions never produce them. The
        scores are traced as one decoded step.
        """
        scores = self.output_scores(position)
        if self.cfg.capture_trace:
            self.trace.output_scores.append(scores.copy())
        chosen = []
        for row in scores.reshape(-1, scores.shape[-1]):
            best = int(np.argmax(row))
            near = np.nonzero(row >= row[best] - 1e-6)[0]
            if near.size > 1:
                self.trace.tie_warnings += 1
                best = int(near.min())
            chosen.append(self.params.vocab[best])
        return chosen

    def next_token(self, position: int | None = None) -> str:
        """The greedy token of a single sequence; see `next_tokens`."""
        if self.batch is not None:
            raise ValueError("next_token needs a single sequence; use next_tokens")
        return self.next_tokens(position)[0]


def _unrounded(x: np.ndarray, fmt: FloatFormat | None) -> np.ndarray:
    return x


def _read(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For an (outputs, inputs) int8 matrix w: the input coordinates with a
    nonzero weight, which rows times W^T reads, and float64 W^T on them."""
    live = np.flatnonzero(w.any(axis=0))
    return live, w.T[live].astype(np.float64)


def forward(
    params: TransformerParams, tokens: list[str], cfg: EvalConfig
) -> tuple[np.ndarray, ActivationTrace]:
    """Evaluate the full sequence; returns final representations and trace."""
    ev = Evaluator(params, cfg)
    ev.extend(tokens)
    return ev.final_representations(), ev.trace


def next_token(params: TransformerParams, tokens: list[str], cfg: EvalConfig) -> str:
    ev = Evaluator(params, cfg)
    ev.extend(tokens)
    return ev.next_token()


# ---------------------------------------------------------------------------
# model files


def _pos_to_json(pos) -> dict:
    if isinstance(pos, BinaryAbsolute):
        return {"kind": "binary_absolute", "r": pos.r, "coords": list(pos.coords)}
    if isinstance(pos, RotaryOnly):
        return {"kind": "rotary", "freqs": [f.hex() for f in pos.freqs]}
    return {"kind": "none"}


def _pos_from_json(doc: dict):
    if doc["kind"] == "binary_absolute":
        return BinaryAbsolute(doc["r"], tuple(doc["coords"]))
    if doc["kind"] == "rotary":
        return RotaryOnly(tuple(float.fromhex(f) for f in doc["freqs"]))
    if doc["kind"] == "none":
        return NoPositional()
    raise ValueError(f"unknown positional kind {doc['kind']!r}")


# The one model-file format: `params_from_json` refuses every other.
MODEL_FORMAT = 2

_HEAD_KEYS = ("wq", "wk", "wv", "wo")


def _sparse_to_json(a: np.ndarray) -> dict:
    flat = a.reshape(-1)
    at = np.flatnonzero(flat)
    return {"shape": list(a.shape), "at": at.tolist(), "codes": flat[at].tolist()}


def params_to_json(params: TransformerParams) -> dict:
    """The model file document. Every weight array is stored sparse: its
    shape, the flat C-order indices of its nonzero entries in increasing
    order, and their integer codes."""
    return {
        "format": MODEL_FORMAT,
        "dims": dict(vars(params.dims)),
        "vocab": params.vocab,
        "positional": _pos_to_json(params.positional),
        "qk_scale": float(params.qk_scale).hex(),
        "source": params.source,
        "mode": params.mode,
        "meta": dict(params.meta),
        "emb": _sparse_to_json(params.emb),
        "unemb": _sparse_to_json(params.unemb),
        "layers": [
            {
                "heads": [
                    {k: _sparse_to_json(getattr(h, k)) for k in _HEAD_KEYS} for h in layer.heads
                ],
                "w1": _sparse_to_json(layer.w1),
                "bias4": _sparse_to_json(layer.bias4),
                "w2": _sparse_to_json(layer.w2),
            }
            for layer in params.layers
        ],
    }


def _ints(values, name: str) -> np.ndarray:
    """A JSON list of integers as int64; 1.5 and true are refused, since
    numpy would truncate or convert them, and a huge integer overflows."""
    if type(values) is not list or not set(map(type, values)) <= {int}:
        raise ValueError(f"{name} must be a list of integers")
    return np.array(values, dtype=np.int64)


def _weights(entry: dict, shape: tuple[int, ...], dtype, name: str) -> np.ndarray:
    """One sparse weight entry as a dense array of the shape dims give it,
    checked before it is allocated or written: numpy would wrap a negative
    index and keep the last of repeated ones."""
    if type(entry) is not dict:
        raise ValueError(f"{name} must be a sparse array {{shape, at, codes}}")
    if entry["shape"] != list(shape) or not all(type(n) is int for n in entry["shape"]):
        raise ValueError(f"{name} has shape {entry['shape']!r}, expected {list(shape)}")
    at, codes = _ints(entry["at"], f"{name} at"), _ints(entry["codes"], f"{name} codes")
    size, info = math.prod(shape), np.iinfo(dtype)
    if at.size != codes.size:
        raise ValueError(f"{name} has {at.size} indices but {codes.size} codes")
    if at.size and (at[0] < 0 or at[-1] >= size or not np.all(at[1:] > at[:-1])):
        raise ValueError(f"{name} indices must be strictly increasing and in [0, {size})")
    if not np.all(codes != 0) or codes.min(initial=0) < info.min or codes.max(initial=0) > info.max:
        raise ValueError(f"{name} codes must be nonzero and within {info.dtype}")
    out = np.zeros(size, dtype)
    out[at] = codes
    return out.reshape(shape)


def params_from_json(doc: dict) -> TransformerParams:
    """Parse a model file document and check it against the model contract.
    Shapes come from dims, and every array is checked before it is built
    with one scatter; `validate_weights` then checks the codes' ranges."""
    if type(doc) is not dict or type(doc.get("format")) is not int or doc["format"] != MODEL_FORMAT:
        raise ValueError(
            f"not a format-{MODEL_FORMAT} model file: compile or convert the model again"
        )
    dims = Dims(**doc["dims"])
    if not isinstance(doc["vocab"], list):
        raise ValueError("vocab must be a list of tokens")
    d, n_vocab = dims.d, len(doc["vocab"])
    check_dims(dims, n_vocab)  # before any array is built
    if len(doc["layers"]) != dims.n_layers:
        raise ValueError(f"{len(doc['layers'])} layers but dims.n_layers = {dims.n_layers}")
    head_shapes = (dims.d_k, d), (dims.d_k, d), (dims.d_v, d), (d, dims.d_v)
    layers = []
    for li, ldoc in enumerate(doc["layers"]):
        if len(ldoc["heads"]) > dims.n_heads:
            raise ValueError(f"layer {li} has more than n_heads = {dims.n_heads} heads")
        heads = [
            HeadParams(
                *(
                    _weights(h[k], shape, np.int8, f"layer {li} head {hi} {k}")
                    for k, shape in zip(_HEAD_KEYS, head_shapes)
                )
            )
            for hi, h in enumerate(ldoc["heads"])
        ]
        m = ldoc["bias4"]["shape"][0] if ldoc["bias4"]["shape"] else None
        if type(m) is not int or not 0 <= m <= dims.d_ff:
            raise ValueError(f"layer {li} bias4 shape must be [m], 0 <= m <= d_ff = {dims.d_ff}")
        layers.append(
            LayerParams(
                heads=heads,
                w1=_weights(ldoc["w1"], (m, d), np.int8, f"layer {li} w1"),
                bias4=_weights(ldoc["bias4"], (m,), np.int32, f"layer {li} bias4"),
                w2=_weights(ldoc["w2"], (d, m), np.int8, f"layer {li} w2"),
            )
        )
    params = TransformerParams(
        dims=dims,
        vocab=list(doc["vocab"]),
        emb=_weights(doc["emb"], (n_vocab, d), np.int8, "emb"),
        unemb=_weights(doc["unemb"], (n_vocab, d), np.int8, "unemb"),
        positional=_pos_from_json(doc["positional"]),
        layers=layers,
        qk_scale=float.fromhex(doc["qk_scale"]),
        source=doc.get("source", ""),
        mode=doc.get("mode", "hardmax"),
        meta=doc.get("meta", {}),
    )
    params.validate_weights()
    return params


def save_model(params: TransformerParams, path: str) -> None:
    """Write the model file: compact JSON from the C encoder (`json.dump`
    would stream through the pure-Python one)."""
    text = json.dumps(params_to_json(params), separators=(",", ":"))
    with open(path, "w") as f:
        f.write(text)


def load_model(path: str) -> TransformerParams:
    with open(path) as f:
        return params_from_json(json.load(f))
