"""Transformer parameters and the exact evaluation engine.

Weights are stored as small-integer codes in {0,+-1,+-2}; query/key
projections additionally carry one shared positive scale c (1 for plain
hardmax constructions). Evaluation is causal and incremental: positions
are appended to cached keys and values, so autoregressive generation never
recomputes a prefix; a prefix, once run, never changes. `truncate` drops
positions from the end, so that a decode whose proposed tokens were
wrong rewinds to the tokens that stand and goes on from there on the same
evaluator.
Hardmax decisions compare raw integer dot products, sidestepping the
1/sqrt(d_k) division.

A model holds each layer's weights as entries (`weights.HeadEntries`,
`weights.MlpEntries`): the increasing flat indices of the nonzero codes of
its arrays, and the codes, which is what a model file stores. Compiling,
loading, checking, saving and planning read those; a layer builds dense
arrays only when code reads them (`weights.LayerParams`).

An evaluator is two parts. Its plan (`EvalPlan`) is what it multiplies:
float64 weights cut from the layers' entries, the live coordinates they
read and write, and whether its sums are exact. It is built once from a
model and a config and never written, so every evaluator of one run can
share it. The run state (KV cache, residual rows, trace arena, step log)
is each evaluator's own.

A step runs P new positions of B equal-length sequences through each layer
at once: one fused Q/K/V matmul, one KV cache of shape (positions, B*H,
d_k + d_v), causally masked attention for all heads, one (d, H*d_v) output
matmul, and one rounding call per quantity. The Q/K/V, output and W1
matmuls gather only the live input coordinates, those with a nonzero
weight, and multiply float64 weights on those rows alone; the W2 matmul
computes and writes back only the output rows that some neuron writes,
and W_O keeps all its output rows. Where every order-dependent sum is
exact (no rotary positions, and hardmax or rounded softmax whose formats
pass `sum_bits`) a whole block of known tokens is one step, which is what
lets generation verify the tokens that the model's machine writes in one
pass; there a block row's softmax denominator sums its own keys as a
one-position step does, and the Q/K/V matmul computes only the q, k and
v columns that some weight writes and scatters them into +0.0, so that
the KV cache and the trace keep all d_k + d_v columns of every head.
Every other model steps one position at a time, so its rounding is that
of plain incremental decoding. A full trace (`capture_trace=True`) is a
handful of whole-model arrays that grow with the KV cache
(`ActivationTrace`), and each layer's quantities are views into them
whose first axis is position, with a (B,) axis after it for a batch:
(P, H, .) for q, k, v and o, (P, H, P) for the causally masked dots,
(P, H) for att_err, (P, d) or (P, m) for y, x_mid, hidden and x_out. An audit
trace (`capture_trace="audit"`) keeps only what the hardmax invariants
need, reduced as each layer is computed: per (position, head) score row
its integrality, tie count, whether its tied keys carry equal values and
its runner-up gap, per (position, layer) the activation vectors outside
{-1, 0, 1}, and per decoded step the output gap.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

from .automata import MachineError, load_tm, run_token
from .fpcore import EXACT, FloatFormat, Precision, round_array
from .weights import (
    HEAD_KEYS as _HEAD_KEYS,
    HeadEntries,
    HeadParams,
    LayerParams,
    MlpEntries,
    attention_plans,
    mlp_plans,
)

__all__ = [
    "MODES",
    "CAPTURE_LEVELS",
    "Dims",
    "check_dims",
    "HeadParams",
    "HeadEntries",
    "MlpEntries",
    "LayerParams",
    "BinaryAbsolute",
    "RotaryOnly",
    "NoPositional",
    "TransformerParams",
    "EvalConfig",
    "ActivationTrace",
    "LayerTrace",
    "EvalError",
    "hardmax_weights",
    "softmax_weights",
    "separation",
    "rope_rotate",
    "sum_bits",
    "EvalPlan",
    "Evaluator",
    "forward",
    "MODEL_FORMAT",
    "params_to_json",
    "params_from_json",
    "save_model",
    "load_model",
]


class EvalError(RuntimeError):
    pass


# What a model is: compiled for hardmax, or the output of one of the two
# softmax conversions; `softmaxify.eval_config` maps each to the settings
# the model is evaluated with.
MODES = ("hardmax", "scaled_only", "denoised")

# What an evaluator keeps of a run (`EvalConfig.capture_trace`): nothing,
# the step-time reductions that the hardmax invariant audit sums, or every
# activation's array.
CAPTURE_LEVELS = (False, "audit", True)


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


def _name(parts: tuple) -> str:
    """A weight array's name from its parts, such as "layer 3 head 1 wq"."""
    return " ".join(map(str, parts))


def _head_name(li: int, at: np.ndarray, sizes: np.ndarray, i: int) -> tuple:
    """The name parts of the head array of layer li that holds entry i of
    its heads' entries `at`; `sizes` are the ends of wq, wk, wv and wo in
    one head's block."""
    hi, k = divmod(int(at[i]), int(sizes[-1]))
    return "layer", li, "head", hi, _HEAD_KEYS[int(np.searchsorted(sizes, k, side="right"))]


def _outside(codes: np.ndarray, bound: int) -> bool:
    """Whether a code lies outside [-bound, bound]. By min and max, not
    abs: np.abs wraps at the dtype minimum (int8 -128)."""
    return codes.min(initial=0) < -bound or codes.max(initial=0) > bound


# Codes per min/max pair of `_first_outside`: a model's entries, about 1% of
# its weights, are one run, while a model whose arrays are mostly nonzero
# is still never copied whole.
_CHECK_CHUNK = 2 ** 18


def _first_outside(group: list[tuple], bound: int) -> tuple | None:
    """The name parts of the first array of `group` that holds a code
    outside [-bound, bound], or None. An item of `group` is (name, codes):
    `name` is an array's name parts, or a function from the index of an
    item's first bad code to the name parts of the array that holds it.
    Consecutive items are joined into runs of at most _CHECK_CHUNK codes,
    an item as large alone, and each run is checked with one min/max pair;
    only in a failing run is each item checked on its own."""
    run: list[tuple] = []
    size = 0
    for i, (name, codes) in enumerate(group):
        run.append((name, codes))
        size += codes.size
        if i + 1 < len(group) and size + group[i + 1][1].size <= _CHECK_CHUNK:
            continue
        # the joined copy is freed before the next run is joined
        joined = codes if len(run) == 1 else np.concatenate([c for _, c in run], axis=None)
        if _outside(joined, bound):
            name, codes = next((n, c) for n, c in run if _outside(c, bound))
            if callable(name):
                name = name(int(((codes < -bound) | (codes > bound)).argmax()))
            return name
        run, size = [], 0
    return None


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
    # r; N, the context bound converted for; machine, the compiled TM's spec
    meta: dict = field(default_factory=dict)

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
        binary positional's r) and whose machine, if present, is a TM spec
        that `load_tm` reads with δ's run tokens and the input symbols in
        the vocabulary, at most d_k // 2 finite rotary
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
        if "machine" in self.meta:
            try:
                tm = load_tm(self.meta["machine"])
            except MachineError as exc:
                raise ValueError(f"meta.machine: {exc}") from exc
            tokens = {run_token(*image) for image in tm.delta.values()} | set(tm.input_alphabet)
            missing = sorted(tokens - set(self.vocab))
            if missing:
                raise ValueError(f"meta.machine: {missing[0]!r} is not in the vocabulary")
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
        layer_parts = [layer.parts() for layer in self.layers]
        for li, (heads, mlp) in enumerate(layer_parts):
            if heads.n > dims.n_heads or mlp.m > dims.d_ff:
                raise ValueError(
                    f"layer {li} has {heads.n} heads and {mlp.m} MLP rows, "
                    f"over the budgets n_heads = {dims.n_heads}, d_ff = {dims.d_ff}"
                )
        head_shapes = [(dims.d_k, d), (dims.d_k, d), (dims.d_v, d), (d, dims.d_v)]
        for parts, a in (("emb",), self.emb), (("unemb",), self.unemb):
            if a.shape != (n_vocab, d):
                raise ValueError(f"{_name(parts)} has shape {a.shape}, expected {(n_vocab, d)}")
        for li, (heads, mlp) in enumerate(layer_parts):
            m = mlp.m
            for got, want, keys in (
                (heads.array_shapes(), head_shapes * heads.n, _HEAD_KEYS),
                (mlp.array_shapes(), [(m, d), (m,), (d, m)], ("w1", "bias4", "w2")),
            ):
                if got != want:
                    i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
                    head = ("head", i // 4) if keys is _HEAD_KEYS else ()
                    name = _name(("layer", li, *head, keys[i % len(keys)]))
                    raise ValueError(f"{name} has shape {got[i]}, expected {want[i]}")
        # (name, codes) of every weight array by the bound of its codes, in
        # the order above; a layer's heads are one item, named by the head
        # array that holds its first bad code (`_head_name`). Only the name
        # of a failing array, such as "layer 3 head 1 wq", is joined.
        bounds = {1: [(("emb",), self.emb), (("unemb",), self.unemb)], 2: [], 4 * (d + 1): []}
        sizes = np.cumsum([math.prod(s) for s in head_shapes])
        for li, (heads, mlp) in enumerate(layer_parts):
            at, codes = heads.entries()
            bounds[1].append((functools.partial(_head_name, li, at, sizes), codes))
            (_, w1), (_, bias4), (_, w2) = mlp.entries()
            bounds[2] += [(("layer", li, "w1"), w1), (("layer", li, "w2"), w2)]
            bounds[4 * (d + 1)].append((("layer", li, "bias4"), bias4))
        for bound, group in bounds.items():
            parts = _first_outside(group, bound)
            if parts is not None:
                raise ValueError(f"{_name(parts)} codes must lie in [-{bound}, {bound}]")
        if not (self.qk_scale > 0 and math.isfinite(self.qk_scale)):
            raise ValueError(f"qk_scale must be positive and finite, got {self.qk_scale}")


@dataclass(frozen=True)
class EvalConfig:
    attention: str = "hardmax"  # hardmax | softmax
    act_precision: Precision = EXACT
    att_precision: Precision = EXACT
    capture_trace: bool | str = False  # one of CAPTURE_LEVELS

    def __post_init__(self) -> None:
        if self.attention not in ("hardmax", "softmax"):
            raise ValueError("attention must be 'hardmax' or 'softmax'")
        if self.attention == "hardmax" and not (
            self.act_precision.exact and self.att_precision.exact
        ):
            raise ValueError("hardmax evaluation is exact; finite precisions not allowed")
        level = self.capture_trace
        if type(level) not in (bool, str) or level not in CAPTURE_LEVELS:
            raise ValueError(f"capture_trace must be False, 'audit' or True, got {level!r}")
        if level == "audit" and self.attention != "hardmax":
            raise ValueError("the audit capture level reduces hardmax runs only")


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
    """A captured run, at the `capture` level of the evaluator's config.

    A full trace (True) holds the whole-model arrays an `Evaluator` writes,
    with `x0` and each layer's `LayerTrace` as views into them. `stream`
    (P, W) holds x0 and each layer's y, x_mid, hidden and x_out in
    consecutive column ranges; each activation vector there is a nonempty
    range, and `stream_starts` lists their first columns. A layer without
    heads has no y columns: its y is a read-only +0.0 view. q, k, v and o
    (P, ΣH, d_k | d_v), dots (P, ΣH, P) and att_err (P, ΣH) hold the heads
    of all layers side by side, layer by layer. A decoded step keeps its
    `output_scores`.

    An audit trace ("audit") holds none of these, only the reductions of a
    hardmax run that `harness.trace_invariant_violations` sums: per
    (position, head) score row, heads side by side as in dots, whether
    every score is an integer (`score_integral`), how many keys tie at the
    maximum (`score_ties`), whether those keys carry equal values
    (`tied_values_equal`) and the maximum's lead over the runner-up,
    inf without one (`score_gap`); per (position, layer) the activation
    vectors outside {-1, 0, 1} (`nonternary`), layer 0's count including
    x0; and per decoded step the top output score's lead over the next
    (`output_gaps`, (1,) or (B, 1), empty for one token).

    A batch trace has a (B,) axis after P.
    """

    x0: np.ndarray = field(default_factory=_no_positions)  # (P, d)
    layers: list[LayerTrace] = field(default_factory=list)
    stream: np.ndarray = field(default_factory=_no_positions)  # (P, W)
    stream_starts: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    q: np.ndarray = field(default_factory=_no_positions)  # (P, ΣH, d_k)
    k: np.ndarray = field(default_factory=_no_positions)  # (P, ΣH, d_k)
    v: np.ndarray = field(default_factory=_no_positions)  # (P, ΣH, d_v)
    o: np.ndarray = field(default_factory=_no_positions)  # (P, ΣH, d_v)
    dots: np.ndarray = field(default_factory=_no_positions)  # (P, ΣH, P)
    att_err: np.ndarray = field(default_factory=_no_positions)  # (P, ΣH)
    output_scores: list[np.ndarray] = field(default_factory=list)  # per decoded step
    score_integral: np.ndarray = field(default_factory=_no_positions)  # (P, ΣH) bool
    score_ties: np.ndarray = field(default_factory=_no_positions)  # (P, ΣH)
    tied_values_equal: np.ndarray = field(default_factory=_no_positions)  # (P, ΣH) bool
    score_gap: np.ndarray = field(default_factory=_no_positions)  # (P, ΣH)
    nonternary: np.ndarray = field(default_factory=_no_positions)  # (P, L)
    output_gaps: list[np.ndarray] = field(default_factory=list)  # per decoded step
    capture: bool | str = False  # the level that wrote it, one of CAPTURE_LEVELS
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


def _sums_exactly(params: TransformerParams, cfg: EvalConfig) -> bool:
    """Whether no sum of evaluating params under cfg depends on its
    grouping: without rotary positions, under hardmax, where the compiled
    models' values are small integers, and under rounded softmax whose
    formats keep every sum within `sum_bits` <= 53 for the 2^r keys of
    binary positions."""
    pos = params.positional
    if isinstance(pos, RotaryOnly):
        return False
    n_keys = 2 ** pos.r if isinstance(pos, BinaryAbsolute) else None
    formats = cfg.act_precision.fmt, cfg.att_precision.fmt
    return cfg.attention == "hardmax" or sum_bits(params.dims, *formats, n_keys) <= 53


class EvalPlan:
    """The weights of one model as its evaluators multiply them, built from
    (params, cfg) and never written: every evaluator of a run can share it.

    `exact` is `_sums_exactly(params, cfg)`, the one condition for block
    steps and for live Q/K/V columns. `emb` is float64 emb and `unemb_t`
    float64 unemb^T. `sizes` holds per layer its heads and MLP rows, and
    `layers` an (attention, MLP) pair, both built from the layers'
    entries (`LayerParams.parts`) without a dense array.
    attention is (H, the Q/K/V input coordinates, W_QKV^T on them, the
    Q/K/V output columns, their scale, the W_O input coordinates, W_O^T on
    them), None without heads; MLP is (W1's input coordinates, W1^T on
    them, bias, the output rows some neuron writes, W2^T on them), None
    without MLP rows. Rows times W^T, as ndarray.dot, which costs less per
    call than matmul.

    The Q/K/V, W_O and W1 products gather the live input coordinates of
    their rows (`x.take(live, axis=1)`) and multiply float64 weights on
    those coordinates alone: dropping a zero weight drops a +-0 term. W_QKV
    rows are stacked per head as [q_h; k_h; v_h]. Where sums are exact,
    most q and k columns are written by no weight, so the plan keeps W_QKV^T
    on the columns some weight writes alone, and the step scales their
    product (by c on q and k: the scale, None for c = 1), rounds it and
    scatters it into +0.0. That is what every other column held: a sum of
    +-0 terms from +0.0, times c, rounded to +0.0 without saturating. The
    output columns are None where every column is written, and always for
    a plan that is not exact, whose sums' order follows the matrix it
    multiplies. W_O keeps all its output rows, since gathering the few it
    writes cost more per step than it saved. W2 reads every neuron, but
    only about a tenth of its output rows are written by any, so it
    multiplies and rounds those rows alone, and x_out is x_mid + 0.0 on the
    rest. That is the full product bit for bit: on such a row it gave
    rnd(x_mid + rnd(+-0.0)), where x_mid is a value of act that no rounding
    saturates and never -0.0, so that either zero added to it gives x_mid.
    """

    def __init__(self, params: TransformerParams, cfg: EvalConfig):
        self.params = params
        self.exact = _sums_exactly(params, cfg)
        self.emb = params.emb.astype(np.float64)
        self.unemb_t = params.unemb.astype(np.float64).T
        parts = [layer.parts() for layer in params.layers]
        self.sizes = tuple((heads.n, mlp.m) for heads, mlp in parts)  # (H, m) per layer
        d, d_k, d_v = params.dims.d, params.dims.d_k, params.dims.d_v
        heads, mlps = [h for h, _ in parts], [m for _, m in parts]
        attention = attention_plans(heads, d, d_k, d_v, self.exact, params.qk_scale)
        self.layers = tuple(zip(attention, mlp_plans(mlps, d)))

    @cached_property
    def audit_vectors(self) -> list[np.ndarray]:
        """Per layer, the first columns of its nonempty activation vectors
        in the row that the audit level's `_nonternary` joins: x0 (layer 0),
        q, k and v of each head, o of each head, y, x_mid, hidden and x_out,
        as `Evaluator._step` lists them. Found on first use, from the
        sizes alone."""
        d, d_k, d_v = self.params.dims.d, self.params.dims.d_k, self.params.dims.d_v
        layout = []
        for li, (h, m) in enumerate(self.sizes):
            widths = [d] * (li == 0) + [d_k, d_k, d_v] * h + [d_v] * h + [d] * bool(h) + [d, m, d]
            starts = itertools.accumulate(widths, initial=0)
            layout.append(np.array([s for s, w in zip(starts, widths) if w], np.intp))
        return layout


class Evaluator:
    """Causal evaluator over a growing token sequence, or, given `batch`,
    over that many sequences of equal length run together.

    It multiplies the weights of its `plan` (`EvalPlan`), built from
    (params, cfg) when none is given, and keeps the run state: the KV
    cache, the residual rows, the trace arena and the step log. A plan
    built for another params object, or for a config of other exactness,
    is refused.

    One step runs P new positions of all B sequences through every layer as
    matmuls on (P*B, d) rows against the KV cache, with a causal mask when
    P > 1. A layer's H heads run at once: one Q/K/V product gives
    [q_h; k_h; v_h] of every head, into all H*(2 d_k + d_v) columns also
    where the plan computes only the live ones, keys and values of every
    head share one cache row per position, and the head outputs are
    concatenated into one H*d_v vector per position for the (d, H*d_v)
    output matrix. A layer without heads skips its attention half and a
    layer without MLP rows its MLP half: `x_mid` = x + 0.0 and `x_out` =
    x_mid + 0.0, which is what the full half gives bit for bit, since x is
    already a value of the activation format and the half adds +0.0. The
    embeddings are not rounded: ternary codes and +-1 position bits are
    elements of every format. The trace keeps its shapes, with a read-only
    zero `y` that takes no room in the trace arena. At the audit capture
    level a layer step reduces its score rows (`_score_rows`) and its
    activation vectors (`_nonternary`) as it computes them and keeps only
    the reductions; without capture neither runs.

    The scores stay `keys @ q`, since another operand order sums rotary
    scores in another order and changes their bits. The plan's `exact`
    decides the step: where no sum depends on its grouping, `extend` runs
    a whole block as one step, with future keys masked by -inf and each
    row's softmax denominator and att_err summed over its own keys
    (`_causal_sum`). Every other model steps one position at a time.

    `truncate` rewinds to a prefix: the kept rows stay as they are, and the
    next `extend` overwrites the dropped ones. Rounding saturations are
    counted per step, so each step logs its start and the count before it,
    and a cut into a block step that counted saturations runs the step's
    kept positions again from that count.
    """

    def __init__(
        self,
        params: TransformerParams,
        cfg: EvalConfig,
        batch: int | None = None,
        plan: EvalPlan | None = None,
    ):
        if batch is not None and batch < 1:
            raise ValueError("batch must be >= 1")
        if plan is None:
            plan = EvalPlan(params, cfg)
        elif plan.params is not params:
            raise ValueError("the plan was built for another params object")
        elif plan.exact != _sums_exactly(params, cfg):
            kind = "" if plan.exact else "not "
            raise ValueError(f"the plan was built for a config whose sums are {kind}exact")
        self.params = params
        self.cfg = cfg
        self.batch = batch
        self.plan = plan
        self.tokens: list = []  # per position: a str, or B strs for a batch
        n_seq = batch or 1
        dims = params.dims
        d, d_k, d_v = dims.d, dims.d_k, dims.d_v
        pos = params.positional
        if isinstance(pos, BinaryAbsolute):  # the coordinates of bits 0..r-1, and 2^0..2^(r-1)
            self._pos_bits = np.array(pos.coords, np.intp), 1 << np.arange(pos.r)
        self._rotary = pos if isinstance(pos, RotaryOnly) else None
        self._formats = cfg.act_precision.fmt, cfg.att_precision.fmt  # None: exact
        # Per position: (B*H, d_k + d_v) rotated, scaled and rounded keys,
        # then values, of each sequence and head; (B, d) final
        # representations. With capture, the trace arena: (B, .) rows of
        # the arrays of `ActivationTrace` that the capture level keeps, by
        # name. Grown by reserve.
        self._capacity = 0
        self._kv = [np.empty((0, n_seq * h, d_k + d_v)) for h, _ in plan.sizes]
        self._x = np.empty((0, n_seq, d))
        self._steps: list[tuple[int, int]] = []  # per step: its start, saturations before it
        self._sqrt_dk = math.sqrt(d_k)
        self.trace = ActivationTrace(
            layers=[LayerTrace() for _ in params.layers], capture=cfg.capture_trace
        )
        self._arena: dict[str, np.ndarray] = {}
        # Per layer: its heads' range of ΣH; with full capture its stream
        # columns by name (no y without heads); with audit capture the
        # first columns of its activation vectors in the row that
        # _nonternary concatenates.
        self._heads: list[slice] = []
        self._cols: list[dict[str, slice]] = []
        self._vectors: list[np.ndarray] = []
        n_heads = 0
        for h, _ in plan.sizes:
            self._heads.append(slice(n_heads, n_heads + h))
            n_heads += h
        if cfg.capture_trace is True:
            col, starts = d, [0] if d else []  # x0 is columns [0, d)
            for h, m in plan.sizes:
                cols = {}
                widths = dict(y=d, x_mid=d, hidden=m, x_out=d)
                if not h:
                    del widths["y"]
                for name, width in widths.items():
                    if width:
                        starts.append(col)
                    cols[name] = slice(col, col + width)
                    col += width
                self._cols.append(cols)
            self.trace.stream_starts = np.array(starts, np.intp)
            shapes = dict(stream=(col,), q=(n_heads, d_k), k=(n_heads, d_k), v=(n_heads, d_v))
            shapes.update(o=(n_heads, d_v), dots=(n_heads, 0), att_err=(n_heads,))
            self._arena = {k: np.empty((0, n_seq, *v)) for k, v in shapes.items()}
        elif cfg.capture_trace:
            self._vectors = plan.audit_vectors
            dtypes = dict(zip(_SCORE_ROWS, (bool, np.int32, bool, np.float64)))
            shapes = {name: ((n_heads,), dtype) for name, dtype in dtypes.items()}
            shapes["nonternary"] = ((len(params.layers),), np.int32)
            self._arena = {k: np.empty((0, n_seq, *v), dt) for k, (v, dt) in shapes.items()}

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
        x = self.plan.emb[np.array([[params.token_index(tok) for tok in row] for row in rows])]
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
        self.reserve(start + len(tokens))
        x = self._embed(tokens, start)
        self.tokens += tokens
        if self.plan.exact:
            self._step(x, start)
        else:
            for i in range(len(tokens)):
                self._step(x[:, i : i + 1], start + i)
        self._view_trace()

    def truncate(self, n: int) -> None:
        """Keep the first n positions and drop the rest; n at or past the
        end keeps all. The kept positions are unchanged, since evaluation is
        causal, and the next `extend` overwrites the dropped rows. A step's
        saturation count covers all its positions, so where n cuts a step
        that counted saturations, the count goes back to its value before
        that step and the step's kept positions run again. The trace's
        `output_scores`, `output_gaps` and `tie_warnings` count decoded
        steps, not positions, and are kept."""
        if n < 0:
            raise ValueError(f"cannot keep {n} positions")
        if n >= len(self.tokens):
            return
        steps, end, saturations = self._steps, len(self.tokens), self.trace.saturations
        while steps and steps[-1][0] >= n:  # steps wholly past the cut
            end, saturations = steps.pop()
        rerun = end > n and steps[-1][1] != saturations
        if rerun:  # the step cut at n counted saturations
            start, saturations = steps.pop()
        del self.tokens[n:]
        self.trace.saturations = saturations
        if rerun:
            self._step(self._embed(self.tokens[start:], start), start)
        self._view_trace()

    def _view_trace(self) -> None:
        """Cut the trace's views to the positions run."""
        if not self._arena:
            return
        trace, n = self.trace, len(self.tokens)
        pick = 0 if self.batch is None else slice(None)
        for name, a in self._arena.items():
            setattr(trace, name, a[:n, pick, ..., :n] if name == "dots" else a[:n, pick])
        if not self._cols:  # an audit trace has no layer views
            return
        stream = trace.stream
        trace.x0 = stream[..., : self.params.dims.d]
        zeros = np.broadcast_to(0.0, trace.x0.shape)  # the read-only y of a layer without heads
        for lt, heads, cols in zip(trace.layers, self._heads, self._cols):
            for name in ("q", "k", "v", "o", "dots"):
                setattr(lt, name, getattr(trace, name)[..., heads, :])
            lt.att_err = trace.att_err[..., heads]
            for name, c in cols.items():
                setattr(lt, name, stream[..., c])
            if "y" not in cols:
                lt.y = zeros

    def reserve(self, n: int) -> None:
        """Room for n positions, doubling the capacity (16 at least), so
        that an evaluator that knows how far it may run need not grow. Only
        the positions run so far are copied: the next `extend` writes the
        rest."""
        if n <= self._capacity:
            return
        while self._capacity < n:
            self._capacity = max(16, 2 * self._capacity)
        run = len(self.tokens)

        def grown(a: np.ndarray, name: str = "") -> np.ndarray:
            """a with the new capacity on its first axis. The dots buffer
            grows on its last axis too, with -inf in the new room, and
            att_err with 0, since only rounded softmax weights write it."""
            cap = self._capacity
            if name == "dots":
                out = np.full((cap, *a.shape[1:-1], cap), -np.inf)
                out[:run, ..., :run] = a[:run, ..., :run]
                return out
            shape = (cap, *a.shape[1:])
            out = np.zeros(shape) if name == "att_err" else np.empty(shape, a.dtype)
            out[:run] = a[:run]
            return out

        self._kv = [grown(kv) for kv in self._kv]
        self._x = grown(self._x)
        self._arena = {k: grown(a, k) for k, a in self._arena.items()}

    def _step(self, x: np.ndarray, start: int) -> None:
        """Run the (B, P, d) embeddings of positions start .. start+P-1.

        The residual stream is (P*B, d) rows, position-major, and attention
        runs on (B*H, .) stacks, so that one position of one sequence takes
        the same numpy calls as a plain incremental step.
        """
        params, cfg = self.params, self.cfg
        n_seq, n_new, d = x.shape
        n = start + n_new
        self._steps.append((start, self.trace.saturations))
        capture, audit = cfg.capture_trace is True, cfg.capture_trace == "audit"
        rotary = self._rotary
        c = params.qk_scale
        d_k, d_v = params.dims.d_k, params.dims.d_v
        softmax_mode = cfg.attention == "softmax"
        act, att = self._formats
        rnd = _unrounded if act is None and att is None else self._round
        # key j is in the future of query row i when j > start + i
        future = np.arange(n) > np.arange(start, n)[:, None] if n_new > 1 else None

        # ternary codes and +-1 position bits are elements of every format
        x = x.swapaxes(0, 1).reshape(n_new * n_seq, d)
        arena = self._arena
        if capture:
            arena["stream"][start:n, :, :d] = x.reshape(n_new, n_seq, d)
        if audit:  # (P*B, L) activation vectors outside {-1, 0, 1}; x0 joins layer 0's
            nonternary, vectors = np.zeros((n_new * n_seq, len(self.plan.layers)), np.int32), [x]
        for li, ((attention, mlp), kv) in enumerate(zip(self.plan.layers, self._kv)):
            # x is a value of act: an embedding, or rounded at the end of
            # the layer before. Without heads y is +0.0, so x_mid = rnd(x +
            # y, act) is x + 0.0, bit for bit and with no saturation, and on
            # a row that no neuron writes x_out is x_mid + 0.0 the same way.
            if attention is None:
                x_mid = x + 0.0
            else:
                n_heads, qkv_in, wqkv, qkv_out, qkv_scale, o_in, wo = attention
                qkv = x.take(qkv_in, axis=1).dot(wqkv)
                if qkv_out is None:
                    qkv = qkv.reshape(n_new * n_seq, n_heads, 2 * d_k + d_v)  # q, k, v per head
                    if rotary is not None:  # one position per step
                        for qk in (slice(0, d_k), slice(d_k, 2 * d_k)):
                            qkv[..., qk] = rope_rotate(qkv[..., qk], start, rotary.freqs)
                    if c != 1.0:
                        qkv[..., : 2 * d_k] *= c
                    qkv = rnd(qkv, act)
                else:  # the live columns, scaled and rounded, into +0.0
                    if qkv_scale is not None:
                        qkv *= qkv_scale
                    live, qkv = rnd(qkv, act), np.zeros((n_new * n_seq, n_heads * (2 * d_k + d_v)))
                    qkv[:, qkv_out] = live
                    qkv = qkv.reshape(n_new * n_seq, n_heads, 2 * d_k + d_v)
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
                    best = dots.max(axis=-1, keepdims=True)
                    mask = dots == best
                    ties = mask.sum(axis=-1, keepdims=True)
                    o = (mask.astype(np.float64) @ values) / ties
                # (P, B, H, d_v) head outputs
                o = rnd(o.reshape(n_seq, n_heads, n_new, d_v).transpose(2, 0, 1, 3), act)
                y = rnd(o.reshape(n_new * n_seq, n_heads * d_v).take(o_in, axis=1).dot(wo), act)
                x_mid = rnd(x + y, act)
            x = x_mid + 0.0
            if mlp is not None:
                w1_in, w1, bias, w2_out, w2 = mlp
                hidden = x_mid.take(w1_in, axis=1).dot(w1)
                hidden += bias
                hidden = rnd(np.maximum(hidden, 0.0, out=hidden), act)
                x[:, w2_out] = rnd(x_mid.take(w2_out, axis=1) + rnd(hidden.dot(w2), act), act)
            if audit:  # (R, P) score rows to (P, B, H), and this layer's vectors
                if attention is not None:
                    heads, shape = self._heads[li], (n_seq, n_heads, n_new)
                    for name, a in zip(_SCORE_ROWS, _score_rows(dots, best, mask, ties, values)):
                        arena[name][start:n, :, heads] = a.reshape(shape).transpose(2, 0, 1)
                    vectors += [qkv.reshape(n_new * n_seq, -1), o.reshape(n_new * n_seq, -1), y]
                vectors += [x_mid, hidden, x] if mlp is not None else [x_mid, x]
                nonternary[:, li] = _nonternary(vectors, self._vectors[li])
                vectors = []
            if capture:  # (P*B, ...) rows, position-major
                heads, cols = self._heads[li], self._cols[li]
                new = dict(x_mid=x_mid, x_out=x)
                if attention is not None:  # without heads q, k, v, o, dots and att_err are empty
                    qkv = qkv.reshape(n_new, n_seq, n_heads, 2 * d_k + d_v)
                    arena["q"][start:n, :, heads] = qkv[..., :d_k]
                    arena["k"][start:n, :, heads] = qkv[..., d_k : 2 * d_k]
                    arena["v"][start:n, :, heads] = qkv[..., 2 * d_k :]
                    arena["o"][start:n, :, heads] = o
                    dots = dots.reshape(n_seq, n_heads, n_new, n).transpose(2, 0, 1, 3)
                    arena["dots"][start:n, :, heads, :n] = dots
                    if softmax_mode and att is not None:  # one error per row
                        err = _causal_sum(np.abs(weights - raw)).reshape(n_seq, n_heads, n_new)
                        arena["att_err"][start:n, :, heads] = err.transpose(2, 0, 1)
                    new["y"] = y
                if mlp is not None:  # hidden is empty without MLP rows
                    new["hidden"] = hidden
                rows = arena["stream"][start:n]
                for name, a in new.items():
                    rows[..., cols[name]] = a.reshape(n_new, n_seq, a.shape[-1])
        if audit:
            arena["nonternary"][start:n] = nonternary.reshape(n_new, n_seq, -1)
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
        scores = self._x[position].dot(self.plan.unemb_t)
        return scores[0] if self.batch is None else scores

    def next_tokens(self, position: int | None = None) -> list[str]:
        """The greedy rule, row by row: the argmax over unembedding scores
        at `position` (default the last) of every sequence.

        Ties within 1e-6 resolve to the lowest vocabulary index and are
        counted as diagnostics; the constructions never produce them. The
        scores are traced as one decoded step.
        """
        scores = self.output_scores(position)
        if self.cfg.capture_trace is True:
            self.trace.output_scores.append(scores.copy())
        elif self.cfg.capture_trace:
            self.trace.output_gaps.append(_output_gap(scores))
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


# The per-row reductions of an audit trace, in the order _score_rows gives them.
_SCORE_ROWS = ("score_integral", "score_ties", "tied_values_equal", "score_gap")


def _score_rows(
    dots: np.ndarray, best: np.ndarray, mask: np.ndarray, ties: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The audit reductions of one hardmax layer step's (R, P, n) score
    rows, each (R, P): whether every score is an integer (the -inf of
    future keys included), the count of keys tied at the maximum `best`,
    whether each tied key carries the (R, n, d_v) value of the row's first
    tied key, and the lead of the maximum over the largest other score.
    `mask` marks the tied keys and `ties` counts them, as the step computed
    them. Only rows with ties compare values."""
    integral = np.all(dots == np.rint(dots), axis=-1)
    gap = best[..., 0] - np.where(mask, -np.inf, dots).max(axis=-1)
    ties = ties[..., 0]
    equal = np.ones(ties.shape, bool)
    rr, pp = np.nonzero(ties > 1)
    if rr.size:
        tied = mask[rr, pp]  # (rows with ties, n)
        k, j = np.nonzero(tied)
        first = tied.argmax(axis=-1)[k]
        differs = np.any(values[rr[k], j] != values[rr[k], first], axis=-1)
        equal[rr[k[differs]], pp[k[differs]]] = False
    return integral, ties, equal, gap


def _nonternary(vectors: list[np.ndarray], starts: np.ndarray) -> np.ndarray | int:
    """Per row of the (rows, .) activation arrays `vectors`, the number of
    activation vectors, which begin at columns `starts` of their
    concatenation, that hold an element outside {-1, 0, 1}; NaN and +-inf
    are outside. 0 if every element is inside, as on compiled models."""
    a = np.concatenate(vectors, axis=1)
    bad = (a != 0.0) & (np.abs(a) != 1.0)
    if not bad.any():
        return 0
    return np.logical_or.reduceat(bad, starts, axis=1).sum(axis=1)


def _output_gap(scores: np.ndarray) -> np.ndarray:
    """The lead of the top output score over the next, (1,) or (B, 1);
    empty on its last axis for a vocabulary of one token."""
    top2 = np.sort(scores, axis=-1)[..., -2:]
    return top2[..., 1:] - top2[..., :-1]


def forward(
    params: TransformerParams, tokens: list[str], cfg: EvalConfig, plan: EvalPlan | None = None
) -> tuple[np.ndarray, ActivationTrace]:
    """Evaluate the full sequence, on `plan` if given; returns final
    representations and trace."""
    ev = Evaluator(params, cfg, plan=plan)
    ev.extend(tokens)
    return ev.final_representations(), ev.trace


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


def _sparse_group(items: list[tuple[np.ndarray, np.ndarray, list[tuple]]]) -> list[dict]:
    """The sparse entries {shape, at, codes} of arrays of one dtype, in
    order. An item is (at, codes) of some arrays laid end to end in C order
    (`HeadEntries`), and their shapes: each array's indices are cut out of
    the item's and counted from the array's start. The lists of all arrays
    are made with one tolist per key."""
    if not items:
        return []
    shapes, ats, codes, counts = [], [], [], []
    for at, c, item_shapes in items:
        shapes += item_shapes
        if len(item_shapes) > 1:
            sizes = np.array([math.prod(s) for s in item_shapes], np.int64)
            ends = np.cumsum(sizes)
            n = np.diff(np.searchsorted(at, ends), prepend=0)
            at = at - np.repeat(ends - sizes, n)
            counts.append(n)
        else:
            counts.append(np.full(len(item_shapes), at.size, np.int64))
        ats.append(at)
        codes.append(c)
    at, c = np.concatenate(ats).tolist(), np.concatenate(codes).tolist()
    bounds = [0, *np.cumsum(np.concatenate(counts)).tolist()]
    return [
        {"shape": list(s), "at": at[i:j], "codes": c[i:j]}
        for s, i, j in zip(shapes, bounds, bounds[1:])
    ]


def params_to_json(params: TransformerParams) -> dict:
    """The model file document. Every weight array is stored sparse: its
    shape, the flat C-order indices of its nonzero entries in increasing
    order, and their integer codes, read from the layers' entries
    (`LayerParams.parts`). The int8 arrays, in file order, are encoded as
    one group and the int32 biases as another."""
    int8 = []
    for a in params.emb, params.unemb:
        at = np.flatnonzero(a)
        int8.append((at, a.reshape(-1)[at], [a.shape]))
    biases = []
    parts = [layer.parts() for layer in params.layers]
    for heads, mlp in parts:
        (w1, bias4, w2), shapes = mlp.entries(), mlp.array_shapes()
        int8 += [(*heads.entries(), heads.array_shapes()), (*w1, shapes[:1]), (*w2, shapes[2:])]
        biases.append((*bias4, shapes[1:2]))
    entries = iter(_sparse_group(int8))
    biases = iter(_sparse_group(biases))
    emb, unemb = next(entries), next(entries)
    layers = []
    for heads, _ in parts:
        heads = [{k: next(entries) for k in _HEAD_KEYS} for _ in range(heads.n)]
        w1, bias4, w2 = next(entries), next(biases), next(entries)
        layers.append({"heads": heads, "w1": w1, "bias4": bias4, "w2": w2})
    return {
        "format": MODEL_FORMAT,
        "dims": dict(vars(params.dims)),
        "vocab": params.vocab,
        "positional": _pos_to_json(params.positional),
        "qk_scale": float(params.qk_scale).hex(),
        "source": params.source,
        "mode": params.mode,
        "meta": dict(params.meta),
        "emb": emb,
        "unemb": unemb,
        "layers": layers,
    }


# The checks on one sparse entry, in the order they are made: the walk's
# (its layer, its type and shape; then whether `at`, and then `codes`, is a
# list), interleaved with the whole-model ones (the lists' items plain
# integers, each within int64, equal lengths, indices, codes). A document
# is refused for the first entry that fails one, with its earliest check.
_ENTRY, _AT_INTS, _AT_INT64, _CODE_INTS, _CODE_INT64, _LENGTHS, _INDICES, _CODES = range(8)


class _SparseEntries:
    """The sparse weight entries of a model document in the order they are
    checked: layer by layer, each head's wq, wk, wv and wo, then w1, bias4
    and w2; then emb and unemb. `add` checks what needs no numpy; `read`
    checks the rest over all entries at once and returns them."""

    def __init__(self) -> None:
        self.parts: list[tuple] = []  # name parts, such as ("layer", 3, "head", 1, "wq")
        self.shapes: list[tuple[int, ...]] = []
        self.wide: list[bool] = []  # int32 (bias4), else int8
        self.offsets: list[int] = []  # where the array starts among its layer's heads
        self.ats: list[list] = []
        self.codes: list[list] = []
        # Where the walk stopped: the exception it raised at entry
        # len(self.codes), and the check it raised it in.
        self.stop: tuple[BaseException, int] | None = None
        self._at = _ENTRY

    def add(
        self, entry, parts: tuple, shape: tuple[int, ...], wide: bool = False, offset: int = 0
    ) -> None:
        if type(entry) is not dict:
            raise ValueError(f"{_name(parts)} must be a sparse array {{shape, at, codes}}")
        if entry["shape"] != list(shape) or not all(type(n) is int for n in entry["shape"]):
            raise ValueError(f"{_name(parts)} has shape {entry['shape']!r}, expected {list(shape)}")
        self.parts.append(parts)
        self.shapes.append(shape)
        self.wide.append(wide)
        self.offsets.append(offset)
        self._at = _AT_INTS
        self.ats.append(_list(entry["at"], parts, "at"))
        self._at = _CODE_INTS
        self.codes.append(_list(entry["codes"], parts, "codes"))
        self._at = _ENTRY

    def stopped(self, exc: BaseException) -> None:
        self.stop = exc, self._at

    def read(self) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """The indices of every entry, each plus its offset, and the codes,
        as one int64 array each, with the first item of each entry in them
        and their end. Raises the first failure of the first failing
        entry."""
        failure = self.stop
        limit = len(self.codes)  # entries before the first known failure
        rank = _ENTRY if failure is None else failure[1]

        def fail(entry: int, check: int, exc: BaseException) -> None:
            nonlocal failure, limit, rank
            if (entry, check) < (limit, rank):
                failure, limit, rank = (exc, check), entry, check

        def examined(check: int) -> int:
            """How many entries a check can find an earlier failure in."""
            return limit + (check < rank)

        at, n_at, owner = self._read(self.ats[: examined(_AT_INTS)], _AT_INTS, "at", fail)
        codes, n_codes, _ = self._read(
            self.codes[: examined(_CODE_INTS)], _CODE_INTS, "codes", fail
        )
        first = _first(n_at[:limit] != n_codes[:limit], np.arange(limit))
        if first is not None:
            msg = f"has {n_at[first]} indices but {n_codes[first]} codes"
            fail(first, _LENGTHS, ValueError(f"{_name(self.parts[first])} {msg}"))
        k = limit  # the entries whose lists were read and agree in length
        n = int(n_at[:k].sum())
        at, codes, owner = at[:n], codes[:n], owner[:n]
        sizes = np.array([math.prod(s) for s in self.shapes[:k]], np.int64)
        bad = (at < 0) | (at >= sizes[owner])
        bad[1:] |= (at[1:] <= at[:-1]) & (owner[1:] == owner[:-1])
        first = _first(bad, owner)
        if first is not None:
            msg = f"indices must be strictly increasing and in [0, {sizes[first]})"
            fail(first, _INDICES, ValueError(f"{_name(self.parts[first])} {msg}"))
        wide = np.array(self.wide[:k], bool)
        high = np.where(wide, np.iinfo(np.int32).max, np.iinfo(np.int8).max)[owner]
        first = _first((codes == 0) | (codes < -high - 1) | (codes > high), owner)
        if first is not None:
            msg = f"codes must be nonzero and within {'int32' if wide[first] else 'int8'}"
            fail(first, _CODES, ValueError(f"{_name(self.parts[first])} {msg}"))
        if failure is not None:
            raise failure[0]
        at = at + np.array(self.offsets, np.int64)[owner]
        return at, codes, [0, *np.cumsum(n_at).tolist()]

    def _read(self, fields: list[list], check: int, key: str, fail):
        """One key's lists of the first len(fields) entries as one int64
        array, with each entry's length and each item's entry. Items that
        are not plain integers fail `check` and items beyond int64 the
        check after it; only the items of entries before a failure are
        read."""
        lengths = np.fromiter(map(len, fields), np.int64, count=len(fields))
        owner = np.repeat(np.arange(len(fields)), lengths)
        chained = itertools.chain.from_iterable
        if not set(map(type, chained(fields))) <= {int}:
            types = np.fromiter(map(type, chained(fields)), object, count=owner.size)
            first = _first(types != int, owner)
            msg = f"{_name(self.parts[first])} {key} must be a list of integers"
            fail(first, check, ValueError(msg))
            fields = fields[:first]
            owner = owner[: lengths[:first].sum()]
        try:
            values = np.fromiter(chained(fields), np.int64, count=owner.size)
        except OverflowError as exc:
            beyond = (not -(2**63) <= v < 2**63 for v in chained(fields))
            first = _first(np.fromiter(beyond, bool, count=owner.size), owner)
            fail(first, check + 1, exc)
            owner = owner[: lengths[:first].sum()]
            values = np.fromiter(chained(fields[:first]), np.int64, count=owner.size)
        return values, lengths, owner


def _first(bad: np.ndarray, owner: np.ndarray) -> int | None:
    """The entry that owns the first set flag, or None."""
    return int(owner[bad.argmax()]) if bad.any() else None


def _list(values, parts: tuple, key: str) -> list:
    if type(values) is not list:
        raise ValueError(f"{_name(parts)} {key} must be a list of integers")
    return values


def params_from_json(doc: dict) -> TransformerParams:
    """Parse a model file document and check it against the model contract.
    Shapes come from dims. The sparse entries are checked together
    (`_SparseEntries`), and each layer keeps its entries as they are
    (`LayerParams.held`): its heads' indices shifted to their place in the
    heads' layout, its codes as int8, and int32 for bias4. Only emb and
    unemb are scattered into arrays. `validate_weights` then checks the
    codes' ranges."""
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
    starts = np.cumsum([0, *(math.prod(s) for s in head_shapes)]).tolist()
    entries, sizes = _SparseEntries(), []
    try:
        for li, ldoc in enumerate(doc["layers"]):
            if len(ldoc["heads"]) > dims.n_heads:
                raise ValueError(f"layer {li} has more than n_heads = {dims.n_heads} heads")
            for hi, h in enumerate(ldoc["heads"]):
                for k, shape, start in zip(_HEAD_KEYS, head_shapes, starts):
                    offset = hi * starts[-1] + start
                    entries.add(h[k], ("layer", li, "head", hi, k), shape, offset=offset)
            m = ldoc["bias4"]["shape"][0] if ldoc["bias4"]["shape"] else None
            if type(m) is not int or not 0 <= m <= dims.d_ff:
                raise ValueError(
                    f"layer {li} bias4 shape must be [m], 0 <= m <= d_ff = {dims.d_ff}"
                )
            sizes.append((len(ldoc["heads"]), m))
            entries.add(ldoc["w1"], ("layer", li, "w1"), (m, d))
            entries.add(ldoc["bias4"], ("layer", li, "bias4"), (m,), wide=True)
            entries.add(ldoc["w2"], ("layer", li, "w2"), (d, m))
        entries.add(doc["emb"], ("emb",), (n_vocab, d))
        entries.add(doc["unemb"], ("unemb",), (n_vocab, d))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        entries.stopped(exc)  # raised by `read` unless an earlier entry fails
    at, codes, bounds = entries.read()
    int8, int32 = codes.astype(np.int8), codes.astype(np.int32)  # each entry's by its dtype

    def cut(i: int, n: int = 1, dtype: np.ndarray = int8) -> tuple[np.ndarray, np.ndarray]:
        """(at, codes) of the n entries from entry i on."""
        return at[bounds[i] : bounds[i + n]], dtype[bounds[i] : bounds[i + n]]

    layers, i = [], 0
    for h, m in sizes:
        heads = HeadEntries(h, (d, dims.d_k, dims.d_v), *cut(i, 4 * h))
        i += 4 * h
        mlp = MlpEntries(m, d, cut(i), cut(i + 1, dtype=int32), cut(i + 2))
        layers.append(LayerParams.held(heads, mlp))
        i += 3
    emb, unemb = np.zeros((2, n_vocab * d), np.int8)
    for a, (a_at, a_codes) in ((emb, cut(i)), (unemb, cut(i + 1))):
        a[a_at] = a_codes
    params = TransformerParams(
        dims=dims,
        vocab=list(doc["vocab"]),
        emb=emb.reshape(n_vocab, d),
        unemb=unemb.reshape(n_vocab, d),
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
    with open(path, encoding="utf-8") as f:
        return params_from_json(json.load(f))
