"""Transformer parameters and the exact evaluation engine.

Weights are stored as small-integer codes in {0,+-1,+-2}; query/key
projections additionally carry one shared positive scale c (1 for plain
hardmax constructions). Evaluation is causal and incremental: each
position is processed once through all layers against cached keys/values,
so autoregressive generation never recomputes a prefix. Hardmax decisions
compare raw integer dot products, sidestepping the 1/sqrt(d_k) division.

Each layer runs as one step over its H built heads: one fused Q/K/V
matvec, one KV cache of shape (positions, H, d_k + d_v), attention for all
heads at once, one (d, H*d_v) output matvec, and one rounding call per
quantity. The trace keeps one entry per position: an (H, .) array for the
head quantities q, k, v, dots and o, a vector for y, x_mid, hidden, x_out.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .fpcore import EXACT, Precision, round_array

__all__ = [
    "Dims",
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
    "Evaluator",
    "forward",
    "next_token",
    "params_to_json",
    "params_from_json",
]


class EvalError(RuntimeError):
    pass


@dataclass(frozen=True)
class Dims:
    d: int
    d_k: int
    d_v: int
    d_ff: int
    n_heads: int
    n_layers: int


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
    mode: str = "hardmax"  # hardmax | scaled-softmax | denoised-softmax
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
        """Check the model contract: ternary embeddings and attention weights,
        MLP codes in {0,+-1,+-2}, biases in [-d-1, d+1], and every shape
        within the dims budgets (at most n_heads heads, d_ff MLP rows)."""
        dims, d, n_vocab = self.dims, self.dims.d, len(self.vocab)
        if len(set(self.vocab)) != n_vocab:
            raise ValueError("vocabulary tokens must be unique")
        pos = self.positional
        if isinstance(pos, BinaryAbsolute):
            if not all(0 <= c < d for c in pos.coords):
                raise ValueError(f"positional coordinates must lie in [0, {d})")
            if self.meta.get("r", pos.r) != pos.r:
                raise ValueError(f"meta.r = {self.meta['r']} but positional.r = {pos.r}")
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
            if np.abs(a).max(initial=0) > bound:
                raise ValueError(f"{name} codes must lie in [-{bound}, {bound}]")
        if not self.qk_scale > 0:
            raise ValueError("qk_scale must be positive")


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


@dataclass
class LayerTrace:
    q: list[np.ndarray] = field(default_factory=list)  # [pos] -> (H, d_k)
    k: list[np.ndarray] = field(default_factory=list)  # [pos] -> (H, d_k)
    v: list[np.ndarray] = field(default_factory=list)  # [pos] -> (H, d_v)
    dots: list[np.ndarray] = field(default_factory=list)  # [pos] -> (H, pos+1) q.k products
    o: list[np.ndarray] = field(default_factory=list)  # [pos] -> (H, d_v)
    y: list[np.ndarray] = field(default_factory=list)  # [pos] -> (d,)
    x_mid: list[np.ndarray] = field(default_factory=list)
    hidden: list[np.ndarray] = field(default_factory=list)  # [pos] -> (m,) MLP activations
    x_out: list[np.ndarray] = field(default_factory=list)


@dataclass
class ActivationTrace:
    x0: list[np.ndarray] = field(default_factory=list)
    layers: list[LayerTrace] = field(default_factory=list)
    output_scores: list[np.ndarray] = field(default_factory=list)  # per decoded step
    tie_warnings: int = 0
    saturations: int = 0  # rounded elements that exceeded their format

    def representation_arrays(self) -> Iterable[tuple[str, np.ndarray]]:
        """Every activation the ternary-activation definition quantifies over.

        Each field is stacked over positions, so the last axis of every array
        is one activation vector: (P, d) for x0, y, x_mid and x_out, (P, m)
        for hidden, (P, H, d_k|d_v) for q, k, v and o. Raw MLP outputs are
        excluded: a zero-and-rewrite operation pair legitimately sums to +-2
        there, while the post-residual x stays ternary. Everything listed
        here must be exactly in {-1, 0, 1} on valid inputs of compiled models.
        """
        if not self.x0:
            return
        yield "x0", np.stack(self.x0)
        for li, lt in enumerate(self.layers):
            for name in ("q", "k", "v", "o", "y", "x_mid", "hidden", "x_out"):
                yield f"L{li}.{name}", np.stack(getattr(lt, name))


def hardmax_weights(scores: np.ndarray) -> np.ndarray:
    """1/|J| on the argmax set J, 0 elsewhere."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("hardmax of empty score list")
    best = scores.max()
    mask = scores == best
    return mask / mask.sum()


def softmax_weights(scores: np.ndarray) -> np.ndarray:
    """Standard softmax over the last axis with max subtraction, in float64."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim == 0 or scores.shape[-1] == 0:
        raise ValueError("softmax of empty score list")
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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


class Evaluator:
    """Incremental causal evaluator over a growing token sequence.

    A layer's H heads run as one step: Q/K/V rows are stacked per head as
    [q_h; k_h; v_h] into one (H*(2 d_k + d_v), d) matrix, keys and values
    of every head share one cache row per position, and the head outputs
    are concatenated into one (H*d_v,) vector for the (d, H*d_v) output
    matrix. A layer without heads runs the same code on empty arrays, but
    computes no attention weights and rounds nothing empty.
    """

    def __init__(self, params: TransformerParams, cfg: EvalConfig):
        self.params = params
        self.cfg = cfg
        self.tokens: list[str] = []
        dims = params.dims
        d, d_k, d_v = dims.d, dims.d_k, dims.d_v
        self._emb = params.emb.astype(np.float64)
        self._unemb = params.unemb.astype(np.float64)
        self._w = []
        for layer in params.layers:
            n_heads = len(layer.heads)
            wqkv = np.array([np.concatenate([h.wq, h.wk, h.wv]) for h in layer.heads], np.float64)
            wo = np.array([h.wo for h in layer.heads], np.float64).reshape(n_heads, d, d_v)
            self._w.append(
                (
                    wqkv.reshape(n_heads * (2 * d_k + d_v), d),
                    wo.transpose(1, 0, 2).reshape(d, n_heads * d_v),
                    layer.w1.astype(np.float64),
                    layer.bias4.astype(np.float64) / 4.0,
                    layer.w2.astype(np.float64),
                )
            )
        # (positions, H, d_k + d_v) rotated, scaled and rounded keys, then values
        self._capacity = 16
        self._kv = [np.empty((16, len(layer.heads), d_k + d_v)) for layer in params.layers]
        self._final: list[np.ndarray] = []
        self._sqrt_dk = math.sqrt(d_k)
        self.trace = ActivationTrace(layers=[LayerTrace() for _ in params.layers])

    # -- rounding helpers ---------------------------------------------------

    def _round(self, x: np.ndarray, prec: Precision) -> np.ndarray:
        if prec.exact or x.size == 0:
            return x
        y, saturated = round_array(x, prec.fmt)
        self.trace.saturations += saturated
        return y

    # -- core ---------------------------------------------------------------

    def _embed(self, tok: str, position: int) -> np.ndarray:
        params = self.params
        x = self._emb[params.token_index(tok)].copy()
        pos = params.positional
        if isinstance(pos, BinaryAbsolute):
            if position >= 2 ** pos.r:
                raise EvalError(
                    f"position {position} does not fit {pos.r} positional bits"
                )
            for s, coord in enumerate(pos.coords):
                x[coord] = 1.0 if (position >> s) & 1 else -1.0
        return x

    def extend(self, tokens: Iterable[str]) -> None:
        for tok in tokens:
            self._process(tok)

    def _process(self, tok: str) -> None:
        params, cfg = self.params, self.cfg
        pos_idx = len(self.tokens)
        n = pos_idx + 1
        self.tokens.append(tok)
        capture = cfg.capture_trace
        rotary = params.positional if isinstance(params.positional, RotaryOnly) else None
        c = params.qk_scale
        d_k, d_v = params.dims.d_k, params.dims.d_v
        softmax_mode = cfg.attention == "softmax"
        act = cfg.act_precision
        rnd = self._round

        x = rnd(self._embed(tok, pos_idx), act)
        if capture:
            self.trace.x0.append(x)
        if pos_idx == self._capacity:
            self._capacity *= 2
            self._kv = [np.concatenate([kv, np.empty_like(kv)]) for kv in self._kv]

        for (wqkv, wo, w1, bias, w2), kv, lt in zip(self._w, self._kv, self.trace.layers):
            qkv = (wqkv @ x).reshape(-1, 2 * d_k + d_v)  # q, k, v of each head
            if rotary is not None:
                qkv[:, :d_k] = rope_rotate(qkv[:, :d_k], pos_idx, rotary.freqs)
                qkv[:, d_k : 2 * d_k] = rope_rotate(qkv[:, d_k : 2 * d_k], pos_idx, rotary.freqs)
            if c != 1.0:
                qkv[:, : 2 * d_k] *= c
            qkv = rnd(qkv, act)
            q = qkv[:, :d_k]
            kv[pos_idx] = qkv[:, d_k:]
            keys = kv[:n, :, :d_k].transpose(1, 0, 2)  # (H, n, d_k)
            values = kv[:n, :, d_k:].transpose(1, 0, 2)  # (H, n, d_v)
            dots = (keys @ q[:, :, None])[:, :, 0]  # (H, n)
            if not len(q):  # a layer without heads
                o = qkv[:, 2 * d_k :]  # (0, d_v)
            elif softmax_mode:
                weights = rnd(softmax_weights(dots / self._sqrt_dk), cfg.att_precision)
                o = (weights[:, None, :] @ values)[:, 0, :]
            else:
                # Sum over the argmax set, then divide once: exact for
                # the integer-valued activations of compiled models.
                mask = dots == dots.max(axis=1, keepdims=True)
                count = mask.sum(axis=1, keepdims=True)
                o = (mask.astype(np.float64)[:, None, :] @ values)[:, 0, :] / count
            o = rnd(o, act)
            y = rnd(wo @ o.ravel(), act)
            x_mid = rnd(x + y, act)
            hidden = rnd(np.maximum(w1 @ x_mid + bias, 0.0), act)
            x = rnd(x_mid + rnd(w2 @ hidden, act), act)
            if capture:
                lt.q.append(q)
                lt.k.append(qkv[:, d_k : 2 * d_k])
                lt.v.append(qkv[:, 2 * d_k :])
                lt.dots.append(dots)
                lt.o.append(o)
                lt.y.append(y)
                lt.x_mid.append(x_mid)
                lt.hidden.append(hidden)
                lt.x_out.append(x)
        self._final.append(x)

    # -- outputs ------------------------------------------------------------

    def final_representations(self) -> np.ndarray:
        return np.stack(self._final)

    def output_scores_last(self) -> np.ndarray:
        if not self._final:
            raise EvalError("no tokens processed")
        return self._unemb @ self._final[-1]

    def next_token(self) -> str:
        """Greedy argmax over unembedding scores at the last position.

        Ties within 1e-6 resolve to the lowest vocabulary index and are
        counted as diagnostics; the constructions never produce them.
        """
        scores = self.output_scores_last()
        if self.cfg.capture_trace:
            self.trace.output_scores.append(scores.copy())
        best = int(np.argmax(scores))
        near = np.nonzero(scores >= scores[best] - 1e-6)[0]
        if near.size > 1:
            self.trace.tie_warnings += 1
            best = int(near.min())
        return self.params.vocab[best]


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
    return NoPositional()


def _header_to_json(params: TransformerParams) -> dict:
    d = params.dims
    return {
        "dims": {
            "d": d.d,
            "d_k": d.d_k,
            "d_v": d.d_v,
            "d_ff": d.d_ff,
            "n_heads": d.n_heads,
            "n_layers": d.n_layers,
        },
        "vocab": params.vocab,
        "positional": _pos_to_json(params.positional),
        "qk_scale": float(params.qk_scale).hex(),
        "source": params.source,
        "mode": params.mode,
        "meta": dict(params.meta),
        "emb": params.emb.astype(int).tolist(),
        "unemb": params.unemb.astype(int).tolist(),
    }


def _layer_to_json(layer: LayerParams) -> dict:
    return {
        "heads": [
            {
                "wq": h.wq.astype(int).tolist(),
                "wk": h.wk.astype(int).tolist(),
                "wv": h.wv.astype(int).tolist(),
                "wo": h.wo.astype(int).tolist(),
            }
            for h in layer.heads
        ],
        "w1": layer.w1.astype(int).tolist(),
        "bias4": layer.bias4.astype(int).tolist(),
        "w2": layer.w2.astype(int).tolist(),
    }


def params_to_json(params: TransformerParams) -> dict:
    """The model file document; "layers" is its last key."""
    layers = [_layer_to_json(layer) for layer in params.layers]
    return {**_header_to_json(params), "layers": layers}


def _codes(value, ndim: int, dtype, name: str) -> np.ndarray:
    """A model-file weight list as an integer array. Entries that are not
    integers (1.5, true) are refused: numpy would truncate or convert them."""
    flat = value
    for _ in range(ndim - 1):
        flat = itertools.chain.from_iterable(flat)
    if not set(map(type, flat)) <= {int}:
        raise ValueError(f"{name} entries must be integers")
    return np.array(value, dtype=dtype)


def params_from_json(doc: dict) -> TransformerParams:
    """Parse a model file document and check it against the model contract."""
    dims = Dims(**doc["dims"])
    layers = []
    for li, ldoc in enumerate(doc["layers"]):
        heads = [
            HeadParams(
                *(
                    _codes(h[k], 2, np.int8, f"layer {li} head {hi} {k}")
                    for k in ("wq", "wk", "wv", "wo")
                )
            )
            for hi, h in enumerate(ldoc["heads"])
        ]
        w1 = _codes(ldoc["w1"], 2, np.int8, f"layer {li} w1")  # [] for a layer without neurons
        layers.append(
            LayerParams(
                heads=heads,
                w1=w1.reshape(0, dims.d) if w1.shape == (0,) else w1,
                bias4=_codes(ldoc["bias4"], 1, np.int32, f"layer {li} bias4"),
                w2=_codes(ldoc["w2"], 2, np.int8, f"layer {li} w2"),
            )
        )
    params = TransformerParams(
        dims=dims,
        vocab=list(doc["vocab"]),
        emb=_codes(doc["emb"], 2, np.int8, "emb"),
        unemb=_codes(doc["unemb"], 2, np.int8, "unemb"),
        positional=_pos_from_json(doc["positional"]),
        layers=layers,
        qk_scale=float.fromhex(doc["qk_scale"]),
        source=doc.get("source", ""),
        mode=doc.get("mode", "hardmax"),
        meta=dict(doc.get("meta", {})),
    )
    params.validate_weights()
    return params


def save_model(params: TransformerParams, path: str) -> None:
    """Write `json.dumps(params_to_json(params), separators=(",", ":"))`,
    encoding one layer at a time. `json.dump` would stream through the
    pure-Python encoder; `encode` uses the C one, and writing per layer
    keeps only one layer's text in memory."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    with open(path, "w") as f:
        f.write(encode(_header_to_json(params))[:-1] + ',"layers":[')
        for i, layer in enumerate(params.layers):
            if i:
                f.write(",")
            f.write(encode(_layer_to_json(layer)))
        f.write("]}")


def load_model(path: str) -> TransformerParams:
    with open(path) as f:
        return params_from_json(json.load(f))
