"""Transformer parameters and the exact evaluation engine.

Weights are stored as small-integer codes in {0,+-1,+-2}; query/key
projections additionally carry one shared positive scale c (1 for plain
hardmax constructions). Evaluation is causal and incremental: each
position is processed once through all layers against cached keys/values,
so autoregressive generation never recomputes a prefix. Hardmax decisions
compare raw integer dot products, sidestepping the 1/sqrt(d_k) division.
"""

from __future__ import annotations

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
        if isinstance(self.positional, BinaryAbsolute) and not all(
            0 <= c < d for c in self.positional.coords
        ):
            raise ValueError(f"positional coordinates must lie in [0, {d})")
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
    q: list[list[np.ndarray]]  # [head][pos] -> (d_k,)
    k: list[list[np.ndarray]]
    v: list[list[np.ndarray]]
    dots: list[list[np.ndarray]]  # [head][pos] -> (pos+1,) query-key dot products
    weights: list[list[np.ndarray]]  # [head][pos] -> (pos+1,) attention weights
    o: list[list[np.ndarray]]  # [head][pos] -> (d_v,)
    y: list[np.ndarray]  # [pos] -> (d,)
    x_mid: list[np.ndarray]
    hidden: list[np.ndarray]  # MLP hidden activations
    z: list[np.ndarray]
    x_out: list[np.ndarray]


@dataclass
class ActivationTrace:
    x0: list[np.ndarray] = field(default_factory=list)
    layers: list[LayerTrace] = field(default_factory=list)
    output_scores: list[np.ndarray] = field(default_factory=list)  # per decoded step
    tie_warnings: int = 0
    saturations: int = 0

    def representation_arrays(self) -> Iterable[tuple[str, np.ndarray]]:
        """Every activation the ternary-activation definition quantifies over.

        Raw MLP outputs z are excluded: a zero-and-rewrite operation pair
        legitimately sums to +-2 there, while the post-residual x stays
        ternary. Everything listed here must be exactly in {-1, 0, 1} on
        valid inputs of compiled models.
        """
        for i, x in enumerate(self.x0):
            yield f"x0[{i}]", x
        for li, lt in enumerate(self.layers):
            for h in range(len(lt.q)):
                for i, arr in enumerate(lt.q[h]):
                    yield f"L{li}.q[h{h}][{i}]", arr
                for i, arr in enumerate(lt.k[h]):
                    yield f"L{li}.k[h{h}][{i}]", arr
                for i, arr in enumerate(lt.v[h]):
                    yield f"L{li}.v[h{h}][{i}]", arr
                for i, arr in enumerate(lt.o[h]):
                    yield f"L{li}.o[h{h}][{i}]", arr
            for name, store in (
                ("y", lt.y),
                ("x_mid", lt.x_mid),
                ("hidden", lt.hidden),
                ("x_out", lt.x_out),
            ):
                for i, arr in enumerate(store):
                    yield f"L{li}.{name}[{i}]", arr


def hardmax_weights(scores: np.ndarray) -> np.ndarray:
    """1/|J| on the argmax set J, 0 elsewhere."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("hardmax of empty score list")
    best = scores.max()
    mask = scores == best
    return mask / mask.sum()


def softmax_weights(scores: np.ndarray) -> np.ndarray:
    """Standard softmax with max subtraction, in float64."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("softmax of empty score list")
    e = np.exp(scores - scores.max())
    return e / e.sum()


def separation(scores: np.ndarray) -> float:
    """Gap between the maximum and the largest non-maximal score (inf if none)."""
    scores = np.asarray(scores, dtype=np.float64)
    best = scores.max()
    rest = scores[scores < best]
    if rest.size == 0:
        return math.inf
    return float(best - rest.max())


def rope_rotate(vec: np.ndarray, position: int, freqs: tuple[float, ...]) -> np.ndarray:
    """Rotate coordinate pairs (2s, 2s+1) of vec by position*freqs[s]."""
    if 2 * len(freqs) > vec.shape[-1]:
        raise ValueError("more frequency pairs than vector coordinates")
    out = np.array(vec, dtype=np.float64)
    for s, w in enumerate(freqs):
        angle = position * w
        c, sn = math.cos(angle), math.sin(angle)
        a, b = out[2 * s], out[2 * s + 1]
        out[2 * s] = c * a + sn * b
        out[2 * s + 1] = -sn * a + c * b
    return out


class _HeadState:
    """Cached (rotated, scaled, rounded) keys and values for one head."""

    __slots__ = ("keys", "values", "n")

    def __init__(self, d_k: int, d_v: int):
        self.keys = np.empty((16, d_k))
        self.values = np.empty((16, d_v))
        self.n = 0

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        if self.n == self.keys.shape[0]:
            self.keys = np.concatenate([self.keys, np.empty_like(self.keys)])
            self.values = np.concatenate([self.values, np.empty_like(self.values)])
        self.keys[self.n] = k
        self.values[self.n] = v
        self.n += 1


class Evaluator:
    """Incremental causal evaluator over a growing token sequence."""

    def __init__(self, params: TransformerParams, cfg: EvalConfig):
        self.params = params
        self.cfg = cfg
        self.tokens: list[str] = []
        dims = params.dims
        self._emb = params.emb.astype(np.float64)
        self._unemb = params.unemb.astype(np.float64)
        self._w = []
        for layer in params.layers:
            self._w.append(
                (
                    [
                        (
                            h.wq.astype(np.float64),
                            h.wk.astype(np.float64),
                            h.wv.astype(np.float64),
                            h.wo.astype(np.float64),
                        )
                        for h in layer.heads
                    ],
                    layer.w1.astype(np.float64),
                    layer.bias4.astype(np.float64) / 4.0,
                    layer.w2.astype(np.float64),
                )
            )
        self._state = [
            [_HeadState(dims.d_k, dims.d_v) for _ in layer.heads] for layer in params.layers
        ]
        self._final: list[np.ndarray] = []
        self._sqrt_dk = math.sqrt(dims.d_k)
        self.trace = ActivationTrace(
            layers=[
                LayerTrace(
                    q=[[] for _ in layer.heads],
                    k=[[] for _ in layer.heads],
                    v=[[] for _ in layer.heads],
                    dots=[[] for _ in layer.heads],
                    weights=[[] for _ in layer.heads],
                    o=[[] for _ in layer.heads],
                    y=[],
                    x_mid=[],
                    hidden=[],
                    z=[],
                    x_out=[],
                )
                for layer in params.layers
            ]
        )

    # -- rounding helpers ---------------------------------------------------

    def _round(self, x: np.ndarray, prec: Precision) -> np.ndarray:
        if prec.exact:
            return x
        y, sat = round_array(x, prec.fmt)
        if sat:
            self.trace.saturations += 1
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
        self.tokens.append(tok)
        capture = cfg.capture_trace
        rotary = params.positional if isinstance(params.positional, RotaryOnly) else None
        c = params.qk_scale
        softmax_mode = cfg.attention == "softmax"
        act = cfg.act_precision
        rnd = self._round

        x = rnd(self._embed(tok, pos_idx), act)
        if capture:
            self.trace.x0.append(x.copy())

        for li, (heads_w, w1, bias, w2) in enumerate(self._w):
            lt = self.trace.layers[li]
            y = np.zeros(params.dims.d)
            for h, (wq, wk, wv, wo) in enumerate(heads_w):
                state = self._state[li][h]
                q = wq @ x
                k = wk @ x
                v = wv @ x
                if rotary is not None:
                    q = rope_rotate(q, pos_idx, rotary.freqs)
                    k = rope_rotate(k, pos_idx, rotary.freqs)
                if c != 1.0:
                    q = c * q
                    k = c * k
                q = rnd(q, act)
                k = rnd(k, act)
                v = rnd(v, act)
                state.append(k, v)
                dots = state.keys[: state.n] @ q
                if softmax_mode:
                    scores = dots / self._sqrt_dk
                    weights = softmax_weights(scores)
                    weights = rnd(weights, cfg.att_precision)
                    o = weights @ state.values[: state.n]
                else:
                    # Sum over the argmax set, then divide once: exact for
                    # the integer-valued activations of compiled models.
                    mask = dots == dots.max()
                    count = mask.sum()
                    weights = mask / count
                    o = (mask.astype(np.float64) @ state.values[: state.n]) / count
                o = rnd(o, act)
                y += wo @ o
                if capture:
                    lt.q[h].append(q.copy())
                    lt.k[h].append(k.copy())
                    lt.v[h].append(v.copy())
                    lt.dots[h].append(dots.copy())
                    lt.weights[h].append(weights.copy())
                    lt.o[h].append(o.copy())
            y = rnd(y, act)
            x_mid = rnd(x + y, act)
            hidden = rnd(np.maximum(w1 @ x_mid + bias, 0.0), act)
            z = rnd(w2 @ hidden, act)
            x = rnd(x_mid + z, act)
            if capture:
                lt.y.append(y.copy())
                lt.x_mid.append(x_mid.copy())
                lt.hidden.append(hidden.copy())
                lt.z.append(z.copy())
                lt.x_out.append(x.copy())
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


def params_to_json(params: TransformerParams) -> dict:
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
        "layers": [
            {
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
            for layer in params.layers
        ],
    }


def params_from_json(doc: dict) -> TransformerParams:
    """Parse a model file document and check it against the model contract."""
    dims = Dims(**doc["dims"])
    layers = []
    for ldoc in doc["layers"]:
        heads = [
            HeadParams(
                wq=np.array(h["wq"], dtype=np.int8),
                wk=np.array(h["wk"], dtype=np.int8),
                wv=np.array(h["wv"], dtype=np.int8),
                wo=np.array(h["wo"], dtype=np.int8),
            )
            for h in ldoc["heads"]
        ]
        w1 = np.array(ldoc["w1"], dtype=np.int8)  # [] for a layer without neurons
        layers.append(
            LayerParams(
                heads=heads,
                w1=w1.reshape(0, dims.d) if w1.shape == (0,) else w1,
                bias4=np.array(ldoc["bias4"], dtype=np.int32),
                w2=np.array(ldoc["w2"], dtype=np.int8),
            )
        )
    params = TransformerParams(
        dims=dims,
        vocab=list(doc["vocab"]),
        emb=np.array(doc["emb"], dtype=np.int8),
        unemb=np.array(doc["unemb"], dtype=np.int8),
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
    with open(path, "w") as f:
        json.dump(params_to_json(params), f, separators=(",", ":"))


def load_model(path: str) -> TransformerParams:
    with open(path) as f:
        return params_from_json(json.load(f))
