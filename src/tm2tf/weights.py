"""How a model holds its layers' weights, and the float64 matrices that an
evaluator's plan multiplies, built from them.

A layer made from dense arrays (`LayerParams(heads, w1, bias4, w2)`) holds
those. A layer that compiling, loading or converting makes
(`LayerParams.held`) holds entries instead: for its heads (`HeadEntries`)
the increasing flat indices of the nonzero codes of their arrays laid end
to end in the order of a model file, and the codes; for its MLP
(`MlpEntries`) those of w1, bias4 and w2. Such a layer builds its dense
arrays only when code first reads `heads`, `w1`, `bias4` or `w2`; from
then on they are its weights, and `LayerParams.parts` derives their
entries afresh on each use, so an edit made through them is never
shadowed. `attention_plans` and `mlp_plans` build every layer's plan
arrays from the entries at once, with no dense pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HEAD_KEYS",
    "HeadParams",
    "HeadEntries",
    "MlpEntries",
    "LayerParams",
    "attention_plans",
    "mlp_plans",
]


# The arrays of a head, in the order of a model file.
HEAD_KEYS = ("wq", "wk", "wv", "wo")


@dataclass
class HeadParams:
    wq: np.ndarray  # (d_k, d)
    wk: np.ndarray  # (d_k, d)
    wv: np.ndarray  # (d_v, d)
    wo: np.ndarray  # (d, d_v)


def _nonzero(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(at, codes) of arrays laid end to end in C order."""
    if not arrays:
        return np.zeros(0, np.intp), np.zeros(0, np.int8)
    flat = np.concatenate([a.reshape(-1) for a in arrays])
    at = np.flatnonzero(flat)
    return at, flat[at]


class HeadEntries:
    """The heads of one layer as entries: their arrays laid end to end, per
    head wq (d_k, d), wk (d_k, d), wv (d_v, d) and wo (d, d_v), each in C
    order, as a model file lists them; `at`, the increasing flat indices of
    the nonzero codes in that layout, and `codes`, the int8 codes.

    `dense` builds the n HeadParams, views of one int8 buffer, when first
    called and keeps them: from then on they are the weights, and
    `entries` derives (at, codes) from them on every call, so that an edit
    made through them is never shadowed. `HeadEntries.of` wraps heads that
    are dense already."""

    def __init__(self, n: int, shape: tuple[int, int, int] | None, at, codes):
        self.n = n
        self.shape = shape  # (d, d_k, d_v)
        self._entries: tuple[np.ndarray, np.ndarray] | None = at, codes
        self._dense: list[HeadParams] | None = None

    @classmethod
    def of(cls, heads: list[HeadParams]) -> "HeadEntries":
        part = cls(len(heads), None, None, None)
        part._entries, part._dense = None, heads
        return part

    def array_shapes(self) -> list[tuple[int, ...]]:
        """The shape of each array, in file order."""
        if self._dense is not None:
            return [getattr(h, k).shape for h in self._dense for k in HEAD_KEYS]
        d, d_k, d_v = self.shape
        return [(d_k, d), (d_k, d), (d_v, d), (d, d_v)] * self.n

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        if self._dense is not None:
            return _nonzero([getattr(h, k) for h in self._dense for k in HEAD_KEYS])
        return self._entries

    def dense(self) -> list[HeadParams]:
        if self._dense is None:
            shapes = self.array_shapes()
            sizes = [math.prod(s) for s in shapes]
            flat = np.zeros(sum(sizes), np.int8)
            at, codes = self._entries
            flat[at] = codes
            arrays = [a.reshape(s) for a, s in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
            self._dense = [HeadParams(*arrays[i : i + 4]) for i in range(0, len(arrays), 4)]
            self._entries = None
        return self._dense


class MlpEntries:
    """The MLP of one layer as entries: for each of w1 (m, d), bias4 (m,)
    and w2 (d, m), the increasing flat indices of its nonzero codes in C
    order and the codes (int8, and int32 for bias4). `dense` and
    `entries` behave as `HeadEntries`' do."""

    def __init__(self, m: int, d: int | None, w1: tuple, bias4: tuple, w2: tuple):
        self.m, self.d = m, d
        self._entries: tuple | None = w1, bias4, w2
        self._dense: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @classmethod
    def of(cls, w1: np.ndarray, bias4: np.ndarray, w2: np.ndarray) -> "MlpEntries":
        part = cls(bias4.size, None, None, None, None)
        part._entries, part._dense = None, (w1, bias4, w2)
        return part

    def array_shapes(self) -> list[tuple[int, ...]]:
        if self._dense is not None:
            return [a.shape for a in self._dense]
        return [(self.m, self.d), (self.m,), (self.d, self.m)]

    def entries(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        if self._dense is not None:
            return tuple(_nonzero([a]) for a in self._dense)
        return self._entries

    def __iter__(self):
        """A part unpacks as its arrays (w1, bias4, w2), built by `dense`."""
        return iter(self.dense())

    def dense(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._dense is None:
            arrays = []
            for (at, codes), shape, dtype in zip(self._entries, self.array_shapes(), _MLP_DTYPES):
                a = np.zeros(shape, dtype)
                a.reshape(-1)[at] = codes
                arrays.append(a)
            self._dense, self._entries = tuple(arrays), None
        return self._dense


_MLP_DTYPES = (np.int8, np.int32, np.int8)


@dataclass
class LayerParams:
    """One layer's weights: its heads and its MLP. A layer built with these
    fields holds them as dense arrays. A layer that `held` makes, as
    compiling, loading and converting do, holds `HeadEntries` and
    `MlpEntries` instead, and builds `heads`, or `w1`, `bias4` and `w2`,
    only when code first reads one of them; from then on those arrays are
    its weights. `parts` reads either kind as entries."""

    heads: list[HeadParams]  # the <= n_heads heads built
    w1: np.ndarray  # (m, d) for the m <= d_ff neurons built
    bias4: np.ndarray  # (m,) numerators of quarter-integer biases
    w2: np.ndarray  # (d, m)

    @classmethod
    def held(cls, heads: HeadEntries, mlp: MlpEntries) -> "LayerParams":
        layer = cls.__new__(cls)
        layer._held = heads, mlp
        return layer

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: a field of a
        # held layer that nothing has read yet.
        own = self.__dict__
        if "_held" not in own or name not in ("heads", "w1", "bias4", "w2"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        heads, mlp = own["_held"]
        if name == "heads":
            own["heads"] = heads.dense()
        else:
            for key, a in zip(("w1", "bias4", "w2"), mlp.dense()):
                own.setdefault(key, a)
        return own[name]

    def parts(self) -> tuple[HeadEntries, MlpEntries]:
        """The layer's weights as (heads, MLP) entries, building no array:
        the entries it holds, or those of the dense arrays it has."""
        own = self.__dict__
        held = own.get("_held")
        heads = held[0] if "heads" not in own else HeadEntries.of(own["heads"])
        if held is None or own.keys() & {"w1", "bias4", "w2"}:
            return heads, MlpEntries.of(self.w1, self.bias4, self.w2)
        return heads, held[1]


# The plans of all layers are found at once: the layers' entries are
# joined into whole-model arrays, with the layer of each entry, every index
# and place is computed over those, and each layer's float64 matrices are
# then filled with one scatter each.


def _joined(pairs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, ...]:
    """The layers' (at, codes) pairs joined, and each entry's layer."""
    at, codes = zip(*pairs)
    layer = np.repeat(np.arange(len(at)), list(map(len, at)))
    return np.concatenate(at), np.concatenate(codes), layer


def _by_layer(layer: np.ndarray, n_layers: int) -> list[slice]:
    """The slice of each layer's entries, whose layers are in order."""
    ends = np.searchsorted(layer, np.arange(1, n_layers + 1)).tolist()
    return [slice(a, b) for a, b in zip([0, *ends], ends)]


def _live(layer: np.ndarray, index: np.ndarray, n: np.ndarray) -> tuple:
    """Per layer l, the distinct values of its entries' `index`, all in
    [0, n[l]), in increasing order: all layers' values in one array, with
    the slice of each layer's; and the place of each entry's value among
    its layer's."""
    first = np.cumsum(n) - n  # each layer's first key
    mask = np.zeros(int(n.sum()), bool)
    key = first[layer] + index
    mask[key] = True
    below = np.concatenate([[0], np.cumsum(mask)])  # live keys below each key
    starts, ends = below[first].tolist(), below[first + n].tolist()
    live = np.flatnonzero(mask) - np.repeat(first, np.subtract(ends, starts))
    return live, list(map(slice, starts, ends)), below[key] - below[first][layer]


def _filled(shape: tuple[int, int], at: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """A float64 matrix of `shape`, zero but for codes at the flat indices at."""
    w = np.zeros(shape)
    w.reshape(-1)[at] = codes
    return w


def attention_plans(
    parts: list[HeadEntries], d: int, d_k: int, d_v: int, exact: bool, c: float
) -> list:
    """Each layer's attention plan (`netcore.EvalPlan`), None for a layer
    without heads. W_QKV row h (2 d_k + d_v) + i is row i of head h's
    stacked [wq; wk; wv], and W_O input h d_v + j is column j of head h's
    wo."""
    if not parts:
        return []
    n_layers = len(parts)
    width = 2 * d_k + d_v  # Q/K/V rows per head
    n_heads = np.array([heads.n for heads in parts], np.int64)
    at, codes, layer = _joined([heads.entries() for heads in parts])
    head, at = np.divmod(at, width * d + d * d_v)
    is_qkv = at < width * d
    q_layer, q_codes = layer[is_qkv], codes[is_qkv]
    row, col = np.divmod(at[is_qkv], d)
    row += head[is_qkv] * width  # the W_QKV row
    n_rows = n_cols = n_heads * width
    if exact:  # the written rows alone
        out, out_cuts, row = _live(q_layer, row, n_rows)
        n_cols = np.array([s.stop - s.start for s in out_cuts], np.int64)
    q_in, q_in_cuts, place = _live(q_layer, col, np.full(n_layers, d))
    q_at = place * n_cols[q_layer] + row
    is_wo = ~is_qkv
    o_layer, o_codes = layer[is_wo], codes[is_wo]
    out_row, j = np.divmod(at[is_wo] - width * d, d_v)
    o_in, o_in_cuts, place = _live(o_layer, head[is_wo] * d_v + j, n_heads * d_v)
    o_at = place * d + out_row
    plans = []
    for li, (q, o) in enumerate(zip(_by_layer(q_layer, n_layers), _by_layer(o_layer, n_layers))):
        if not n_heads[li]:
            plans.append(None)
            continue
        qkv_in, wo_in = q_in[q_in_cuts[li]], o_in[o_in_cuts[li]]
        qkv_out = qkv_scale = None
        if n_cols[li] < n_rows[li]:
            qkv_out = out[out_cuts[li]]
            if c != 1.0:  # c on q and k, 1 on v
                qkv_scale = np.where(qkv_out % width < 2 * d_k, c, 1.0)
        wqkv = _filled((qkv_in.size, int(n_cols[li])), q_at[q], q_codes[q])
        wo = _filled((wo_in.size, d), o_at[o], o_codes[o])
        plans.append((int(n_heads[li]), qkv_in, wqkv, qkv_out, qkv_scale, wo_in, wo))
    return plans


def mlp_plans(parts: list[MlpEntries], d: int) -> list:
    """Each layer's MLP plan (`netcore.EvalPlan`), None for a layer without
    MLP rows."""
    if not parts:
        return []
    n_layers = len(parts)
    m = np.array([mlp.m for mlp in parts], np.int64)
    (at1, codes1, layer1), (bias_at, bias_codes, bias_layer), (at2, codes2, layer2) = (
        _joined(pairs) for pairs in zip(*(mlp.entries() for mlp in parts))
    )
    row, col = np.divmod(at1, d)  # neuron, input coordinate
    w1_in, w1_cuts, place = _live(layer1, col, np.full(n_layers, d))
    at1 = place * m[layer1] + row
    row, col = np.divmod(at2, m[layer2])  # output coordinate, neuron
    w2_out, w2_cuts, place = _live(layer2, row, np.full(n_layers, d))
    at2 = place * m[layer2] + col
    plans = []
    cuts = (_by_layer(layer, n_layers) for layer in (layer1, bias_layer, layer2))
    for li, (e1, eb, e2) in enumerate(zip(*cuts)):
        if not m[li]:
            plans.append(None)
            continue
        live, written = w1_in[w1_cuts[li]], w2_out[w2_cuts[li]]
        bias = np.zeros(m[li])
        bias[bias_at[eb]] = bias_codes[eb]
        bias /= 4.0
        w1 = _filled((live.size, int(m[li])), at1[e1], codes1[e1])
        w2 = _filled((written.size, int(m[li])), at2[e2], codes2[e2])
        plans.append((live, w1, bias, written, w2.T))
    return plans
