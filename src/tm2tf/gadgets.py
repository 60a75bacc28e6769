"""Register/flag layout and the reusable MLP and attention-head gadgets.

Registers are named disjoint coordinate groups of the residual stream
holding +-1 binary numbers (LSB first); flags are single coordinates
holding bits in {0,1}. All gadgets return lists of single neurons that a
builder merges into per-layer MLPs, so neuron counts stay auditable
against the construction-size formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netcore import Dims, HeadParams, LayerParams, TransformerParams

__all__ = [
    "bin_pm1",
    "decode_pm1",
    "Register",
    "Flag",
    "RegisterLayout",
    "NeuronSpec",
    "single_neuron",
    "zero_register",
    "copy_register",
    "sub_pow2",
    "sub_pow2_inplace",
    "add_head_movement",
    "full_subtract",
    "compose_function_encoding",
    "denoising_neurons",
    "HeadSpec",
    "selector_head",
    "rows_of",
    "mlp_weights",
    "mlp_eval",
    "ModelBuilder",
    "BuildError",
]


class BuildError(ValueError):
    pass


def bin_pm1(r: int, i: int) -> tuple[int, ...]:
    """LSB-first +-1 binary representation of i using r bits."""
    if not 0 <= i < 2 ** r:
        raise ValueError(f"{i} is not representable with {r} bits")
    return tuple(1 if (i >> s) & 1 else -1 for s in range(r))


def decode_pm1(bits) -> int:
    return sum(2 ** s for s, b in enumerate(bits) if b > 0)


@dataclass(frozen=True)
class Register:
    name: str
    coords: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Register(f"{self.name}[{idx.start}:{idx.stop}]", self.coords[idx])
        return self.coords[idx]

    def bit(self, idx: int) -> "Register":
        return Register(f"{self.name}[{idx}]", (self.coords[idx],))


@dataclass(frozen=True)
class Flag:
    name: str
    coord: int


class RegisterLayout:
    """Append-only allocator of disjoint registers and flags."""

    def __init__(self) -> None:
        self.registers: dict[str, Register] = {}
        self.flags: dict[str, Flag] = {}
        self._next = 0

    @property
    def d(self) -> int:
        return self._next

    def register(self, name: str, size: int) -> Register:
        if name in self.registers or name in self.flags:
            raise BuildError(f"duplicate allocation {name!r}")
        if size < 0:
            raise BuildError("register size must be >= 0")
        reg = Register(name, tuple(range(self._next, self._next + size)))
        self._next += size
        self.registers[name] = reg
        return reg

    def flag(self, name: str) -> Flag:
        if name in self.registers or name in self.flags:
            raise BuildError(f"duplicate allocation {name!r}")
        f = Flag(name, self._next)
        self._next += 1
        self.flags[name] = f
        return f

    def as_dict(self) -> dict:
        out = {name: list(reg.coords) for name, reg in self.registers.items()}
        out.update({name: [f.coord] for name, f in self.flags.items()})
        return out


@dataclass
class NeuronSpec:
    in_w: dict[int, int]  # ternary input weights
    bias4: int  # bias numerator over 4
    out_w: dict[int, int]  # output weights, |.| <= 2


def single_neuron(
    register_patterns: list[tuple[Register, tuple[int, ...]]],
    flag_patterns: list[tuple[Flag, int]],
    output: dict[int, int],
) -> NeuronSpec:
    """A neuron firing to 1 exactly when all patterns match, else 0.

    Register patterns are +-1 vectors, flag patterns bits in {0,1}; the
    bias is -(sum of register sizes + number of 1-valued flags) + 1.
    """
    in_w: dict[int, int] = {}
    total = 0
    for reg, pattern in register_patterns:
        if len(pattern) != len(reg):
            raise BuildError(f"pattern size mismatch on {reg.name}")
        for coord, want in zip(reg.coords, pattern):
            if want not in (-1, 1):
                raise BuildError("register patterns must be +-1")
            if coord in in_w:
                raise BuildError("overlapping register/flag references")
            in_w[coord] = want
            total += 1
    positive_flags = 0
    for flag, want in flag_patterns:
        if want not in (0, 1):
            raise BuildError("flag patterns must be 0/1")
        if flag.coord in in_w:
            raise BuildError("overlapping register/flag references")
        in_w[flag.coord] = 1 if want == 1 else -1
        if want == 1:
            positive_flags += 1
    bias = -(total + positive_flags) + 1
    return NeuronSpec(in_w=in_w, bias4=4 * bias, out_w=dict(output))


def zero_register(
    reg: Register, gates: list[tuple[Flag, int]]
) -> list[NeuronSpec]:
    """2|I| neurons; adds -x[I] when all gates match, leaving others alone."""
    neurons = []
    for idx in range(len(reg)):
        coord = reg.coords[idx]
        neurons.append(single_neuron([(reg.bit(idx), (1,))], gates, {coord: -1}))
        neurons.append(single_neuron([(reg.bit(idx), (-1,))], gates, {coord: 1}))
    return neurons


def copy_register(
    src: Register, dst: Register, gates: list[tuple[Flag, int]]
) -> list[NeuronSpec]:
    """2|I1| neurons writing x[I1] into I2 (which must be zero) when gated."""
    if len(src) != len(dst):
        raise BuildError("copy between registers of different sizes")
    if set(src.coords) & set(dst.coords):
        raise BuildError("copy with overlapping registers")
    neurons = []
    for idx in range(len(src)):
        out = dst.coords[idx]
        neurons.append(single_neuron([(src.bit(idx), (1,))], gates, {out: 1}))
        neurons.append(single_neuron([(src.bit(idx), (-1,))], gates, {out: -1}))
    return neurons


def _pattern(reg: Register, idx_vals: dict[int, int]) -> list[tuple[Register, tuple[int, ...]]]:
    return [(reg.bit(i), (v,)) for i, v in idx_vals.items()]


def sub_pow2(
    src: Register, dst: Register, k: int, gates: list[tuple[Flag, int]]
) -> list[NeuronSpec]:
    """4|I1| neurons writing bin(max(0, p - 2^k)) to dst when gated."""
    return copy_register(src, dst, gates) + _decrement_pow2(src, dst, k, gates)


def sub_pow2_inplace(
    reg: Register, k: int, gates: list[tuple[Flag, int]]
) -> list[NeuronSpec]:
    """2|I| neurons updating reg to bin(max(0, p - 2^k)) in place when gated."""
    return _decrement_pow2(reg, reg, k, gates)


def _decrement_pow2(
    src: Register, dst: Register, k: int, gates: list[tuple[Flag, int]]
) -> list[NeuronSpec]:
    """2|I| neurons adding bin(max(0, p - 2^k)) - bin(p) to dst, p read from src."""
    d = len(src)
    if not 0 <= k < d:
        raise BuildError("k out of range")
    neurons = []
    # Saturating case p < 2^k: force the low bits down to -1.
    for m in range(k):
        fire = _pattern(src, {m: 1, **{t: -1 for t in range(k, d)}})
        for _ in range(2):
            neurons.append(single_neuron(fire, gates, {dst.coords[m]: -1}))
    # Borrow case p >= 2^k: flip the lowest set bit >= k and raise the gap.
    for m in range(k, d):
        cond = {m: 1, **{s: -1 for s in range(k, m)}}
        out = {dst.coords[m]: -1}
        out.update({dst.coords[s]: 1 for s in range(k, m)})
        for _ in range(2):
            neurons.append(single_neuron(_pattern(src, cond), gates, out))
    return neurons


def add_head_movement(
    src: Register,
    dst: Register,
    move: Register,
    gate: Flag,
    enc_moves: dict[str, tuple[int, int]],
) -> list[NeuronSpec]:
    """6r neurons: dst <- bin(s-1 / s / s+1) per the move code, L saturating at 0."""
    r = len(src)
    if len(dst) != r or len(move) != 2:
        raise BuildError("register widths must match")
    gates = [(gate, 1)]
    neurons = copy_register(src, dst, gates)
    enc_l, enc_r = enc_moves["L"], enc_moves["R"]
    for j in range(r):
        dec_cond = _pattern(src, {j: 1, **{t: -1 for t in range(j)}}) + [(move, enc_l)]
        dec_out = {dst.coords[j]: -1}
        dec_out.update({dst.coords[t]: 1 for t in range(j)})
        inc_cond = _pattern(src, {j: -1, **{t: 1 for t in range(j)}}) + [(move, enc_r)]
        inc_out = {dst.coords[j]: 1}
        inc_out.update({dst.coords[t]: -1 for t in range(j)})
        for cond, out in ((dec_cond, dec_out), (inc_cond, inc_out)):
            reg_pats = [(reg, pat) for reg, pat in cond]
            neurons.append(single_neuron(reg_pats, gates, out))
            neurons.append(single_neuron(reg_pats, gates, out))
    return neurons


def full_subtract(sub: Register, target: Register, gate: Flag) -> list[list[NeuronSpec]]:
    """r sequential stages (stage i: 2(r-i) neurons, within the 2r budget).

    After applying every stage in consecutive layers, target holds
    bin(s2 - s1) when gated (requires 0 <= s1 <= s2 < 2^r - 1).
    """
    r = len(sub)
    if len(target) != r:
        raise BuildError("register widths must match")
    stages = []
    for i in range(r):
        stage = []
        for j in range(i, r):
            cond = _pattern(target, {j: 1, **{s: -1 for s in range(i, j)}})
            cond += _pattern(sub, {i: 1})
            out = {target.coords[j]: -1}
            out.update({target.coords[s]: 1 for s in range(i, j)})
            for _ in range(2):
                stage.append(single_neuron(cond, [(gate, 1)], out))
        stages.append(stage)
    return stages


def compose_function_encoding(
    i1: Register, i2: Register, n_states: int, d_q: int
) -> list[NeuronSpec]:
    """2 * d_q * n^2 neurons adding enc(f1 o f2) onto i1.

    i1 holds enc(f1), i2 holds enc(f2), both as concatenations of
    bin_{d_q}(state index) blocks; the caller zeroes i1's old contents in
    the same layer.
    """
    if len(i1) != n_states * d_q or len(i2) != n_states * d_q:
        raise BuildError("encoding register size mismatch")
    neurons = []
    for i in range(n_states):
        for j in range(n_states):
            enc_j = bin_pm1(d_q, j)
            slot = i2[d_q * i : d_q * (i + 1)]
            for kbit in range(d_q):
                src_bit = i1.bit(d_q * j + kbit)
                out_coord = i1.coords[d_q * i + kbit]
                neurons.append(
                    single_neuron([(slot, enc_j), (src_bit, (1,))], [], {out_coord: 1})
                )
                neurons.append(
                    single_neuron([(slot, enc_j), (src_bit, (-1,))], [], {out_coord: -1})
                )
    return neurons


def denoising_neurons(coords: list[int]) -> list[NeuronSpec]:
    """6 neurons per coordinate; x + f(x) snaps values within 1/4 of -1/0/1.

    f(x) = (-x)^+ - (x)^+ + 2(x-1/4)^+ - 2(x-3/4)^+ - 2(-x-1/4)^+ + 2(-x-3/4)^+
    applied coordinatewise. Weights lie in {0,+-1,+-2}, biases in
    {0,-1/4,-3/4} (numerators 0,-1,-3).
    """
    neurons = []
    for c in coords:
        # (in sign, bias numerator, out weight)
        terms = [
            (-1, 0, 1),   # (-x)^+            * +1
            (1, 0, -1),   # (x)^+             * -1
            (1, -1, 2),   # (x - 1/4)^+       * +2
            (1, -3, -2),  # (x - 3/4)^+       * -2
            (-1, -1, -2), # (-x - 1/4)^+      * -2
            (-1, -3, 2),  # (-x - 3/4)^+      * +2
        ]
        for sign, bias4, out in terms:
            neurons.append(NeuronSpec(in_w={c: sign}, bias4=bias4, out_w={c: out}))
    return neurons


# ---------------------------------------------------------------------------
# attention heads


@dataclass(frozen=True)
class HeadSpec:
    """Selector-style head: each row is a ternary combination of coordinates."""

    name: str
    q_rows: tuple[tuple[tuple[int, int], ...], ...]
    k_rows: tuple[tuple[tuple[int, int], ...], ...]
    v_rows: tuple[tuple[tuple[int, int], ...], ...]
    out_coords: tuple[int, ...]


def rows_of(*items) -> list[tuple[tuple[int, int], ...]]:
    """Expand registers/flags/raw coords into selector rows.

    Each item becomes one row per coordinate; an item may also be a list of
    (coord, sign) pairs forming a single combined row, or a tuple
    (item, repeat) duplicating the row.
    """
    rows: list[tuple[tuple[int, int], ...]] = []
    for item in items:
        if isinstance(item, Register):
            rows.extend(((c, 1),) for c in item.coords)
        elif isinstance(item, Flag):
            rows.append(((item.coord, 1),))
        elif isinstance(item, int):
            rows.append(((item, 1),))
        elif isinstance(item, list):
            rows.append(tuple(item))
        elif isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], int):
            sub = rows_of(item[0])
            if len(sub) != 1:
                raise BuildError("repeat applies to single-row items")
            rows.extend(sub * item[1])
        else:
            raise BuildError(f"cannot interpret row item {item!r}")
    return rows


def selector_head(
    name: str,
    queries,
    keys,
    values,
    out,
) -> HeadSpec:
    """Build a head whose q/k/v extract the named coordinate combinations."""
    q_rows = tuple(rows_of(*queries))
    k_rows = tuple(rows_of(*keys))
    v_rows = tuple(rows_of(*values))
    if len(q_rows) != len(k_rows):
        raise BuildError(f"head {name}: query/key row counts differ")
    if isinstance(out, Register):
        out_coords = out.coords
    elif isinstance(out, Flag):
        out_coords = (out.coord,)
    else:
        out_coords = tuple(out)
    if len(v_rows) != len(out_coords):
        raise BuildError(f"head {name}: value rows and output size differ")
    return HeadSpec(name, q_rows, k_rows, v_rows, out_coords)


# ---------------------------------------------------------------------------
# evaluation helper for gadget unit tests


def mlp_eval(neurons: list[NeuronSpec], x: np.ndarray) -> np.ndarray:
    """W2 relu(W1 x + b) for a bag of neurons, computed directly."""
    out = np.zeros_like(x, dtype=np.float64)
    for n in neurons:
        acc = sum(w * x[c] for c, w in n.in_w.items()) + n.bias4 / 4.0
        if acc > 0:
            for c, w in n.out_w.items():
                out[c] += w * acc
    return out


# ---------------------------------------------------------------------------
# builder


def mlp_weights(neurons: list[NeuronSpec], d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w1, bias4, w2) of shapes (m, d), (m,), (d, m) for m neurons, in order."""
    w1 = np.zeros((len(neurons), d), dtype=np.int8)
    bias4 = np.zeros(len(neurons), dtype=np.int32)
    w2 = np.zeros((d, len(neurons)), dtype=np.int8)
    for n_i, n in enumerate(neurons):
        for c, w in n.in_w.items():
            w1[n_i, c] = w
        bias4[n_i] = n.bias4
        for c, w in n.out_w.items():
            w2[c, n_i] = w
    return w1, bias4, w2


def _shared_inputs(neurons: list[NeuronSpec]) -> dict[int, int]:
    """The input weights (coord -> +-1) that every neuron carries."""
    shared = dict(neurons[0].in_w) if neurons else {}
    for n in neurons[1:]:
        if not shared:
            break
        shared = {c: w for c, w in shared.items() if n.in_w.get(c) == w}
    return shared


@dataclass
class _MlpOp:
    neurons: list[NeuronSpec]
    label: str
    bundle: str | None
    gate: dict[int, int]  # shared input weights of the neurons
    writes: set[int]


class ModelBuilder:
    """Collects heads and MLP operations per layer, then emits parameters.

    Conflicts (two operations writing the same coordinate in one layer
    without provably disjoint gating) are a build-time error. An op's
    gate is derived from its neurons, see `add_neurons`.
    """

    def __init__(self, layout: RegisterLayout, n_layers: int):
        self.layout = layout
        self.n_layers = n_layers
        self._heads: list[list[HeadSpec]] = [[] for _ in range(n_layers)]
        self._mlp_ops: list[list[_MlpOp]] = [[] for _ in range(n_layers)]
        self._emb: dict[str, dict[int, int]] = {}
        self._unemb: dict[str, dict[int, int]] = {}
        self._exclusive: list[set[int]] = []
        self.manifest: list[dict] = []

    # flags within one group are never simultaneously 1 on a token
    def declare_exclusive(self, flags: list[Flag]) -> None:
        self._exclusive.append({f.coord for f in flags})

    def set_embedding(self, token: str, values: dict[int, int]) -> None:
        slot = self._emb.setdefault(token, {})
        for c, v in values.items():
            if c in slot and slot[c] != v:
                raise BuildError(f"conflicting embedding for {token!r} at coord {c}")
            slot[c] = v

    def set_unembedding(self, token: str, values: dict[int, int]) -> None:
        slot = self._unemb.setdefault(token, {})
        for c, v in values.items():
            if c in slot and slot[c] != v:
                raise BuildError(f"conflicting unembedding for {token!r} at coord {c}")
            slot[c] = v

    def add_head(self, layer: int, head: HeadSpec) -> None:
        if not 1 <= layer <= self.n_layers:
            raise BuildError(f"layer {layer} out of range")
        taken = {c for h in self._heads[layer - 1] for c in h.out_coords}
        if taken & set(head.out_coords):
            raise BuildError(f"head {head.name}: output coords already written in layer {layer}")
        self._heads[layer - 1].append(head)
        self.manifest.append({"layer": layer, "kind": "head", "label": head.name})

    def _provably_disjoint(self, g1: dict[int, int], g2: dict[int, int]) -> bool:
        """No token meets both gates. Input weight +1 asks for value 1 and
        -1 for value 0 (a flag) or -1 (a register bit)."""
        if any(g2.get(c, w) != w for c, w in g1.items()):
            return True
        ones1 = {c for c, w in g1.items() if w == 1}
        ones2 = {c for c, w in g2.items() if w == 1}
        for group in self._exclusive:
            if (ones1 & group) and (ones2 & group) and not (ones1 & ones2 & group):
                return True
        return False

    def add_neurons(
        self,
        layer: int,
        neurons: list[NeuronSpec],
        label: str,
        bundle: str | None = None,
    ) -> None:
        """Add one MLP op, the neurons of one gadget call, to a layer.

        The op's gate is the set of input weights that all of its neurons
        share. This assumes conjunction neurons (`single_neuron`), which
        fire only when every input pattern matches, so the op writes
        nothing on a token that fails its gate. Two ops writing a common
        coordinate in one layer must have disjoint gates: opposite values
        on one coordinate, or different flags of one `declare_exclusive`
        group set to 1. Ops with the same `bundle` name skip the check:
        they are parts of one update whose writes add up by design, such
        as zeroing a register and rewriting it in the same layer.
        """
        if not 1 <= layer <= self.n_layers:
            raise BuildError(f"layer {layer} out of range")
        neurons = list(neurons)
        op = _MlpOp(
            neurons, label, bundle, _shared_inputs(neurons), {c for n in neurons for c in n.out_w}
        )
        for other in self._mlp_ops[layer - 1]:
            if op.writes.isdisjoint(other.writes):
                continue
            if bundle is not None and other.bundle == bundle:
                continue
            if self._provably_disjoint(op.gate, other.gate):
                continue
            raise BuildError(
                f"layer {layer}: ops {label!r} and {other.label!r} write overlapping "
                "coordinates without disjoint gating"
            )
        self._mlp_ops[layer - 1].append(op)
        self.manifest.append(
            {"layer": layer, "kind": "mlp", "label": label, "neurons": len(neurons)}
        )

    def heads_used(self) -> list[int]:
        return [len(hs) for hs in self._heads]

    def neurons_used(self) -> list[int]:
        return [sum(len(op.neurons) for op in ops) for ops in self._mlp_ops]

    def finalize(
        self,
        vocab: list[str],
        dims: Dims,
        positional,
        source: str,
    ) -> TransformerParams:
        d = self.layout.d
        if d != dims.d:
            raise BuildError(f"layout uses {d} coordinates but dims.d = {dims.d}")
        if max(self.heads_used(), default=0) > dims.n_heads:
            raise BuildError("head budget exceeded")
        if max(self.neurons_used(), default=0) > dims.d_ff:
            raise BuildError(
                f"d_ff budget exceeded: {max(self.neurons_used())} > {dims.d_ff}"
            )
        if len(self._heads) != dims.n_layers:
            raise BuildError("layer count mismatch")

        emb = np.zeros((len(vocab), d), dtype=np.int8)
        unemb = np.zeros((len(vocab), d), dtype=np.int8)
        index = {t: i for i, t in enumerate(vocab)}
        for token, values in self._emb.items():
            for c, v in values.items():
                emb[index[token], c] = v
        for token, values in self._unemb.items():
            for c, v in values.items():
                unemb[index[token], c] = v

        layers = []
        for heads, ops in zip(self._heads, self._mlp_ops):
            head_params = []
            for spec in heads:
                wq = np.zeros((dims.d_k, d), dtype=np.int8)
                wk = np.zeros((dims.d_k, d), dtype=np.int8)
                wv = np.zeros((dims.d_v, d), dtype=np.int8)
                wo = np.zeros((d, dims.d_v), dtype=np.int8)
                if len(spec.q_rows) > dims.d_k or len(spec.v_rows) > dims.d_v:
                    raise BuildError(f"head {spec.name} exceeds d_k/d_v")
                for r_i, row in enumerate(spec.q_rows):
                    for coord, sign in row:
                        wq[r_i, coord] += sign
                for r_i, row in enumerate(spec.k_rows):
                    for coord, sign in row:
                        wk[r_i, coord] += sign
                for r_i, row in enumerate(spec.v_rows):
                    for coord, sign in row:
                        wv[r_i, coord] += sign
                for r_i, coord in enumerate(spec.out_coords):
                    wo[coord, r_i] = 1
                head_params.append(HeadParams(wq, wk, wv, wo))
            neurons = [n for op in ops for n in op.neurons]
            layers.append(LayerParams(head_params, *mlp_weights(neurons, d)))

        params = TransformerParams(
            dims=dims,
            vocab=list(vocab),
            emb=emb,
            unemb=unemb,
            positional=positional,
            layers=layers,
            source=source,
        )
        params.validate_weights()
        return params
