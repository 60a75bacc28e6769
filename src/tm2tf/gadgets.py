"""Register/flag layout and the reusable MLP and attention-head gadgets.

Registers are named disjoint coordinate groups of the residual stream
holding +-1 binary numbers (LSB first); flags are single coordinates
holding bits in {0,1}. `enc_table` gives a compiler's states and symbols
their +-1 codes, and `ENC_MOVES` is the one code of the L/S/R moves. MLP
gadgets return `Neurons` blocks of m neurons, so neuron counts stay
auditable against the construction-size formulas. A gadget builds its
pattern over local indices once per shape (register width, k, gate
values), with the gate (the (index, sign) inputs every row reads) and the
indices it writes, caches it, and places it on the registers'
coordinates; a block is its placed patterns, and it carries its gate and
writes, mapped onto those coordinates. `Neurons.join` keeps the parts in
order, intersects the gates and unites the writes; `mlp_weights` reads a
block as its weight matrices' entries, which unpack as the dense arrays.
`ModelBuilder.add_neurons` checks each op against the others of its layer
by those gates and writes, and `finalize` finds the entries of every
layer's MLP, and of every head, with one sort per matrix over the whole
model, builds no dense array, leaves the model contract to
`validate_weights`, and returns the parameters with their
`CompileReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, repeat

import numpy as np

from .netcore import Dims, TransformerParams
from .weights import HeadEntries, LayerParams, MlpEntries

__all__ = [
    "bin_pm1",
    "decode_pm1",
    "enc_table",
    "ENC_MOVES",
    "Register",
    "Flag",
    "RegisterLayout",
    "Neurons",
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
    "CompileReport",
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


def enc_table(elements: tuple[str, ...]) -> dict[str, tuple[int, ...]]:
    """Injective +-1 encoding: LSB-first binary of the declaration index.

    Width is ceil(log2 n); a single element gets the empty encoding.
    """
    width = (len(elements) - 1).bit_length()
    return {e: bin_pm1(width, i) for i, e in enumerate(elements)}


# L, S, R in declaration order, encoded as 2-bit LSB-first words: the code
# a run token embeds and the one `add_head_movement` reads.
ENC_MOVES: dict[str, tuple[int, ...]] = enc_table(("L", "S", "R"))


@dataclass(frozen=True)
class Register:
    name: str
    coords: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, idx: slice) -> "Register":
        return Register(f"{self.name}[{idx.start}:{idx.stop}]", self.coords[idx])


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


@dataclass(frozen=True, eq=False)
class _Pattern:
    """MLP rows over local indices. A register-wide gadget caches its
    pattern once per shape, so the arrays are read-only.

    `ins` holds the (row, index, +-1) input weights, at most one per (row,
    index); `bias4` the (m,) bias numerators over 4; `outs` the (row,
    index, weight) output weights. `gate` is the (index, sign) inputs that
    every row reads, and `writes` the indices the rows write.
    """

    ins: np.ndarray  # (entries, 3)
    bias4: np.ndarray  # (m,)
    outs: np.ndarray  # (entries, 3)
    gate: tuple[tuple[int, int], ...]
    writes: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Neurons:
    """m MLP neurons: patterns placed on residual coordinates, in row order.

    Each part is (pattern, in_coords, out_coords): local index i of the
    pattern reads in_coords[i] and writes out_coords[i]. `gate` is the
    (coord -> +-1) input weights that every neuron carries, and `writes`
    the coordinates the neurons write; both are mapped from the patterns
    when a block is placed, and `join` intersects and unites them. `ins`,
    `bias4` and `outs` read the rows as entry arrays in residual
    coordinates, rows numbered in order.
    """

    parts: tuple[tuple[_Pattern, tuple[int, ...], tuple[int, ...]], ...]
    gate: dict[int, int]
    writes: frozenset[int]
    m: int

    def __len__(self) -> int:
        return self.m

    @property
    def ins(self) -> np.ndarray:
        return _entries(self.parts, 0)

    @property
    def bias4(self) -> np.ndarray:
        return _biases(self.parts)

    @property
    def outs(self) -> np.ndarray:
        return _entries(self.parts, 1)

    @staticmethod
    def join(blocks) -> "Neurons":
        """The blocks' rows in order. The gate is the intersection of the
        gates of the blocks that have rows, the writes their union."""
        blocks = list(blocks)
        if len(blocks) == 1:
            return blocks[0]
        gates = [b.gate for b in blocks if b.m]
        gate = gates[0] if gates else {}
        for other in gates[1:]:
            gate = dict(gate.items() & other.items())
        return Neurons(
            tuple(chain.from_iterable(b.parts for b in blocks)),
            gate,
            frozenset().union(*(b.writes for b in blocks)),
            sum(b.m for b in blocks),
        )


def _entries(parts, side: int) -> np.ndarray:
    """The (row, coord, weight) input (side 0) or output (side 1) entries of
    placed patterns, rows numbered across the parts in order: every local
    index mapped through the parts' coordinate tables in one fancy index."""
    if not parts:
        return np.zeros((0, 3), np.intp)
    patterns, *tables = zip(*parts)
    tables = tables[side]
    local = [p.outs if side else p.ins for p in patterns]
    sizes = list(map(len, local))

    def firsts(lengths) -> np.ndarray:  # of consecutive runs of these lengths
        return np.fromiter(accumulate(lengths, initial=0), np.intp, len(parts) + 1)[:-1]

    out = np.concatenate(local)
    out[:, 0] += np.repeat(firsts(len(p.bias4) for p in patterns), sizes)
    coords = np.fromiter(chain.from_iterable(tables), np.intp)
    out[:, 1] = coords[out[:, 1] + np.repeat(firsts(map(len, tables)), sizes)]
    return out


def _biases(parts) -> np.ndarray:
    """The (m,) int32 bias numerators of placed patterns, in row order."""
    return np.concatenate([p.bias4 for p, _, _ in parts] + [np.zeros(0, np.int32)])


def _shared_inputs(ins: np.ndarray, m: int) -> dict[int, int]:
    """The input weights (index -> +-1) that every one of m rows carries,
    read from their (row, index, +-1) entries: the (index, sign) entries
    counted once per row, as often as there are rows."""
    if not m:
        return {}
    counts = np.bincount(2 * ins[:, 1] + (ins[:, 2] > 0))
    return {k >> 1: 1 if k & 1 else -1 for k in (counts == m).nonzero()[0].tolist()}


def _pattern(rows) -> _Pattern:
    """A pattern from (in pairs, bias4, out pairs) rows, pairs being
    (index, weight), with its gate and writes."""

    def entries(side: int) -> np.ndarray:
        triples = [(i, c, w) for i, row in enumerate(rows) for c, w in row[side]]
        return np.array(triples, np.intp).reshape(-1, 3)

    ins, bias4, outs = entries(0), np.array([row[1] for row in rows], np.int32), entries(2)
    for a in (ins, bias4, outs):
        a.flags.writeable = False
    gate = tuple(_shared_inputs(ins, len(rows)).items())
    return _Pattern(ins, bias4, outs, gate, tuple(set(outs[:, 1].tolist())))


def _place(pattern: _Pattern, in_coords: tuple[int, ...], out_coords: tuple[int, ...]) -> Neurons:
    """A pattern over local indices, mapped onto residual coordinates."""
    return Neurons(
        ((pattern, in_coords, out_coords),),
        {in_coords[i]: sign for i, sign in pattern.gate},
        frozenset([out_coords[i] for i in pattern.writes]),
        len(pattern.bias4),
    )


# Every neuron of the kit is one `_conj` row. `single_neuron` places one;
# register-wide gadgets cache theirs once per shape as a pattern over local
# indices (the read registers' bits, then the gate flags) that each call
# maps onto its coordinates.


_SIGNS, _BITS = frozenset((-1, 1)), frozenset((0, 1))


def _check_patterns(patterns: list[tuple[Register, tuple[int, ...]]]) -> None:
    """Each register pattern is a +-1 vector as wide as its register."""
    for reg, pattern in patterns:
        if len(pattern) != len(reg):
            raise BuildError(f"pattern size mismatch on {reg.name}")
        if not _SIGNS.issuperset(pattern):
            raise BuildError("register patterns must be +-1")


def _inputs(gates: list[tuple[Flag, int]], *regs: Register) -> tuple[tuple, tuple]:
    """(gate values, input coordinates) of a row reading `regs`, then its
    gate flags: gate values are bits in {0,1}, and no coordinate is read
    twice."""
    values = tuple([want for _, want in gates])
    if not _BITS.issuperset(values):
        raise BuildError("flag patterns must be 0/1")
    coords = tuple(chain(*[reg.coords for reg in regs], [flag.coord for flag, _ in gates]))
    if len(set(coords)) != len(coords):
        raise BuildError("overlapping register/flag references")
    return values, coords


def _conj(reads: list[tuple[int, int]], gate_values, first_gate: int, outs) -> tuple:
    """A conjunction row over local indices; gate i sits at first_gate + i."""
    ins = reads + [(first_gate + i, 1 if v == 1 else -1) for i, v in enumerate(gate_values)]
    return ins, 4 * (1 - len(reads) - sum(gate_values)), outs


def single_neuron(
    register_patterns: list[tuple[Register, tuple[int, ...]]],
    flag_patterns: list[tuple[Flag, int]],
    output: dict[int, int],
) -> Neurons:
    """A one-row block firing to 1 exactly when all patterns match, else 0.

    Register patterns are +-1 vectors, flag patterns bits in {0,1}; the
    bias is -(sum of register sizes + number of 1-valued flags) + 1.
    """
    _check_patterns(register_patterns)
    values, coords = _inputs(flag_patterns, *(reg for reg, _ in register_patterns))
    reads = list(enumerate(want for _, pattern in register_patterns for want in pattern))
    ins, bias4, _ = _conj(reads, values, len(reads), ())
    # `_conj`'s local index i is coords[i], and output j is the j-th key of
    # `output`. One row shares all of its inputs.
    outs = [(0, j, w) for j, w in enumerate(output.values())]
    entries = np.array([(0, i, w) for i, w in ins] + outs, np.intp).reshape(-1, 3)
    pattern = _Pattern(
        entries[: len(ins)],
        np.array([bias4], np.int32),
        entries[len(ins) :],
        tuple(ins),
        tuple(range(len(output))),
    )
    gate = {coords[i]: w for i, w in ins}
    return Neurons(((pattern, coords, tuple(output)),), gate, frozenset(output), 1)


@lru_cache(maxsize=None)
def _bitwise_pattern(w: int, gate_values: tuple[int, ...], out_sign: int) -> _Pattern:
    """Per bit, a neuron on +1 and one on -1, each adding out_sign times it."""
    return _pattern(
        [_conj([(i, s)], gate_values, w, [(i, out_sign * s)]) for i in range(w) for s in (1, -1)]
    )


def zero_register(reg: Register, gates: list[tuple[Flag, int]]) -> Neurons:
    """2|I| neurons; adds -x[I] when all gates match, leaving others alone."""
    values, coords = _inputs(gates, reg)
    return _place(_bitwise_pattern(len(reg), values, -1), coords, reg.coords)


def copy_register(src: Register, dst: Register, gates: list[tuple[Flag, int]]) -> Neurons:
    """2|I1| neurons writing x[I1] into I2 (which must be zero) when gated."""
    if len(src) != len(dst):
        raise BuildError("copy between registers of different sizes")
    if set(src.coords) & set(dst.coords):
        raise BuildError("copy with overlapping registers")
    values, coords = _inputs(gates, src)
    return _place(_bitwise_pattern(len(src), values, 1), coords, dst.coords)


def sub_pow2(src: Register, dst: Register, k: int, gates: list[tuple[Flag, int]]) -> Neurons:
    """4|I1| neurons writing bin(max(0, p - 2^k)) to dst when gated."""
    return Neurons.join([copy_register(src, dst, gates), _decrement_pow2(src, dst, k, gates)])


def sub_pow2_inplace(reg: Register, k: int, gates: list[tuple[Flag, int]]) -> Neurons:
    """2|I| neurons updating reg to bin(max(0, p - 2^k)) in place when gated."""
    return _decrement_pow2(reg, reg, k, gates)


@lru_cache(maxsize=None)
def _decrement_pattern(d: int, k: int, gate_values: tuple[int, ...]) -> _Pattern:
    """Local indices: src bits 0..d-1, then the gates; outputs dst bits."""
    rows = []
    # Saturating case p < 2^k: force the low bits down to -1.
    for m in range(k):
        reads = [(m, 1)] + [(t, -1) for t in range(k, d)]
        rows += [_conj(reads, gate_values, d, [(m, -1)])] * 2
    # Borrow case p >= 2^k: flip the lowest set bit >= k and raise the gap.
    for m in range(k, d):
        reads = [(m, 1)] + [(s, -1) for s in range(k, m)]
        outs = [(m, -1)] + [(s, 1) for s in range(k, m)]
        rows += [_conj(reads, gate_values, d, outs)] * 2
    return _pattern(rows)


def _decrement_pow2(
    src: Register, dst: Register, k: int, gates: list[tuple[Flag, int]]
) -> Neurons:
    """2|I| neurons adding bin(max(0, p - 2^k)) - bin(p) to dst, p read from src."""
    if not 0 <= k < len(src):
        raise BuildError("k out of range")
    values, coords = _inputs(gates, src)
    return _place(_decrement_pattern(len(src), k, values), coords, dst.coords)


@lru_cache(maxsize=None)
def _movement_pattern(r: int) -> _Pattern:
    """Local indices: src bits 0..r-1, the move code r, r+1, the gate r+2."""
    rows = [_conj([(i, s)], (1,), r + 2, [(i, s)]) for i in range(r) for s in (1, -1)]
    for j in range(r):
        for sign, enc in ((1, ENC_MOVES["L"]), (-1, ENC_MOVES["R"])):
            # Decrement: bit j set above a run of clear bits; increment: mirrored.
            reads = [(j, sign)] + [(t, -sign) for t in range(j)] + [(r, enc[0]), (r + 1, enc[1])]
            outs = [(j, -sign)] + [(t, sign) for t in range(j)]
            rows += [_conj(reads, (1,), r + 2, outs)] * 2
    return _pattern(rows)


def add_head_movement(src: Register, dst: Register, move: Register, gate: Flag) -> Neurons:
    """6r neurons: dst <- bin(s-1 / s / s+1) per the `ENC_MOVES` code in
    `move`, L saturating at 0."""
    if len(dst) != len(src) or len(move) != 2:
        raise BuildError("register widths must match")
    if set(src.coords) & set(dst.coords):
        raise BuildError("copy with overlapping registers")
    _, coords = _inputs([(gate, 1)], src, move)
    return _place(_movement_pattern(len(src)), coords, dst.coords)


@lru_cache(maxsize=None)
def _subtract_pattern(r: int) -> tuple[_Pattern, ...]:
    """Local indices: target bits 0..r-1, sub bits r..2r-1, the gate 2r."""
    stages = []
    for i in range(r):
        rows = []
        for j in range(i, r):
            reads = [(j, 1)] + [(s, -1) for s in range(i, j)] + [(r + i, 1)]
            outs = [(j, -1)] + [(s, 1) for s in range(i, j)]
            rows += [_conj(reads, (1,), 2 * r, outs)] * 2
        stages.append(_pattern(rows))
    return tuple(stages)


def full_subtract(sub: Register, target: Register, gate: Flag) -> list[Neurons]:
    """r sequential stages (stage i: 2(r-i) neurons, within the 2r budget).

    After applying every stage in consecutive layers, target holds
    bin(s2 - s1) when gated (requires 0 <= s1 <= s2 < 2^r - 1).
    """
    if len(target) != len(sub):
        raise BuildError("register widths must match")
    _, coords = _inputs([(gate, 1)], target, sub)
    return [_place(stage, coords, target.coords) for stage in _subtract_pattern(len(sub))]


@lru_cache(maxsize=None)
def _compose_pattern(n_states: int, d_q: int) -> _Pattern:
    """Local indices: i1 bits 0..n*d_q-1, then i2 bits."""
    rows = []
    for i in range(n_states):
        for j in range(n_states):
            slot = [(n_states * d_q + d_q * i + b, v) for b, v in enumerate(bin_pm1(d_q, j))]
            for kbit in range(d_q):
                src, out = d_q * j + kbit, d_q * i + kbit
                rows.append(_conj(slot + [(src, 1)], (), 0, [(out, 1)]))
                rows.append(_conj(slot + [(src, -1)], (), 0, [(out, -1)]))
    return _pattern(rows)


def compose_function_encoding(
    i1: Register, i2: Register, n_states: int, d_q: int
) -> Neurons:
    """2 * d_q * n^2 neurons adding enc(f1 o f2) onto i1.

    i1 holds enc(f1), i2 holds enc(f2), both as concatenations of
    bin_{d_q}(state index) blocks; the caller zeroes i1's old contents in
    the same layer.
    """
    if len(i1) != n_states * d_q or len(i2) != n_states * d_q:
        raise BuildError("encoding register size mismatch")
    _, coords = _inputs([], i1, i2)
    return _place(_compose_pattern(n_states, d_q), coords, i1.coords)


# f(x) = (-x)^+ - (x)^+ + 2(x-1/4)^+ - 2(x-3/4)^+ - 2(-x-1/4)^+ + 2(-x-3/4)^+
# as (in sign, bias numerator, out weight) per term.
_DENOISING_TERMS = ((-1, 0, 1), (1, 0, -1), (1, -1, 2), (1, -3, -2), (-1, -1, -2), (-1, -3, 2))


@lru_cache(maxsize=None)
def _denoising_pattern(n: int) -> _Pattern:
    return _pattern([([(i, s)], b, [(i, w)]) for i in range(n) for s, b, w in _DENOISING_TERMS])


def denoising_neurons(coords: list[int]) -> Neurons:
    """6 neurons per coordinate; x + f(x) snaps values within 1/4 of -1/0/1.

    f (above) is applied coordinatewise. Weights lie in {0,+-1,+-2}, biases
    in {0,-1/4,-3/4} (numerators 0,-1,-3).
    """
    coords = tuple(coords)
    return _place(_denoising_pattern(len(coords)), coords, coords)


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
    """Expand registers and flags into selector rows.

    Each item becomes one row per coordinate; an item may also be a list of
    (coord, sign) pairs forming a single combined row, or a tuple
    (item, repeat) duplicating the row.
    """
    rows: list[tuple[tuple[int, int], ...]] = []
    for item in items:
        if isinstance(item, Register):
            rows.extend(zip(zip(item.coords, repeat(1))))  # ((c, 1),) per coordinate
        elif isinstance(item, Flag):
            rows.append(((item.coord, 1),))
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
    out: Register | Flag,
) -> HeadSpec:
    """Build a head whose q/k/v extract the named coordinate combinations
    and whose output is written to `out`."""
    q_rows = tuple(rows_of(*queries))
    k_rows = tuple(rows_of(*keys))
    v_rows = tuple(rows_of(*values))
    if len(q_rows) != len(k_rows):
        raise BuildError(f"head {name}: query/key row counts differ")
    out_coords = out.coords if isinstance(out, Register) else (out.coord,)
    if len(v_rows) != len(out_coords):
        raise BuildError(f"head {name}: value rows and output size differ")
    return HeadSpec(name, q_rows, k_rows, v_rows, out_coords)


# ---------------------------------------------------------------------------
# builder


def mlp_weights(neurons: Neurons, d: int) -> MlpEntries:
    """The MLP of m neurons, in order, as entries; it unpacks as the arrays
    (w1, bias4, w2) of shapes (m, d), (m,), (d, m)."""
    return _mlp_layers(neurons.parts, d, [len(neurons)])[0]


def _sorted_entries(
    flat: np.ndarray, codes: np.ndarray, add: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(at, codes) of the int8 array that writing `codes` at the flat
    indices `flat` fills: the indices in increasing order, and the codes of
    the nonzero results. A repeated index holds the sum of its codes if
    `add`, wrapping in int8 as np.add.at does, and else its last code, as an
    assignment leaves it."""
    order = np.argsort(flat, kind="stable")
    flat, codes = flat[order], codes[order]
    if flat.size > 1:
        new = flat[1:] != flat[:-1]
        if not new.all():
            if add:
                firsts = np.flatnonzero(np.concatenate([[True], new]))
                flat, codes = flat[firsts], np.add.reduceat(codes, firsts)
            else:
                lasts = np.concatenate([new, [True]])
                flat, codes = flat[lasts], codes[lasts]
    codes = codes.astype(np.int8)
    kept = codes != 0
    if not kept.all():
        flat, codes = flat[kept], codes[kept]
    return flat, codes


def _mlp_layers(parts, d: int, sizes: list[int]) -> list[MlpEntries]:
    """`mlp_weights` per layer of the placed patterns `parts`, whose rows in
    order are the layers' rows, `sizes` of them per layer. Each matrix's
    entries are found for all layers at once, in one index space where
    every layer's matrices are disjoint C-order ranges: the w1 rows in
    order, and layer l's (d, m_l) w2 from d times its first row on; each
    layer's are then a slice, counted from its range's start."""
    ins, outs, bias4 = _entries(parts, 0), _entries(parts, 1), _biases(parts)
    cuts = np.fromiter(accumulate(sizes, initial=0), np.intp, len(sizes) + 1)
    row = outs[:, 0]
    layer = np.searchsorted(cuts, row, side="right") - 1
    start, stop = cuts[layer], cuts[layer + 1]
    bias_at = np.flatnonzero(bias4)
    matrices = [
        _sorted_entries(ins[:, 0] * d + ins[:, 1], ins[:, 2], add=False),
        (bias_at, bias4[bias_at]),
        _sorted_entries(
            d * start + outs[:, 1] * (stop - start) + row - start, outs[:, 2], add=False
        ),
    ]
    slices = []
    for (at, codes), scale in zip(matrices, (d, 1, d)):
        ends = np.searchsorted(at, scale * cuts).tolist()
        at = at - scale * np.repeat(cuts[:-1], np.diff(ends))
        slices.append([(at[i:j], codes[i:j]) for i, j in zip(ends, ends[1:])])
    return [MlpEntries(m, d, *matrices) for m, *matrices in zip(sizes, *slices)]


def _head_layers(
    specs: list[HeadSpec], counts: list[int], d_k: int, d_v: int, d: int
) -> list[HeadEntries]:
    """The `HeadEntries` of each layer, whose heads are the next `counts`
    of `specs`. Row i of a head's query, key or value matrix sums the
    (coord, sign) pairs of its spec row, and column j of its wo writes the
    head's j-th output coordinate. The entries of all heads are found at
    once, every head's arrays laid out as `HeadEntries` lays them out, one
    head after the other, and then cut at the layers' heads."""
    block = (2 * d_k + d_v) * d + d * d_v  # one head's codes
    mats = [rows for spec in specs for rows in (spec.q_rows, spec.k_rows, spec.v_rows)]
    n_rows = np.fromiter(map(len, mats), np.intp, len(mats))
    # Each matrix's first index: its head's block, and in it 0, d_k d, 2 d_k d.
    first = np.add.outer(np.arange(len(specs)) * block, (0, d_k * d, 2 * d_k * d)).ravel()
    rows = list(chain.from_iterable(mats))
    row_first = np.repeat(first - d * (np.cumsum(n_rows) - n_rows), n_rows)
    row_first += d * np.arange(len(rows))
    row_first = np.repeat(row_first, np.fromiter(map(len, rows), np.intp, len(rows)))
    coord, sign = np.fromiter(chain.from_iterable(chain.from_iterable(rows)), np.intp).reshape(-1, 2).T
    n_out = np.fromiter((len(spec.out_coords) for spec in specs), np.intp, len(specs))
    head = np.repeat(np.arange(len(specs)), n_out)
    col = np.arange(n_out.sum()) - np.repeat(np.cumsum(n_out) - n_out, n_out)
    out = np.fromiter(chain.from_iterable(spec.out_coords for spec in specs), np.intp)
    wo_flat = head * block + (2 * d_k + d_v) * d + out * d_v + col
    at, codes = _sorted_entries(
        np.concatenate([row_first + coord, wo_flat]),
        np.concatenate([sign, np.ones(len(wo_flat), np.intp)]),
        add=True,
    )
    firsts = np.fromiter(accumulate(counts, initial=0), np.intp, len(counts) + 1)
    ends = np.searchsorted(at, firsts * block).tolist()
    at = at - block * np.repeat(firsts[:-1], np.diff(ends))  # from each layer's first head
    return [
        HeadEntries(n, (d, d_k, d_v), at[i:j], codes[i:j])
        for n, i, j in zip(counts, ends, ends[1:])
    ]


@dataclass
class _MlpOp:
    neurons: Neurons
    label: str


def _merge(table: dict[str, dict[int, int]], kind: str, token: str, values: dict[int, int]) -> None:
    """Add a token's (coord -> value) entries to an embedding table; a
    coordinate may be set twice only to the same value."""
    slot = table.setdefault(token, {})
    for c, v in values.items():
        if c in slot and slot[c] != v:
            raise BuildError(f"conflicting {kind} for {token!r} at coord {c}")
        slot[c] = v


@dataclass
class CompileReport:
    construction: str
    r: int
    dims: Dims
    registers: dict[str, list[int]] = field(default_factory=dict)
    manifest: list[dict] = field(default_factory=list)
    heads_used: list[int] = field(default_factory=list)
    neurons_used: list[int] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "construction": self.construction,
            "r": self.r,
            "dims": {
                "L": self.dims.n_layers,
                "H": self.dims.n_heads,
                "d": self.dims.d,
                "d_k": self.dims.d_k,
                "d_v": self.dims.d_v,
                "d_ff": self.dims.d_ff,
            },
            "registers": self.registers,
            "heads_used": self.heads_used,
            "neurons_used": self.neurons_used,
            "manifest": self.manifest,
        }


class ModelBuilder:
    """Collects heads and MLP operations per layer, then emits parameters.

    Conflicts (two operations writing the same coordinate in one layer
    without provably disjoint gating) are a build-time error. An op's
    gate is the one its blocks carry, see `add_neurons`.
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
        _merge(self._emb, "embedding", token, values)

    def set_unembedding(self, token: str, values: dict[int, int]) -> None:
        _merge(self._unemb, "unembedding", token, values)

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

    def add_neurons(self, layer: int, neurons: Neurons | list[Neurons], label: str) -> None:
        """Add one MLP op, a block or a list of blocks in order, to a layer.

        The op's gate is the set of input weights that all of its neurons
        share: the intersection of its blocks' gates, each carried from
        the block's pattern. Its writes are the union of the blocks'
        writes. This assumes conjunction neurons (`single_neuron`), which
        fire only when every input pattern matches, so the op writes
        nothing on a token that fails its gate. Two ops writing a common
        coordinate in one layer must have disjoint gates: opposite values
        on one coordinate, or different flags of one `declare_exclusive`
        group set to 1. An update whose writes add up by design, such as
        zeroing a register and rewriting it in the same layer, is one op.
        """
        if not 1 <= layer <= self.n_layers:
            raise BuildError(f"layer {layer} out of range")
        if not isinstance(neurons, Neurons):
            neurons = Neurons.join(neurons)
        for other in self._mlp_ops[layer - 1]:
            if neurons.writes.isdisjoint(other.neurons.writes):
                continue
            if self._provably_disjoint(neurons.gate, other.neurons.gate):
                continue
            raise BuildError(
                f"layer {layer}: ops {label!r} and {other.label!r} write overlapping "
                "coordinates without disjoint gating"
            )
        self._mlp_ops[layer - 1].append(_MlpOp(neurons, label))
        self.manifest.append(
            {"layer": layer, "kind": "mlp", "label": label, "neurons": len(neurons)}
        )

    def finalize(
        self,
        vocab: list[str],
        dims: Dims,
        positional,
        source: str,
        r: int,
    ) -> tuple[TransformerParams, CompileReport]:
        """(params, report). `validate_weights` checks codes, budgets and
        meta.r against positional.r; the report's construction is the source
        without its "compile_" prefix."""
        d = self.layout.d
        if d != dims.d:
            raise BuildError(f"layout uses {d} coordinates but dims.d = {dims.d}")

        emb = np.zeros((len(vocab), d), dtype=np.int8)
        unemb = np.zeros((len(vocab), d), dtype=np.int8)
        index = {t: i for i, t in enumerate(vocab)}
        for kind, table, out in (("embedding", self._emb, emb), ("unembedding", self._unemb, unemb)):
            for token in table:
                if token not in index:
                    raise BuildError(f"{kind} set for {token!r}, which is not in the vocabulary")
            # One scatter per table: each token's row, once per coordinate it sets.
            n = len(table)
            rows = np.fromiter(map(index.__getitem__, table), np.intp, n)
            rows = rows.repeat(np.fromiter(map(len, table.values()), np.intp, n))
            cols = np.fromiter(chain.from_iterable(table.values()), np.intp)
            out[rows, cols] = np.fromiter(chain.from_iterable(map(dict.values, table.values())), np.int8)

        d_k, d_v = dims.d_k, dims.d_v
        specs = [spec for heads in self._heads for spec in heads]
        for spec in specs:
            if max(len(spec.q_rows), len(spec.k_rows)) > d_k or len(spec.v_rows) > d_v:
                raise BuildError(f"head {spec.name} exceeds d_k/d_v")
        heads_used = [len(heads) for heads in self._heads]
        # Every op's rows at once, numbered across layers.
        parts = [part for ops in self._mlp_ops for op in ops for part in op.neurons.parts]
        neurons_used = [sum(len(op.neurons) for op in ops) for ops in self._mlp_ops]
        layers = list(
            map(
                LayerParams.held,
                _head_layers(specs, heads_used, d_k, d_v, d),
                _mlp_layers(parts, d, neurons_used),
            )
        )

        params = TransformerParams(
            dims=dims,
            vocab=list(vocab),
            emb=emb,
            unemb=unemb,
            positional=positional,
            layers=layers,
            source=source,
            meta={"r": r},
        )
        params.validate_weights()
        report = CompileReport(
            construction=source.removeprefix("compile_"),
            r=r,
            dims=dims,
            registers=self.layout.as_dict(),
            manifest=self.manifest,
            heads_used=heads_used,
            neurons_used=neurons_used,
        )
        return params, report
