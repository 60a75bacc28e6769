"""Array-backed gadget blocks against per-neuron reference definitions.

The reference below builds every neuron as a dict, one `single_neuron` at a
time, as the construction kit did before gadgets emitted cached blocks. Each
block must give the same MLP rows, in the same order, and raise `BuildError`
on the same malformed calls.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from tm2tf.gadgets import (
    ENC_MOVES,
    BuildError,
    Flag,
    ModelBuilder,
    Neurons,
    Register,
    RegisterLayout,
    add_head_movement,
    bin_pm1,
    compose_function_encoding,
    copy_register,
    denoising_neurons,
    full_subtract,
    mlp_weights,
    single_neuron,
    sub_pow2,
    sub_pow2_inplace,
    zero_register,
)
from tm2tf.gadgets import _shared_inputs

# ---------------------------------------------------------------------------
# reference: one dict per neuron


@dataclass
class RefNeuron:
    in_w: dict
    bias4: int
    out_w: dict


def bit(reg, idx):
    return Register(f"{reg.name}[{idx}]", (reg.coords[idx],))


def ref_single(register_patterns, flag_patterns, output):
    in_w = {}
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
    return RefNeuron(in_w, 4 * (-(total + positive_flags) + 1), dict(output))


def ref_pattern(reg, idx_vals):
    return [(bit(reg, i), (v,)) for i, v in idx_vals.items()]


def ref_zero(reg, gates):
    neurons = []
    for idx in range(len(reg)):
        coord = reg.coords[idx]
        neurons.append(ref_single([(bit(reg, idx), (1,))], gates, {coord: -1}))
        neurons.append(ref_single([(bit(reg, idx), (-1,))], gates, {coord: 1}))
    return neurons


def ref_copy(src, dst, gates):
    if len(src) != len(dst):
        raise BuildError("copy between registers of different sizes")
    if set(src.coords) & set(dst.coords):
        raise BuildError("copy with overlapping registers")
    neurons = []
    for idx in range(len(src)):
        out = dst.coords[idx]
        neurons.append(ref_single([(bit(src, idx), (1,))], gates, {out: 1}))
        neurons.append(ref_single([(bit(src, idx), (-1,))], gates, {out: -1}))
    return neurons


def ref_decrement(src, dst, k, gates):
    d = len(src)
    if not 0 <= k < d:
        raise BuildError("k out of range")
    neurons = []
    for m in range(k):
        fire = ref_pattern(src, {m: 1, **{t: -1 for t in range(k, d)}})
        for _ in range(2):
            neurons.append(ref_single(fire, gates, {dst.coords[m]: -1}))
    for m in range(k, d):
        cond = {m: 1, **{s: -1 for s in range(k, m)}}
        out = {dst.coords[m]: -1}
        out.update({dst.coords[s]: 1 for s in range(k, m)})
        for _ in range(2):
            neurons.append(ref_single(ref_pattern(src, cond), gates, out))
    return neurons


def ref_sub_pow2(src, dst, k, gates):
    return ref_copy(src, dst, gates) + ref_decrement(src, dst, k, gates)


def ref_movement(src, dst, move, gate):
    r = len(src)
    if len(dst) != r or len(move) != 2:
        raise BuildError("register widths must match")
    gates = [(gate, 1)]
    neurons = ref_copy(src, dst, gates)
    enc_l, enc_r = ENC_MOVES["L"], ENC_MOVES["R"]
    for j in range(r):
        dec_cond = ref_pattern(src, {j: 1, **{t: -1 for t in range(j)}}) + [(move, enc_l)]
        dec_out = {dst.coords[j]: -1}
        dec_out.update({dst.coords[t]: 1 for t in range(j)})
        inc_cond = ref_pattern(src, {j: -1, **{t: 1 for t in range(j)}}) + [(move, enc_r)]
        inc_out = {dst.coords[j]: 1}
        inc_out.update({dst.coords[t]: -1 for t in range(j)})
        for cond, out in ((dec_cond, dec_out), (inc_cond, inc_out)):
            neurons.append(ref_single(cond, gates, out))
            neurons.append(ref_single(cond, gates, out))
    return neurons


def ref_subtract(sub, target, gate):
    r = len(sub)
    if len(target) != r:
        raise BuildError("register widths must match")
    stages = []
    for i in range(r):
        stage = []
        for j in range(i, r):
            cond = ref_pattern(target, {j: 1, **{s: -1 for s in range(i, j)}})
            cond += ref_pattern(sub, {i: 1})
            out = {target.coords[j]: -1}
            out.update({target.coords[s]: 1 for s in range(i, j)})
            for _ in range(2):
                stage.append(ref_single(cond, [(gate, 1)], out))
        stages.append(stage)
    return stages


def ref_compose(i1, i2, n_states, d_q):
    if len(i1) != n_states * d_q or len(i2) != n_states * d_q:
        raise BuildError("encoding register size mismatch")
    neurons = []
    for i in range(n_states):
        for j in range(n_states):
            enc_j = bin_pm1(d_q, j)
            slot = i2[d_q * i : d_q * (i + 1)]
            for kbit in range(d_q):
                src_bit = bit(i1, d_q * j + kbit)
                out_coord = i1.coords[d_q * i + kbit]
                neurons.append(ref_single([(slot, enc_j), (src_bit, (1,))], [], {out_coord: 1}))
                neurons.append(ref_single([(slot, enc_j), (src_bit, (-1,))], [], {out_coord: -1}))
    return neurons


def ref_denoising(coords):
    terms = [(-1, 0, 1), (1, 0, -1), (1, -1, 2), (1, -3, -2), (-1, -1, -2), (-1, -3, 2)]
    return [
        RefNeuron({c: sign}, bias4, {c: out}) for c in coords for sign, bias4, out in terms
    ]


def ref_weights(neurons, d):
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


# ---------------------------------------------------------------------------
# helpers


def assert_same_rows(block, reference, d):
    assert isinstance(block, Neurons)
    got, want = mlp_weights(block, d), ref_weights(reference, d)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


def layout_for(w):
    """Registers a and b of width w, a 2-bit move register, flags f, g; a
    filler register first, so that local and residual indices differ."""
    layout = RegisterLayout()
    layout.register("filler", 3)
    a = layout.register("a", w)
    layout.flag("between")
    b = layout.register("b", w)
    move = layout.register("move", 2)
    f = layout.flag("f")
    g = layout.flag("g")
    return layout, a, b, move, f, g


def gate_sets(f, g):
    """0, 1 or 2 gate flags with both values each."""
    yield []
    for v in (0, 1):
        yield [(f, v)]
    for v1, v2 in itertools.product((0, 1), repeat=2):
        yield [(f, v1), (g, v2)]
        yield [(g, v2), (f, v1)]


WIDTHS = range(1, 13)


# ---------------------------------------------------------------------------
# equivalence


@pytest.mark.parametrize("w", WIDTHS)
def test_register_gadgets_match_reference(w):
    layout, a, b, move, f, g = layout_for(w)
    d = layout.d
    for gates in gate_sets(f, g):
        assert_same_rows(zero_register(a, gates), ref_zero(a, gates), d)
        assert_same_rows(copy_register(a, b, gates), ref_copy(a, b, gates), d)
        for k in range(w):
            assert_same_rows(sub_pow2(a, b, k, gates), ref_sub_pow2(a, b, k, gates), d)
            assert_same_rows(
                sub_pow2_inplace(a, k, gates), ref_decrement(a, a, k, gates), d
            )


@pytest.mark.parametrize("w", WIDTHS)
def test_movement_and_subtraction_match_reference(w):
    layout, a, b, move, f, g = layout_for(w)
    d = layout.d
    for gate in (f, g):
        assert_same_rows(add_head_movement(a, b, move, gate), ref_movement(a, b, move, gate), d)
    for gate in (f, g):
        for sub, target in ((a, b), (b, a)):
            stages = full_subtract(sub, target, gate)
            want = ref_subtract(sub, target, gate)
            assert len(stages) == len(want) == w
            for stage, ref in zip(stages, want):
                assert_same_rows(stage, ref, d)


@pytest.mark.parametrize("n_states", [1, 2, 3, 4, 5])
def test_compose_and_denoising_match_reference(n_states):
    d_q = (n_states - 1).bit_length()
    layout = RegisterLayout()
    layout.register("filler", 2)
    i1 = layout.register("i1", n_states * d_q)
    i2 = layout.register("i2", n_states * d_q)
    d = layout.d
    assert_same_rows(
        compose_function_encoding(i1, i2, n_states, d_q), ref_compose(i1, i2, n_states, d_q), d
    )
    coords = list(range(d))[::-1][: n_states + 1]
    assert_same_rows(denoising_neurons(coords), ref_denoising(coords), d)


def test_single_neuron_and_joins_match_reference():
    layout, a, b, move, f, g = layout_for(4)
    d = layout.d
    cases = [
        ([(a, (1, -1, 1, 1))], [(f, 1)], {b.coords[0]: 2, b.coords[3]: -1}),
        ([(a[1:3], (-1, -1)), (move, (1, 1))], [(f, 0), (g, 1)], {f.coord: -1}),
        ([], [], {b.coords[1]: 1}),
        ([], [(g, 0)], {}),
    ]
    blocks, refs = [], []
    for regs, flags, out in cases:
        blocks.append(single_neuron(regs, flags, out))
        refs.append(ref_single(regs, flags, out))
        assert_same_rows(blocks[-1], refs[-1:], d)
    # Joins keep the order of rows, with a cached pattern between rows.
    joined = Neurons.join([blocks[0], zero_register(a, [(f, 1)]), blocks[1]])
    assert_same_rows(joined, [refs[0]] + ref_zero(a, [(f, 1)]) + [refs[1]], d)
    assert_same_rows(Neurons.join(blocks), refs, d)
    assert_same_rows(Neurons.join([]), [], d)


def test_single_neuron_entry_arrays_have_the_block_layout():
    """One row: (entries, 3) intp ins and outs with row index 0, in the
    order of the patterns and of the output dict, and an int32 bias."""
    layout, a, b, move, f, g = layout_for(2)
    n = single_neuron([(a, (1, -1))], [(f, 1), (g, 0)], {b.coords[1]: -2, b.coords[0]: 1})
    want_ins = [[0, a.coords[0], 1], [0, a.coords[1], -1], [0, f.coord, 1], [0, g.coord, -1]]
    assert n.ins.dtype == np.intp and n.ins.tolist() == want_ins
    assert n.outs.dtype == np.intp and n.outs.tolist() == [[0, b.coords[1], -2], [0, b.coords[0], 1]]
    assert n.bias4.dtype == np.int32 and n.bias4.tolist() == [4 * (1 - 2 - 1)]
    empty = single_neuron([], [], {})
    assert empty.ins.shape == empty.outs.shape == (0, 3) and empty.bias4.tolist() == [4]


def test_builder_gate_is_the_shared_inputs():
    layout, a, b, move, f, g = layout_for(3)
    ops = [
        zero_register(a, [(f, 1), (g, 0)]),
        copy_register(a, b, []),
        add_head_movement(a, b, move, g),
        [single_neuron([(a, (1, 1, -1))], [(f, 1)], {b.coords[0]: 1}),
         single_neuron([(a[0:1], (1,))], [(f, 1), (g, 1)], {b.coords[1]: 1})],
        [],
    ]
    builder = ModelBuilder(layout, n_layers=len(ops))
    for i, op in enumerate(ops):
        builder.add_neurons(i + 1, op, f"op{i}")
    gates = [layer_ops[0].neurons.gate for layer_ops in builder._mlp_ops]
    assert gates == [
        {f.coord: 1, g.coord: -1},
        {},
        {g.coord: 1},
        {a.coords[0]: 1, f.coord: 1},
        {},
    ]


def _derived(block):
    """The gate and writes of a block, read from its entry arrays."""
    return _shared_inputs(block.ins, len(block)), set(block.outs[:, 1].tolist())


def test_carried_gates_and_writes_equal_the_derived_ones():
    """A block carries the gate and writes that its entry arrays give: for a
    placed block of every pattern kind, and for `single_neuron`."""
    layout, a, b, move, f, g = layout_for(4)
    blocks = []
    for gates in gate_sets(f, g):
        blocks += [zero_register(a, gates), copy_register(a, b, gates)]
        blocks += [sub_pow2(a, b, k, gates) for k in range(4)]
        blocks += [sub_pow2_inplace(a, k, gates) for k in range(4)]
        blocks.append(single_neuron([(a[1:3], (1, -1))], gates, {b.coords[0]: -1, f.coord: 1}))
    for gate in (f, g):
        blocks.append(add_head_movement(a, b, move, gate))
        blocks += full_subtract(a, b, gate) + full_subtract(b, a, gate)
    blocks += [compose_function_encoding(a, b, 2, 2), denoising_neurons(list(b.coords) + [f.coord])]
    blocks += [single_neuron([(move, (1, -1))], [], {}), single_neuron([], [], {a.coords[0]: 1})]
    for block in blocks:
        assert (block.gate, set(block.writes)) == _derived(block)
    assert any(block.gate for block in blocks) and all(block.writes for block in blocks[:-2])


def test_a_list_op_has_the_gate_of_the_join_of_its_blocks():
    """An op of several blocks, placed and single-neuron ones, has the gate
    read from their join, which a block without rows does not narrow."""
    layout, a, b, move, f, g = layout_for(3)
    zeroing = zero_register(a, [(f, 1), (g, 0)])
    move_neuron = single_neuron([(move, (1, -1))], [(f, 1)], {b.coords[0]: 1})
    bit_neuron = single_neuron([(move[0:1], (1,))], [(g, 0)], {b.coords[1]: 1})
    copying = copy_register(a, b, [(f, 1)])
    empty = zero_register(Register("empty", ()), [])
    ops = [
        [zeroing, move_neuron],
        [move_neuron, zeroing, bit_neuron, empty],
        [empty, move_neuron],
        [move_neuron, copying, empty],
        [zeroing, copying],
        [empty],
    ]
    builder = ModelBuilder(layout, n_layers=len(ops))
    for i, blocks in enumerate(ops):
        builder.add_neurons(i + 1, blocks, f"op{i}")
    gates = [layer_ops[0].neurons.gate for layer_ops in builder._mlp_ops]
    joins = [Neurons.join(blocks) for blocks in ops]
    assert gates == [_derived(join)[0] for join in joins]
    assert gates == [{f.coord: 1}, {}, move_neuron.gate, {f.coord: 1}, {f.coord: 1}, {}]
    assert [set(join.writes) for join in joins] == [_derived(join)[1] for join in joins]


# ---------------------------------------------------------------------------
# errors


def raises_both(block_fn, ref_fn):
    with pytest.raises(BuildError):
        block_fn()
    with pytest.raises(BuildError):
        ref_fn()


def test_gadget_errors_match_reference():
    layout, a, b, move, f, g = layout_for(4)
    _, short, *_ = layout_for(3)
    on_a = Flag("on_a", a.coords[2])
    on_move = Flag("on_move", move.coords[0])
    overlap = Register("overlap", a.coords[2:] + b.coords[:2])
    cases = [
        # width mismatch
        (lambda: copy_register(a, short, []), lambda: ref_copy(a, short, [])),
        (lambda: sub_pow2(a, short, 1, []), lambda: ref_sub_pow2(a, short, 1, [])),
        (
            lambda: add_head_movement(a, short, move, f),
            lambda: ref_movement(a, short, move, f),
        ),
        (
            lambda: add_head_movement(a, b, a, f),
            lambda: ref_movement(a, b, a, f),
        ),
        (lambda: full_subtract(a, short, f), lambda: ref_subtract(a, short, f)),
        (
            lambda: compose_function_encoding(a, b, 3, 2),
            lambda: ref_compose(a, b, 3, 2),
        ),
        # overlapping copy
        (lambda: copy_register(a, overlap, []), lambda: ref_copy(a, overlap, [])),
        (lambda: sub_pow2(a, overlap, 0, []), lambda: ref_sub_pow2(a, overlap, 0, [])),
        (
            lambda: add_head_movement(a, overlap, move, f),
            lambda: ref_movement(a, overlap, move, f),
        ),
    ]
    # k out of range
    for k in (-1, 4, 5):
        cases.append((lambda k=k: sub_pow2(a, b, k, []), lambda k=k: ref_sub_pow2(a, b, k, [])))
        cases.append(
            (lambda k=k: sub_pow2_inplace(a, k, []), lambda k=k: ref_decrement(a, a, k, []))
        )
    # a flag value outside {0, 1}
    for bad in (2, -1):
        gates = [(f, 1), (g, bad)]
        cases += [
            (lambda gates=gates: zero_register(a, gates), lambda gates=gates: ref_zero(a, gates)),
            (
                lambda gates=gates: copy_register(a, b, gates),
                lambda gates=gates: ref_copy(a, b, gates),
            ),
            (
                lambda gates=gates: sub_pow2(a, b, 2, gates),
                lambda gates=gates: ref_sub_pow2(a, b, 2, gates),
            ),
            (
                lambda gates=gates: sub_pow2_inplace(a, 0, gates),
                lambda gates=gates: ref_decrement(a, a, 0, gates),
            ),
            (
                lambda gates=gates: single_neuron([], gates, {}),
                lambda gates=gates: ref_single([], gates, {}),
            ),
        ]
    # a gate flag on a register coordinate, or the same flag twice
    for gates in ([(on_a, 1)], [(f, 0), (on_a, 0)], [(f, 1), (f, 1)]):
        cases += [
            (lambda gates=gates: zero_register(a, gates), lambda gates=gates: ref_zero(a, gates)),
            (
                lambda gates=gates: copy_register(a, b, gates),
                lambda gates=gates: ref_copy(a, b, gates),
            ),
            (
                lambda gates=gates: sub_pow2(a, b, 1, gates),
                lambda gates=gates: ref_sub_pow2(a, b, 1, gates),
            ),
            (
                lambda gates=gates: sub_pow2_inplace(a, 3, gates),
                lambda gates=gates: ref_decrement(a, a, 3, gates),
            ),
        ]
    for gate in (on_a, on_move):
        cases.append(
            (
                lambda gate=gate: add_head_movement(a, b, move, gate),
                lambda gate=gate: ref_movement(a, b, move, gate),
            )
        )
    cases.append((lambda: full_subtract(b, a, on_a), lambda: ref_subtract(b, a, on_a)))
    # the move register overlapping the position it reads
    cases.append(
        (
            lambda: add_head_movement(a, b, a[2:4], f),
            lambda: ref_movement(a, b, a[2:4], f),
        )
    )
    for block_fn, ref_fn in cases:
        raises_both(block_fn, ref_fn)
