import itertools
import random
import re

import numpy as np
import pytest

from tm2tf.fpcore import FloatFormat, round_nearest
from tm2tf.netcore import Dims, NoPositional
from tm2tf.gadgets import (
    ENC_MOVES,
    BuildError,
    ModelBuilder,
    Neurons,
    Register,
    RegisterLayout,
    add_head_movement,
    bin_pm1,
    compose_function_encoding,
    copy_register,
    decode_pm1,
    denoising_neurons,
    full_subtract,
    mlp_weights,
    rows_of,
    selector_head,
    single_neuron,
    sub_pow2,
    sub_pow2_inplace,
    zero_register,
)


def mlp_eval(neurons, x: np.ndarray) -> np.ndarray:
    """W2 relu(W1 x + b) for a block read through `mlp_weights`, summed
    neuron by neuron."""
    w1, bias4, w2 = mlp_weights(neurons, len(x))
    out = np.zeros_like(x, dtype=np.float64)
    for w_in, b, w_out in zip(w1, bias4.tolist(), w2.T):
        acc = w_in @ x + b / 4.0
        if acc > 0:
            out += w_out * acc
    return out


def make_layout(r=3):
    layout = RegisterLayout()
    a = layout.register("a", r)
    b = layout.register("b", r)
    move = layout.register("move", 2)
    f = layout.flag("f")
    g = layout.flag("g")
    return layout, a, b, move, f, g


def test_bin_examples():
    assert bin_pm1(4, 11) == (1, 1, -1, 1)
    assert bin_pm1(3, 0) == (-1, -1, -1)
    assert bin_pm1(5, 19) == (1, 1, -1, -1, 1)
    with pytest.raises(ValueError):
        bin_pm1(3, 8)
    for r in range(1, 6):
        for i in range(2 ** r):
            assert decode_pm1(bin_pm1(r, i)) == i


def test_bin_dot_product_gap():
    for r in range(1, 6):  # exhaustive for small widths
        for q in itertools.product((-1, 1), repeat=r):
            for k in itertools.product((-1, 1), repeat=r):
                if q != k:
                    qq = sum(a * a for a in q)
                    qk = sum(a * b for a, b in zip(q, k))
                    assert qq >= qk + 2
    rng = random.Random(0)
    for _ in range(200):  # randomized for r = 10
        q = tuple(rng.choice((-1, 1)) for _ in range(10))
        k = tuple(rng.choice((-1, 1)) for _ in range(10))
        if q != k:
            assert 10 >= sum(a * b for a, b in zip(q, k)) + 2


def test_single_neuron_fires_on_exact_pattern():
    layout, a, b, move, f, g = make_layout(2)
    d = layout.d
    out = {b.coords[0]: 1, b.coords[1]: -1}
    n = single_neuron([(a, (1, -1))], [(f, 1)], out)
    assert n.bias4.tolist() == [4 * (-(2 + 1) + 1)]

    x = np.zeros(d)
    x[a.coords[0]], x[a.coords[1]] = 1, -1
    x[f.coord] = 1
    y = mlp_eval(n, x)
    assert y[b.coords[0]] == 1 and y[b.coords[1]] == -1

    x2 = x.copy()
    x2[a.coords[1]] = 1  # flip one bit
    assert not mlp_eval(n, x2).any()
    x3 = x.copy()
    x3[f.coord] = 0
    assert not mlp_eval(n, x3).any()


def test_single_neuron_no_patterns_always_fires():
    layout, a, b, move, f, g = make_layout(2)
    n = single_neuron([], [], {b.coords[0]: 1})
    assert n.bias4.tolist() == [4]  # bias 1, zero weights
    x = np.zeros(layout.d)
    assert mlp_eval(n, x)[b.coords[0]] == 1


def admissible_inputs(layout, rng, count=50):
    d = layout.d
    flag_coords = {f.coord for f in layout.flags.values()}
    for _ in range(count):
        x = np.array(
            [
                rng.choice((0, 1)) if c in flag_coords else rng.choice((-1, 0, 1))
                for c in range(d)
            ],
            dtype=np.float64,
        )
        yield x


def test_zero_register():
    layout, a, b, move, f, g = make_layout(3)
    neurons = zero_register(a, [(f, 1), (g, 0)])
    assert len(neurons) == 2 * len(a)
    x = np.zeros(layout.d)
    x[list(a.coords)] = (1, -1, 1)
    x[f.coord] = 1
    assert np.array_equal(x + mlp_eval(neurons, x), np.where(np.arange(layout.d) == f.coord, 1, 0))
    x[g.coord] = 1  # gate mismatch leaves the register alone
    y = x + mlp_eval(neurons, x)
    assert np.array_equal(y, x)


def test_copy_register():
    layout, a, b, move, f, g = make_layout(3)
    neurons = copy_register(a, b, [(f, 1)])
    assert len(neurons) == 2 * len(a)
    rng = random.Random(2)
    for x in admissible_inputs(layout, rng):
        x[list(b.coords)] = 0  # destination must start empty
        y = x + mlp_eval(neurons, x)
        if x[f.coord] == 1:
            assert np.array_equal(y[list(b.coords)], x[list(a.coords)])
        else:
            assert not y[list(b.coords)].any()
        assert np.array_equal(y[list(a.coords)], x[list(a.coords)])


@pytest.mark.parametrize("r,p,k", [(3, 5, 2), (3, 1, 2), (3, 0, 0), (4, 9, 1), (4, 15, 3)])
def test_sub_pow2(r, p, k):
    layout = RegisterLayout()
    a = layout.register("a", r)
    b = layout.register("b", r)
    f = layout.flag("f")
    neurons = sub_pow2(a, b, k, [(f, 1)])
    assert len(neurons) == 4 * r
    x = np.zeros(layout.d)
    x[list(a.coords)] = bin_pm1(r, p)
    x[f.coord] = 1
    y = x + mlp_eval(neurons, x)
    assert tuple(y[list(b.coords)]) == bin_pm1(r, max(0, p - 2 ** k))
    x[f.coord] = 0
    assert not (x + mlp_eval(neurons, x))[list(b.coords)].any()


def test_sub_pow2_inplace_exhaustive():
    for r in (2, 3):
        for k in range(r):
            layout = RegisterLayout()
            a = layout.register("a", r)
            f = layout.flag("f")
            neurons = sub_pow2_inplace(a, k, [(f, 1)])
            assert len(neurons) == 2 * r
            for p in range(2 ** r):
                x = np.zeros(layout.d)
                x[list(a.coords)] = bin_pm1(r, p)
                x[f.coord] = 1
                y = x + mlp_eval(neurons, x)
                assert tuple(y[list(a.coords)]) == bin_pm1(r, max(0, p - 2 ** k))
                x[f.coord] = 0
                y = x + mlp_eval(neurons, x)
                assert tuple(y[list(a.coords)]) == bin_pm1(r, p)


def test_add_head_movement():
    r = 3
    layout = RegisterLayout()
    src = layout.register("src", r)
    dst = layout.register("dst", r)
    move = layout.register("move", 2)
    f = layout.flag("f")
    neurons = add_head_movement(src, dst, move, f)
    assert len(neurons) == 6 * r
    assert ENC_MOVES == {"L": bin_pm1(2, 0), "S": bin_pm1(2, 1), "R": bin_pm1(2, 2)}
    cases = [(3, "R", 4), (0, "L", 0), (5, "S", 5), (4, "L", 3), (6, "R", 7), (1, "L", 0)]
    for s, mv, want in cases:
        x = np.zeros(layout.d)
        x[list(src.coords)] = bin_pm1(r, s)
        x[list(move.coords)] = ENC_MOVES[mv]
        x[f.coord] = 1
        y = x + mlp_eval(neurons, x)
        assert tuple(y[list(dst.coords)]) == bin_pm1(r, want), (s, mv)
        x[f.coord] = 0
        assert not (x + mlp_eval(neurons, x))[list(dst.coords)].any()


def test_full_subtract():
    r = 3
    layout = RegisterLayout()
    sub = layout.register("sub", r)
    tgt = layout.register("tgt", r)
    f = layout.flag("f")
    stages = full_subtract(sub, tgt, f)
    assert len(stages) == r
    assert len(stages[0]) == 2 * r  # first stage fills the whole 2r budget
    assert all(len(st) == 2 * (r - i) for i, st in enumerate(stages))

    def apply(s1, s2, gate):
        x = np.zeros(layout.d)
        x[list(sub.coords)] = bin_pm1(r, s1)
        x[list(tgt.coords)] = bin_pm1(r, s2)
        x[f.coord] = gate
        for stage in stages:
            x = x + mlp_eval(stage, x)
        return tuple(x[list(tgt.coords)])

    for s2 in range(2 ** r - 1):
        for s1 in range(s2 + 1):
            assert apply(s1, s2, 1) == bin_pm1(r, s2 - s1), (s1, s2)
            assert apply(s1, s2, 0) == bin_pm1(r, s2)


def test_compose_function_encoding():
    n_states, d_q = 2, 1
    layout = RegisterLayout()
    i1 = layout.register("i1", n_states * d_q)
    i2 = layout.register("i2", n_states * d_q)
    neurons = compose_function_encoding(i1, i2, n_states, d_q)
    assert len(neurons) == 2 * d_q * n_states ** 2

    def enc_fn(fn):
        out = []
        for i in range(n_states):
            out.extend(bin_pm1(d_q, fn[i]))
        return out

    ident, swap = (0, 1), (1, 0)
    for f1 in [ident, swap]:
        for f2 in [ident, swap]:
            x = np.zeros(layout.d)
            x[list(i1.coords)] = enc_fn(f1)
            x[list(i2.coords)] = enc_fn(f2)
            got = mlp_eval(neurons, x)[list(i1.coords)]
            composed = tuple(f1[f2[i]] for i in range(n_states))
            assert list(got) == enc_fn(composed), (f1, f2)


def test_compose_three_states_random():
    n_states, d_q = 3, 2
    layout = RegisterLayout()
    i1 = layout.register("i1", n_states * d_q)
    i2 = layout.register("i2", n_states * d_q)
    neurons = compose_function_encoding(i1, i2, n_states, d_q)
    assert len(neurons) == 2 * d_q * n_states ** 2

    def enc_fn(fn):
        out = []
        for i in range(n_states):
            out.extend(bin_pm1(d_q, fn[i]))
        return out

    rng = random.Random(5)
    for _ in range(20):
        f1 = tuple(rng.randrange(n_states) for _ in range(n_states))
        f2 = tuple(rng.randrange(n_states) for _ in range(n_states))
        x = np.zeros(layout.d)
        x[list(i1.coords)] = enc_fn(f1)
        x[list(i2.coords)] = enc_fn(f2)
        got = mlp_eval(neurons, x)[list(i1.coords)]
        assert list(got) == enc_fn(tuple(f1[f2[i]] for i in range(n_states)))


def test_denoising_exact_real_arithmetic():
    neurons = denoising_neurons([0])
    assert len(neurons) == 6
    for x0, want in [(1.2, 1.0), (0.0, 0.0), (-0.8, -1.0), (0.25, 0.0), (-1.25, -1.0), (0.75, 1.0)]:
        x = np.array([x0])
        assert (x + mlp_eval(neurons, x))[0] == want


def test_denoising_with_per_step_rounding():
    # x = -0.8125 under a 3-mantissa-bit format: every term stays representable.
    fmt = FloatFormat(3, 4)
    w1, bias4, w2 = mlp_weights(denoising_neurons([0]), 1)
    x = -0.8125
    assert round_nearest(x, fmt) == x
    acc = 0.0
    for w_in, b, w_out in zip(w1[:, 0].tolist(), bias4.tolist(), w2[0].tolist()):
        pre = w_in * x + b / 4.0
        hidden = round_nearest(max(pre, 0.0), fmt)
        acc += w_out * hidden
    z = round_nearest(acc, fmt)
    assert round_nearest(x + z, fmt) == -1.0


def test_denoising_weight_ranges():
    w1, bias4, w2 = mlp_weights(denoising_neurons([0, 1]), 2)
    assert set(np.abs(w1[w1 != 0]).tolist()) == {1}
    assert set(bias4.tolist()) <= {0, -1, -3}
    assert set(np.abs(w2[w2 != 0]).tolist()) <= {1, 2}


def test_gadget_hidden_activations_are_binary():
    layout, a, b, move, f, g = make_layout(3)
    bag = Neurons.join(
        [
            zero_register(a, [(f, 1)]),
            copy_register(a, b, [(g, 1)]),
            sub_pow2_inplace(a, 1, [(f, 0)]),
        ]
    )
    w1, bias4, _ = mlp_weights(bag, layout.d)
    rng = random.Random(3)
    for x in admissible_inputs(layout, rng, count=80):
        hidden = np.maximum(w1 @ x + bias4 / 4.0, 0.0)
        assert set(hidden.tolist()) <= {0.0, 1.0}


def test_builder_conflict_detection():
    layout = RegisterLayout()
    a = layout.register("a", 2)
    b = layout.register("b", 2)
    f = layout.flag("f")
    g = layout.flag("g")
    builder = ModelBuilder(layout, n_layers=2)
    builder.add_neurons(1, copy_register(a, b, [(f, 1)]), "copy1")
    # Same target, complementary gate: fine.
    builder.add_neurons(1, copy_register(a, b, [(f, 0)]), "copy2")
    # Same target, unrelated gate: rejected (f=1 and g=1 can coincide).
    with pytest.raises(BuildError):
        builder.add_neurons(1, copy_register(a, b, [(g, 1)]), "copy3")
    # Ungated double write is always an error.
    builder.add_neurons(2, copy_register(a, b, []), "u1")
    with pytest.raises(BuildError):
        builder.add_neurons(2, zero_register(b, []), "u2")

    # With f and g declared mutually exclusive, f=1 vs g=1 gating is disjoint.
    builder2 = ModelBuilder(layout, n_layers=1)
    builder2.declare_exclusive([f, g])
    builder2.add_neurons(1, copy_register(a, b, [(f, 1)]), "cf")
    builder2.add_neurons(1, copy_register(a, b, [(g, 1)]), "cg")


def test_builder_refuses_heads_writing_one_coordinate():
    layout = RegisterLayout()
    a = layout.register("a", 2)
    b = layout.register("b", 2)
    c = layout.register("c", 2)
    builder = ModelBuilder(layout, n_layers=2)
    builder.add_head(1, selector_head("h0", [a], [a], [a], b))
    # b[1] is already written by h0 in layer 1.
    with pytest.raises(BuildError, match="output coords already written in layer 1"):
        builder.add_head(
            1, selector_head("h1", [a], [a], [a], Register("cb", (c.coords[0], b.coords[1])))
        )
    # Other coordinates, or another layer, are fine.
    builder.add_head(1, selector_head("h2", [a], [a], [a], c))
    builder.add_head(2, selector_head("h3", [a], [a], [a], b))


def test_builder_derives_gates_from_neurons():
    layout = RegisterLayout()
    a = layout.register("a", 2)
    b = layout.register("b", 2)
    f = layout.flag("f")
    builder = ModelBuilder(layout, n_layers=2)
    # Complementary register-bit patterns: every neuron of the first op
    # needs a[0] = +1, every neuron of the second a[0] = -1.
    builder.add_neurons(
        1,
        [
            single_neuron([(a[0:1], (1,))], [], {b.coords[0]: 1}),
            single_neuron([(a, (1, 1))], [], {b.coords[1]: -1}),
        ],
        "a0-high",
    )
    builder.add_neurons(
        1, [single_neuron([(a, (-1, 1))], [], {b.coords[0]: -1})], "a0-low"
    )
    # Complementary flags, shared by every neuron of each op.
    builder.add_neurons(2, zero_register(b, [(f, 1)]), "zero-f")
    builder.add_neurons(2, copy_register(a, b, [(f, 0)]), "copy-not-f")


def test_builder_partly_gated_op_conflicts():
    layout = RegisterLayout()
    a = layout.register("a", 2)
    b = layout.register("b", 2)
    f = layout.flag("f")
    builder = ModelBuilder(layout, n_layers=1)
    builder.add_neurons(1, copy_register(a, b, [(f, 0)]), "copy-not-f")
    # Only the first neuron needs f = 1; the second fires whatever f is.
    partly_gated = [
        single_neuron([(a[0:1], (1,))], [(f, 1)], {b.coords[0]: 1}),
        single_neuron([(a[1:2], (1,))], [], {b.coords[1]: 1}),
    ]
    with pytest.raises(BuildError):
        builder.add_neurons(1, partly_gated, "partly-f")


def _budget_build(n_heads: int, d_ff: int):
    """Layer 1 copies a into b with 4 neurons; layer 2 has two heads."""
    layout = RegisterLayout()
    a = layout.register("a", 2)
    b = layout.register("b", 2)
    builder = ModelBuilder(layout, n_layers=2)
    builder.add_neurons(1, copy_register(a, b, []), "copy")
    for i in range(2):
        builder.add_head(2, selector_head(f"h{i}", [a], [a], [a[i : i + 1]], b[i : i + 1]))
    dims = Dims(d=layout.d, d_k=2, d_v=1, d_ff=d_ff, n_heads=n_heads, n_layers=2)
    return builder.finalize(["x"], dims, NoPositional(), "test", 2)


@pytest.mark.parametrize(
    "n_heads,d_ff,message",
    [(1, 4, "layer 1 has 2 heads and 0 MLP rows"), (2, 3, "layer 0 has 0 heads and 4 MLP rows")],
)
def test_finalize_refuses_builds_over_budget(n_heads, d_ff, message):
    """The budgets are checked by the model contract, which names the layer
    (0-based) of a build over its head or d_ff budget."""
    _, report = _budget_build(2, 4)
    assert report.heads_used == [0, 2] and report.neurons_used == [4, 0]
    with pytest.raises(ValueError, match=message):
        _budget_build(n_heads, d_ff)


def _conflict(set_values) -> None:
    set_values("x", {0: 1})
    set_values("x", {0: -1})


def _finalize(layout, builder, **dims) -> None:
    dims = {"d": layout.d, "d_k": 2, "d_v": 2, "d_ff": 4, "n_heads": 1, "n_layers": 2, **dims}
    builder.finalize(["x"], Dims(**dims), NoPositional(), "test", 2)


def _finalize_with(layout, builder, set_values) -> None:
    """Finalize over the vocabulary ["x"] after setting values for "zz"."""
    set_values("x", {0: 1})
    set_values("zz", {0: 1})
    _finalize(layout, builder)


def _oversized_head(layout, builder, a) -> None:
    builder.add_head(1, selector_head("h", [a], [a], [a], a))
    _finalize(layout, builder, d_k=1)


# Each refusal as (call on a layout with register a (2 bits) and flag f, and
# a 2-layer builder over it; the BuildError message).
REFUSALS = {
    "duplicate register": (lambda lay, a, f, b: lay.register("f", 1), "duplicate allocation 'f'"),
    "duplicate flag": (lambda lay, a, f, b: lay.flag("a"), "duplicate allocation 'a'"),
    "negative size": (lambda lay, a, f, b: lay.register("n", -1), "register size must be >= 0"),
    "pattern size": (
        lambda lay, a, f, b: single_neuron([(a, (1,))], [], {}),
        "pattern size mismatch on a",
    ),
    "pattern value": (
        lambda lay, a, f, b: single_neuron([(a, (1, 0))], [], {}),
        "register patterns must be +-1",
    ),
    "register overlap": (
        lambda lay, a, f, b: single_neuron([(a, (1, 1)), (a[0:1], (1,))], [], {}),
        "overlapping register/flag references",
    ),
    "flag value": (
        lambda lay, a, f, b: single_neuron([], [(f, 2)], {}),
        "flag patterns must be 0/1",
    ),
    "flag overlap": (
        lambda lay, a, f, b: single_neuron([], [(f, 1), (f, 0)], {}),
        "overlapping register/flag references",
    ),
    "repeat of a register": (
        lambda lay, a, f, b: rows_of((a, 2)),
        "repeat applies to single-row items",
    ),
    "raw coordinate row": (lambda lay, a, f, b: rows_of(3), "cannot interpret row item 3"),
    "query/key rows": (
        lambda lay, a, f, b: selector_head("h", [a], [f], [a], a),
        "head h: query/key row counts differ",
    ),
    "value rows": (
        lambda lay, a, f, b: selector_head("h", [a], [a], [a], f),
        "head h: value rows and output size differ",
    ),
    "embedding": (
        lambda lay, a, f, b: _conflict(b.set_embedding),
        "conflicting embedding for 'x' at coord 0",
    ),
    "unembedding": (
        lambda lay, a, f, b: _conflict(b.set_unembedding),
        "conflicting unembedding for 'x' at coord 0",
    ),
    "embedding outside the vocabulary": (
        lambda lay, a, f, b: _finalize_with(lay, b, b.set_embedding),
        "embedding set for 'zz', which is not in the vocabulary",
    ),
    "unembedding outside the vocabulary": (
        lambda lay, a, f, b: _finalize_with(lay, b, b.set_unembedding),
        "unembedding set for 'zz', which is not in the vocabulary",
    ),
    "head layer": (
        lambda lay, a, f, b: b.add_head(0, selector_head("h", [a], [a], [f], f)),
        "layer 0 out of range",
    ),
    "neuron layer": (
        lambda lay, a, f, b: b.add_neurons(3, zero_register(a, []), "z"),
        "layer 3 out of range",
    ),
    "layout width": (
        lambda lay, a, f, b: _finalize(lay, b, d=4),
        "layout uses 3 coordinates but dims.d = 4",
    ),
    "head size": (lambda lay, a, f, b: _oversized_head(lay, b, a), "head h exceeds d_k/d_v"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_the_construction_kit_refuses(case):
    call, message = REFUSALS[case]
    layout = RegisterLayout()
    a, f = layout.register("a", 2), layout.flag("f")
    with pytest.raises(BuildError, match=re.escape(message)):
        call(layout, a, f, ModelBuilder(layout, n_layers=2))
