import dataclasses
import json
import math
import re

import numpy as np
import pytest

from model_docs import CORRUPTIONS, first_with, set_rows, truncate_rows

from tm2tf.fpcore import EXACT, FloatFormat, Precision
from tm2tf.gadgets import ModelBuilder, RegisterLayout, selector_head, sub_pow2
from tm2tf.netcore import (
    BinaryAbsolute,
    Dims,
    EvalConfig,
    EvalError,
    Evaluator,
    NoPositional,
    TransformerParams,
    forward,
    hardmax_weights,
    params_from_json,
    params_to_json,
    rope_rotate,
    separation,
    softmax_weights,
    sum_bits,
)


def test_hardmax_weights_examples():
    assert hardmax_weights([3]).tolist() == [1.0]
    assert hardmax_weights([1, 2, 2]).tolist() == [0.0, 0.5, 0.5]
    assert hardmax_weights([0, 1, 0.5]).tolist() == [0.0, 1.0, 0.0]


def test_softmax_weights_examples():
    assert softmax_weights([0.0, 0.0]).tolist() == [0.5, 0.5]
    got = softmax_weights([0.0, math.log(3)])
    assert abs(got[0] - 0.25) < 1e-15 and abs(got[1] - 0.75) < 1e-15
    assert abs(softmax_weights(np.arange(10.0)).sum() - 1.0) < 1e-12


def test_softmax_hardmax_distance_bound():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = rng.integers(1, 30)
        scores = rng.integers(-5, 6, n).astype(float) * rng.uniform(0.5, 4.0)
        beta = separation(scores)
        dist = np.abs(softmax_weights(scores) - hardmax_weights(scores)).sum()
        assert dist <= 2 * n * math.exp(-beta) + 1e-12


def test_separation():
    assert separation([1.0, 3.0, 2.0]) == 1.0
    assert separation([2.0, 2.0]) == math.inf


def test_rope_rotate():
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.array_equal(rope_rotate(v, 0, (0.3, 0.7)), v)
    rot = rope_rotate(v, 5, (0.3, 0.7))
    assert abs(np.linalg.norm(rot) - np.linalg.norm(v)) < 1e-12
    assert rot[4] == 5.0  # unrotated tail
    got = rope_rotate(np.array([1.0, 0.0]), 1, (math.pi,))
    assert abs(got[0] + 1.0) < 1e-15 and abs(got[1]) < 1e-15


def _zero_model(d=4, vocab=("a", "b")):
    dims = Dims(d=d, d_k=2, d_v=2, d_ff=3, n_heads=1, n_layers=2)
    emb = np.zeros((len(vocab), d), dtype=np.int8)
    emb[0, 0] = 1
    emb[1, 1] = 1
    unemb = np.zeros((len(vocab), d), dtype=np.int8)
    layers = []
    for _ in range(dims.n_layers):
        from tm2tf.netcore import HeadParams, LayerParams

        layers.append(
            LayerParams(
                heads=[
                    HeadParams(
                        np.zeros((2, d), np.int8),
                        np.zeros((2, d), np.int8),
                        np.zeros((2, d), np.int8),
                        np.zeros((d, 2), np.int8),
                    )
                ],
                w1=np.zeros((3, d), np.int8),
                bias4=np.zeros(3, np.int32),
                w2=np.zeros((d, 3), np.int8),
            )
        )
    return TransformerParams(
        dims=dims,
        vocab=list(vocab),
        emb=emb,
        unemb=unemb,
        positional=NoPositional(),
        layers=layers,
    )


def test_zero_model_is_residual_identity():
    params = _zero_model()
    cfg = EvalConfig(capture_trace=True)
    reps, trace = forward(params, ["a", "b", "a"], cfg)
    for i, x0 in enumerate(trace.x0):
        assert np.array_equal(reps[i], x0)


def test_hardmax_config_rejects_finite_precision():
    with pytest.raises(ValueError):
        EvalConfig(attention="hardmax", act_precision=Precision(FloatFormat(7, 8)))
    with pytest.raises(ValueError):
        EvalConfig(attention="nonsense")


def test_selector_head_copies_k_back():
    """A head with decremented-position queries copies a register from k back."""
    r = 3
    k_back = 2
    layout = RegisterLayout()
    pos = layout.register("pos", r)
    pos_ex = layout.register("pos_ex", r)
    payload = layout.register("payload", 2)
    target = layout.register("target", 2)

    builder = ModelBuilder(layout, n_layers=2)
    builder.add_neurons(1, sub_pow2(pos, pos_ex, 1, []), "pos-2")  # 2^1 = k_back
    builder.add_head(
        2,
        selector_head("fetch", [pos_ex], [pos], [payload], target),
    )
    vocab = ["t0", "t1", "t2", "t3"]
    for i, tok in enumerate(vocab):
        builder.set_embedding(tok, {payload.coords[0]: 1 if i % 2 else -1, payload.coords[1]: 1})
    dims = Dims(d=layout.d, d_k=r, d_v=2, d_ff=4 * r, n_heads=1, n_layers=2)
    params, _ = builder.finalize(vocab, dims, BinaryAbsolute(r, pos.coords), "test", r)

    reps, trace = forward(params, vocab, EvalConfig(capture_trace=True))
    for i in range(len(vocab)):
        src = max(0, i - k_back)
        want = np.zeros(2)
        want[0] = 1 if src % 2 else -1
        want[1] = 1
        assert np.array_equal(reps[i][list(target.coords)], want), i

    # All traced activations stay ternary.
    for name, arr in trace.representation_arrays():
        assert np.all(np.isin(arr, (-1.0, 0.0, 1.0))), name


def test_context_length_guard():
    layout = RegisterLayout()
    pos = layout.register("pos", 2)
    builder = ModelBuilder(layout, n_layers=1)
    dims = Dims(d=2, d_k=2, d_v=1, d_ff=1, n_heads=1, n_layers=1)
    params, _ = builder.finalize(["x"], dims, BinaryAbsolute(2, pos.coords), "test", 2)
    ev = Evaluator(params, EvalConfig())
    ev.extend(["x"] * 4)
    from tm2tf.netcore import EvalError

    with pytest.raises(EvalError):
        ev.extend(["x"])
    with pytest.raises(EvalError):
        ev.extend(["y"])  # unknown token


def _batch_of_three(ev):
    ev.extend([("a", "b", "a")])


def _ragged(width):
    """A batch of two whose second position holds `width` tokens."""

    def call(ev):
        ev.extend([("a", "b"), ("a", "b", "a")[:width]])

    return call


def _scores_past_the_end(ev):
    ev.extend(["a"])
    ev.output_scores(1)


# Each refusal as (batch size, call on a fresh evaluator of the zero model
# or None where the constructor refuses, error type, message).
EVALUATOR_REFUSALS = {
    "batch size": (0, None, ValueError, "batch must be >= 1"),
    "tokens per position": (2, _batch_of_three, ValueError, "each position needs 2 tokens, got 3"),
    "ragged, shorter": (
        2,
        _ragged(1),
        ValueError,
        "position 1: each position needs 2 tokens, got 1",
    ),
    "ragged, longer": (
        2,
        _ragged(3),
        ValueError,
        "position 1: each position needs 2 tokens, got 3",
    ),
    "a bare string in a batch": (
        2,
        lambda ev: ev.extend([("a", "b"), "ab"]),
        ValueError,
        "position 1: a batch position is a sequence, not 'ab'",
    ),
    "an integer in a batch": (
        2,
        lambda ev: ev.extend([("a", "b"), 3]),
        ValueError,
        "position 1: a batch position is a sequence, not 3",
    ),
    "None in a batch": (
        2,
        lambda ev: ev.extend([None, ("a", "b")]),
        ValueError,
        "position 0: a batch position is a sequence, not None",
    ),
    "scores before a token": (
        None,
        lambda ev: ev.output_scores(),
        EvalError,
        "no tokens processed",
    ),
    "scores past the end": (None, _scores_past_the_end, ValueError, "position 1 not processed"),
    "next_token on a batch": (
        2,
        lambda ev: ev.next_token(),
        ValueError,
        "next_token needs a single sequence; use next_tokens",
    ),
}


@pytest.mark.parametrize("case", list(EVALUATOR_REFUSALS))
def test_the_evaluator_refuses(case):
    batch, call, error, message = EVALUATOR_REFUSALS[case]
    with pytest.raises(error, match=message):
        call(Evaluator(_zero_model(), EvalConfig(), batch=batch))


def test_params_json_roundtrip():
    params = _zero_model()
    params.qk_scale = 2.0 ** 7
    doc = params_to_json(params)
    back = params_from_json(doc)
    assert back.dims == params.dims
    assert back.vocab == params.vocab
    assert back.qk_scale == params.qk_scale
    assert np.array_equal(back.emb, params.emb)
    for l1, l2 in zip(back.layers, params.layers):
        assert np.array_equal(l1.w1, l2.w1)
        assert np.array_equal(l1.bias4, l2.bias4)
        for h1, h2 in zip(l1.heads, l2.heads):
            assert np.array_equal(h1.wq, h2.wq)
            assert np.array_equal(h1.wo, h2.wo)

    import json

    assert json.loads(json.dumps(doc)) == doc


def test_rounded_softmax_with_exact_precisions_matches_plain_softmax():
    params = _zero_model()
    cfg1 = EvalConfig(attention="softmax", capture_trace=True)
    cfg2 = EvalConfig(
        attention="softmax",
        act_precision=EXACT,
        att_precision=EXACT,
        capture_trace=True,
    )
    reps1, _ = forward(params, ["a", "b", "a"], cfg1)
    reps2, _ = forward(params, ["a", "b", "a"], cfg2)
    assert np.array_equal(reps1, reps2)


def test_incremental_matches_batch():
    """Processing tokens one by one equals processing them all at once."""
    params = _zero_model()
    cfg = EvalConfig(attention="softmax")
    ev1 = Evaluator(params, cfg)
    for tok in ["a", "b", "b", "a"]:
        ev1.extend([tok])
    ev2 = Evaluator(params, cfg)
    ev2.extend(["a", "b", "b", "a"])
    assert np.array_equal(ev1.final_representations(), ev2.final_representations())


def test_next_token_tie_diagnostic():
    params = _zero_model()
    ev = Evaluator(params, EvalConfig())
    ev.extend(["a"])
    tok = ev.next_token()  # all unembeddings zero: tie, lowest index wins
    assert tok == "a"
    assert ev.trace.tie_warnings == 1


def test_forward_trace_bit_identical():
    params = _zero_model()
    cfg = EvalConfig(attention="softmax", capture_trace=True)
    r1, t1 = forward(params, ["a", "b", "b"], cfg)
    r2, t2 = forward(params, ["a", "b", "b"], cfg)
    assert np.array_equal(r1, r2)
    for (n1, a1), (n2, a2) in zip(t1.representation_arrays(), t2.representation_arrays()):
        assert n1 == n2 and np.array_equal(a1, a2)


# ---------------------------------------------------------------------------
# the model contract: layers hold only what a construction builds


def _compile(kind: str):
    from machines import bouncer_machine, fig2_machine, parity_dfa

    from tm2tf.compilers import build_rope_position_prefix, compile_cot, compile_dfa, compile_scot

    return {
        "dfa": lambda: compile_dfa(parity_dfa(), 3),
        "cot": lambda: compile_cot(fig2_machine(), 6),
        "scot": lambda: compile_scot(bouncer_machine(3), 6),
        "rope": lambda: build_rope_position_prefix(3),
    }[kind]()


@pytest.mark.parametrize("kind", ["dfa", "cot", "scot", "rope"])
def test_layers_hold_only_built_heads_and_neurons(kind):
    params, report = _compile(kind)
    assert [len(layer.heads) for layer in params.layers] == report.heads_used
    assert [layer.w1.shape[0] for layer in params.layers] == report.neurons_used
    assert params_from_json(params_to_json(params)).dims == params.dims


@pytest.mark.parametrize("kind", ["cot", "denoised", "dfa"])
def test_save_model_writes_compact_json_that_loads_back(kind, tmp_path):
    from tm2tf.netcore import load_model, save_model

    params = _softmax_case("denoised")[0] if kind == "denoised" else _compile(kind)[0]
    if kind == "denoised":
        assert any(not layer.heads for layer in params.layers)
    path = str(tmp_path / "model.json")
    save_model(params, path)
    doc = params_to_json(params)
    with open(path) as f:
        assert f.read() == json.dumps(doc, separators=(",", ":"))
    assert params_to_json(load_model(path)) == doc


def _padded(params: TransformerParams) -> TransformerParams:
    """params with zero heads and zero MLP rows up to the dims budgets."""
    from tm2tf.netcore import HeadParams, LayerParams

    dims = params.dims
    layers = []
    for layer in params.layers:
        heads = list(layer.heads) + [
            HeadParams(
                np.zeros((dims.d_k, dims.d), np.int8),
                np.zeros((dims.d_k, dims.d), np.int8),
                np.zeros((dims.d_v, dims.d), np.int8),
                np.zeros((dims.d, dims.d_v), np.int8),
            )
            for _ in range(dims.n_heads - len(layer.heads))
        ]
        pad = dims.d_ff - layer.w1.shape[0]
        layers.append(
            LayerParams(
                heads,
                np.pad(layer.w1, ((0, pad), (0, 0))),
                np.pad(layer.bias4, (0, pad)),
                np.pad(layer.w2, ((0, 0), (0, pad))),
            )
        )
    return dataclasses.replace(params, layers=layers)


def test_zero_padded_model_loads_and_decodes_the_same_tokens():
    from machines import fig2_machine

    from tm2tf.compilers import compile_cot
    from tm2tf.generation import run_cot

    params, _ = compile_cot(fig2_machine(), 6)
    padded = params_from_json(json.loads(json.dumps(params_to_json(_padded(params)))))
    assert all(len(layer.heads) == params.dims.n_heads for layer in padded.layers)
    for word in ("aab", "ba", ""):
        want = run_cot(params, word, EvalConfig())
        got = run_cot(padded, word, EvalConfig())
        assert want.outcome == "output" and got.segments == want.segments


def _truncate_w1(doc):
    truncate_rows(doc["layers"][1]["w1"])  # one row short of bias4


def _wrong_n_layers(doc):
    doc["dims"]["n_layers"] = 3


def _too_many_heads(doc):
    layer = next(layer for layer in doc["layers"] if layer["heads"])
    layer["heads"] = layer["heads"] * (doc["dims"]["n_heads"] + 1)


def _duplicate_token(doc):
    doc["vocab"][1] = doc["vocab"][0]


def _fractional_code(doc):
    first_with(doc, "w1")["w1"]["codes"][0] = 1.5


def _boolean_code(doc):
    first_with(doc, "w1")["w1"]["codes"][0] = True


def _meta_r_differs(doc):
    doc["meta"]["r"] = doc["positional"]["r"] + 6


def _min_int8_w1(doc):
    first_with(doc, "w1")["w1"]["codes"][0] = -128  # np.abs(-128) is -128 in int8


def _min_int8_emb(doc):
    doc["emb"]["codes"][0] = -128


def _min_int32_bias4(doc):
    first_with(doc, "bias4")["bias4"]["codes"][0] = -(2 ** 31)


def _infinite_scale(doc):
    doc["qk_scale"] = "inf"


def _too_many_rows(doc):
    """d_ff + 1 MLP rows of consistent shapes in one layer."""
    set_rows(first_with(doc, "w1"), doc["dims"]["d_ff"] + 1)


@pytest.mark.parametrize(
    "corrupt",
    [
        _truncate_w1,
        _wrong_n_layers,
        _too_many_heads,
        _duplicate_token,
        _fractional_code,
        _boolean_code,
        _meta_r_differs,
        _min_int8_w1,
        _min_int8_emb,
        _min_int32_bias4,
        _infinite_scale,
        _too_many_rows,
    ],
)
def test_params_from_json_rejects_contract_violations(corrupt):
    params, _ = _compile("dfa")
    doc = json.loads(json.dumps(params_to_json(params)))
    params_from_json(doc)
    corrupt(doc)
    with pytest.raises(ValueError):
        params_from_json(doc)


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_params_from_json_refuses_malformed_sparse_arrays(name, monkeypatch):
    """Refused before any array larger than the model is allocated."""
    params, _ = _compile("dfa")
    doc = json.loads(json.dumps(params_to_json(params)))
    params_from_json(doc)
    CORRUPTIONS[name](doc)
    zeros = np.zeros

    def small_zeros(shape, *args, **kwargs):
        assert math.prod(np.atleast_1d(shape)) <= 10 ** 6, shape
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", small_zeros)
    with pytest.raises((ValueError, OverflowError)):
        params_from_json(doc)


def _weight_arrays(params: TransformerParams) -> list[np.ndarray]:
    arrays = [params.emb, params.unemb]
    for layer in params.layers:
        arrays += [a for h in layer.heads for a in (h.wq, h.wk, h.wv, h.wo)]
        arrays += [layer.w1, layer.bias4, layer.w2]
    return arrays


def _assert_same_weights(got: TransformerParams, want: TransformerParams) -> None:
    pairs = list(zip(_weight_arrays(got), _weight_arrays(want), strict=True))
    for a, b in pairs:
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert params_to_json(got) == params_to_json(want)


@pytest.mark.parametrize(
    "kind", ["dfa", "cot", "scot", "rope", "scaled_only", "denoised", "padded"]
)
def test_model_file_round_trips_every_kind(kind, tmp_path):
    from tm2tf.netcore import load_model, save_model

    if kind in ("scaled_only", "denoised"):
        params = _softmax_case(kind)[0]
    elif kind == "padded":
        params = _padded(_compile("cot")[0])
    else:
        params = _compile(kind)[0]
    path = str(tmp_path / "model.json")
    save_model(params, path)
    _assert_same_weights(load_model(path), params)


def test_denoised_bouncer8_model_file_is_small(tmp_path):
    """About 14 M weight entries, 1 M of text: dense lists took 27.7 MB."""
    import os

    from machines import bouncer_machine

    from tm2tf.compilers import compile_cot
    from tm2tf.netcore import load_model, save_model
    from tm2tf.softmaxify import convert

    r = 10
    params, _ = convert(compile_cot(bouncer_machine(8), r)[0], "denoised", 2 ** r)
    path = str(tmp_path / "model.json")
    save_model(params, path)
    assert os.path.getsize(path) < 2_000_000
    _assert_same_weights(load_model(path), params)


def test_readme_model_file_example_loads():
    """The README's complete format-2 model is a valid model file."""
    from pathlib import Path

    from tm2tf.netcore import next_token

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("A complete model file", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    params = params_from_json(json.loads(block))
    assert params.dims == Dims(d=2, d_k=1, d_v=1, d_ff=1, n_heads=1, n_layers=1)
    assert json.loads(json.dumps(params_to_json(params))) == json.loads(block)
    assert next_token(params, ["a"], EvalConfig()) in params.vocab


# ---------------------------------------------------------------------------
# the fused evaluator against the paper's layer, written head by head


def _reference_forward(params: TransformerParams, tokens: list[str], cfg: EvalConfig):
    """Final representations and per-layer x_mid/x_out, (positions, d) each.

    One loop over heads with per-head Q/K/V, attention and one rounding of
    each head quantity, then y = sum_h W_O^h o_h, the residual and the MLP.
    """
    from tm2tf.fpcore import round_array
    from tm2tf.netcore import RotaryOnly

    def rnd(x, prec):
        return x if prec.exact else round_array(x, prec.fmt)[0]

    act, d_k = cfg.act_precision, params.dims.d_k
    keys = [[[] for _ in layer.heads] for layer in params.layers]
    values = [[[] for _ in layer.heads] for layer in params.layers]
    x_mid = [[] for _ in params.layers]
    x_out = [[] for _ in params.layers]
    reps = []
    for i, tok in enumerate(tokens):
        x = params.emb[params.token_index(tok)].astype(np.float64)
        if isinstance(params.positional, BinaryAbsolute):
            for s, coord in enumerate(params.positional.coords):
                x[coord] = 1.0 if (i >> s) & 1 else -1.0
        x = rnd(x, act)
        for li, layer in enumerate(params.layers):
            y = np.zeros(params.dims.d)
            for hi, head in enumerate(layer.heads):
                q = head.wq.astype(np.float64) @ x
                k = head.wk.astype(np.float64) @ x
                if isinstance(params.positional, RotaryOnly):
                    q = rope_rotate(q, i, params.positional.freqs)
                    k = rope_rotate(k, i, params.positional.freqs)
                q = rnd(params.qk_scale * q, act)
                keys[li][hi].append(rnd(params.qk_scale * k, act))
                values[li][hi].append(rnd(head.wv.astype(np.float64) @ x, act))
                dots = np.array(keys[li][hi]) @ q
                if cfg.attention == "softmax":
                    weights = rnd(softmax_weights(dots / math.sqrt(d_k)), cfg.att_precision)
                    o = weights @ np.array(values[li][hi])
                else:
                    mask = dots == dots.max()
                    o = (mask.astype(np.float64) @ np.array(values[li][hi])) / mask.sum()
                y += head.wo.astype(np.float64) @ rnd(o, act)
            mid = rnd(x + rnd(y, act), act)
            hidden = rnd(np.maximum(layer.w1 @ mid + layer.bias4 / 4.0, 0.0), act)
            x = rnd(mid + rnd(layer.w2.astype(np.float64) @ hidden, act), act)
            x_mid[li].append(mid)
            x_out[li].append(x)
        reps.append(x)
    return np.stack(reps), [np.stack(a) for a in x_mid], [np.stack(a) for a in x_out]


def _assert_matches_reference(params, tokens, cfg, trace):
    reps, x_mid, x_out = _reference_forward(params, tokens, cfg)
    assert len(trace.layers) == len(x_mid)
    for li, lt in enumerate(trace.layers):
        assert lt.x_mid.tobytes() == x_mid[li].tobytes(), li
        assert lt.x_out.tobytes() == x_out[li].tobytes(), li
    return reps


def _softmax_case(mode: str):
    from machines import fig2_machine

    from tm2tf.compilers import compile_cot
    from tm2tf.softmaxify import convert

    r = 6
    params, cfg = convert(compile_cot(fig2_machine(), r)[0], mode, 2 ** r)
    return params, dataclasses.replace(cfg, capture_trace=True)


@pytest.mark.parametrize("mode", ["hardmax", "scaled_only", "denoised"])
def test_fig2_cot_matches_per_head_reference(mode):
    from tm2tf.generation import run_cot

    params, cfg = _softmax_case(mode)
    trace = run_cot(params, "ab", cfg)
    assert trace.outcome == "output"
    tokens = trace.segments[0]
    reps = _assert_matches_reference(params, tokens[:-1], cfg, trace.eval_traces[0])
    greedy = [params.vocab[int(np.argmax(params.unemb @ x))] for x in reps]
    assert greedy[len("ab") + 1 :] == tokens[len("ab") + 2 :]


def test_a_rounded_decode_calls_round_array_by_its_module_name(monkeypatch):
    """Tracers count rounding work by replacing `round_array` where modules
    bound it, so netcore must look the name up on every call."""
    from tm2tf import netcore
    from tm2tf.fpcore import round_array
    from tm2tf.generation import run_cot

    params, cfg = _softmax_case("denoised")
    cfg = dataclasses.replace(cfg, capture_trace=False)
    plain = run_cot(params, "ab", cfg)
    sizes = []

    def counting(x, fmt):
        sizes.append(x.size)
        return round_array(x, fmt)

    monkeypatch.setattr(netcore, "round_array", counting)
    counted = run_cot(params, "ab", cfg)
    assert counted.outcome == "output" and counted.segments == plain.segments
    assert sizes and min(sizes) > 0  # empty arrays are not rounded


@pytest.mark.parametrize("mode", ["scaled_only", "denoised"])
def test_rounding_calls_per_step_skip_empty_half_layers(mode, monkeypatch):
    """Each step rounds its embeddings; a layer with heads rounds Q/K/V,
    o, y and x_mid, plus the attention weights under an attention format;
    a layer with MLP rows rounds hidden, the MLP output and x_out. A layer
    without heads or without MLP rows rounds nothing for that half. The
    denoised model runs its prompt as one step, the scaled one steps each
    position."""
    from tm2tf import netcore
    from tm2tf.automata import EINP, EOUTP, INP
    from tm2tf.generation import generate

    params, cfg = _softmax_case(mode)
    cfg = dataclasses.replace(cfg, capture_trace=False)
    assert any(not layer.heads for layer in params.layers)
    round_array, step, calls, steps = netcore.round_array, Evaluator._step, [], []

    def counting(x, fmt):
        calls.append(x.size)
        return round_array(x, fmt)

    def counted(ev, x, start):
        steps.append(x.shape[1])
        step(ev, x, start)

    monkeypatch.setattr(netcore, "round_array", counting)
    monkeypatch.setattr(Evaluator, "_step", counted)
    prompt = [INP, *"ab", EINP]
    tokens, _, ev = generate(params, prompt, {EOUTP}, 2 ** 6 - len(prompt), cfg)
    assert tokens[-1] == EOUTP
    first = len(prompt) if mode == "denoised" else 1
    assert steps == [first] + [1] * (len(ev.tokens) - first)
    attention = 4 + (not cfg.att_precision.exact)
    per_step = 1 + sum(
        attention * bool(layer.heads) + 3 * bool(layer.bias4.size) for layer in params.layers
    )
    assert len(calls) == len(steps) * per_step


def test_empty_half_layers_in_a_traced_run_that_re_extends():
    """A draft wrong in its middle is fed as one block, and the tokens that
    stand are decoded again on a fresh evaluator, one position at a time
    into the grown buffers; the trace equals a plain decode's. A layer
    without heads traces y as +0.0 and passes its input on as x_mid; one
    without MLP rows passes x_mid on as x_out, bit for bit."""
    from tm2tf.automata import EINP, EOUTP, INP
    from tm2tf.generation import generate

    params, cfg = _softmax_case("denoised")
    prompt = [INP, *"abab", EINP]
    budget = 2 ** 6 - len(prompt)
    tokens, _, plain = generate(params, prompt, {EOUTP}, budget, cfg)
    draft = tokens[len(prompt) : -1]
    mid = len(draft) // 2
    draft[mid] = next(t for t in params.vocab if t not in (draft[mid], EOUTP))
    got, _, drafted = generate(params, prompt, {EOUTP}, budget, cfg, draft=draft)
    assert got == tokens and len(drafted.tokens) > 16  # more than the first buffers hold
    assert _ev_digest(drafted) == _ev_digest(plain)
    headless = [li for li, layer in enumerate(params.layers) if not layer.heads]
    rowless = [li for li, layer in enumerate(params.layers) if not layer.bias4.size]
    assert headless and rowless
    trace = drafted.trace
    for li in headless:
        lt, layer_input = trace.layers[li], (trace.layers[li - 1].x_out if li else trace.x0)
        assert lt.y.shape == lt.x_mid.shape
        assert lt.y.tobytes() == np.zeros_like(lt.y).tobytes(), li
        assert lt.x_mid.tobytes() == layer_input.tobytes(), li
    for li in rowless:
        lt = trace.layers[li]
        assert lt.hidden.shape == (len(tokens) - 1, 0)
        assert lt.x_out.tobytes() == lt.x_mid.tobytes(), li


def test_copy_scot_matches_per_head_reference():
    from machines import copy_machine

    from tm2tf.compilers import compile_scot
    from tm2tf.generation import run_scot

    params, _ = compile_scot(copy_machine(), 6)
    cfg = EvalConfig(capture_trace=True)
    trace = run_scot(params, "011", cfg)
    assert trace.outcome == "output" and len(trace.segments) > 1
    for seg, ev_trace in zip(trace.segments, trace.eval_traces):
        reps = _assert_matches_reference(params, seg[:-1], cfg, ev_trace)
        prompt = seg.index("</inp>" if seg[0] == "<inp>" else "</summ>") + 1
        greedy = [params.vocab[int(np.argmax(params.unemb @ x))] for x in reps]
        assert greedy[prompt - 1 :] == seg[prompt:]


@pytest.mark.parametrize("r", [2, 3, 4])
def test_rope_prefix_matches_per_head_reference(r):
    from tm2tf.compilers import build_rope_position_prefix

    params, _ = build_rope_position_prefix(r)
    tokens = ["first"] + ["rest"] * (2 ** r - 1)
    cfg = EvalConfig(capture_trace=True)
    reps, trace = forward(params, tokens, cfg)
    assert reps.tobytes() == _assert_matches_reference(params, tokens, cfg, trace).tobytes()


def _headless_model(d: int = 4) -> TransformerParams:
    """One layer without heads, whose one neuron drives hidden to 8 and then
    every coordinate of z and x to 6 and 4."""
    from tm2tf.netcore import LayerParams

    params = TransformerParams(
        dims=Dims(d=d, d_k=2, d_v=2, d_ff=1, n_heads=1, n_layers=1),
        vocab=["a"],
        emb=np.ones((1, d), np.int8),
        unemb=np.zeros((1, d), np.int8),
        positional=NoPositional(),
        layers=[LayerParams([], np.full((1, d), 2, np.int8), np.zeros(1, np.int32),
                            np.full((d, 1), 2, np.int8))],
    )
    params.validate_weights()
    return params


def test_saturations_count_elements_in_a_layer_without_heads():
    """hidden, z and x exceed the largest element 3 of a 1-bit-mantissa format."""
    d = 4
    params = _headless_model(d)
    ev = Evaluator(params, EvalConfig(attention="softmax", act_precision=Precision(FloatFormat(1, 2))))
    ev.extend(["a", "a"])
    assert ev.final_representations().tolist() == [[3.0] * d] * 2
    assert ev.trace.saturations == 2 * (1 + d + d)  # hidden, z and x at each position


def test_a_layer_without_heads_computes_no_attention_weights(monkeypatch):
    import tm2tf.netcore as netcore

    sizes = []
    round_array = netcore.round_array

    def counting_round(x, fmt):
        sizes.append(np.size(x))
        return round_array(x, fmt)

    def no_softmax(scores):
        raise AssertionError(f"softmax over scores of shape {np.shape(scores)}")

    monkeypatch.setattr(netcore, "round_array", counting_round)
    monkeypatch.setattr(netcore, "softmax_weights", no_softmax)
    fmt = Precision(FloatFormat(1, 2))
    ev = Evaluator(_headless_model(), EvalConfig("softmax", act_precision=fmt, att_precision=fmt))
    ev.extend(["a", "a"])
    assert ev.final_representations().tolist() == [[3.0] * 4] * 2
    assert sizes and 0 not in sizes


# ---------------------------------------------------------------------------
# exact evaluators multiply only the coordinates each weight product reads


@pytest.mark.parametrize("bounces, protocol, r, word", [(8, "cot", 10, "xyxy"), (4, "scot", 6, "xyx")])
def test_bouncer_decode_matches_per_head_reference(bounces, protocol, r, word):
    from machines import bouncer_machine

    from tm2tf.compilers import compile_cot, compile_scot
    from tm2tf.generation import run_cot, run_scot

    tm = bouncer_machine(bounces)
    compile_fn, run = (compile_cot, run_cot) if protocol == "cot" else (compile_scot, run_scot)
    params, _ = compile_fn(tm, r)
    cfg = EvalConfig(capture_trace=True)
    trace = run(params, word, cfg)
    assert trace.outcome == "output" and len(trace.segments) == len(trace.eval_traces)
    for seg, ev_trace in zip(trace.segments, trace.eval_traces):
        _assert_matches_reference(params, seg[:-1], cfg, ev_trace)


def test_a_dfa_batch_matches_per_head_reference_word_by_word():
    import itertools

    from machines import parity_dfa

    from tm2tf.automata import BOS
    from tm2tf.compilers import compile_dfa

    params, _ = compile_dfa(parity_dfa(), 3)
    cfg = EvalConfig(capture_trace=True)
    words = [[BOS, *w] for w in itertools.product("01", repeat=5)]
    ev = Evaluator(params, cfg, batch=len(words))
    ev.extend(zip(*words))
    for b, word in enumerate(words):
        _, x_mid, x_out = _reference_forward(params, word, cfg)
        for li, lt in enumerate(ev.trace.layers):
            assert lt.x_mid[:, b].tobytes() == x_mid[li].tobytes(), (b, li)
            assert lt.x_out[:, b].tobytes() == x_out[li].tobytes(), (b, li)


def test_empty_coordinate_sets_match_per_head_reference():
    """A layer without heads, then one whose only head has all-zero Q, K
    and V weights and which has no MLP rows: the fused Q/K/V product of both
    layers and the second layer's W1 read no input coordinate."""
    from tm2tf.netcore import HeadParams, LayerParams

    d = 4
    params = _headless_model(d)
    zero = np.zeros((2, d), np.int8)
    head = HeadParams(zero, zero, zero, np.ones((d, 2), np.int8))
    empty_mlp = (np.zeros((0, d), np.int8), np.zeros(0, np.int32), np.zeros((d, 0), np.int8))
    params.layers.append(LayerParams([head], *empty_mlp))
    params.dims = dataclasses.replace(params.dims, n_layers=2)
    params.validate_weights()
    cfg = EvalConfig(capture_trace=True)
    reps, trace = forward(params, ["a"] * 3, cfg)
    assert reps.tobytes() == _assert_matches_reference(params, ["a"] * 3, cfg, trace).tobytes()


def test_an_edited_copy_gets_a_fresh_plan():
    """Evaluators plan their weights themselves, so a deep copy of a model
    edited in place runs with its own weights. Two positions keep the
    reference exact: a head that ties both keys averages two integers."""
    import copy

    from machines import parity_dfa

    from tm2tf.automata import BOS
    from tm2tf.compilers import compile_dfa

    params, _ = compile_dfa(parity_dfa(), 3)
    tokens, cfg = [BOS, "1"], EvalConfig(capture_trace=True)
    reps, _ = forward(params, tokens, cfg)
    edited = copy.deepcopy(params)
    edited.layers[1].heads[0].wk[:] = 0
    got, trace = forward(edited, tokens, cfg)
    assert got.tobytes() != reps.tobytes()
    assert got.tobytes() == _assert_matches_reference(edited, tokens, cfg, trace).tobytes()


@pytest.mark.parametrize("mode", ["hardmax", "scaled_only", "denoised"])
def test_a_bouncer8_evaluator_holds_no_dense_float64_copy_of_its_weights(mode):
    """The bouncer8 CoT r=10 evaluator keeps float64 weights only on the
    input coordinates each product reads (W2 whole), for the hardmax model
    and its softmax conversions alike: 6.2 MB hardmax or scaled and 7.7 MB
    denoised, against 14.0 and 16.8 MB for dense stacks of every matrix."""
    import tracemalloc

    from machines import bouncer_machine

    from tm2tf.compilers import compile_cot
    from tm2tf.softmaxify import convert

    params, cfg = convert(compile_cot(bouncer_machine(8), 10)[0], mode, 2 ** 10)
    tracemalloc.start()
    try:
        ev = Evaluator(params, cfg)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del ev
    assert retained < {"hardmax": 8e6, "scaled_only": 8e6, "denoised": 9e6}[mode]


# ---------------------------------------------------------------------------
# block steps, batches and truncation


def _digest(reps: np.ndarray, trace) -> str:
    """sha256 over the bytes of final representations and every trace field,
    position by position, with the scores of position i up to key i."""
    import hashlib

    h = hashlib.sha256()
    arrays = [reps, *trace.x0, *trace.output_scores]
    for lt in trace.layers:
        for f in dataclasses.fields(lt):
            rows = list(getattr(lt, f.name))
            if f.name == "dots":
                rows = [row[..., : i + 1] for i, row in enumerate(rows)]
            arrays += rows
    for a in arrays:
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(f"{trace.tie_warnings} {trace.saturations}".encode())
    return h.hexdigest()


def _ev_digest(ev: Evaluator) -> str:
    return _digest(ev.final_representations(), ev.trace)


def _bench_machine(name: str):
    from pathlib import Path

    from tm2tf.cli import load_machine

    machines = Path(__file__).resolve().parents[1] / "bench" / "machines"
    return load_machine(str(machines / f"{name}.json"))


def _fed_sequences(machine: str, protocol: str, word: str):
    """Compiled model and the sequences its decode feeds: each expected
    segment without its stop token."""
    from tm2tf.automata import cot_token_oracle, scot_segments_oracle, tm_run
    from tm2tf.compilers import choose_r_cot, choose_r_scot, compile_cot, compile_scot

    tm = _bench_machine(machine)
    run = tm_run(tm, list(word), 10_000)
    if protocol == "cot":
        r = choose_r_cot(max(run.steps, len(word)))
        segments = [cot_token_oracle(tm, word, r)]
    else:
        r = choose_r_scot(run.space)
        segments = scot_segments_oracle(tm, word, r)
    params, _ = (compile_cot if protocol == "cot" else compile_scot)(tm, r)
    return params, [seg[:-1] for seg in segments]


@pytest.mark.parametrize(
    "machine, protocol, word",
    [
        ("fig2", "cot", "abab"),
        ("fig2", "scot", "abab"),
        ("copy", "cot", "011"),
        ("copy", "scot", "011"),
        ("bouncer4", "cot", "xy"),
        ("bouncer4", "scot", "xy"),
        ("bouncer8", "cot", "xy"),
        ("bouncer8", "scot", "xy"),
    ],
)
def test_block_extend_equals_per_position_extend(machine, protocol, word):
    params, sequences = _fed_sequences(machine, protocol, word)
    cfg = EvalConfig(capture_trace=True)
    for tokens in sequences:
        block, stepped = Evaluator(params, cfg), Evaluator(params, cfg)
        block.extend(tokens)
        for tok in tokens:
            stepped.extend([tok])
        assert block.next_token() == stepped.next_token()
        assert block.final_representations().tobytes() == stepped.final_representations().tobytes()
        assert _ev_digest(block) == _ev_digest(stepped)


def test_block_extend_equals_per_position_extend_on_a_dfa():
    from machines import contains_ab_dfa

    from tm2tf.automata import BOS
    from tm2tf.compilers import compile_dfa

    params, _ = compile_dfa(contains_ab_dfa(), 3)
    cfg = EvalConfig(capture_trace=True)
    for word in ("", "b", "ab", "bbaab", "abababa"):
        block, stepped = Evaluator(params, cfg), Evaluator(params, cfg)
        block.extend([])  # an empty extend leaves an evaluator as it was, fresh or not
        block.extend([BOS, *word])
        for tok in [BOS, *word]:
            stepped.extend([tok])
            stepped.extend([])
        assert block.next_token() == stepped.next_token()
        assert _ev_digest(block) == _ev_digest(stepped)


@pytest.mark.parametrize(
    "case",
    ["fig2 cot r=6 abab", "fig2 cot r=6 abab c=4", "bouncer4 scot r=6 xyx", "copy cot r=6 0011"],
)
def test_a_denoised_block_equals_per_position_steps(case):
    """Under the denoised formats every sum is exact, so feeding each
    expected segment as one block traces the bits of feeding it one
    position at a time: the softmax denominators and att_err of each row
    sum its own keys."""
    from machines import bouncer_machine, copy_machine, fig2_machine

    from tm2tf.automata import cot_token_oracle, scot_segments_oracle
    from tm2tf.compilers import compile_cot, compile_scot
    from tm2tf.softmaxify import convert

    machine, protocol, r, word, *c = case.split()
    tm = {"fig2": fig2_machine, "copy": copy_machine}.get(machine)
    tm = tm() if tm else bouncer_machine(int(machine[len("bouncer"):]))
    r = int(r[len("r="):])
    c = float(c[0][len("c="):]) if c else None
    if protocol == "cot":
        hard, segments = compile_cot(tm, r)[0], [cot_token_oracle(tm, word, r)]
    else:
        hard, segments = compile_scot(tm, r)[0], scot_segments_oracle(tm, word, r)
    params, cfg = convert(hard, "denoised", 2 ** r, c)
    assert sum_bits(params.dims, cfg.act_precision.fmt, cfg.att_precision.fmt, 2 ** r) <= 53
    cfg = dataclasses.replace(cfg, capture_trace=True)
    for seg in segments:
        block, stepped = Evaluator(params, cfg), Evaluator(params, cfg)
        assert block._exact
        block.extend(seg[:-1])
        for tok in seg[:-1]:
            stepped.extend([tok])
        assert block.next_token() == stepped.next_token()
        assert _ev_digest(block) == _ev_digest(stepped)
        assert block.trace.saturations == stepped.trace.saturations == 0
        assert block.trace.layers[0].att_err.any()  # the rounded weights were traced


def _theorem_formats(machine: str, protocol: str, r: int, mode: str):
    """Dims and the (act, att) formats of the `mode` conversion of a bench machine."""
    from tm2tf.compilers import compile_cot, compile_scot
    from tm2tf.softmaxify import convert

    compile_fn = compile_cot if protocol == "cot" else compile_scot
    params, cfg = convert(compile_fn(_bench_machine(machine), r)[0], mode, 2 ** r)
    return params.dims, cfg.act_precision.fmt, cfg.att_precision.fmt


def test_sum_bits_bounds_each_matmul_on_its_grid():
    """custom:1,3 activations step by 1/8 up to 12 (96 steps), custom:4,4
    weights by 2^-10; with all other dims 1, each named dim makes its sum
    the widest."""
    act, att = FloatFormat(1, 3), FloatFormat(4, 4)
    one = Dims(d=1, d_k=1, d_v=1, d_ff=1, n_heads=1, n_layers=1)
    big = 2 ** 20
    cases = {  # (dims, n_keys): the widest sum in grid steps
        "W_O": ((dataclasses.replace(one, n_heads=big), 1), big * 96),
        "W1 plus bias": ((dataclasses.replace(one, d=big), 1), (2 * big * 12 + big + 1) * 8),
        "W2": ((dataclasses.replace(one, d_ff=big), 1), 2 * big * 96),
        "scores": ((dataclasses.replace(one, d_k=big), 1), big * 96 ** 2),
        "attention output": ((one, big), big * 12 * 2 ** 13),
    }
    for name, ((dims, n_keys), steps) in cases.items():
        assert sum_bits(dims, act, att, n_keys) == math.log2(steps), name
    assert sum_bits(one, act, att, None) == math.inf  # no binary positions: no bound on keys
    assert sum_bits(one, act, None, 1) == sum_bits(one, None, att, 1) == math.inf


def test_sum_bits_passes_the_denoised_formats_and_fails_wide_ones():
    """The theorem's denoised formats pass: bouncer8 CoT r=10, the widest
    bench model, needs 42.6 bits. Exact attention weights (scaled_only),
    bf16 and an activation format with 11 exponent bits fail, and so do
    their evaluators' block steps."""
    from tm2tf.fpcore import PRESETS
    from tm2tf.softmaxify import act_format_containing

    for machine, protocol, r in (("fig2", "cot", 6), ("bouncer4", "scot", 6), ("copy", "cot", 6)):
        assert sum_bits(*_theorem_formats(machine, protocol, r, "denoised"), 2 ** r) <= 53
    dims, act, att = _theorem_formats("bouncer8", "cot", 10, "denoised")
    assert round(sum_bits(dims, act, att, 2 ** 10), 1) == 42.6
    assert sum_bits(*_theorem_formats("fig2", "cot", 6, "scaled_only"), 2 ** 6) == math.inf
    bf16, wide = PRESETS["bf16"], act_format_containing(2.0 ** 600)
    assert wide == FloatFormat(1, 11)
    assert sum_bits(dims, bf16, bf16, 2 ** 10) > 53
    assert sum_bits(dims, wide, att, 2 ** 10) > 53
    params, _ = _softmax_case("denoised")
    for act, att in ((bf16, bf16), (wide, FloatFormat(4, 4))):
        cfg = EvalConfig("softmax", Precision(act), Precision(att))
        assert not Evaluator(params, cfg)._exact


# Digests of final representations and traces of the rotary prefix on
# ["first"] + ["rest"] * (2^r - 1). Rotary models still step one position at
# a time. The trace fields other than att_err (all 0 under hardmax) hash to
# the digests recorded with the one-position evaluator that predates block
# steps; these add att_err.
ROPE_DIGESTS = {
    2: "dd249d34def4127cb9dfd1f003e954c6bd1c052c531b4299fcf38cf649c7be9e",
    3: "1ba6f6010d854bb3f46bc99c7576b3f80b1bb0356cf8564dca3694896d33cb75",
    4: "04b49820bd6aa19a32a82fbd3e5946c03af4861e07ef0a555cb8b828361dcef9",
}


@pytest.mark.parametrize("r", sorted(ROPE_DIGESTS))
def test_rope_prefix_steps_one_position_at_a_time(r):
    from tm2tf.compilers import build_rope_position_prefix

    params, _ = build_rope_position_prefix(r)
    tokens = ["first"] + ["rest"] * (2 ** r - 1)
    reps, trace = forward(params, tokens, EvalConfig(capture_trace=True))
    assert _digest(reps, trace) == ROPE_DIGESTS[r]


def _fig2_softmax_case(case: str):
    """fig2 CoT r=6 as `case` names it, with a capturing config."""
    from machines import fig2_machine

    from tm2tf.compilers import compile_cot
    from tm2tf.fpcore import PRESETS
    from tm2tf.softmaxify import convert, scale_qk

    r = 6
    hard = compile_cot(fig2_machine(), r)[0]
    if case == "c=2 bf16":
        bf16 = Precision(PRESETS["bf16"])
        params = scale_qk(hard, 2.0)
        cfg = EvalConfig("softmax", act_precision=bf16, att_precision=bf16)
    else:
        mode, _, c = case.partition(" c=")
        params, cfg = convert(hard, mode, 2 ** r, float(c) if c else None)
    return params, dataclasses.replace(cfg, capture_trace=True)


# Digests of the evaluator that decodes fig2 CoT r=6 on "abab" (final
# representations, every trace field and each decoded step's scores) under
# rounded softmax: each conversion at the theorem's c, the denoised model at
# c=4, and scale_qk at c=2 with bf16 activations and attention weights.
# Recorded with the evaluator that stacked whole float64 matrices for
# softmax models, so they pin that reading only the live input coordinates
# moves no bit.
SOFTMAX_DIGESTS = {
    "scaled_only": "731260ac5c537a9ba673e5ace8bbd83fdade346b770835164ec2f9844db49a75",
    "denoised": "174f7108d75441bc928e890558ed5a31bdec0dc19217a38416d52667d33706f8",
    "denoised c=4": "3af3207b1686a8f00b8e5fd6d7b23471499b70ebd164ea6d2e0d39a152618494",
    "c=2 bf16": "4a762327b62951068d80997991189156990ee4e8f366ac7e969c932de5742cd6",
}


@pytest.mark.parametrize("case", list(SOFTMAX_DIGESTS))
def test_softmax_decode_digests(case):
    from tm2tf.automata import EINP, EOUTP, INP
    from tm2tf.generation import generate

    params, cfg = _fig2_softmax_case(case)
    prompt = [INP, *"abab", EINP]
    _, _, ev = generate(params, prompt, {EOUTP}, 2 ** 6 - len(prompt), cfg)
    assert _ev_digest(ev) == SOFTMAX_DIGESTS[case]


def _hardmax_decode_digest(case: str) -> str:
    """sha256 over the `_ev_digest`s of the traced decodes `case` names:
    the one segment of a CoT run, every segment of an SCoT run, each
    decoded by `generate` from its prompt within the context's budget."""
    import hashlib

    from machines import bouncer_machine, copy_machine

    from tm2tf.automata import EINP, EOUTP, ESUMM, INP
    from tm2tf.compilers import compile_cot, compile_scot
    from tm2tf.generation import generate, run_cot, run_scot

    machine, protocol, r, word = case.split()
    tm = copy_machine() if machine == "copy" else bouncer_machine(int(machine[len("bouncer"):]))
    r = int(r[len("r="):])
    compile_fn, run = (compile_cot, run_cot) if protocol == "cot" else (compile_scot, run_scot)
    stop = {EOUTP} if protocol == "cot" else {EOUTP, ESUMM}
    params, _ = compile_fn(tm, r)
    segments = run(params, word, EvalConfig()).segments
    cfg = EvalConfig(capture_trace=True)
    h = hashlib.sha256()
    for seg in segments:
        prompt = seg[: seg.index(EINP if seg[0] == INP else ESUMM) + 1]
        tokens, _, ev = generate(params, prompt, stop, 2 ** r - len(prompt), cfg)
        assert tokens == seg
        h.update(_ev_digest(ev).encode())
    return h.hexdigest()


# Digests of traced hardmax decodes of models that have layers without
# heads, recorded with the evaluator that ran the attention half of those
# layers on empty arrays, so they pin that skipping it moves no bit.
HARDMAX_DIGESTS = {
    "bouncer8 cot r=10 xyxy": "3081fec03f774872cf2cc9aad76c2e0a2b01343320beefa97be05f9e01034296",
    "bouncer4 scot r=6 xyx": "de0e33b1f0bb22f0ebb04e5dd309de6faca8607fa51f4e664c47a1f8747d1cef",
    "copy cot r=6 0011": "8217fdaa88b31f0e0d8d1eac7454e20cf9bacad4eacf85be945870b4b14aecd9",
}


@pytest.mark.parametrize("case", list(HARDMAX_DIGESTS))
def test_hardmax_decode_digests(case):
    assert _hardmax_decode_digest(case) == HARDMAX_DIGESTS[case]


@pytest.mark.parametrize("attention", ["hardmax", "softmax"])
def test_a_batch_equals_its_sequences_run_alone(attention):
    import itertools

    from machines import parity_dfa

    from tm2tf.automata import BOS
    from tm2tf.compilers import compile_dfa

    params, _ = compile_dfa(parity_dfa(), 3)
    if attention == "softmax":
        from tm2tf.softmaxify import scale_qk

        params = scale_qk(params, 4.0)
    cfg = EvalConfig(attention=attention, capture_trace=True)
    words = [[BOS, *w] for w in itertools.product("01", repeat=3)]
    batch = Evaluator(params, cfg, batch=len(words))
    batch.extend(zip(*words))
    got = batch.next_tokens()
    reps = batch.final_representations()
    for b, word in enumerate(words):
        alone = Evaluator(params, cfg)
        alone.extend(word)
        assert got[b] == alone.next_token()
        assert reps[b].tobytes() == alone.final_representations().tobytes()
        _assert_same_array(batch.trace.x0[:, b], alone.trace.x0)
        _assert_same_array(np.array(batch.trace.output_scores)[:, b], alone.trace.output_scores)
        for lb, la in zip(batch.trace.layers, alone.trace.layers):
            for f in dataclasses.fields(lb):
                _assert_same_array(getattr(lb, f.name)[:, b], getattr(la, f.name))


def _assert_same_array(x, y):
    x, y = np.asarray(x), np.asarray(y)
    assert x.shape == y.shape and x.tobytes() == y.tobytes()


def _trace_fields(trace) -> dict[str, np.ndarray]:
    fields = {"x0": trace.x0}
    for li, lt in enumerate(trace.layers):
        fields.update({f"L{li}.{f.name}": getattr(lt, f.name) for f in dataclasses.fields(lt)})
    return fields


@pytest.mark.parametrize("case", ["block", "stepped", "batched"])
def test_trace_fields_are_position_arrays(case):
    """Every trace field is a (P, ...) array, (P, B, ...) for a batch, and
    dots holds each position's scores up to itself, then -inf."""
    from machines import contains_ab_dfa

    from tm2tf.automata import BOS
    from tm2tf.compilers import compile_dfa
    from tm2tf.softmaxify import scale_qk

    params, _ = compile_dfa(contains_ab_dfa(), 5)
    cfg = EvalConfig(capture_trace=True)
    if case == "stepped":  # softmax steps one position at a time
        params, cfg = scale_qk(params, 4.0), EvalConfig("softmax", capture_trace=True)
    word = [BOS, *"abbab" * 4]  # more positions than the first buffers hold
    ev = Evaluator(params, cfg, batch=2 if case == "batched" else None)
    trace = ev.trace
    if case == "batched":
        ev.extend(zip(word, [BOS, *"babba" * 4]))
    else:
        ev.extend(word)
    assert ev.trace is trace
    n = len(ev.tokens)
    lead = (n, ev.batch) if ev.batch else (n,)
    for name, a in _trace_fields(trace).items():
        assert a.shape[: len(lead)] == lead, name
    for lt in trace.layers:
        assert lt.dots.shape[-1] == n
        for i, row in enumerate(lt.dots):
            assert np.isfinite(row[..., : i + 1]).all()
            assert (row[..., i + 1 :] == -np.inf).all()


def test_no_trace_buffers_without_capture():
    from machines import contains_ab_dfa

    from tm2tf.automata import BOS
    from tm2tf.compilers import compile_dfa

    ev = Evaluator(compile_dfa(contains_ab_dfa(), 3)[0], EvalConfig())
    ev.extend([BOS, *"abba"])
    assert ev._traced == []
    assert all(a.size == 0 for a in _trace_fields(ev.trace).values())


@pytest.mark.parametrize("attention", ["hardmax", "softmax"])
def test_an_evaluator_is_freed_without_the_cycle_collector(attention):
    """Evaluators hold float64 copies of every weight; a reference cycle
    would keep them alive until a collection, one per decoded segment."""
    import gc
    import weakref

    params = _zero_model()
    fmt = Precision(FloatFormat(3, 4)) if attention == "softmax" else EXACT
    ev = Evaluator(params, EvalConfig(attention=attention, act_precision=fmt))
    ev.extend(["a", "b"])
    ev.next_token()
    ref = weakref.ref(ev)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del ev
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def _validated(**changes):
    dataclasses.replace(_zero_model(), **changes).validate_weights()


# Each refusal of a weight check or attention helper as (call, message).
NETCORE_REFUSALS = {
    "position coordinate out of range": (
        lambda: _validated(positional=BinaryAbsolute(1, (4,))),
        "positional coordinates must be integers in [0, 4)",
    ),
    "layer count": (
        lambda: _validated(layers=_zero_model().layers[:1]),
        "1 layers but dims.n_layers = 2",
    ),
    "array shape": (
        lambda: _validated(emb=np.zeros((2, 3), np.int8)),
        "emb has shape (2, 3), expected (2, 4)",
    ),
    "empty hardmax": (lambda: hardmax_weights([]), "hardmax of empty score list"),
    "empty softmax": (lambda: softmax_weights([]), "softmax of empty score list"),
    "scalar softmax": (lambda: softmax_weights(1.0), "softmax of empty score list"),
    "rope pairs past the vector": (
        lambda: rope_rotate(np.zeros(3), 1, (0.5, 0.25)),
        "more frequency pairs than vector coordinates",
    ),
}


@pytest.mark.parametrize("case", list(NETCORE_REFUSALS))
def test_netcore_refuses(case):
    call, message = NETCORE_REFUSALS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
