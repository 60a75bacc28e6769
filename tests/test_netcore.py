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


@pytest.mark.parametrize("level", ["full", "off", "Audit", 0, 1, None])
def test_eval_config_refuses_an_unknown_capture_level(level):
    """capture_trace is one of False, "audit" and True, and nothing that
    equals one of them: 0 == False and 1 == True are refused too."""
    with pytest.raises(ValueError, match="capture_trace must be False, 'audit' or True"):
        EvalConfig(capture_trace=level)


def test_the_audit_capture_level_reduces_hardmax_runs_only():
    assert EvalConfig(capture_trace="audit").capture_trace == "audit"
    with pytest.raises(ValueError, match="audit capture level reduces hardmax runs"):
        EvalConfig(attention="softmax", capture_trace="audit")


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


def test_model_file_arrays_are_not_allocated_per_layer(monkeypatch):
    """The loader builds every weight array as a view of one of two
    buffers, so fig2 CoT r=6 and its denoised conversion, of twice the
    layers, take as many np.zeros calls to load."""
    models = _compile("cot")[0], _softmax_case("denoised")[0]
    docs = [json.loads(json.dumps(params_to_json(p))) for p in models]
    assert [len(doc["layers"]) for doc in docs] == [23, 46]
    calls = []
    zeros = np.zeros

    def counted_zeros(*args, **kwargs):
        calls.append(args)
        return zeros(*args, **kwargs)

    monkeypatch.setattr(np, "zeros", counted_zeros)
    counts = []
    for doc in docs:
        before = len(calls)
        params_from_json(doc)
        counts.append(len(calls) - before)
    assert counts[0] == counts[1]


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

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("A complete model file", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    params = params_from_json(json.loads(block))
    assert params.dims == Dims(d=2, d_k=1, d_v=1, d_ff=1, n_heads=1, n_layers=1)
    assert json.loads(json.dumps(params_to_json(params))) == json.loads(block)
    ev = Evaluator(params, EvalConfig())
    ev.extend(["a"])
    assert ev.next_token() in params.vocab


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
    """No step rounds its embeddings, which every format holds (ternary
    codes and +-1 position bits); a layer with heads rounds Q/K/V,
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
    per_step = sum(
        attention * bool(layer.heads) + 3 * bool(layer.bias4.size) for layer in params.layers
    )
    assert len(calls) == len(steps) * per_step


def test_only_the_audit_capture_level_calls_the_audit_reductions(monkeypatch):
    """A decode with capture off, or in full, never calls the step-time
    reductions. At the audit level each step calls the score-row reduction
    once per layer with heads and the ternary count once per layer, and
    each decoded step takes its output gap once."""
    from tm2tf import netcore
    from tm2tf.automata import EINP, EOUTP, INP
    from tm2tf.generation import generate

    params, _ = _softmax_case("hardmax")
    calls = dict.fromkeys(("_score_rows", "_nonternary", "_output_gap"), 0)
    for name in calls:

        def counting(*args, name=name, reduce=getattr(netcore, name)):
            calls[name] += 1
            return reduce(*args)

        monkeypatch.setattr(netcore, name, counting)
    prompt = [INP, *"ab", EINP]
    for level in (False, True, "audit"):
        tokens, _, ev = generate(params, prompt, {EOUTP}, 40, EvalConfig(capture_trace=level))
        assert tokens[-1] == EOUTP
        if level != "audit":
            assert calls == dict.fromkeys(calls, 0), level
    steps = len(ev._steps)
    assert steps == len(tokens) - len(prompt)  # the prompt, then each token but the stop
    assert calls == {
        "_score_rows": steps * sum(bool(layer.heads) for layer in params.layers),
        "_nonternary": steps * len(params.layers),
        "_output_gap": len(tokens) - len(prompt),
    }


def test_empty_half_layers_in_a_traced_run_that_re_extends():
    """A draft wrong in its middle, proposed at the prompt, is fed as one
    block, the evaluator is truncated to the tokens that stand, and the
    rest is decoded one position at a time over the rows the draft wrote;
    the trace equals a plain decode's. A layer without heads traces y as +0.0 and passes its
    input on as x_mid; one without MLP rows passes x_mid on as x_out, bit
    for bit."""
    from tm2tf.automata import EINP, EOUTP, INP
    from tm2tf.generation import generate

    params, cfg = _softmax_case("denoised")
    prompt = [INP, *"abab", EINP]
    budget = 2 ** 6 - len(prompt)
    tokens, _, plain = generate(params, prompt, {EOUTP}, budget, cfg)
    draft = tokens[len(prompt) : -1]
    mid = len(draft) // 2
    draft[mid] = next(t for t in params.vocab if t not in (draft[mid], EOUTP))
    got, _, drafted = generate(
        params, prompt, {EOUTP}, budget, cfg, propose=lambda tokens: draft if tokens == prompt else []
    )
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


def _bouncer8_evaluator_bytes(mode: str, traced_memory) -> int:
    """Bytes a new bouncer8 CoT r=10 Evaluator retains, traced."""
    from machines import bouncer_machine

    from tm2tf.compilers import compile_cot
    from tm2tf.softmaxify import convert

    params, cfg = convert(compile_cot(bouncer_machine(8), 10)[0], mode, 2 ** 10)
    _, retained, _ = traced_memory(Evaluator, params, cfg)
    return retained


@pytest.mark.parametrize("mode", ["hardmax", "scaled_only", "denoised"])
def test_a_bouncer8_evaluator_holds_no_dense_float64_copy_of_its_weights(mode, traced_memory):
    """The bouncer8 CoT r=10 evaluator keeps float64 weights only on the
    input coordinates each product reads (and W2 only on the rows its
    neurons write), for the hardmax model and its softmax conversions
    alike: 2.9 MB hardmax or scaled and 3.1 MB denoised, against 14.0 and
    16.8 MB for dense stacks of every matrix."""
    retained = _bouncer8_evaluator_bytes(mode, traced_memory)
    assert retained < {"hardmax": 8e6, "scaled_only": 8e6, "denoised": 9e6}[mode]


@pytest.mark.parametrize("mode", ["hardmax", "scaled_only", "denoised"])
def test_a_bouncer8_evaluator_keeps_only_the_w2_rows_its_neurons_write(mode, traced_memory):
    """With W2 whole, its float64 plan was the largest: the evaluator
    retained 5.9 MB hardmax and 7.4 MB denoised. Only about a tenth of W2's
    rows are written by any neuron (610 of 5,742 hardmax), and on those
    alone it retains 2.9 and 3.1 MB."""
    assert _bouncer8_evaluator_bytes(mode, traced_memory) < 3.5e6


def _sparse_w2_case(mode: str):
    """fig2 CoT r=6 in `mode`, edited after conversion so that its last MLP
    layer's rows write nothing (all-zero w2) and the neurons of the third
    from last write only every third of the rows they wrote; the tokens of
    a decode of ab. No head follows these layers, so the edit leaves no
    tie of unequal values whose average the reference would sum otherwise."""
    import copy

    from tm2tf.generation import run_cot

    params, cfg = _softmax_case(mode)
    tokens = run_cot(params, "ab", cfg).segments[0][:-1]
    params = copy.deepcopy(params)
    mlp_layers = [layer for layer in params.layers if layer.bias4.size]
    mlp_layers[-1].w2[:] = 0
    written = np.flatnonzero(mlp_layers[-3].w2.any(axis=1))
    mlp_layers[-3].w2[np.setdiff1d(written, written[::3])] = 0
    params.validate_weights()
    return params, cfg, tokens


@pytest.mark.parametrize("mode", ["hardmax", "scaled_only", "denoised"])
def test_layers_that_write_no_or_scattered_w2_rows_match_per_head_reference(mode):
    params, cfg, tokens = _sparse_w2_case(mode)
    written = [np.flatnonzero(layer.w2.any(axis=1)) for layer in params.layers]
    sizes = [layer.bias4.size for layer in params.layers]
    assert any(m and not w.size for m, w in zip(sizes, written))
    assert any(w.size > 1 and np.any(np.diff(w) > 1) for w in written)
    reps, trace = forward(params, tokens, cfg)
    assert reps.tobytes() == _assert_matches_reference(params, tokens, cfg, trace).tobytes()


def test_a_saturating_format_counts_what_the_per_head_reference_counts(monkeypatch):
    """A layer without heads whose one neuron writes coordinates 0 and 2 of
    4: hidden (8), the MLP output (6 on the written rows) and x (4 there)
    exceed the largest element 3 of a 1-bit-mantissa format, and the rows
    no neuron writes keep their 1. The reference rounds every row."""
    from tm2tf import fpcore

    d = 4
    params = _headless_model(d)
    params.layers[0].w2[[1, 3]] = 0
    cfg = EvalConfig("softmax", act_precision=Precision(FloatFormat(1, 2)), capture_trace=True)
    tokens = ["a", "a", "a"]
    reps, trace = forward(params, tokens, cfg)
    assert reps.tolist() == [[3.0, 1.0, 3.0, 1.0]] * len(tokens)
    round_array, saturated = fpcore.round_array, []

    def counting(x, fmt):
        y, n = round_array(x, fmt)
        saturated.append(n)
        return y, n

    monkeypatch.setattr(fpcore, "round_array", counting)
    assert reps.tobytes() == _assert_matches_reference(params, tokens, cfg, trace).tobytes()
    assert trace.saturations == sum(saturated) == len(tokens) * (1 + 2 + 2)


NEGATIVE_ZERO_CASES = [
    "bouncer8 cot 10", "bouncer4 scot 6", "copy cot 6",
    "fig2 hardmax", "fig2 scaled_only", "fig2 denoised",
]


@pytest.mark.parametrize("case", NEGATIVE_ZERO_CASES)
def test_no_traced_residual_is_negative_zero(case):
    """The residual stream never holds -0.0: x0, x_mid and x_out of every
    decoded segment. A row that no neuron writes passes x_mid on as x_mid +
    0.0, which equals the full W2 product's rnd(x_mid + rnd(+-0.0)) on
    every element but -0.0."""
    from machines import bouncer_machine, copy_machine

    from tm2tf.compilers import compile_cot, compile_scot
    from tm2tf.generation import run_cot, run_scot

    if case.startswith("fig2"):
        params, cfg = _softmax_case(case.split()[1])
        trace = run_cot(params, "ab", cfg)
    else:
        name, protocol, r = case.split()
        tm = bouncer_machine(int(name[-1])) if name.startswith("bouncer") else copy_machine()
        compile_fn, run = (compile_cot, run_cot) if protocol == "cot" else (compile_scot, run_scot)
        params, _ = compile_fn(tm, int(r))
        word = {"bouncer8": "xyxy", "bouncer4": "xyx", "copy": "011"}[name]
        trace = run(params, word, EvalConfig(capture_trace=True))
    assert trace.outcome == "output" and trace.eval_traces
    for ev_trace in trace.eval_traces:
        arrays = [ev_trace.x0]
        for lt in ev_trace.layers:
            arrays += [lt.x_mid, lt.x_out]
        assert sum(int(((a == 0) & np.signbit(a)).sum()) for a in arrays) == 0


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


def _rewind_case(case: str):
    """(params, config, batch, tokens) of a rewind test: copy SCoT r=6's
    first segment on "011" without its stop token, or for "batch" three
    copy CoT r=6 runs cut to one length."""
    from machines import copy_machine

    from tm2tf.automata import cot_token_oracle, scot_segments_oracle
    from tm2tf.compilers import build_rope_position_prefix, compile_cot, compile_scot
    from tm2tf.softmaxify import scale_qk

    tm, capture = copy_machine(), EvalConfig(capture_trace=True)
    if case == "rotary":
        params, _ = build_rope_position_prefix(4)
        return params, capture, None, ["first"] + ["rest"] * 15
    if case == "batch":
        runs = [cot_token_oracle(tm, word, 6)[:-1] for word in ("011", "10", "1101")]
        n = min(map(len, runs))
        return compile_cot(tm, 6)[0], capture, 3, [list(row) for row in zip(*(r[:n] for r in runs))]
    tokens = scot_segments_oracle(tm, "011", 6)[0][:-1]
    params = compile_scot(tm, 6)[0]
    if case == "hardmax":
        return params, capture, None, tokens
    # Formats whose sums all stay exact, so that blocks run in one step,
    # and activations of at most 3 that q and k scaled by 4 saturate.
    cfg = EvalConfig(
        attention="softmax",
        act_precision=Precision(FloatFormat(1, 2)),
        att_precision=Precision(FloatFormat(4, 4)),
        capture_trace=True,
    )
    return scale_qk(params, 4.0), cfg, None, tokens


@pytest.mark.parametrize("case", ["hardmax", "batch", "rotary", "saturating"])
def test_a_truncated_evaluator_equals_a_fresh_one(case):
    """Fed as two blocks and truncated at every cut m, an evaluator's
    representations, trace and saturation count equal those of a fresh
    evaluator fed the first m tokens, and extended by the rest, those of
    one fed all. A cut into a block step that saturated runs the step's
    kept positions again."""
    params, cfg, batch, tokens = _rewind_case(case)
    fresh = Evaluator(params, cfg, batch)
    fresh.extend(tokens)
    want = _ev_digest(fresh)
    assert fresh._exact == (case != "rotary")
    a, saturations = len(tokens) // 3, []
    for m in range(len(tokens) + 1):
        ev = Evaluator(params, cfg, batch)
        ev.extend(tokens[:a])
        ev.extend(tokens[a:])
        ev.truncate(m)
        assert ev.tokens == tokens[:m]
        cut = Evaluator(params, cfg, batch)
        cut.extend(tokens[:m])
        assert _ev_digest(ev) == _ev_digest(cut), m
        saturations.append(ev.trace.saturations)
        ev.extend(tokens[m:])
        assert _ev_digest(ev) == want, m
    # the cuts inside each block kept some of its saturations
    inside = saturations[1:a], saturations[a + 1 : -1]
    assert all(len(set(counts)) > 1 for counts in inside) == (case == "saturating")


def test_truncate_past_the_end_keeps_every_position_and_a_negative_cut_raises():
    params, cfg, batch, tokens = _rewind_case("hardmax")
    ev = Evaluator(params, cfg, batch)
    ev.extend(tokens)
    want = _ev_digest(ev)
    for n in (len(tokens), len(tokens) + 5):
        ev.truncate(n)
        assert ev.tokens == tokens and _ev_digest(ev) == want
    with pytest.raises(ValueError, match="cannot keep -1 positions"):
        ev.truncate(-1)
    assert ev.tokens == tokens and _ev_digest(ev) == want


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
    "scaled_only": "e4c971110d1933d940aa77b1141f7a39d6df94c477ca01e9ea38fc769a37a2ae",
    "denoised": "fbd268d57f044e74a55eea6fa5318b7d5f8b27100cef24ca7fd0ffd1e7e9de15",
    "denoised c=4": "dead28bd38cb38fec9191cff8ee49f8077e25bae093baddc2ada526f7e4c23ce",
    "c=2 bf16": "080ce249ab75b7191f83446e095a869f0988907889fb4fc80be8f5a01246f20b",
}


@pytest.mark.parametrize("case", list(SOFTMAX_DIGESTS))
def test_softmax_decode_digests(case):
    from tm2tf.automata import EINP, EOUTP, INP
    from tm2tf.generation import generate

    params, cfg = _fig2_softmax_case(case)
    prompt = [INP, *"abab", EINP]
    _, _, ev = generate(params, prompt, {EOUTP}, 2 ** 6 - len(prompt), cfg)
    assert _ev_digest(ev) == SOFTMAX_DIGESTS[case]


def _ordered(x: np.ndarray) -> np.ndarray:
    """float64 values as int64 in the same order, one apart for neighbouring
    floats, so that a difference counts ulps."""
    bits = x.view(np.int64)
    return np.where(bits < 0, -(bits & np.int64(2 ** 63 - 1)), bits)


@pytest.mark.parametrize("case", ["denoised", "denoised c=4"])
def test_softmax_weights_lie_far_from_every_rounding_bound(case, monkeypatch):
    """A certificate for the denoised SOFTMAX_DIGESTS decodes: every raw
    softmax weight, the one value that depends on libm's `exp`, lies at
    least 2^20 float64 ulps from every bound of the attention format's
    rounding table. So an `exp` that differs in its last bits rounds every
    weight to the same element, and the digests hold on any host."""
    from tm2tf import netcore
    from tm2tf.automata import EINP, EOUTP, INP
    from tm2tf.generation import generate

    params, cfg = _fig2_softmax_case(case)
    raw, softmax_weights = [], netcore.softmax_weights

    def captured(*args, **kwargs):
        raw.append(softmax_weights(*args, **kwargs))
        return raw[-1]

    monkeypatch.setattr(netcore, "softmax_weights", captured)
    prompt = [INP, *"abab", EINP]
    _, _, ev = generate(params, prompt, {EOUTP}, 2 ** 6 - len(prompt), cfg)
    assert _ev_digest(ev) == SOFTMAX_DIGESTS[case]  # the decode the digest pins
    weights = np.concatenate([w.ravel() for w in raw])
    assert ((weights > 0) & (weights < 1)).sum() > 1000  # softmax weights, not hardmax ones
    _, bounds = cfg.att_precision.fmt.round_table
    above = bounds.searchsorted(weights)  # bounds[above - 1] < weight <= bounds[above]
    assert 0 < above.min() and above.max() < len(bounds)
    ulps = np.minimum(
        _ordered(bounds[above]) - _ordered(weights), _ordered(weights) - _ordered(bounds[above - 1])
    )
    assert ulps.min() >= 2 ** 20


@pytest.mark.parametrize("case", ["denoised", "denoised c=4"])
def test_softmax_decode_digests_of_a_drafted_block(case, monkeypatch):
    """With the oracle's tokens proposed at the prompt, the prompt and the
    proposed tokens that stand run as one block step, whose rows sum their
    softmax denominators over their own keys; the evaluator hashes to the
    digest of the plain decode. At c=4 the model leaves the oracle's run, so its draft
    is wrong from there and the tokens that stand are decoded again as one
    block."""
    from machines import fig2_machine

    from tm2tf.automata import EINP, EOUTP, INP, cot_token_oracle
    from tm2tf.generation import generate

    params, cfg = _fig2_softmax_case(case)
    prompt = [INP, *"abab", EINP]
    oracle = cot_token_oracle(fig2_machine(), "abab", 6)
    step, steps = Evaluator._step, []

    def counted(ev, x, start):
        steps.append(x.shape[1])
        step(ev, x, start)

    monkeypatch.setattr(Evaluator, "_step", counted)
    _, _, ev = generate(
        params,
        prompt,
        {EOUTP},
        2 ** 6 - len(prompt),
        cfg,
        propose=lambda tokens: oracle[len(prompt) :] if tokens == prompt else [],
    )
    assert max(steps) > len(prompt)
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
    "bouncer8 cot r=10 xyxy": "af0c23f3dc709037dd786e88985995fd2772f2ca5e70cc33e5308b8c404dfd8d",
    "bouncer4 scot r=6 xyx": "6ee1076539abf8da418be041dfa08a60ce9f2494956708cd5cb76f55170f6a82",
    "copy cot r=6 0011": "ccd4b42fea6808793fe2d1200b07060816e1fd6a21bd536d9630bf3a4c3c4aac",
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
    assert all(a.size == 0 for a in _trace_fields(ev.trace).values())
    assert all(getattr(ev.trace, name).size == 0 for name in _WHOLE_MODEL_ARRAYS)


_WHOLE_MODEL_ARRAYS = ("stream", "q", "k", "v", "o", "dots", "att_err")


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory a view reads."""
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("batch", [None, 3])
def test_trace_arrays_do_not_grow_with_the_layer_count(batch):
    """However many layers a model has, a captured trace is the seven
    whole-model arrays: every writable trace field is a view into one of
    them. A layer without heads traces y as a read-only +0.0 view."""
    from machines import contains_ab_dfa, fig2_machine

    from tm2tf.automata import BOS, EINP, INP
    from tm2tf.compilers import compile_dfa, compile_scot

    cfg = EvalConfig(capture_trace=True)
    models = [(compile_dfa(contains_ab_dfa(), 3)[0], cfg, [BOS, *"abba"])]
    models.append((compile_scot(fig2_machine(), 6)[0], cfg, [INP, *"abab", EINP]))
    models.append((*_softmax_case("denoised"), [INP, *"abab", EINP]))
    assert [len(p.layers) for p, _, _ in models] == [5, 23, 46]
    for params, cfg, tokens in models:
        ev = Evaluator(params, cfg, batch=batch)
        ev.extend(tokens if batch is None else [(t,) * batch for t in tokens])
        trace = ev.trace
        arena = {id(_owner(getattr(trace, name))) for name in _WHOLE_MODEL_ARRAYS}
        assert len(arena) == len(_WHOLE_MODEL_ARRAYS)
        fields = _trace_fields(trace)
        for name, a in fields.items():
            if a.flags.writeable:
                assert id(_owner(a)) in arena, name
        headless = [li for li, layer in enumerate(params.layers) if not layer.heads]
        for li in headless:
            y = fields[f"L{li}.y"]
            assert not y.flags.writeable and not y.any() and y.shape == fields["x0"].shape
        read_only = [name for name, a in fields.items() if not a.flags.writeable]
        assert read_only == [f"L{li}.y" for li in headless]


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


@pytest.mark.parametrize("matrix", ["wk", "wo"])
def test_a_head_code_out_of_range_is_refused_by_name(matrix):
    """validate_weights checks a layer's head matrices together and names
    the one that holds the bad code."""
    from machines import fig2_machine

    from tm2tf.compilers import compile_cot

    params, _ = compile_cot(fig2_machine(), 6)
    li = next(i for i, layer in enumerate(params.layers) if len(layer.heads) > 1)
    getattr(params.layers[li].heads[1], matrix)[0, 0] = 2
    message = f"layer {li} head 1 {matrix} codes must lie in [-1, 1]"
    with pytest.raises(ValueError, match=re.escape(message)):
        params.validate_weights()


@pytest.mark.parametrize("where", ["last head of the last layer with heads", "middle layer w2"])
def test_a_code_out_of_range_is_named_by_layer_and_head(where):
    """validate_weights checks all codes of one bound across the model at
    once and names the array that holds the bad code, wherever it is."""
    from machines import fig2_machine

    from tm2tf.compilers import compile_cot

    params, _ = compile_cot(fig2_machine(), 6)
    if where == "middle layer w2":
        li = len(params.layers) // 2
        params.layers[li].w2[-1, -1] = 3
        message = f"layer {li} w2 codes must lie in [-2, 2]"
    else:
        li = max(i for i, layer in enumerate(params.layers) if layer.heads)
        hi = len(params.layers[li].heads) - 1
        params.layers[li].heads[hi].wv[-1, -1] = -2
        message = f"layer {li} head {hi} wv codes must lie in [-1, 1]"
    with pytest.raises(ValueError, match=re.escape(message)):
        params.validate_weights()


# ---------------------------------------------------------------------------
# the evaluator plan


def test_an_evaluator_refuses_a_plan_of_another_model_or_exactness():
    """A plan is built for one params object and one exactness: an
    evaluator of another model, even an equal one, or of a config whose
    sums are (not) exact refuses it. A plan of equal exactness serves
    another capture level, and gives what an own plan gives."""
    import copy

    from machines import parity_dfa

    from tm2tf.automata import BOS
    from tm2tf.compilers import compile_dfa
    from tm2tf.netcore import EvalPlan

    params, _ = compile_dfa(parity_dfa(), 3)
    exact, rounded = EvalConfig(), EvalConfig(attention="softmax")
    plan = EvalPlan(params, exact)
    assert plan.exact and not EvalPlan(params, rounded).exact
    with pytest.raises(ValueError, match="another params object"):
        Evaluator(copy.deepcopy(params), exact, plan=plan)
    with pytest.raises(ValueError, match="sums are exact"):
        Evaluator(params, rounded, plan=plan)
    with pytest.raises(ValueError, match="sums are not exact"):
        Evaluator(params, exact, plan=EvalPlan(params, rounded))
    cfg = EvalConfig(capture_trace=True)
    shared, own = Evaluator(params, cfg, plan=plan), Evaluator(params, cfg)
    for ev in (shared, own):
        ev.extend([BOS, *"0110"])
    assert shared.plan is plan and own.plan is not plan
    assert shared.final_representations().tobytes() == own.final_representations().tobytes()
    assert shared.trace.stream.tobytes() == own.trace.stream.tobytes()
    assert shared.trace.q.tobytes() == own.trace.q.tobytes()


def _largest_validate_scot_model():
    """The compiled model of `validate_scot(2, 1)`, the validation trial
    that sets validate-mixed's peak memory."""
    from tm2tf import harness

    built = []
    compile_scot = harness.compile_scot
    harness.compile_scot = lambda tm, r: built.append(compile_scot(tm, r)) or built[-1]
    try:
        report = harness.validate_scot(2, 1)
    finally:
        harness.compile_scot = compile_scot
    assert report.checked == 1 and report.ok
    return built[0][0]


def _wqkv(layer) -> np.ndarray:
    """A layer's (H*(2 d_k + d_v), d) Q/K/V rows, [q_h; k_h; v_h] per head."""
    return np.concatenate([w for h in layer.heads for w in (h.wq, h.wk, h.wv)])


def _nbytes(arrays) -> int:
    return sum(a.nbytes for a in arrays or () if isinstance(a, np.ndarray))


def test_an_exact_plan_keeps_only_the_qkv_columns_some_weight_writes():
    """The `validate_scot(2, 1)` model (d = 361, 119 heads, d_k = 47):
    its plan held 14.6 MB of layer arrays, 7.5 MB of them Q/K/V, when it
    kept every q and k column; on the written columns alone it holds 10.0
    and 2.9 MB, 10.5 MB with the embeddings. A plan that is not exact
    keeps every column."""
    from tm2tf.netcore import EvalPlan

    params = _largest_validate_scot_model()
    assert params.dims.d == 361 and sum(len(layer.heads) for layer in params.layers) == 119
    plan = EvalPlan(params, EvalConfig(capture_trace="audit"))
    qkv = sum(_nbytes(attention[1:5]) for attention, _ in plan.layers if attention)
    held = _nbytes([plan.emb, plan.unemb_t]) + sum(
        _nbytes(attention) + _nbytes(mlp) for attention, mlp in plan.layers
    )
    assert held <= 11e6 and qkv <= 3.5e6, (held, qkv)
    d_k, d_v = params.dims.d_k, params.dims.d_v
    for layer, (attention, _) in zip(params.layers, plan.layers):
        if attention is None:
            continue
        assert attention[3].tolist() == np.flatnonzero(_wqkv(layer).any(axis=1)).tolist()
        assert attention[2].shape == (attention[1].size, attention[3].size)
    rounded = EvalPlan(params, EvalConfig(attention="softmax"))
    for layer, (attention, _) in zip(params.layers, rounded.layers):
        if attention is not None:
            assert attention[3] is None
            assert attention[2].shape[1] == len(layer.heads) * (2 * d_k + d_v)


_HEAD_KEYS = ("wq", "wk", "wv", "wo")


def _bound_groups(params: TransformerParams) -> dict[int, list[tuple[str, np.ndarray]]]:
    """validate_weights' arrays by the bound of their codes, in its order."""
    d = params.dims.d
    groups = {1: [("emb", params.emb), ("unemb", params.unemb)], 2: [], 4 * (d + 1): []}
    for li, layer in enumerate(params.layers):
        for hi, h in enumerate(layer.heads):
            groups[1] += [(f"layer {li} head {hi} {k}", getattr(h, k)) for k in _HEAD_KEYS]
        groups[2] += [(f"layer {li} w1", layer.w1), (f"layer {li} w2", layer.w2)]
        groups[4 * (d + 1)].append((f"layer {li} bias4", layer.bias4))
    return groups


def _straddling(group: list[tuple[str, np.ndarray]]) -> int:
    """The index of the array whose codes hold the group's code number
    _CHECK_CHUNK, counted from 0 over the group's arrays in order."""
    from tm2tf.netcore import _CHECK_CHUNK

    ends = np.cumsum([a.size for _, a in group])
    return int(np.searchsorted(ends, _CHECK_CHUNK, side="right"))


CHUNK_PLANTS = ["first", "straddling", "last", "straddling and last"]


@pytest.mark.parametrize(
    "bound_index, where",
    [(i, where) for i in (0, 1) for where in CHUNK_PLANTS] + [(2, "first"), (2, "last")],
)
def test_a_chunked_code_check_names_the_first_array_out_of_range(bound_index, where):
    """validate_weights checks the codes of one bound in runs of about
    _CHECK_CHUNK codes. bouncer8 CoT r=10 has 0.82 M codes of bound 1 and
    0.87 M of bound 2, several runs each, and 33 bias4 arrays in one run.
    A code out of range in the first array of a group, in the one that
    holds its code number _CHECK_CHUNK or in its last is refused with the
    message the one-copy check gave, naming that array; with two, the
    earlier."""
    from machines import bouncer_machine

    from tm2tf.compilers import compile_cot

    params, _ = compile_cot(bouncer_machine(8), 10)
    bound, group = list(_bound_groups(params).items())[bound_index]
    if bound <= 2:
        assert sum(a.size for _, a in group) > 3 * 2 ** 18
    index = {"first": [0], "straddling": [_straddling(group)], "last": [len(group) - 1]}
    index["straddling and last"] = index["straddling"] + index["last"]
    planted = index[where]
    for i in planted:
        group[i][1][(-1,) * group[i][1].ndim] = -bound - 1
    with pytest.raises(ValueError) as refused:
        params.validate_weights()
    assert str(refused.value) == f"{group[planted[0]][0]} codes must lie in [-{bound}, {bound}]"


def test_the_code_check_joins_no_more_than_a_chunk(traced_memory):
    """Checking bouncer8 CoT r=10 (1.7 M int8 codes) allocates at most one
    run of _CHECK_CHUNK codes at a time: one copy of all codes of a bound
    took 0.89 MB."""
    from machines import bouncer_machine

    from tm2tf.compilers import compile_cot
    from tm2tf.netcore import _CHECK_CHUNK

    params, _ = compile_cot(bouncer_machine(8), 10)
    _, _, peak = traced_memory(params.validate_weights)
    assert peak < _CHECK_CHUNK + 50_000, peak


# (machine, protocol, r, word) of every tests/machines.py Turing machine
ZERO_SIGN_RUNS = [
    ("fig2", "cot", 6, "abab"),
    ("fig2", "scot", 6, "abab"),
    ("one_step", "cot", 6, "x"),
    ("one_step", "scot", 6, "x"),
    ("bouncer4", "cot", 6, "xy"),
    ("bouncer4", "scot", 6, "xyx"),
    ("copy", "cot", 6, "01"),
    ("copy", "scot", 6, "011"),
    ("counter", "cot", 6, "h0"),
    ("counter", "scot", 6, "h00"),
    ("tally", "cot", 6, "ab"),
    ("tally", "scot", 6, "ab"),
]


def _assert_dead_columns_hold_plus_zero(params, trace, label) -> int:
    """Every dead Q/K/V column of every layer holds +0.0 in the trace, and
    so does the product over all columns that the plan replaces, from the
    same layer inputs. Returns how many dead values were checked."""
    checked = 0
    x_in = trace.x0
    for li, (layer, lt) in enumerate(zip(params.layers, trace.layers)):
        if layer.heads:
            w = _wqkv(layer)
            dead = ~w.any(axis=1)
            qkv = np.concatenate([lt.q, lt.k, lt.v], axis=-1)  # (P, H, 2 d_k + d_v)
            live = np.flatnonzero(w.any(axis=0))
            full = x_in.take(live, axis=1).dot(w[:, live].T.astype(np.float64))
            for name, values in (("trace", qkv.reshape(len(qkv), -1)), ("product", full)):
                cols = values[:, dead]
                assert (cols == 0.0).all() and not np.signbit(cols).any(), (label, li, name)
                checked += cols.size
        x_in = lt.x_out
    return checked


@pytest.mark.parametrize("mode", ["hardmax", "denoised"])
@pytest.mark.parametrize("machine, protocol, r, word", ZERO_SIGN_RUNS)
def test_dead_qkv_columns_hold_plus_zero(machine, protocol, r, word, mode):
    """An exact plan computes only the Q/K/V columns that some weight
    writes and leaves the rest at +0.0. The product over every column,
    which the pinned trace digests were taken from, held +0.0 there too,
    with no sign bit: its sums of +-0.0 terms start from +0.0. So full
    traces, and the digests of their bytes, are unchanged."""
    from dataclasses import replace

    import machines

    from tm2tf.compilers import compile_cot, compile_scot
    from tm2tf.generation import run_cot, run_scot
    from tm2tf.softmaxify import convert

    tm = {
        "fig2": machines.fig2_machine,
        "one_step": machines.one_step_machine,
        "bouncer4": machines.bouncer_machine,
        "copy": machines.copy_machine,
        "counter": machines.counter_machine,
        "tally": machines.tally_machine,
    }[machine]()
    params, _ = (compile_cot if protocol == "cot" else compile_scot)(tm, r)
    cfg = EvalConfig(capture_trace=True)
    if mode == "denoised":
        params, cfg = convert(params, "denoised", 2 ** r)
        cfg = replace(cfg, capture_trace=True)
    trace = (run_cot if protocol == "cot" else run_scot)(params, word, cfg)
    assert trace.outcome == "output" and len(trace.eval_traces) == len(trace.segments)
    assert Evaluator(params, cfg).plan.exact
    checked = sum(
        _assert_dead_columns_hold_plus_zero(params, t, (machine, protocol, mode, i))
        for i, t in enumerate(trace.eval_traces)
    )
    assert checked > 0

