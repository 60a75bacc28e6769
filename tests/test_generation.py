import re

import numpy as np
import pytest

from machines import fig2_machine

from tm2tf.automata import EINP, EOUTP, INP, OUTP, SUMM, ESUMM
from tm2tf.compilers import compile_cot
from tm2tf import generation
from tm2tf.generation import generate, run_cot, run_scot
from tm2tf.netcore import (
    Dims,
    EvalConfig,
    EvalError,
    HeadParams,
    LayerParams,
    NoPositional,
    TransformerParams,
)


def constant_model(vocab: list[str], emitted: str) -> TransformerParams:
    """A model that always outputs `emitted`: unembeds a constant flag."""
    d = 2
    emb = np.zeros((len(vocab), d), dtype=np.int8)
    emb[:, 0] = 1  # constant coordinate
    unemb = np.zeros((len(vocab), d), dtype=np.int8)
    unemb[vocab.index(emitted), 0] = 1
    layer = LayerParams(
        heads=[
            HeadParams(
                np.zeros((1, d), np.int8),
                np.zeros((1, d), np.int8),
                np.zeros((1, d), np.int8),
                np.zeros((d, 1), np.int8),
            )
        ],
        w1=np.zeros((1, d), np.int8),
        bias4=np.zeros(1, np.int32),
        w2=np.zeros((d, 1), np.int8),
    )
    return TransformerParams(
        dims=Dims(d=d, d_k=1, d_v=1, d_ff=1, n_heads=1, n_layers=1),
        vocab=vocab,
        emb=emb,
        unemb=unemb,
        positional=NoPositional(),
        layers=[layer],
    )


def successor_model(vocab: list[str], successor: dict[str, str]) -> TransformerParams:
    """A model that emits successor[t] after token t: one coordinate per
    token, and each token's unembedding reads the tokens it succeeds."""
    d = len(vocab)
    unemb = np.zeros((d, d), dtype=np.int8)
    for tok, nxt in successor.items():
        unemb[vocab.index(nxt), vocab.index(tok)] = 1
    q, k, v = (np.zeros((1, d), np.int8) for _ in range(3))
    layer = LayerParams(
        heads=[HeadParams(q, k, v, np.zeros((d, 1), np.int8))],
        w1=np.zeros((1, d), np.int8),
        bias4=np.zeros(1, np.int32),
        w2=np.zeros((d, 1), np.int8),
    )
    return TransformerParams(
        dims=Dims(d=d, d_k=1, d_v=1, d_ff=1, n_heads=1, n_layers=1),
        vocab=vocab,
        emb=np.eye(d, dtype=np.int8),
        unemb=unemb,
        positional=NoPositional(),
        layers=[layer],
    )


VOCAB = [INP, EINP, OUTP, EOUTP, SUMM, ESUMM, "a"]


def test_generate_stops_immediately_on_stop_token():
    params = constant_model(VOCAB, EOUTP)
    tokens, exceeded, _ = generate(params, [INP, EINP], {EOUTP}, 10, EvalConfig())
    assert tokens == [INP, EINP, EOUTP]
    assert not exceeded


def test_generate_budget_zero():
    params = constant_model(VOCAB, "a")
    tokens, exceeded, _ = generate(params, [INP], {EOUTP}, 0, EvalConfig())
    assert exceeded and tokens == [INP]


def test_run_cot_budget_exceeded_on_stub():
    params = constant_model(VOCAB, "a")  # never emits </outp>
    trace = run_cot(params, ["a"], EvalConfig(), budget=16)
    assert trace.outcome == "budget_exceeded"


def test_run_cot_undefined_without_outp():
    params = constant_model(VOCAB, EOUTP)  # emits </outp> with no <outp>
    trace = run_cot(params, ["a"], EvalConfig(), budget=4)
    assert trace.outcome == "undefined"
    assert "<outp>" in trace.reason


def test_run_scot_undefined_empty_summary():
    params = constant_model(VOCAB, ESUMM)  # emits </summ> with no <summ>
    trace = run_scot(params, ["a"], EvalConfig(), budget=4)
    assert trace.outcome == "undefined"


def test_run_scot_undefined_on_an_empty_summary_block():
    params = successor_model(VOCAB, {EINP: SUMM, SUMM: ESUMM})
    trace = run_scot(params, ["a"], EvalConfig())
    assert trace.segments == [[INP, "a", EINP, SUMM, ESUMM]]
    assert (trace.outcome, trace.reason) == ("undefined", "empty summary block")


def test_run_cot_undefined_on_a_non_input_symbol_in_the_output():
    params = successor_model(VOCAB, {EINP: OUTP, OUTP: SUMM, SUMM: EOUTP})
    trace = run_cot(params, ["a"], EvalConfig())
    assert trace.segments == [[INP, "a", EINP, OUTP, SUMM, EOUTP]]
    assert (trace.outcome, trace.reason) == ("undefined", "output block contains non-input symbols")
    assert trace.output is None


def summarizing_model(block: list[str]) -> TransformerParams:
    """A successor model that writes block after </inp> and after each
    </summ>, over VOCAB with one tape and one state token added."""
    successor = dict(zip(block, block[1:]), **{EINP: block[0], ESUMM: block[0]})
    return successor_model(VOCAB + ["tape:^a", "state:q"], successor)


def test_run_scot_undefined_at_the_segment_limit(monkeypatch):
    """Each summary <summ> tape:^a state:q </summ> is promoted and
    summarized again."""
    monkeypatch.setattr(generation, "_MAX_SEGMENTS", 3)
    summary = [SUMM, "tape:^a", "state:q", ESUMM]
    trace = run_scot(summarizing_model(summary), ["a"], EvalConfig())
    assert trace.segments == [[INP, "a", EINP, *summary]] + [summary * 2] * 2
    assert (trace.outcome, trace.reason) == ("undefined", "segment limit reached")


@pytest.mark.parametrize(
    "body",
    [["a"], ["tape:^a"], ["state:q"], ["state:q", "tape:^a"], ["tape:^a", "a", "state:q"]],
)
def test_run_scot_undefined_on_an_ill_formed_summary(body):
    """Only tape tokens then one state token are promoted to a prompt."""
    block = [SUMM, *body, ESUMM]
    trace = run_scot(summarizing_model(block), ["a"], EvalConfig())
    assert trace.segments == [[INP, "a", EINP, *block]]
    assert (trace.outcome, trace.reason) == (
        "undefined",
        "summary block is not tape tokens then a state token",
    )


def test_run_cot_happy_path_counts():
    tm = fig2_machine()
    params, _ = compile_cot(tm, 6)
    trace = run_cot(params, "aab", EvalConfig())
    assert trace.outcome == "output"
    assert trace.total_tokens == len(trace.segments[0])
    assert trace.max_segment == trace.total_tokens
    from tm2tf.automata import cot_token_oracle

    assert trace.total_tokens == len(cot_token_oracle(tm, "aab", 6))


def test_step_records():
    tm = fig2_machine()
    params, _ = compile_cot(tm, 6)
    trace = run_cot(params, "aab", EvalConfig(), record_steps=True)
    assert len(trace.records) == trace.total_tokens - 5  # generated tokens only
    rec = trace.records[0]
    assert set(rec) == {"segment", "position", "token", "top2"}
    assert rec["top2"][0][0] == rec["token"]
    # hardmax output-score gap of at least 1 visible in the records
    for rec in trace.records:
        assert rec["top2"][0][1] - rec["top2"][1][1] >= 1.0


def test_step_records_name_the_emitted_token_first_on_ties():
    """With every output score 0 the greedy token is the lowest index,
    <inp>, and each record's top2 names it first, then another token."""
    params, _ = compile_cot(fig2_machine(), 6)
    params.unemb[:] = 0
    trace = run_cot(params, "ab", EvalConfig(), budget=2, record_steps=True)
    assert trace.tie_warnings == 2
    assert [rec["token"] for rec in trace.records] == [INP, INP]
    for rec in trace.records:
        (first, first_score), (second, second_score) = rec["top2"]
        assert (first, first_score, second_score) == (INP, 0.0, 0.0)
        assert second != INP


@pytest.mark.parametrize("runner", [run_cot, run_scot])
@pytest.mark.parametrize("word, bad", [(["a", EINP], EINP), (["state:q", "a"], "state:q")])
def test_a_word_token_that_is_not_an_input_symbol_is_refused(runner, word, bad):
    params = constant_model(VOCAB + ["tape:^a", "state:q"], EOUTP)
    with pytest.raises(EvalError, match=re.escape(f"word token {bad!r} is not an input symbol")):
        runner(params, word, EvalConfig())


def test_generate_validates_inputs():
    params = constant_model(VOCAB, "a")
    with pytest.raises(ValueError):
        generate(params, [], {EOUTP}, 5, EvalConfig())
    with pytest.raises(ValueError):
        generate(params, [INP], set(), 5, EvalConfig())


def test_default_budget_stops_at_a_full_context():
    """fig2 on "abab" needs more than the 16 positions of r=4: the default
    budget ends the run when the context is full, not in an EvalError."""
    params, _ = compile_cot(fig2_machine(), 4)
    trace = run_cot(params, "abab", EvalConfig())
    assert trace.outcome == "budget_exceeded"
    assert trace.total_tokens == 2 ** 4


@pytest.mark.parametrize("runner", [run_cot, run_scot])
def test_saturations_reach_the_generation_trace(runner):
    """Queries and keys scaled by c = 4 exceed 3, the largest element of the format."""
    from machines import copy_machine

    from tm2tf.compilers import compile_scot
    from tm2tf.fpcore import FloatFormat, Precision
    from tm2tf.softmaxify import scale_qk

    params = scale_qk(compile_scot(copy_machine(), 6)[0], 4.0)
    cfg = EvalConfig(
        attention="softmax", act_precision=Precision(FloatFormat(1, 2)), capture_trace=True
    )
    trace = runner(params, "01", cfg, budget=3)
    assert trace.saturations == sum(t.saturations for t in trace.eval_traces) > 0


# ---------------------------------------------------------------------------
# drafts: a draft of expected tokens saves work and never changes a run


def _assert_same_arrays(x, y, what):
    x, y = np.asarray(x), np.asarray(y)
    assert x.shape == y.shape and x.tobytes() == y.tobytes(), what


def assert_same_run(a, b, label=""):
    """Every GenerationTrace field equal, eval traces compared byte for byte."""
    from dataclasses import fields

    for f in fields(a):
        if f.name != "eval_traces":
            assert getattr(a, f.name) == getattr(b, f.name), (label, f.name)
    assert len(a.eval_traces) == len(b.eval_traces), label
    for ta, tb in zip(a.eval_traces, b.eval_traces):
        assert (ta.tie_warnings, ta.saturations) == (tb.tie_warnings, tb.saturations), label
        _assert_same_arrays(ta.x0, tb.x0, (label, "x0"))
        _assert_same_arrays(ta.output_scores, tb.output_scores, (label, "output_scores"))
        assert len(ta.layers) == len(tb.layers), label
        for li, (la, lb) in enumerate(zip(ta.layers, tb.layers)):
            for f in fields(la):
                _assert_same_arrays(getattr(la, f.name), getattr(lb, f.name), (label, li, f.name))


def _drafts(params, protocol: str, expected: list[list[str]]) -> dict[str, list[list[str]]]:
    """Right and wrong drafts built from the expected segments."""
    first = expected[0]
    n_prompt = first.index(EINP) + 1
    mid = (n_prompt + len(first)) // 2
    wrong = next(t for t in params.vocab if t not in (first[mid], EOUTP, ESUMM))
    context = 2 ** params.positional.r
    drafts = {
        "expected": expected,
        "diverges mid-segment": [first[:mid] + [wrong] + first[mid + 1 :], *expected[1:]],
        "unknown token": [first[:mid] + ["<no such token>"] + first[mid:]],
        "past the stop token": [seg + seg[n_prompt:] for seg in expected],
        "no stop, longer than the context": [seg[:-1] + [wrong] * context for seg in expected],
        "empty": [[]],
    }
    if protocol == "scot":
        body = first.index(SUMM) + 1
        summary = next(t for t in params.vocab if t.startswith("tape:") and t != first[body])
        drafts["wrong summary"] = [first[:body] + [summary] + first[body + 1 :], *expected[1:]]
    return drafts


def _compiled(machine: str, protocol: str, r: int):
    from machines import bouncer_machine, copy_machine

    from tm2tf.compilers import compile_scot

    tm = {"fig2": fig2_machine, "copy": copy_machine, "bouncer4": bouncer_machine}[machine]()
    return tm, (compile_cot if protocol == "cot" else compile_scot)(tm, r)


DRAFT_CASES = [
    ("fig2", "cot", 6, "abab"),
    ("fig2", "scot", 6, "abab"),
    ("copy", "cot", 6, "011"),
    ("copy", "scot", 6, "011"),
    ("bouncer4", "cot", 8, "xy"),
    ("bouncer4", "scot", 6, "xy"),
]


@pytest.mark.parametrize("machine, protocol, r, word", DRAFT_CASES)
def test_a_draft_does_not_change_a_hardmax_run(machine, protocol, r, word):
    from tm2tf.automata import cot_token_oracle, scot_segments_oracle

    tm, (params, _) = _compiled(machine, protocol, r)
    runner = run_cot if protocol == "cot" else run_scot
    cfg = EvalConfig(capture_trace=True)
    plain = runner(params, word, cfg, record_steps=True)
    if protocol == "cot":
        expected = [cot_token_oracle(tm, word, r)]
    else:
        expected = scot_segments_oracle(tm, word, r)
        assert len(expected) > 1
    assert plain.outcome == "output" and plain.segments == expected
    for name, draft in _drafts(params, protocol, expected).items():
        with_draft = runner(params, word, cfg, record_steps=True, draft=draft)
        assert_same_run(with_draft, plain, name)
    # A draft longer than the budget still ends the run at the budget.
    budget = (len(expected[0]) - len(word) - 2) // 2
    short = runner(params, word, cfg, budget=budget, record_steps=True)
    assert short.outcome == "budget_exceeded"
    drafted = runner(params, word, cfg, budget=budget, record_steps=True, draft=expected)
    assert_same_run(drafted, short)


def test_a_draft_past_the_context_ends_at_the_budget():
    """fig2 on "abab" needs more than the 16 positions of r=4."""
    params, _ = compile_cot(fig2_machine(), 4)
    cfg = EvalConfig(capture_trace=True)
    plain = run_cot(params, "abab", cfg, record_steps=True)
    assert plain.outcome == "budget_exceeded"
    draft = [plain.segments[0] + ["a"] * 32]
    assert_same_run(run_cot(params, "abab", cfg, record_steps=True, draft=draft), plain)


@pytest.mark.parametrize("mode", ["scaled_only", "denoised"])
def test_a_draft_does_not_change_a_softmax_run(mode):
    from dataclasses import replace

    from tm2tf.automata import cot_token_oracle
    from tm2tf.softmaxify import convert

    r = 6
    params, cfg = convert(compile_cot(fig2_machine(), r)[0], mode, 2 ** r)
    cfg = replace(cfg, capture_trace=True)
    plain = run_cot(params, "ab", cfg, record_steps=True)
    expected = [cot_token_oracle(fig2_machine(), "ab", r)]
    assert plain.outcome == "output" and plain.segments == expected
    for name, draft in _drafts(params, "cot", expected).items():
        assert_same_run(run_cot(params, "ab", cfg, record_steps=True, draft=draft), plain, name)


def test_a_draft_does_not_change_saturations():
    """Rounding saturates, and a wrong draft's dropped positions do not count."""
    from machines import copy_machine

    from tm2tf.compilers import compile_scot
    from tm2tf.fpcore import FloatFormat, Precision
    from tm2tf.softmaxify import scale_qk

    params = scale_qk(compile_scot(copy_machine(), 6)[0], 4.0)
    cfg = EvalConfig(
        attention="softmax", act_precision=Precision(FloatFormat(1, 2)), capture_trace=True
    )
    plain = run_cot(params, "01", cfg, budget=6, record_steps=True)
    assert plain.saturations > 0
    wrong = [plain.segments[0][:-3] + ["1"] * 8]
    assert_same_run(run_cot(params, "01", cfg, budget=6, record_steps=True, draft=wrong), plain)


def test_the_expected_draft_is_one_block_step_per_segment(monkeypatch):
    """Under hardmax the draft is verified, not decoded: one step per segment."""
    from machines import copy_machine

    from tm2tf.automata import scot_segments_oracle
    from tm2tf.compilers import compile_scot
    from tm2tf.netcore import Evaluator

    steps = []
    step = Evaluator._step

    def counted(ev, x, start):
        steps.append(x.shape)
        step(ev, x, start)

    monkeypatch.setattr(Evaluator, "_step", counted)
    params, _ = compile_scot(copy_machine(), 6)
    expected = scot_segments_oracle(copy_machine(), "011", 6)
    trace = run_scot(params, "011", EvalConfig(), draft=expected)
    assert trace.segments == expected
    assert steps == [(1, len(seg) - 1, params.dims.d) for seg in expected]


@pytest.mark.parametrize("case", ["denoised", "scaled_only", "bf16", "exact attention"])
def test_a_rounded_softmax_draft_is_one_block_step_only_where_every_sum_is_exact(
    case, monkeypatch
):
    """The denoised model's formats keep every sum exact, so its expected
    draft is verified in one step per segment, as under hardmax. Exact
    attention weights, bf16 formats and the scaled model's settings put
    sums on no grid of 53 bits: those step one position at a time."""
    from dataclasses import replace

    from machines import copy_machine

    from tm2tf.automata import scot_segments_oracle
    from tm2tf.compilers import compile_scot
    from tm2tf.fpcore import EXACT, PRESETS, Precision
    from tm2tf.netcore import Evaluator
    from tm2tf.softmaxify import convert

    steps = []
    step = Evaluator._step

    def counted(ev, x, start):
        steps.append(x.shape[1])
        step(ev, x, start)

    r = 6
    hard = compile_scot(copy_machine(), r)[0]
    params, cfg = convert(hard, "scaled_only" if case == "scaled_only" else "denoised", 2 ** r)
    if case == "bf16":
        bf16 = Precision(PRESETS["bf16"])
        cfg = replace(cfg, act_precision=bf16, att_precision=bf16)
    elif case == "exact attention":
        cfg = replace(cfg, att_precision=EXACT)
    monkeypatch.setattr(Evaluator, "_step", counted)
    expected = scot_segments_oracle(copy_machine(), "011", r)
    trace = run_scot(params, "011", cfg, draft=expected)
    assert trace.segments == expected
    if case == "denoised":
        assert steps == [len(seg) - 1 for seg in expected]
    else:
        assert steps == [1] * sum(len(seg) - 1 for seg in expected)


def test_a_wrong_draft_is_decoded_again_on_one_fresh_evaluator(monkeypatch):
    """A draft wrong in its middle builds two evaluators in its segment's
    `generate` call: one fed the whole draft, one fed the tokens that stand
    and then stepped; under hardmax each makes one block step. The expected
    draft builds one. `generate` is called once per segment either way."""
    from machines import copy_machine

    from tm2tf.automata import scot_segments_oracle
    from tm2tf.compilers import compile_scot
    from tm2tf.netcore import Evaluator

    steps: dict[Evaluator, list[int]] = {}  # per evaluator built, the positions of each step
    calls = []  # per generate call, the steps of the evaluators it built
    init, step, generate = Evaluator.__init__, Evaluator._step, generation.generate

    def counted_init(ev, *args, **kwargs):
        steps[ev] = []
        init(ev, *args, **kwargs)

    def counted_step(ev, x, start):
        steps[ev].append(x.shape[1])
        step(ev, x, start)

    def wrapped(*args, **kwargs):
        before = len(steps)
        result = generate(*args, **kwargs)
        calls.append(list(steps.values())[before:])
        return result

    monkeypatch.setattr(Evaluator, "__init__", counted_init)
    monkeypatch.setattr(Evaluator, "_step", counted_step)
    monkeypatch.setattr(generation, "generate", wrapped)
    params, _ = compile_scot(copy_machine(), 6)
    expected = scot_segments_oracle(copy_machine(), "011", 6)
    first, rest = expected[0], [[[len(seg) - 1]] for seg in expected[1:]]
    mid = (first.index(EINP) + 1 + len(first)) // 2
    wrong = next(t for t in params.vocab if t not in (first[mid], EOUTP, ESUMM))
    drafts = {
        "expected": (expected, [[len(first) - 1]]),
        "diverges mid-segment": (
            [first[:mid] + [wrong] + first[mid + 1 :], *expected[1:]],
            [[len(first) - 1], [mid + 1] + [1] * (len(first) - 2 - mid)],
        ),
    }
    for name, (draft, first_call) in drafts.items():
        steps.clear()
        calls.clear()
        assert run_scot(params, "011", EvalConfig(), draft=draft).segments == expected, name
        assert calls == [first_call, *rest], name
