import itertools
import re

import numpy as np
import pytest

from machines import fig2_machine

from tm2tf.automata import EINP, EOUTP, INP, OUTP, SUMM, ESUMM, parse_summary
from tm2tf.compilers import compile_cot
from tm2tf import generation
from tm2tf.generation import GenerationTrace, generate, run_cot, run_scot
from tm2tf.netcore import (
    BinaryAbsolute,
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


def successor_model(
    vocab: list[str], successor: dict[str, str], r: int | None = None
) -> TransformerParams:
    """A model that emits successor[t] after token t: one coordinate per
    token, and each token's unembedding reads the tokens it succeeds. With
    r, r more coordinates hold binary positions, which nothing reads."""
    d = len(vocab) + (r or 0)
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
        emb=np.eye(len(vocab), d, dtype=np.int8),
        unemb=unemb[: len(vocab)],
        positional=NoPositional() if r is None else BinaryAbsolute(r, tuple(range(len(vocab), d))),
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


def test_step_records_name_the_lowest_index_runner_up_on_ties():
    """The runner-up follows the greedy rule: the best score other than the
    emitted token's, the lowest index among equal scores. Every token but
    </outp> scores 0, so it is <inp>, vocabulary index 0."""
    trace = run_cot(constant_model(VOCAB, EOUTP), "a", EvalConfig(), record_steps=True)
    assert [rec["top2"] for rec in trace.records] == [[[EOUTP, 1.0], [INP, 0.0]]]


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


def test_a_negative_budget_is_refused():
    params = constant_model(VOCAB, "a")
    with pytest.raises(ValueError, match="max_steps must be >= 0"):
        generate(params, [INP], {EOUTP}, -1, EvalConfig())
    with pytest.raises(ValueError, match="max_steps must be >= 0"):
        run_cot(params, ["a"], EvalConfig(), budget=-3)


def test_default_budget_stops_at_a_full_context():
    """fig2 on "abab" needs more than the 16 positions of r=4: the default
    budget ends the run when the context is full, not in an EvalError."""
    params, _ = compile_cot(fig2_machine(), 4)
    trace = run_cot(params, "abab", EvalConfig())
    assert trace.outcome == "budget_exceeded"
    assert trace.total_tokens == 2 ** 4


@pytest.mark.parametrize("runner", [run_cot, run_scot])
def test_a_budget_past_the_context_stops_at_a_full_context(runner):
    """A budget larger than the positions left is cut to them: the run
    is the one of the default budget, not an EvalError."""
    from tm2tf.compilers import compile_scot

    params, _ = (compile_cot if runner is run_cot else compile_scot)(fig2_machine(), 4)
    cfg = EvalConfig(capture_trace=True)
    trace = runner(params, "abab", cfg, budget=1000, record_steps=True)
    assert trace.outcome == "budget_exceeded"
    assert trace.total_tokens == 2 ** 4
    assert_same_run(trace, runner(params, "abab", cfg, record_steps=True))


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
# drafts: a draft of expected tokens saves work and never changes a run.
# `run_cot` and `run_scot` draft from the model's meta.machine; the tests
# propose drafts of their own through `generate`'s propose hook.


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


def _with_draft(monkeypatch, draft: list[list[str]]) -> None:
    """From here on, through `generate`'s propose hook, segment i of the
    next run proposes draft[i], prompt included, while the run is a prefix
    of it, and past it what the trace drafter proposes."""
    inner, segments = generation.generate, iter(draft)

    def drafted(params, prompt, stop_set, max_steps, cfg, propose=None):
        expected = next(segments, None)

        def proposing(tokens):
            n = len(tokens)
            if expected and n < len(expected) and expected[:n] == tokens:
                return expected[n:]
            return propose(tokens) if propose else []

        return inner(params, prompt, stop_set, max_steps, cfg, propose=proposing)

    monkeypatch.setattr(generation, "generate", drafted)


def _drafted(monkeypatch, runner, draft, *args, **kwargs):
    """runner(*args, **kwargs), its segments proposing draft (`_with_draft`)."""
    with monkeypatch.context() as m:
        _with_draft(m, draft)
        return runner(*args, **kwargs)


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
    from machines import (
        bouncer_machine,
        copy_machine,
        counter_machine,
        one_step_machine,
        tally_machine,
    )

    from tm2tf.compilers import compile_scot

    machines = dict(fig2=fig2_machine, copy=copy_machine, bouncer4=bouncer_machine)
    machines.update(bouncer8=lambda: bouncer_machine(8), tally=tally_machine)
    machines.update(counter=counter_machine, one_step2=lambda: one_step_machine(2))
    tm = machines[machine]()
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
def test_a_draft_does_not_change_a_hardmax_run(machine, protocol, r, word, monkeypatch):
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
        with_draft = _drafted(monkeypatch, runner, draft, params, word, cfg, record_steps=True)
        assert_same_run(with_draft, plain, name)
    # A draft longer than the budget still ends the run at the budget.
    budget = (len(expected[0]) - len(word) - 2) // 2
    short = runner(params, word, cfg, budget=budget, record_steps=True)
    assert short.outcome == "budget_exceeded"
    drafted = _drafted(
        monkeypatch, runner, expected, params, word, cfg, budget=budget, record_steps=True
    )
    assert_same_run(drafted, short)


def test_a_draft_past_the_context_ends_at_the_budget(monkeypatch):
    """fig2 on "abab" needs more than the 16 positions of r=4."""
    params, _ = compile_cot(fig2_machine(), 4)
    cfg = EvalConfig(capture_trace=True)
    plain = run_cot(params, "abab", cfg, record_steps=True)
    assert plain.outcome == "budget_exceeded"
    draft = [plain.segments[0] + ["a"] * 32]
    drafted = _drafted(monkeypatch, run_cot, draft, params, "abab", cfg, record_steps=True)
    assert_same_run(drafted, plain)


@pytest.mark.parametrize("mode", ["scaled_only", "denoised"])
def test_a_draft_does_not_change_a_softmax_run(mode, monkeypatch):
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
        drafted = _drafted(monkeypatch, run_cot, draft, params, "ab", cfg, record_steps=True)
        assert_same_run(drafted, plain, name)


def test_a_draft_does_not_change_saturations(monkeypatch):
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
    drafted = _drafted(monkeypatch, run_cot, wrong, params, "01", cfg, budget=6, record_steps=True)
    assert_same_run(drafted, plain)


def test_the_expected_draft_is_one_block_step_per_segment(monkeypatch):
    """Under hardmax the draft that the model's machine writes is the
    expected segment, and it is verified, not decoded: one step per
    segment, since none is longer than its prompt and 32 tokens."""
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
    trace = run_scot(params, "011", EvalConfig())
    assert trace.segments == expected
    assert steps == [(1, len(seg) - 1, params.dims.d) for seg in expected]


@pytest.mark.parametrize("case", ["denoised", "scaled_only", "bf16", "exact attention"])
def test_a_rounded_softmax_draft_is_one_block_step_only_where_every_sum_is_exact(
    case, monkeypatch
):
    """The denoised model's formats keep every sum exact, so the draft that
    its machine writes is verified in one step per segment, as under
    hardmax. Exact attention weights, bf16 formats and the scaled model's
    settings put sums on no grid of 53 bits: those step one position at a
    time."""
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
    trace = run_scot(params, "011", cfg)
    assert trace.segments == expected
    if case == "denoised":
        assert steps == [len(seg) - 1 for seg in expected]
    else:
        assert steps == [1] * sum(len(seg) - 1 for seg in expected)


def test_a_scaled_only_run_is_fed_no_proposal(monkeypatch):
    """A scaled_only evaluator steps one position at a time, so it gets no
    proposal, not even what its meta.machine writes, which is the oracle's
    run: after each prompt every `extend` feeds one greedy token, and the
    run equals the reference decoder's field for field. (The test above
    pins its one-position steps, which a fed proposal would also take.)"""
    from dataclasses import replace

    from machines import copy_machine

    from tm2tf.automata import scot_segments_oracle
    from tm2tf.compilers import compile_scot
    from tm2tf.netcore import Evaluator
    from tm2tf.softmaxify import convert

    r = 6
    params, cfg = convert(compile_scot(copy_machine(), r)[0], "scaled_only", 2 ** r)
    cfg = replace(cfg, capture_trace=True)
    expected = scot_segments_oracle(copy_machine(), "011", r)
    fed, extend = [], Evaluator.extend

    def counted(ev, tokens):
        fed.append(len(tokens))
        extend(ev, tokens)

    monkeypatch.setattr(Evaluator, "extend", counted)
    run = run_scot(params, "011", cfg, record_steps=True)
    assert run.segments == expected
    prompts = [seg.index(EINP if seg[0] == INP else ESUMM) + 1 for seg in expected]
    assert fed == [n for seg, p in zip(expected, prompts) for n in [p] + [1] * (len(seg) - p - 1)]
    monkeypatch.setattr(generation, "generate", _reference_generate)
    assert_same_run(run, run_scot(params, "011", cfg, record_steps=True))


def test_each_generate_call_builds_one_evaluator(monkeypatch):
    """Each segment's `generate` call builds one evaluator. A draft wrong
    in its middle is fed as one block, truncated before its first wrong
    token and extended from there; the expected draft is one block step.
    Past a draft each step feeds the greedy token and, under hardmax, what
    the trace drafter proposes after it. Without meta.machine that is
    nothing, so each step feeds one position. Seeded by meta.machine, it
    proposes from the prompt on, so a segment without a draft is one step.
    A segment's first step feeds its prompt and the draft that the test
    proposes (`_with_draft`)."""
    from dataclasses import replace

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
    seeded, _ = compile_scot(copy_machine(), 6)
    params = replace(seeded, meta={"r": 6})
    expected = scot_segments_oracle(copy_machine(), "011", 6)
    assert [len(seg) for seg in expected] == [27, 13]
    first = expected[0]
    mid = (first.index(EINP) + 1 + len(first)) // 2
    wrong = next(t for t in params.vocab if t not in (first[mid], EOUTP, ESUMM))
    diverging = [first[:mid] + [wrong] + first[mid + 1 :], *expected[1:]]
    drafts = {
        "expected": (params, expected, [[[26]], [[12]]]),
        "diverges mid-segment": (params, diverging, [[[26] + [1] * 10], [[12]]]),
        "none": (params, None, [[[5] + [1] * 21], [[7] + [1] * 5]]),
        "seeded, diverges mid-segment": (seeded, diverging, [[[26, 10]], [[12]]]),
        "seeded, none": (seeded, None, [[[26]], [[12]]]),
    }
    for name, (model, draft, pinned) in drafts.items():
        steps.clear()
        calls.clear()
        run = _drafted(monkeypatch, run_scot, draft or [], model, "011", EvalConfig())
        assert run.segments == expected, name
        assert calls == pinned, name


def _bouncer8_steps(seeded: bool, monkeypatch) -> tuple[int, int]:
    """The steps and positions fed of bouncer8 CoT r=10 on "xyxy", on the
    compiled model with meta.machine if seeded, without it otherwise."""
    from machines import bouncer_machine

    from tm2tf.netcore import Evaluator

    steps = []
    step = Evaluator._step

    def counted(ev, x, start):
        steps.append(x.shape[1])
        step(ev, x, start)

    monkeypatch.setattr(Evaluator, "_step", counted)
    params, _ = compile_cot(bouncer_machine(8), 10)
    if not seeded:
        del params.meta["machine"]
    trace = run_cot(params, "xyxy", EvalConfig())
    assert trace.outcome == "output" and trace.total_tokens == 176
    return len(steps), sum(steps)


def test_a_self_drafted_decode_takes_fewer_steps(monkeypatch):
    """bouncer8 CoT r=10 on "xyxy", 176 tokens, on a model without
    meta.machine: nothing is proposed, so it takes 170 steps of one
    position each after the prompt's, where the seeded decode below
    takes 6."""
    assert _bouncer8_steps(False, monkeypatch) == (170, 175)


def test_a_machine_seeded_decode_drafts_from_the_prompt(monkeypatch):
    """Seeded by meta.machine, the same decode takes 6 steps: the prompt
    and 32 tokens, then a greedy token and 32 more each, and they feed the
    175 positions before </outp>."""
    assert _bouncer8_steps(True, monkeypatch) == (6, 175)


def test_a_run_loads_the_machine_once(monkeypatch):
    """A copy SCoT r=6 run of two segments loads meta.machine once, and
    a model without one loads nothing."""
    from dataclasses import replace

    from machines import copy_machine

    from tm2tf.automata import scot_segments_oracle
    from tm2tf.compilers import compile_scot

    loads, load_tm = [], generation.load_tm
    monkeypatch.setattr(generation, "load_tm", lambda doc: loads.append(doc) or load_tm(doc))
    params, _ = compile_scot(copy_machine(), 6)
    expected = scot_segments_oracle(copy_machine(), "011", 6)
    assert len(expected) == 2
    for model, n_loads in ((params, 1), (replace(params, meta={"r": 6}), 0)):
        loads.clear()
        assert run_scot(model, "011", EvalConfig()).segments == expected
        assert len(loads) == n_loads, n_loads


def _reference_generate(params, prompt, stop_set, max_steps, cfg, propose=None):
    """Plain greedy decoding, the reference for `generate`: a fresh
    evaluator fed one position per step, with no proposal."""
    from tm2tf.netcore import Evaluator

    ev = Evaluator(params, cfg)
    for tok in prompt:
        ev.extend([tok])
    tokens = list(prompt)
    for _ in range(max_steps):
        tok = ev.next_token(len(tokens) - 1)
        tokens.append(tok)
        if tok in stop_set:
            return tokens, False, ev
        ev.extend([tok])
    return tokens, True, ev


def test_a_self_draft_stops_at_the_end_of_the_context():
    """A model of 8 binary positions that emits "a" until its last
    position, where it emits </outp>. Under a budget past the context, a
    proposer of a long run of "a" is cut at the last position, and the
    decode is the reference decoder's."""
    d = 5  # two constant 1s, then the three position bits
    emb = np.zeros((3, d), np.int8)
    emb[:, :2] = 1
    unemb = np.zeros((3, d), np.int8)
    unemb[1, :2] = 1  # "a" scores 2
    unemb[2, 2:] = 1  # </outp> scores the sum of the +-1 position bits: 3 at position 7
    zero = np.zeros((1, d), np.int8)
    layer = LayerParams([HeadParams(zero, zero, zero, zero.T)], zero, np.zeros(1, np.int32), zero.T)
    params = TransformerParams(
        dims=Dims(d=d, d_k=1, d_v=1, d_ff=1, n_heads=1, n_layers=1),
        vocab=[INP, "a", EOUTP],
        emb=emb,
        unemb=unemb,
        positional=BinaryAbsolute(3, (2, 3, 4)),
        layers=[layer],
    )
    cfg = EvalConfig(capture_trace=True)
    got = generate(params, [INP], {EOUTP}, 20, cfg, propose=lambda tokens: ["a"] * 20)
    want = _reference_generate(params, [INP], {EOUTP}, 20, cfg)
    assert got[:2] == want[:2] == ([INP, *"a" * 7, EOUTP], False)
    assert got[2].tokens == want[2].tokens
    assert_same_run(*(GenerationTrace(eval_traces=[ev.trace]) for ev in (got[2], want[2])))


REFERENCE_CASES = [
    *(pytest.param(*case, None, id="-".join(map(str, case))) for case in DRAFT_CASES),
    pytest.param("tally", "cot", 8, "abba", None, id="tally-cot-8-abba"),
    pytest.param("bouncer8", "cot", 10, "xyxy", None, id="bouncer8-cot-10-xyxy"),
    # ends when the 16 positions are full
    pytest.param("fig2", "cot", 4, "abab", None, id="fig2-cot-4-abab"),
    # denoised at the theorem's c, and at c = 4, where the run ties and
    # fills its 64 positions without </outp>
    pytest.param("fig2", "cot", 6, "abab", 8.0, id="fig2-cot-6-abab-denoised-c8"),
    pytest.param("fig2", "cot", 6, "abab", 4.0, id="fig2-cot-6-abab-denoised-c4"),
    # its summary prompts get the proposals that save the most steps
    pytest.param("counter", "scot", 8, "h000000", None, id="counter-scot-8-h000000"),
]


@pytest.mark.parametrize("machine, protocol, r, word, c", REFERENCE_CASES)
def test_a_decode_equals_one_position_per_step(machine, protocol, r, word, c, monkeypatch):
    """`run_cot` and `run_scot` self-draft where block steps are exact:
    under hardmax and on denoised models. Their runs equal those of the
    reference decoder field for field, eval traces byte for byte, with the
    default budget and with one that ends the run early."""
    from dataclasses import replace

    from tm2tf.softmaxify import convert

    params, _ = _compiled(machine, protocol, r)[1]
    runner = run_cot if protocol == "cot" else run_scot
    cfg = EvalConfig(capture_trace=True)
    if c is not None:
        params, cfg = convert(params, "denoised", 2 ** r, c=c)
        cfg = replace(cfg, capture_trace=True)
    runs = {}
    for decoder in (generation.generate, _reference_generate):
        monkeypatch.setattr(generation, "generate", decoder)
        plain = runner(params, word, cfg, record_steps=True)
        short = runner(params, word, cfg, budget=len(plain.segments[0]) // 3, record_steps=True)
        runs[decoder] = plain, short
    (plain, short), (reference, reference_short) = runs.values()
    assert reference.outcome == ("budget_exceeded" if r == 4 or c == 4 else "output")
    assert reference_short.outcome == "budget_exceeded"
    assert_same_run(plain, reference)
    assert_same_run(short, reference_short)


def _counting_steps(monkeypatch) -> list[int]:
    """The positions of each evaluator step from now on."""
    from tm2tf.netcore import Evaluator

    steps, step = [], Evaluator._step

    def counted(ev, x, start):
        steps.append(x.shape[1])
        step(ev, x, start)

    monkeypatch.setattr(Evaluator, "_step", counted)
    return steps


def test_a_wrong_or_missing_machine_changes_no_token(tmp_path, monkeypatch):
    """fig2 CoT r=6 whose meta.machine sends (go, a) to another run token of
    the vocabulary still loads. Decoded with that machine, with the right
    one and with none, each word gives the reference decoder's run, field
    for field and eval traces byte for byte. The wrong entry is proposed
    and costs steps: each word with an "a" takes more than with the right
    machine."""
    from dataclasses import replace

    from tm2tf.netcore import load_model, save_model

    right, _ = compile_cot(fig2_machine(), 6)
    machine = right.meta["machine"]
    assert machine["delta"]["go|a"] == "after_a|a|R"
    wrong = {**machine, "delta": {**machine["delta"], "go|a": "go|b|R"}}
    assert "run:go|b|R" in right.vocab
    path = tmp_path / "wrong.json"
    save_model(replace(right, meta={**right.meta, "machine": wrong}), str(path))
    models = {
        "right": right,
        "wrong": load_model(str(path)),
        "none": replace(right, meta={"r": 6}),
    }
    cfg = EvalConfig(capture_trace=True)
    steps = _counting_steps(monkeypatch)
    for word in ["", "a", "ab", "ba", "abab", "cab", "bca"]:
        counts = {}
        for name, params in models.items():
            steps.clear()
            run = run_cot(params, word, cfg, record_steps=True)
            counts[name] = len(steps)
            monkeypatch.setattr(generation, "generate", _reference_generate)
            assert_same_run(run, run_cot(params, word, cfg, record_steps=True), (word, name))
            monkeypatch.setattr(generation, "generate", generate)
        assert (counts["wrong"] > counts["right"]) == ("a" in word), (word, counts)


@pytest.mark.parametrize(
    "machine, entry, image, symbol",
    [("copy", "copy|0,_", "copy|1,1|R,R", "0"), ("bouncer4", "r0|x", "r1|y|R", "x")],
    ids=["copy", "bouncer4"],
)
def test_a_wrong_machine_changes_no_token_across_summaries(
    machine, entry, image, symbol, monkeypatch
):
    """SCoT r=6 models whose meta.machine sends one δ entry, read where the
    word holds the symbol, to another run token of the vocabulary. Where
    the first segment reads it, that machine writes another first summary
    than the model, and a wrong run token before it: the drafter leaves
    the run there, and the next segment drafts from the summary that the
    model wrote. Each word of up to 3 symbols gives the reference
    decoder's run, field for field and eval traces byte for byte, with the
    wrong machine and with the right one. The wrong entry is proposed and
    costs steps: each word with the symbol takes more than with the right
    machine, and some such word's runs have a wrong first summary."""
    from dataclasses import replace

    from tm2tf.automata import continuation, load_tm

    tm, (right, _) = _compiled(machine, "scot", 6)
    delta = right.meta["machine"]["delta"]
    assert delta[entry] != image and image in delta.values()
    wrong = {**right.meta["machine"], "delta": {**delta, entry: image}}
    models = {"right": right, "wrong": replace(right, meta={**right.meta, "machine": wrong})}
    wrong_tm, cfg = load_tm(wrong), EvalConfig(capture_trace=True)
    steps = _counting_steps(monkeypatch)
    wrong_summaries = 0
    for word in _words(tm):
        counts = {}
        for name, params in models.items():
            steps.clear()
            run = run_scot(params, word, cfg, record_steps=True)
            counts[name] = len(steps)
            monkeypatch.setattr(generation, "generate", _reference_generate)
            assert_same_run(run, run_scot(params, word, cfg, record_steps=True), (word, name))
            monkeypatch.setattr(generation, "generate", generate)
        assert run.outcome == "output", word
        assert (counts["wrong"] > counts["right"]) == (symbol in word), (word, counts)
        if len(run.segments) > 1:
            first, n_prompt = run.segments[0], len(word) + 2
            cap = 3 * (n_prompt - 1)
            written = list(continuation(wrong_tm, wrong_tm.start(word), len(word), 6, cap))
            summary = first[first.index(SUMM, n_prompt) :]
            wrong_summaries += SUMM in written and written[written.index(SUMM) :] != summary
    assert wrong_summaries


def test_a_denoised_conversion_keeps_the_machine_and_drafts_from_it(tmp_path, monkeypatch):
    """convert keeps meta.machine, also through a model file, and the
    denoised fig2 CoT r=6 model, whose block steps are exact, takes the
    steps of the hardmax model it came from: one per word here."""
    from tm2tf.automata import cot_token_oracle
    from tm2tf.netcore import load_model, save_model
    from tm2tf.softmaxify import convert

    hard, _ = compile_cot(fig2_machine(), 6)
    denoised, cfg = convert(hard, "denoised", 2**6)
    path = tmp_path / "denoised.json"
    save_model(denoised, str(path))
    loaded = load_model(str(path))
    assert denoised.meta["machine"] == loaded.meta["machine"] == hard.meta["machine"]
    steps = _counting_steps(monkeypatch)
    for word in ["ab", "abab", "cab"]:
        expected, counts = [cot_token_oracle(fig2_machine(), word, 6)], []
        for params, run_cfg in ((hard, EvalConfig()), (loaded, cfg)):
            steps.clear()
            assert run_cot(params, word, run_cfg).segments == expected, word
            counts.append(len(steps))
        assert counts == [1, 1], word


# ---------------------------------------------------------------------------
# the trace drafter: malformed tokens, and its proposals on the oracle's runs


def chain_model(chain: list[str], r: int = 8) -> TransformerParams:
    """A successor model with 2^r binary positions that emits chain[i + 1]
    after chain[i]; its vocabulary is VOCAB and the chain's tokens."""
    vocab = VOCAB + [t for t in dict.fromkeys(chain) if t not in VOCAB]
    return successor_model(vocab, dict(zip(chain, chain[1:])), r)


# Six steps right, each in a state of its own and writing a symbol of its
# own, fill SCoT's trace cap of 3 * (len(<inp> a </inp>) - 1); the summary
# then holds six written cells and the head's cell, never written.
_SIX_STEPS = [f"run:q{i}|{s}|R" for i, s in enumerate("bcdefg", 1)]
_WRITTEN = [f"tape:{s}" for s in "bcdefg"]

# name: protocol, the tokens emitted after <inp> a </inp>, and for a
# summary, the reason that `parse_summary` refuses it
MALFORMED = {
    "run token without writes and moves": ("cot", ["run:q"], None),
    "move letter outside L/S/R": ("cot", ["run:q|a|X"], None),
    "write count unlike the tape count": ("cot", ["run:q|a|R", "run:p|a,a|RR"], None),
    "summary without a hat": (
        "scot",
        [*_SIX_STEPS, SUMM, *_WRITTEN, "tape:_", "state:q6", ESUMM],
        "summary tape without exactly one hat",
    ),
    "summary with two hats": (
        "scot",
        [*_SIX_STEPS, SUMM, "tape:^b", *_WRITTEN[1:], "tape:^_", "state:q6", ESUMM],
        "summary tape without exactly one hat",
    ),
    "summary of unequal widths": (
        "scot",
        [*_SIX_STEPS, SUMM, *_WRITTEN, "tape:^_,_", "state:q6", ESUMM],
        "summary tape tokens differ in width",
    ),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_tokens_decode_like_one_position_per_step(name, monkeypatch):
    """Models without meta.machine that emit malformed run tokens and
    summaries: the trace drafter raises nothing, and the run equals the
    reference decoder's. A malformed summary is not promoted:
    the run ends undefined with `parse_summary`'s reason."""
    protocol, emitted, reason = MALFORMED[name]
    params = chain_model([EINP, *emitted, OUTP, EOUTP])
    runner = run_cot if protocol == "cot" else run_scot
    cfg = EvalConfig(capture_trace=True)
    runs = []
    for decoder in (generation.generate, _reference_generate):
        monkeypatch.setattr(generation, "generate", decoder)
        runs.append(runner(params, "a", cfg, record_steps=True))
    assert_same_run(*runs)
    if protocol == "cot":
        assert runs[0].segments == [[INP, "a", EINP, *emitted, OUTP, EOUTP]]
        assert runs[0].outcome == "output"
    else:
        assert runs[0].segments == [[INP, "a", EINP, *emitted]]
        assert (runs[0].outcome, runs[0].reason) == ("undefined", reason)


def _replay_oracle(params, segments: list[list[str]], stop_set: set[str]):
    """Decode the oracle's segments as `generate` does, with a model that
    emits them: the steps, the positions they feed, and per proposal that
    misses, the token before it, the token at its place and what it
    proposed."""
    drafter = generation._TraceDrafter(params, summaries=ESUMM in stop_set)
    steps = fed = 0
    misses = []
    end = 2 ** params.positional.r  # the default budget fills the context
    for seg in segments:
        n_prompt = seg.index(EINP if seg[0] == INP else ESUMM) + 1
        body = seg[1 : n_prompt - 1]  # the word, or the summary's body
        config = drafter.tm.start(body) if seg[0] == INP else parse_summary(body)
        propose = drafter.segment(seg[:n_prompt], config)
        pending = generation._proposal(params, propose, seg[:n_prompt], stop_set, end)
        steps, fed = steps + 1, fed + n_prompt + len(pending)
        for n in range(n_prompt, len(seg)):
            if pending:
                if pending[0] == seg[n]:
                    pending.pop(0)
                    continue
                misses.append((seg[n - 1], seg[n], pending))
                pending = []
            if seg[n] in stop_set:
                break
            pending = generation._proposal(params, propose, seg[: n + 1], stop_set, end)
            steps, fed = steps + 1, fed + 1 + len(pending)
    return steps, fed, misses


def _words(tm, max_len: int = 3) -> list[str]:
    alphabet = tm.input_alphabet
    return ["".join(w) for n in range(max_len + 1) for w in itertools.product(alphabet, repeat=n)]


def _oracle_replays(machine: str, protocol: str, r: int, words):
    """`_replay_oracle` of each word's oracle run, on the compiled model
    with its meta.machine, summed: the words decoded, steps, positions
    fed, and the misses. Words whose oracle
    raises (a run that does not fit the r, halt or leave an output) are
    skipped."""
    from tm2tf.automata import (
        InvalidOutputError,
        NonHaltingError,
        TokenBudgetError,
        cot_token_oracle,
        scot_segments_oracle,
    )

    tm, (params, _) = _compiled(machine, protocol, r)
    stop_set = {EOUTP} if protocol == "cot" else {EOUTP, ESUMM}
    decoded = steps = fed = 0
    misses = []
    for word in words or _words(tm):
        try:
            if protocol == "cot":
                segments = [cot_token_oracle(tm, word, r)]
            else:
                segments = scot_segments_oracle(tm, word, r)
        except (TokenBudgetError, NonHaltingError, InvalidOutputError):
            continue
        s, f, m = _replay_oracle(params, segments, stop_set)
        decoded, steps, fed = decoded + 1, steps + s, fed + f
        misses += [(word, *miss) for miss in m]
    return (decoded, steps, fed), misses


# machine, protocol, r, words (None: all of up to 3 symbols), and the
# pinned words decoded, steps, positions fed and misses, on the compiled
# models, with meta.machine: the drafter writes the run from the prompt
# on, so no proposed token misses.
SEEDED_CASES = [
    ("fig2", "cot", 6, None, (40, 40, 495, 0)),
    ("fig2", "scot", 6, None, (40, 40, 495, 0)),
    ("copy", "cot", 6, None, (15, 15, 275, 0)),
    ("copy", "scot", 6, None, (15, 23, 379, 0)),
    ("bouncer4", "cot", 8, None, (15, 35, 845, 0)),
    ("bouncer4", "scot", 6, None, (15, 56, 1296, 0)),
    ("bouncer8", "cot", 10, ["xyxy"], (1, 6, 175, 0)),
    ("tally", "cot", 8, None, (15, 15, 429, 0)),
    ("tally", "scot", 6, None, (15, 30, 642, 0)),
    ("one_step2", "scot", 6, None, (4, 4, 28, 0)),
    ("counter", "scot", 8, ["h000000"], (1, 31, 877, 0)),
]


@pytest.mark.parametrize(
    "machine, protocol, r, words, pinned",
    [pytest.param(*case, id="-".join(map(str, case[:3]))) for case in SEEDED_CASES],
)
def test_a_machine_seeded_drafter_proposes_every_oracle_token(
    machine, protocol, r, words, pinned
):
    """Over the oracle runs of the test machines, at the r the tests use,
    on the compiled models, which carry meta.machine: every proposed token
    is the oracle's, also the output block after the halting run token,
    and every step but a segment's first feeds a greedy token and a full
    proposal."""
    counts, misses = _oracle_replays(machine, protocol, r, words)
    assert misses == []
    assert (*counts, len(misses)) == pinned


# ---------------------------------------------------------------------------
# one evaluator plan per run


def test_a_scot_run_builds_one_plan_that_dies_with_the_call(monkeypatch):
    """The counter on h00000000 at r = 8 runs 61 segments, each on an
    evaluator of its own, and all of them multiply the one plan that the
    run builds. Nothing keeps that plan once run_scot returns."""
    import gc
    import weakref

    from machines import counter_machine

    from tm2tf.compilers import compile_scot
    from tm2tf.netcore import EvalPlan, Evaluator

    params, _ = compile_scot(counter_machine(), 8)
    plans, used = [], []
    plan_init, ev_init = EvalPlan.__init__, Evaluator.__init__

    def counted_plan(plan, *args, **kwargs):
        plan_init(plan, *args, **kwargs)
        plans.append(weakref.ref(plan))

    def counted_evaluator(ev, *args, **kwargs):
        ev_init(ev, *args, **kwargs)
        used.append(id(ev.plan))

    monkeypatch.setattr(EvalPlan, "__init__", counted_plan)
    monkeypatch.setattr(Evaluator, "__init__", counted_evaluator)
    enabled = gc.isenabled()
    gc.disable()
    try:
        trace = run_scot(params, "h" + "0" * 8, EvalConfig())
        assert trace.outcome == "output" and len(trace.segments) == 61
        assert len(plans) == 1 and plans[0]() is None
    finally:
        if enabled:
            gc.enable()
    assert len(used) == 61 and len(set(used)) == 1


@pytest.mark.parametrize("mode", ["hardmax", "denoised"])
def test_a_run_on_one_plan_equals_a_plan_per_segment(mode, monkeypatch):
    """bouncer4 SCoT r=6 on "xyx", captured in full and with step records:
    the run whose segments share one plan and the run whose evaluators
    each build their own give byte-identical GenerationTraces."""
    import pickle
    from dataclasses import replace

    from machines import bouncer_machine

    from tm2tf.compilers import compile_scot
    from tm2tf.netcore import Evaluator
    from tm2tf.softmaxify import convert

    params, _ = compile_scot(bouncer_machine(4), 6)
    cfg = EvalConfig(capture_trace=True)
    if mode == "denoised":
        params, cfg = convert(params, "denoised", 2 ** 6)
        cfg = replace(cfg, capture_trace=True)
    shared = run_scot(params, "xyx", cfg, record_steps=True)
    init = Evaluator.__init__

    def own_plan(ev, params, cfg, batch=None, plan=None):
        init(ev, params, cfg, batch)

    monkeypatch.setattr(Evaluator, "__init__", own_plan)
    own = run_scot(params, "xyx", cfg, record_steps=True)
    assert shared.outcome == "output" and len(shared.segments) > 1
    assert_same_run(shared, own)
    assert pickle.dumps(shared) == pickle.dumps(own)
