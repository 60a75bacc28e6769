import numpy as np
import pytest

from machines import fig2_machine

from tm2tf.automata import EINP, EOUTP, INP, OUTP, SUMM, ESUMM
from tm2tf.compilers import compile_cot
from tm2tf.generation import generate, run_cot, run_scot
from tm2tf.netcore import (
    Dims,
    EvalConfig,
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
