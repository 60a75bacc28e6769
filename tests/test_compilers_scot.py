import numpy as np
import pytest

from machines import (
    bouncer_machine,
    copy_machine,
    counter_machine,
    fig2_machine,
    one_step_machine,
    tally_machine,
)

from tm2tf.automata import cot_token_oracle, scot_segments_oracle, tm_run
from tm2tf.compilers import choose_r_cot, choose_r_scot, compile_cot, compile_scot, scot_dims
from tm2tf.generation import run_cot, run_scot
from tm2tf.harness import trace_invariant_violations
from tm2tf.netcore import EvalConfig


def test_scot_dims_example():
    # K=2, |Q|=2, |Gamma|=2 per the spec example: only L, H, d_k are pinned.
    tm = one_step_machine(tapes=2)
    assert len(tm.states) == 2 and len(tm.tape_alphabet) == 2
    dims = scot_dims(tm, 6)
    assert dims.n_layers == 23
    assert dims.n_heads == 8
    assert dims.d_k == 23


def test_scot_rejects_small_or_odd_r():
    with pytest.raises(ValueError):
        compile_scot(fig2_machine(), 2)
    with pytest.raises(ValueError):
        compile_scot(fig2_machine(), 5)


def test_fig2_single_segment():
    tm = fig2_machine()
    r = 6
    params, report = compile_scot(tm, r)
    assert params.dims == scot_dims(tm, r)
    assert max(report.neurons_used) <= report.dims.d_ff
    assert max(report.heads_used) <= report.dims.n_heads
    trace = run_scot(params, "aab", EvalConfig())
    segs = scot_segments_oracle(tm, "aab", r)
    assert len(segs) == 1
    assert trace.segments == segs
    assert trace.outcome == "output" and trace.output == ["a", "c", "b"]


def test_bouncer_multi_segment():
    tm = bouncer_machine(4)
    result = tm_run(tm, "xxxx", 500)
    assert result.halted
    r = choose_r_scot(result.space)
    params, _ = compile_scot(tm, r)
    cfg = EvalConfig(capture_trace=True)
    trace = run_scot(params, "xxxx", cfg)
    segs = scot_segments_oracle(tm, "xxxx", r)
    assert len(segs) > 1
    assert trace.segments == segs
    assert trace.outcome == "output" and trace.output == result.output
    # Ternary activations across every evaluated segment.
    for ev_trace in trace.eval_traces:
        for name, arr in ev_trace.representation_arrays():
            assert np.all(np.isin(arr, (-1.0, 0.0, 1.0))), name
    # Segment-length lemma bounds.
    s, t = result.space, result.steps
    assert trace.max_segment <= 8 * (s + 3)
    assert trace.total_tokens <= 8 * t + 2 * 4 + 4


@pytest.mark.parametrize("word", ["", "x", "xx", "xxxxx"])
def test_bouncer_various_inputs(word):
    tm = bouncer_machine(3)
    result = tm_run(tm, word, 500)
    assert result.halted
    r = choose_r_scot(max(result.space, 1))
    params, _ = compile_scot(tm, r)
    trace = run_scot(params, word, EvalConfig())
    assert trace.segments == scot_segments_oracle(tm, word, r)


def test_two_tape_scot():
    tm = copy_machine()
    result = tm_run(tm, "0110", 100)
    r = choose_r_scot(result.space)
    params, _ = compile_scot(tm, r)
    trace = run_scot(params, "0110", EvalConfig())
    assert trace.segments == scot_segments_oracle(tm, "0110", r)


@pytest.mark.parametrize("protocol", ["cot", "scot"])
def test_three_tape_machine_matches_the_oracle(protocol):
    """The 3-tape machine, compiled at the r that its runs on these words
    need, emits the oracle's tokens under hardmax and breaks no invariant.
    Each of its SCoT runs writes one summary."""
    tm = tally_machine()
    words = ["", "a", "b", "ab", "ba", "aab", "bba"]
    results = [tm_run(tm, word, 100) for word in words]
    cot = protocol == "cot"
    if cot:
        r = choose_r_cot(max(result.steps for result in results))
    else:
        r = choose_r_scot(max(result.space for result in results))
    params, _ = (compile_cot if cot else compile_scot)(tm, r)
    for word in words:
        expected = [cot_token_oracle(tm, word, r)] if cot else scot_segments_oracle(tm, word, r)
        assert len(expected) == (1 if cot else 2)
        trace = (run_cot if cot else run_scot)(params, word, EvalConfig(capture_trace="audit"))
        assert trace.segments == expected, word
        assert trace.outcome == "output" and trace.output == list(word)
        assert sum(trace_invariant_violations(trace.eval_traces).values()) == 0, word


def test_scot_run_outgrows_its_context():
    """Space, not time, sets the SCoT model: the counter takes 255 steps on
    8 cells of h000000, and the model at r = 8 decodes the run as 893 tokens
    in 16 segments, past its 2^8 = 256 positions, token for token with the
    oracle and with no invariant violated."""
    tm, word = counter_machine(), "h000000"
    result = tm_run(tm, word, 10_000)
    assert (result.steps, result.space) == (255, 8)
    r = choose_r_scot(result.space)
    assert r == 8
    params, _ = compile_scot(tm, r)
    expected = scot_segments_oracle(tm, word, r)
    trace = run_scot(params, word, EvalConfig(capture_trace="audit"))
    assert trace.segments == expected
    assert (trace.total_tokens, len(trace.segments)) == (893, 16)
    assert trace.total_tokens > 2 ** r >= trace.max_segment
    assert trace.outcome == "output" and trace.output == result.output
    assert sum(trace_invariant_violations(trace.eval_traces).values()) == 0


def test_an_audited_long_scot_run_holds_little_memory(traced_memory):
    """The counter on h00000000 at r = 8: 1,023 steps decoded as 3,805
    tokens in 61 segments. At the audit capture level the run and its
    audit count nothing and peak at about 15 MB of traced memory; captured
    in full, they peaked at 776 MB."""
    tm, word, r = counter_machine(), "h" + "0" * 8, 8
    params, _ = compile_scot(tm, r)
    expected = scot_segments_oracle(tm, word, r)

    def audited_run():
        trace = run_scot(params, word, EvalConfig(capture_trace="audit"))
        return trace, trace_invariant_violations(trace.eval_traces)

    (trace, counts), _, peak = traced_memory(audited_run)
    assert trace.segments == expected
    assert (trace.total_tokens, len(trace.segments)) == (3805, 61)
    assert counts == {"ternary": 0, "score_gap": 0, "tie_values": 0, "output_gap": 0}
    assert peak < 100e6, peak
