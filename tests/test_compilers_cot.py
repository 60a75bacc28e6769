import numpy as np
import pytest

from machines import bouncer_machine, copy_machine, fig2_machine, one_step_machine, parity_dfa

from tm2tf.automata import cot_token_oracle, cot_vocab, tm_run, token_class
from tm2tf.compilers import choose_r_cot, choose_r_scot, compile_cot, compile_dfa, cot_dims
from tm2tf.gadgets import ModelBuilder
from tm2tf.generation import run_cot
from tm2tf.harness import sample_tm
from tm2tf.netcore import EvalConfig, check_dims


def test_choose_r_cot_examples():
    assert choose_r_cot(7) == 6
    assert choose_r_cot(1) == 4
    for t in range(1, 60):
        assert choose_r_cot(t) % 2 == 0
        assert 4 + 6 * t <= 2 ** choose_r_cot(t)


def test_choose_r_scot_examples():
    assert choose_r_scot(5) == 6
    assert choose_r_scot(1) == 6
    for s in range(1, 60):
        r = choose_r_scot(s)
        assert r % 2 == 0 and r >= 4
        assert 8 * (s + 3) <= 2 ** r


def test_cot_rejects_small_or_odd_r():
    """A CoT run holds at least <inp>, </inp>, one run token, <outp> and
    </outp>: 5 tokens, more than r = 2 gives positions."""
    for r in (2, 5):
        with pytest.raises(ValueError):
            compile_cot(fig2_machine(), r)


def test_cot_dims_example():
    # K=1, |Q|=3 (d_Q=2), |Gamma|=3 (d_Gamma=2), r=6.
    tm = bouncer_machine(1)  # r0, l0, halt over {x, y, _}
    assert len(tm.states) == 3 and len(tm.tape_alphabet) == 3
    dims = cot_dims(tm, 6)
    assert dims.n_layers == 23
    assert dims.n_heads == 3
    assert dims.d_k == 23
    assert dims.d_v == 6
    assert dims.d == 117
    assert dims.d_ff == max(110, 96, 3 * 3 + 1)


def test_compile_rejects_odd_r():
    with pytest.raises(ValueError):
        compile_cot(fig2_machine(), 5)


def test_one_step_machine_cot():
    tm = one_step_machine()
    params, report = compile_cot(tm, 4)
    assert params.dims == cot_dims(tm, 4)
    trace = run_cot(params, [], EvalConfig())
    assert trace.outcome == "output"
    assert trace.output == []
    assert trace.segments[0] == cot_token_oracle(tm, [], 4)


def test_fig2_cot_matches_oracle():
    tm = fig2_machine()
    r = choose_r_cot(7)
    params, report = compile_cot(tm, r)
    assert max(report.neurons_used) <= report.dims.d_ff
    assert max(report.heads_used) <= report.dims.n_heads
    cfg = EvalConfig(capture_trace=True)
    trace = run_cot(params, "aab", cfg)
    want = cot_token_oracle(tm, "aab", r)
    assert trace.segments[0] == want
    assert trace.outcome == "output" and trace.output == ["a", "c", "b"]
    assert trace.tie_warnings == 0
    for name, arr in trace.eval_traces[0].representation_arrays():
        assert np.all(np.isin(arr, (-1.0, 0.0, 1.0))), name


@pytest.mark.parametrize("word", ["", "a", "b", "ab", "ba", "bab", "aab", "abab"])
def test_fig2_cot_various_inputs(word):
    tm = fig2_machine()
    result = tm_run(tm, word, 60)
    r = choose_r_cot(max(result.steps, len(word), 1))
    params, _ = compile_cot(tm, r)
    trace = run_cot(params, word, EvalConfig())
    assert trace.segments[0] == cot_token_oracle(tm, word, r)


def test_two_tape_machine_cot():
    tm = copy_machine()
    result = tm_run(tm, "0110", 60)
    assert result.halted and result.output is not None
    r = choose_r_cot(max(result.steps, 4))
    params, _ = compile_cot(tm, r)
    trace = run_cot(params, "0110", EvalConfig())
    assert trace.segments[0] == cot_token_oracle(tm, "0110", r)


def test_bouncer_long_run_with_blocks():
    tm = bouncer_machine(2)
    result = tm_run(tm, "xxx", 200)
    assert result.halted and result.steps > 8
    r = choose_r_cot(result.steps)
    params, _ = compile_cot(tm, r)
    trace = run_cot(params, "xxx", EvalConfig())
    want = cot_token_oracle(tm, "xxx", r)
    assert trace.segments[0] == want
    # the run is long enough to include at least one position block
    assert "<p>" in want


def test_cot_generation_length_bound():
    tm = fig2_machine()
    result = tm_run(tm, "bbaab", 100)
    r = choose_r_cot(result.steps)
    params, _ = compile_cot(tm, r)
    trace = run_cot(params, "bbaab", EvalConfig())
    assert trace.outcome == "output"
    assert trace.total_tokens <= 4 + 2 * 5 + 4 * result.steps


def test_structural_registers_decode_to_oracle_positions():
    """Mid-stack audit: the head-position register at </p> tokens and the
    binary-search result decode to the simulated values."""
    from tm2tf.automata import PCLOSE, parse_run_token, token_class
    from tm2tf.gadgets import decode_pm1
    from tm2tf.netcore import EvalConfig, forward

    tm = fig2_machine()
    word = "bbaab"
    r = 6
    result = tm_run(tm, word, 100)
    params, report = compile_cot(tm, r)
    tokens = cot_token_oracle(tm, word, r)
    reps, trace = forward(params, tokens[:-1], EvalConfig(capture_trace=True))

    l2 = 3 * r // 2 + 3  # searchpos settles after this (1-indexed) layer
    search = report.registers["searchpos0"]
    pos_max = report.registers["pos_max0"]
    exist = report.registers["exist0"][0]
    spos = report.registers["spos0"]

    # </p> tokens hold the head position of the preceding run token's time.
    run_count = 0
    writer_positions: dict[int, int] = {}  # cell -> latest writing position
    for m, tok in enumerate(tokens[:-1]):
        if token_class(tok) == "sym" and m <= len(word):
            writer_positions[m - 1] = m  # input token w_{m-1} sits at cell m-1
        if token_class(tok) == "run":
            run_count += 1
            head_after = result.config_trace[run_count].heads[0]
            cell_written = result.config_trace[run_count - 1].heads[0]
            writer_positions[cell_written] = m  # the search includes position m
            x_l2 = trace.layers[l2 - 1].x_out[m]
            assert decode_pm1(x_l2[search]) == head_after
            # Binary search: pos_max holds the latest writer of the queried cell.
            x_bs = trace.layers[l2 + r - 1].x_out[m]
            if x_bs[exist] == 1:
                expected = writer_positions[head_after]
                assert decode_pm1(x_bs[pos_max]) == expected
                # And that writer indeed claims the queried cell.
                assert decode_pm1(trace.layers[l2 + r - 1].x_out[expected][spos]) == head_after
        if tok == PCLOSE:
            x_l2 = trace.layers[l2 - 1].x_out[m]
            assert decode_pm1(x_l2[search]) == result.config_trace[run_count].heads[0]


@pytest.mark.parametrize(
    "choose, message", [(choose_r_cot, "t_hat must be >= 1"), (choose_r_scot, "s_hat must be >= 1")]
)
def test_choose_r_refuses_a_bound_below_1(choose, message):
    with pytest.raises(ValueError, match=message):
        choose(0)


@pytest.mark.parametrize(
    "compile_fn, machine", [(compile_dfa, parity_dfa()), (compile_cot, fig2_machine())]
)
def test_compilers_refuse_dims_over_the_size_bound_before_building(
    compile_fn, machine, monkeypatch
):
    """At r = 10^4 the dims imply far more than MAX_DIMS_ENTRIES weights:
    the compiler refuses before it adds a single op."""

    def built(*args, **kwargs):
        raise AssertionError("an op was built")

    monkeypatch.setattr(ModelBuilder, "add_neurons", built)
    monkeypatch.setattr(ModelBuilder, "add_head", built)
    with pytest.raises(ValueError, match="dims imply more than"):
        compile_fn(machine, 10 ** 4)


def test_a_three_tape_machine_of_32_states_and_6_symbols_fits_at_r_10():
    """Its vocabulary keeps the 6,571 run tokens of δ's image, so its dims
    pass `check_dims` at r = 10; with all |Q|·|Γ|^3·3^3 = 186,624 (state,
    symbols, moves) triples as run tokens they would not."""
    tm = sample_tm("s", 3, 32, 6)
    vocab = cot_vocab(tm)
    run_tokens = sum(token_class(tok) == "run" for tok in vocab)
    assert run_tokens == 6571
    check_dims(cot_dims(tm, 10), len(vocab))
    with pytest.raises(ValueError, match="dims imply more than"):
        check_dims(cot_dims(tm, 10), len(vocab) - run_tokens + 32 * 6 ** 3 * 3 ** 3)
