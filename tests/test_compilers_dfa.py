import itertools

import numpy as np
import pytest

from machines import contains_ab_dfa, mod3_dfa, parity_dfa

from tm2tf.automata import BOS, FALSE, TRUE, Dfa, dfa_accepts
from tm2tf.compilers import compile_dfa, dfa_dims
from tm2tf.harness import validate_dfa
from tm2tf.netcore import EvalConfig, Evaluator, forward


def _classify(params, word, cfg: EvalConfig) -> str:
    """The token a DFA model emits after <bos> and word."""
    ev = Evaluator(params, cfg)
    ev.extend([BOS, *word])
    return ev.next_token()


def test_dims_example():
    # |Q|=2 (d_Q=1), |Sigma|=2 (d_Sigma=1), r=3.
    dims = dfa_dims(parity_dfa(), 3)
    assert dims.n_layers == 5
    assert dims.d_k == 3
    assert dims.d_v == 2
    assert dims.d == 12
    assert dims.d_ff == 34
    assert dims.n_heads == 1


def test_report_matches_formulas():
    params, report = compile_dfa(parity_dfa(), 3)
    assert report.dims == dfa_dims(parity_dfa(), 3)
    assert params.dims == report.dims
    assert max(report.neurons_used) <= report.dims.d_ff
    assert max(report.heads_used) <= 1


@pytest.mark.parametrize("make", [parity_dfa, contains_ab_dfa, mod3_dfa])
def test_exhaustive_words_up_to_7(make):
    dfa = make()
    params, _ = compile_dfa(dfa, 3)
    cfg = EvalConfig()
    for n in range(8):
        for word in itertools.product(dfa.alphabet, repeat=n):
            got = _classify(params, word, cfg)
            want = TRUE if dfa_accepts(dfa, list(word)) else FALSE
            assert got == want, word


def test_empty_word():
    params, _ = compile_dfa(parity_dfa(), 2)
    assert _classify(params, [], EvalConfig()) == TRUE  # q_init accepting
    rej = Dfa(
        ("q0", "q1"),
        ("0",),
        {("q0", "0"): "q1", ("q1", "0"): "q0"},
        "q0",
        frozenset({"q1"}),
    )
    params, _ = compile_dfa(rej, 2)
    assert _classify(params, [], EvalConfig()) == FALSE


def test_single_symbol_alphabet():
    dfa = Dfa(
        ("q0", "q1"),
        ("0",),
        {("q0", "0"): "q1", ("q1", "0"): "q0"},
        "q0",
        frozenset({"q0"}),
    )
    params, _ = compile_dfa(dfa, 3)
    for n in range(8):
        got = _classify(params, ["0"] * n, EvalConfig())
        assert got == (TRUE if n % 2 == 0 else FALSE)


def test_ternary_activations_and_output_gap():
    dfa = contains_ab_dfa()
    params, _ = compile_dfa(dfa, 3)
    cfg = EvalConfig(capture_trace=True)
    reps, trace = forward(params, [BOS, "a", "b", "a"], cfg)
    for name, arr in trace.representation_arrays():
        assert np.all(np.isin(arr, (-1.0, 0.0, 1.0))), name
    scores = params.unemb.astype(float) @ reps[-1]
    top = np.sort(scores)[::-1]
    assert top[0] - top[1] >= 1.0


@pytest.mark.parametrize("r", [0, -1])
def test_compile_dfa_refuses_r_below_1(r):
    with pytest.raises(ValueError, match="r must be >= 1"):
        compile_dfa(parity_dfa(), r)


def _cycle_dfa(n_states: int, alphabet: tuple[str, ...]) -> Dfa:
    """States q0 .. q(n-1); symbol i advances the state by i, and q0 accepts."""
    states = tuple(f"q{i}" for i in range(n_states))
    delta = {
        (q, a): states[(i + j) % n_states]
        for i, q in enumerate(states)
        for j, a in enumerate(alphabet)
    }
    return Dfa(states, alphabet, delta, "q0", frozenset({"q0"}))


@pytest.mark.parametrize(
    "n_states, n_symbols, r",
    [(1, 2, 1), (1, 4, 1), (1, 4, 2), (2, 20, 1)],
)
def test_d_ff_holds_layer_1_for_large_alphabets(n_states, n_symbols, r):
    """Layer 1 builds |Sigma| + 1 init-enc rows and 4r posex-init rows;
    with few states and many symbols they outnumber the other layers'."""
    dfa = _cycle_dfa(n_states, tuple(f"s{j}" for j in range(n_symbols)))
    assert dfa_dims(dfa, r).d_ff >= n_symbols + 1 + 4 * r
    result = validate_dfa([dfa], r, 2 ** r - 1)
    assert result.checked == result.attempted > 0
    assert not result.mismatches and not any(result.violations.values())
