import inspect
import itertools
import json
import random
import re
from pathlib import Path

import pytest

import machines
from machines import bouncer_machine, copy_machine, fig2_machine, one_step_machine, parity_dfa

from tm2tf.automata import (
    EINP,
    EOUTP,
    ESUMM,
    INP,
    OUTP,
    PCLOSE,
    POPEN,
    SUMM,
    Configuration,
    Dfa,
    InvalidOutputError,
    MachineError,
    NonHaltingError,
    TokenBudgetError,
    TuringMachine,
    continuation,
    cot_token_oracle,
    cot_vocab,
    dfa_accepts,
    dfa_to_json,
    encode_summary,
    load_dfa,
    load_tm,
    parse_pos_token,
    parse_run_token,
    parse_state_token,
    parse_summary,
    pos_token,
    run_token,
    scot_segments_oracle,
    scot_vocab,
    state_token,
    tape_token,
    tm_run,
    tm_to_json,
    token_class,
)
from tm2tf.compilers import choose_r_cot, choose_r_scot


def runner_machine() -> TuringMachine:
    """Moves right forever."""
    blank = "_"
    delta = {
        ("s", ("x",)): ("s", ("x",), ("R",)),
        ("s", (blank,)): ("s", (blank,), ("R",)),
    }
    return TuringMachine(1, ("s", "halt"), ("x",), ("x", blank), blank, "s", "halt", delta)


# ---------------------------------------------------------------------------


def test_dfa_accepts_parity():
    dfa = parity_dfa()
    assert dfa_accepts(dfa, "")
    assert dfa_accepts(dfa, "101")  # two 1s, even
    assert dfa_accepts(dfa, "11")
    assert not dfa_accepts(dfa, "1")
    assert not dfa_accepts(dfa, "10")
    with pytest.raises(MachineError):
        dfa_accepts(dfa, "2")


def test_dfa_validation():
    with pytest.raises(MachineError):
        Dfa(("q",), ("a",), {}, "q", frozenset())  # missing delta entry
    with pytest.raises(MachineError):
        Dfa(("q",), ("a",), {("q", "a"): "nope"}, "q", frozenset())


def test_fig2_run():
    result = tm_run(fig2_machine(), "aab", step_cap=50)
    assert result.halted
    assert result.steps == 7
    assert result.output == ["a", "c", "b"]
    expected_runs = [
        run_token("after_a", ("a",), ("R",)),
        run_token("go", ("a",), ("S",)),
        run_token("after_a", ("a",), ("R",)),
        run_token("saw_ab", ("b",), ("L",)),
        run_token("go", ("c",), ("R",)),
        run_token("go", ("b",), ("R",)),
        run_token("halt", ("_",), ("S",)),
    ]
    assert result.run_tokens == expected_runs
    assert [c.heads for c in result.config_trace[1:]] == [[1], [1], [2], [1], [2], [3], [3]]
    assert result.space == 4


def test_run_one_step():
    result = tm_run(one_step_machine(), "", step_cap=5)
    assert result.halted and result.steps == 1 and result.output == []
    assert result.space == 1


def test_step_cap():
    result = tm_run(runner_machine(), "x", step_cap=10)
    assert not result.halted
    assert result.steps == 10


def test_left_saturation():
    blank = "_"
    delta = {
        ("s", ("x",)): ("s2", ("x",), ("L",)),
        ("s", (blank,)): ("halt", (blank,), ("S",)),
        ("s2", ("x",)): ("halt", ("x",), ("S",)),
        ("s2", (blank,)): ("halt", (blank,), ("S",)),
    }
    tm = TuringMachine(1, ("s", "s2", "halt"), ("x",), ("x", blank), blank, "s", "halt", delta)
    result = tm_run(tm, "x", step_cap=5)
    assert result.config_trace[1].heads == [0]  # L at cell 0 stays at 0


def test_cot_oracle_one_step():
    toks = cot_token_oracle(one_step_machine(), "", r=4)
    assert toks == [INP, EINP, run_token("halt", ("_",), ("S",)), OUTP, EOUTP]
    assert len(toks) == 5


def test_cot_oracle_fig2_structure():
    # r chosen so the 7-step run fits: one position block after the first 6 steps.
    toks = cot_token_oracle(fig2_machine(), "aab", r=6)
    runs = [t for t in toks if token_class(t) == "run"]
    assert runs == tm_run(fig2_machine(), "aab", 50).run_tokens
    expected = (
        [INP, "a", "a", "b", EINP]
        + runs[:6]
        + [POPEN] + [pos_token((b,)) for b in (1, 1, -1, -1, -1, -1)] + [PCLOSE]
        + [runs[6]]
        + [OUTP, "a", "c", "b", EOUTP]
    )
    assert toks == expected


def test_cot_oracle_budget():
    with pytest.raises(TokenBudgetError):
        cot_token_oracle(fig2_machine(), "aab", r=2, step_cap=50)  # 29 tokens > 2^2
    with pytest.raises(NonHaltingError):
        cot_token_oracle(fig2_machine(), "aab", r=2)  # default cap 2^r - 2 = 2


def test_cot_oracle_length_bound():
    tm = fig2_machine()
    for w in ["", "a", "ab", "aab", "bbaab"]:
        result = tm_run(tm, w, 100)
        toks = cot_token_oracle(tm, w, r=6)
        assert len(toks) <= 4 + 2 * len(w) + 4 * result.steps


def test_cot_oracle_errors():
    with pytest.raises(NonHaltingError):
        cot_token_oracle(runner_machine(), "x", r=4)
    # Machine that halts with a blank in the middle of tape 1.
    blank = "_"
    delta = {
        ("s", ("x",)): ("s2", ("x",), ("R",)),
        ("s", (blank,)): ("s2", (blank,), ("R",)),
        ("s2", ("x",)): ("halt", ("x",), ("S",)),
        ("s2", (blank,)): ("halt", ("x",), ("S",)),
    }
    tm = TuringMachine(1, ("s", "s2", "halt"), ("x",), ("x", blank), blank, "s", "halt", delta)
    with pytest.raises(InvalidOutputError):
        cot_token_oracle(tm, "", r=4)
    # One step writes sym over cell 0 of "aa": a symbol after a blank, or
    # one outside the input alphabet, on tape 1.
    for sym in (blank, "y"):
        delta = {("s", (a,)): ("halt", (sym,), ("S",)) for a in ("a", "y", blank)}
        tm = TuringMachine(1, ("s", "halt"), ("a",), ("a", "y", blank), blank, "s", "halt", delta)
        assert tm_run(tm, "aa", 5).output is None, sym
        with pytest.raises(InvalidOutputError):
            cot_token_oracle(tm, "aa", r=4)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: tm_run(fig2_machine(), "ax", 10), MachineError, "symbol 'x' not in input"),
        (lambda: tm_run(fig2_machine(), "ab", -1), ValueError, "step_cap must be >= 0"),
        # fig2 scans b's rightwards: the <p> block after step 4 holds head 4.
        (
            lambda: cot_token_oracle(fig2_machine(), "bbbbb", r=2, step_cap=50),
            TokenBudgetError,
            "head position 4 needs more than 2 bits",
        ),
        (
            lambda: scot_segments_oracle(fig2_machine(), "aaa", r=4),
            TokenBudgetError,
            "prompt end position 4 breaks the 4j length-cap detection for r=4",
        ),
    ],
    ids=["input symbol", "step cap", "head position", "prompt end"],
)
def test_the_oracle_refuses(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_pos_blocks_decode_to_head_positions():
    tm = fig2_machine()
    result = tm_run(tm, "bbaab", 100)
    r = 6
    toks = cot_token_oracle(tm, "bbaab", r=r)
    # Walk the trace; after each <p> block, decode and compare.
    run_count = 0
    i = toks.index(EINP) + 1
    while toks[i] != OUTP:
        if toks[i] == POPEN:
            bits = [parse_pos_token(b) for b in toks[i + 1 : i + 1 + r]]
            assert toks[i + 1 + r] == PCLOSE
            decoded = [
                sum(2 ** s for s, bit in enumerate(col) if bit > 0)
                for col in zip(*bits)
            ]
            assert decoded == result.config_trace[run_count].heads
            i += r + 2
        else:
            assert token_class(toks[i]) == "run"
            run_count += 1
            i += 1
    assert run_count == result.steps


def test_encode_summary_fig3():
    # The 2-tape configuration from the summary figure: 10 tokens total.
    config = Configuration(
        state="q",
        tapes=[["a", "b", "c", "a"], ["b", "c", "a", "b", "c", "a"]],
        heads=[3, 5],
    )
    toks = encode_summary(config, used_cells=7, blank="_")
    assert len(toks) == 10
    assert toks[0] == SUMM and toks[-1] == ESUMM
    assert toks[1] == tape_token(("a", "b"), (False, False))
    assert toks[4] == tape_token(("a", "b"), (True, False))
    assert toks[5] == tape_token(("_", "c"), (False, False))
    assert toks[6] == tape_token(("_", "a"), (False, True))
    assert toks[7] == tape_token(("_", "_"), (False, False))
    assert toks[8] == state_token("q")


def test_encode_summary_initial_config():
    config = Configuration("s", [["x", "x"], []], [0, 0])
    toks = encode_summary(config, used_cells=2, blank="_")
    assert toks == [
        SUMM,
        tape_token(("x", "_"), (True, True)),
        tape_token(("x", "_"), (False, False)),
        state_token("s"),
        ESUMM,
    ]
    with pytest.raises(ValueError):
        encode_summary(Configuration("s", [["x"]], [3]), used_cells=2, blank="_")


def test_scot_oracle_single_segment():
    segs = scot_segments_oracle(fig2_machine(), "aab", r=6)
    assert len(segs) == 1
    assert segs[0] == cot_token_oracle(fig2_machine(), "aab", r=6)


def test_scot_oracle_segments_properties():
    # Four bounces, producing several segments; the machine detects the
    # left end via the head saturation at cell 0.
    tm = bouncer_machine(4)

    result = tm_run(tm, "xxxx", 500)
    assert result.halted and result.output is not None
    r = 6
    segs = scot_segments_oracle(tm, "xxxx", r=r)
    assert len(segs) > 1

    # Segment boundary shapes.
    assert segs[0][0] == INP and segs[-1][-1] == EOUTP
    for seg in segs[1:]:
        assert seg[0] == SUMM
    for seg in segs[:-1]:
        assert seg[-1] == ESUMM

    # Concatenated run tokens across segments reproduce the full step sequence.
    runs = [t for seg in segs for t in seg if token_class(t) == "run"]
    assert runs == result.run_tokens

    # Non-final traces end at a run token and respect the length cap rule.
    for seg in segs[:-1]:
        prev_summary_len = seg.index(EINP if EINP in seg else ESUMM) + 1
        inner = seg[prev_summary_len:]
        trace = inner[: inner.index(SUMM)]
        assert token_class(trace[-1]) == "run"
        assert len(trace) >= 3 * (prev_summary_len - 1)

    # Length bounds from the segment-length lemma.
    s, t = result.space, result.steps
    assert all(len(seg) <= 8 * (s + 3) for seg in segs)
    assert sum(len(seg) for seg in segs) <= 8 * t + 2 * 4 + 4


def test_scot_summaries_match_encode_summary():
    tm = fig2_machine()
    result = tm_run(tm, "bbbbaab", 200)
    segs = scot_segments_oracle(tm, "bbbbaab", r=6)
    # Count run tokens to find each summary's time index; re-encode directly.
    t = 0
    space = 7
    for seg in segs[:-1]:
        for tok in seg:
            if token_class(tok) == "run":
                t += 1
        end = len(seg) - 1 - seg[::-1].index(SUMM)
        summary = seg[end:]
        space = max(space, 1 + max(result.config_trace[t].heads))
        assert summary == encode_summary(result.config_trace[t], space, tm.blank)


def test_vocab_classes_disjoint():
    tm = fig2_machine()
    vocab = scot_vocab(tm)
    assert len(vocab) == len(set(vocab))
    counts = {}
    for tok in vocab:
        counts[token_class(tok)] = counts.get(token_class(tok), 0) + 1
    assert counts["delim"] == 8
    assert counts["sym"] == 3
    assert counts["run"] == 8  # δ's image
    assert counts["pos"] == 2
    assert counts["tape"] == 8
    assert counts["state"] == 3  # no halting state
    assert set(cot_vocab(tm)) < set(vocab)


def _every_machine() -> dict[str, TuringMachine]:
    """Each Turing machine that a builder of tests/machines.py makes at its
    defaults, and each machine file of the benchmark."""
    found = {
        name: build()
        for name, build in inspect.getmembers(machines, inspect.isfunction)
        if build.__module__ == machines.__name__
    }
    bench = Path(__file__).resolve().parents[1] / "bench" / "machines"
    for path in sorted(bench.glob("*.json")):
        found[f"bench/{path.name}"] = load_tm(json.loads(path.read_text()))
    return {name: tm for name, tm in found.items() if isinstance(tm, TuringMachine)}


EVERY_MACHINE = _every_machine()


@pytest.mark.parametrize("name", sorted(EVERY_MACHINE))
def test_run_tokens_are_the_image_of_delta_in_declaration_order(name):
    """The run tokens are exactly δ's image, ordered by state, written
    symbols and moves, each as declared; every state but the halting one
    has a state token."""
    tm = EVERY_MACHINE[name]
    vocab = scot_vocab(tm)
    steps = [parse_run_token(tok) for tok in vocab if token_class(tok) == "run"]
    assert set(steps) == set(tm.delta.values())
    rank = [
        (tm.states.index(q), [tm.tape_alphabet.index(s) for s in ys], ["LSR".index(m) for m in ms])
        for q, ys, ms in steps
    ]
    assert all(a < b for a, b in zip(rank, rank[1:]))
    assert [tok for tok in cot_vocab(tm) if token_class(tok) == "run"] == [
        run_token(*step) for step in steps
    ]
    states = [parse_state_token(tok) for tok in vocab if token_class(tok) == "state"]
    assert states == [q for q in tm.states if q != tm.q_halt]


@pytest.mark.parametrize("name", sorted(EVERY_MACHINE))
def test_every_oracle_token_of_a_short_run_is_in_the_vocabulary(name):
    """For each word of at most 3 symbols on which the machine halts with a
    valid output, every CoT and SCoT oracle token, at the r the run needs,
    is in the vocabulary of its protocol."""
    tm = EVERY_MACHINE[name]
    cot, scot = set(cot_vocab(tm)), set(scot_vocab(tm))
    checked = 0
    for n in range(4):
        for word in itertools.product(tm.input_alphabet, repeat=n):
            result = tm_run(tm, word, 500)
            if not result.halted or result.output is None:
                continue
            r = choose_r_cot(max(result.steps, n, 1))
            assert set(cot_token_oracle(tm, word, r)) <= cot, word
            segments = scot_segments_oracle(tm, word, choose_r_scot(max(result.space, 1)))
            assert set().union(*segments) <= scot, word
            checked += 1
    assert checked


@pytest.mark.parametrize(
    "name", sorted(name for name in EVERY_MACHINE if not name.startswith("bench/"))
)
def test_parse_summary_reads_every_oracle_summary(name):
    """For each word of at most 3 symbols whose SCoT oracle run exists, at
    the r the run needs, every summary body parses to the configuration
    it encodes: its state, its heads and its tapes padded with blanks to
    the cells the summary shows. Segments compose: what `continuation`
    writes from the parsed configuration is the oracle's next segment
    after its prompt, the summary."""
    tm, summaries = EVERY_MACHINE[name], 0
    for n in range(4):
        for word in itertools.product(tm.input_alphabet, repeat=n):
            result = tm_run(tm, word, 500)
            if not result.halted or result.output is None:
                continue
            r, t = choose_r_scot(max(result.space, 1)), 0
            segments = scot_segments_oracle(tm, word, r)
            for seg, following in zip(segments, segments[1:]):
                t += sum(token_class(tok) == "run" for tok in seg)
                body = seg[seg.index(SUMM, 1) + 1 : -1]
                config, space = result.config_trace[t], len(body) - 1
                prompt = [SUMM, *body, ESUMM]
                assert prompt == encode_summary(config, space, tm.blank)
                parsed = parse_summary(body)
                assert (parsed.state, parsed.heads) == (config.state, config.heads), word
                padded = [tape + [tm.blank] * (space - len(tape)) for tape in config.tapes]
                assert parsed.tapes == padded, word
                written = continuation(tm, parsed, space, r, 3 * (len(prompt) - 1))
                assert [*prompt, *written] == following, word
                summaries += 1
    # fig2's and one_step's runs end before their trace cap
    assert summaries or name in ("fig2_machine", "one_step_machine")


# a body that is not in `encode_summary`'s form, and the reason it is refused
MALFORMED_SUMMARIES = [
    ([], "empty summary block"),
    (["tape:^a"], "summary block is not tape tokens then a state token"),
    (["state:q"], "summary block is not tape tokens then a state token"),
    (["tape:^a", "a", "state:q"], "summary block is not tape tokens then a state token"),
    (["tape:^a", "state:q", "state:q"], "summary block is not tape tokens then a state token"),
    (["tape:^a", "tape:b,c", "state:q"], "summary tape tokens differ in width"),
    (["tape:a", "tape:b", "state:q"], "summary tape without exactly one hat"),
    (["tape:^a", "tape:^b", "state:q"], "summary tape without exactly one hat"),
    (["tape:^a,b", "tape:^b,c", "state:q"], "summary tape without exactly one hat"),
]


@pytest.mark.parametrize("body, reason", MALFORMED_SUMMARIES)
def test_parse_summary_refuses_a_malformed_body_with_its_reason(body, reason):
    """Each reason is also one that README lists for an undefined run."""
    with pytest.raises(ValueError) as err:
        parse_summary(body)
    assert str(err.value) == reason
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f'"{reason}"' in " ".join(readme.split())


def test_machine_json_roundtrip():
    tm = fig2_machine()
    assert load_tm(tm_to_json(tm)) == tm
    dfa = parity_dfa()
    assert load_dfa(dfa_to_json(dfa)) == dfa


BENCH_MACHINES = {
    "fig2": fig2_machine,
    "bouncer4": lambda: bouncer_machine(4),
    "bouncer8": lambda: bouncer_machine(8),
    "copy": copy_machine,
}


@pytest.mark.parametrize("name", BENCH_MACHINES)
def test_bench_machine_files_match_their_builders(name):
    """The benchmark reads its own copies of these machines; each copy must
    still be the spec of the test machine it was written from."""
    path = Path(__file__).resolve().parents[1] / "bench" / "machines" / f"{name}.json"
    assert json.loads(path.read_text()) == tm_to_json(BENCH_MACHINES[name]())


def test_machine_json_schema_errors():
    doc = tm_to_json(fig2_machine())
    del doc["halt"]
    with pytest.raises(MachineError):
        load_tm(doc)
    doc = tm_to_json(fig2_machine())
    doc["delta"]["go|a"] = "nowhere|a|S"
    with pytest.raises(MachineError, match="nowhere"):
        load_tm(doc)


def test_tm_run_matches_single_step_reference():
    """Randomized differential check against an independent stepper."""

    def reference_step(tm, state, tapes, heads):
        read = tuple(
            tapes[k][heads[k]] if heads[k] < len(tapes[k]) else tm.blank
            for k in range(tm.tapes)
        )
        q2, writes, moves = tm.delta[(state, read)]
        new_tapes = [list(t) for t in tapes]
        new_heads = list(heads)
        for k in range(tm.tapes):
            while len(new_tapes[k]) <= heads[k]:
                new_tapes[k].append(tm.blank)
            new_tapes[k][heads[k]] = writes[k]
            new_heads[k] = {
                "L": max(0, heads[k] - 1),
                "S": heads[k],
                "R": heads[k] + 1,
            }[moves[k]]
        return q2, new_tapes, new_heads

    rng = random.Random(11)
    for _ in range(20):
        k = rng.choice([1, 2])
        n_states = rng.randint(2, 4)
        n_sym = rng.randint(2, 3)
        states = tuple(f"q{i}" for i in range(n_states))
        tape_alpha = tuple(f"g{i}" for i in range(n_sym - 1)) + ("_",)
        delta = {}
        for q in states[:-1]:
            for syms in itertools.product(tape_alpha, repeat=k):
                delta[(q, syms)] = (
                    rng.choice(states),
                    tuple(rng.choice(tape_alpha) for _ in range(k)),
                    tuple(rng.choice("LSR") for _ in range(k)),
                )
        tm = TuringMachine(
            k, states, tape_alpha[:-1], tape_alpha, "_", states[0], states[-1], delta
        )
        w = [rng.choice(tm.input_alphabet) for _ in range(rng.randint(0, 4))]
        result = tm_run(tm, w, step_cap=30)

        state = tm.q_init
        tapes = [list(w)] + [[] for _ in range(k - 1)]
        heads = [0] * k
        for cfg in result.config_trace[1:]:
            state, tapes, heads = reference_step(tm, state, tapes, heads)
            assert cfg.state == state and cfg.heads == heads
            for a, b in zip(cfg.tapes, tapes):
                pa = a + [tm.blank] * (len(b) - len(a))
                pb = b + [tm.blank] * (len(a) - len(b))
                assert pa == pb


def _one_state_dfa(state: str, symbol: str) -> Dfa:
    return Dfa((state,), (symbol,), {(state, symbol): state}, state, frozenset())


# Each refusal as (call, error, message).
AUTOMATA_REFUSALS = {
    "separator in a state name": (
        lambda: _one_state_dfa("a|b", "0"),
        MachineError,
        "invalid state name 'a|b'",
    ),
    "space in a symbol": (
        lambda: _one_state_dfa("q", "0 1"),
        MachineError,
        "invalid symbol name '0 1'",
    ),
    "odd CoT r": (
        lambda: cot_token_oracle(fig2_machine(), "ab", 3),
        ValueError,
        "r must be even and >= 2",
    ),
    "SCoT r below 4": (
        lambda: scot_segments_oracle(fig2_machine(), "ab", 2),
        ValueError,
        "r must be even and >= 4",
    ),
    "spec without states": (
        lambda: load_dfa({"delta": {}}),
        MachineError,
        "DFA spec missing field: 'states'",
    ),
    "TM spec without a tape alphabet": (
        lambda: load_tm(
            {k: v for k, v in tm_to_json(fig2_machine()).items() if k != "tape_alphabet"}
        ),
        MachineError,
        "TM spec missing field: 'tape_alphabet'",
    ),
}


@pytest.mark.parametrize("case", list(AUTOMATA_REFUSALS))
def test_automata_refuses(case):
    call, error, message = AUTOMATA_REFUSALS[case]
    with pytest.raises(error, match=re.escape(message)):
        call()
