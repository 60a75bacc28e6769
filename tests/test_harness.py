import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from machines import contains_ab_dfa, mod3_dfa, parity_dfa

from tm2tf.compilers import instantiate_capacity
from tm2tf.fpcore import PRESETS, FloatFormat, representables_between
from tm2tf.harness import (
    _round_sqrt_mantissa,
    perturbation_doubling_suite,
    probe_phi,
    rounding_relative_error_suite,
    sample_tm,
    sample_word,
    softmax_hardmax_distance_suite,
    trace_invariant_violations,
    validate_cot,
    validate_dfa,
    validate_scot,
    validate_trials,
)

FAST = 25  # step cap


def test_sample_tm_deterministic():
    a = sample_tm("seed-1", 2, 3, 3)
    b = sample_tm("seed-1", 2, 3, 3)
    assert a == b
    c = sample_tm("seed-2", 2, 3, 3)
    assert a != c
    assert len(a.delta) == (3 - 1) * 3 ** 2


def test_sample_tm_validation():
    with pytest.raises(ValueError):
        sample_tm(0, 1, 1, 2)


def test_validate_cot_small_run():
    report = validate_cot(seed=7, trials=30, step_cap=FAST)
    assert report.attempted == 30
    assert report.attempted == report.skipped + report.checked
    assert report.checked >= 1
    assert report.mismatches == []
    assert not any(report.violations.values())
    assert report.wall_time > 0


def test_validate_cot_rejects_zero_trials():
    with pytest.raises(ValueError):
        validate_cot(seed=1, trials=0)


def test_validate_scot_small_run():
    report = validate_scot(seed=11, trials=30, step_cap=FAST)
    assert report.attempted == report.skipped + report.checked
    assert report.checked >= 1
    assert report.mismatches == []
    assert not any(report.violations.values())


def test_three_tape_machines_decode_as_the_oracle_runs_them():
    """The first six halting 3-tape machines of 3-4 states and 2-3 symbols,
    on a word of at most 4 symbols, at the r each protocol's run needs:
    CoT and SCoT hardmax models emit the oracle's segments, decoding freely
    without meta.machine and verifying what the machine writes alike, with
    clean trace audits. `validate_trials` samples 1-2 tapes only; this
    checks three without changing its corpus."""
    from dataclasses import replace

    from tm2tf.automata import cot_token_oracle, scot_segments_oracle, tm_run
    from tm2tf.compilers import choose_r_cot, choose_r_scot, compile_cot, compile_scot
    from tm2tf.generation import run_cot, run_scot
    from tm2tf.netcore import EvalConfig

    cfg, checked, multi_segment = EvalConfig(capture_trace="audit"), 0, 0
    for i in itertools.count():
        tm = sample_tm(f"three-tape|{i}", 3, 3 + i % 2, 2 + i // 2 % 2)
        word = sample_word(f"three-tape|w|{i}", tm, 4)
        result = tm_run(tm, word, FAST)
        if not result.halted or result.output is None:
            continue
        r_cot = choose_r_cot(max(result.steps, len(word), 1))
        r_scot = choose_r_scot(max(result.space, 1))
        runs = [
            (compile_cot(tm, r_cot)[0], run_cot, [cot_token_oracle(tm, word, r_cot, FAST)]),
            (compile_scot(tm, r_scot)[0], run_scot, scot_segments_oracle(tm, word, r_scot, FAST)),
        ]
        for params, run, expected in runs:
            for model in (params, replace(params, meta={"r": params.meta["r"]})):
                trace = run(model, word, cfg)
                assert trace.segments == expected, (i, run.__name__, model is params)
                violations = trace_invariant_violations(trace.eval_traces)
                assert not any(violations.values()), (i, run.__name__, violations)
        multi_segment += len(runs[1][2]) > 1
        checked += 1
        if checked == 6:
            break
    assert multi_segment  # a summary is written and read back


def test_validate_dfa():
    report = validate_dfa([parity_dfa(), contains_ab_dfa(), mod3_dfa()], r=3, max_len=4)
    assert report.mismatches == []
    assert report.checked == 3 * sum(2 ** n for n in range(5))
    assert not any(report.violations.values())


def _ternary_per_vector(trace) -> int:
    """The ternary count vector by vector: each activation vector (the last
    axis) with an entry outside {-1, 0, 1} counts once."""
    return sum(
        int(np.any((arr != 0.0) & (np.abs(arr) != 1.0), axis=-1).sum())
        for _, arr in trace.representation_arrays()
    )


@pytest.mark.parametrize("batch", [None, 1, 100])
@pytest.mark.parametrize("planted", [0.5, math.nan, -math.inf])
def test_ternary_audit_counts_the_vectors_it_counted_one_by_one(planted, batch, monkeypatch):
    """A value outside {-1, 0, 1} planted, during an audit-level run, in
    one activation vector of one position, sequence and layer, counts that
    vector once in the trace's (position, [sequence,] layer) cell and once
    in the invariant audit, as does the vector holding it throughout; the
    run as decoded counts none, as the per-vector count of the same run
    captured in full does. Single evaluators and batches of 1 and 100
    words, fed in two evaluator steps, the plant in the second."""
    from tm2tf import netcore
    from tm2tf.automata import BOS
    from tm2tf.compilers import compile_dfa
    from tm2tf.netcore import EvalConfig, Evaluator

    dfa, rng = parity_dfa(), np.random.default_rng(11)
    params, _ = compile_dfa(dfa, 3)
    n_seq, n_layers = batch or 1, len(params.layers)
    words = [tuple(rng.choice(sorted(dfa.alphabet), 4)) for _ in range(n_seq)]
    prompt = [(BOS,) * n_seq, *zip(*words)] if batch else [BOS, *words[0]]
    reduce, plant = netcore._nonternary, {}

    def planting(vectors, starts):
        calls = plant.setdefault("calls", 0)
        plant["calls"] = calls + 1
        if calls != plant.get("call"):
            return reduce(vectors, starts)
        a = np.concatenate(vectors, axis=1)
        ends = [*starts[1:], a.shape[1]]
        j = plant["vector"] % len(starts)
        a[plant["row"], ends[j] - 1 if plant["one"] else slice(starts[j], ends[j])] = planted
        return reduce([a], starts)

    def run(level):
        plant["calls"] = 0
        ev = Evaluator(params, EvalConfig(capture_trace=level), batch=batch)
        ev.extend(prompt[:2])
        ev.extend(prompt[2:])
        ev.next_token() if batch is None else ev.next_tokens()
        return ev.trace

    assert _ternary_per_vector(run(True)) == 0
    monkeypatch.setattr(netcore, "_nonternary", planting)
    assert trace_invariant_violations([run("audit")])["ternary"] == 0
    for case in range(4):
        layer, pos = int(rng.integers(n_layers)), int(rng.integers(len(prompt) - 2))
        seq = int(rng.integers(n_seq))
        plant.update(call=n_layers + layer, row=pos * n_seq + seq, vector=int(rng.integers(99)))
        cell = (2 + pos, layer) if batch is None else (2 + pos, seq, layer)
        for plant["one"] in (True, False):  # one element, then the whole vector
            trace = run("audit")
            assert trace_invariant_violations([trace])["ternary"] == 1, (case, plant)
            assert np.argwhere(trace.nonternary).tolist() == [list(cell)], (case, plant)


def _per_layer_counts(trace, att_fmt=None) -> dict[str, int]:
    """The audits of a full trace layer by layer and row by row, in plain
    loops: the ternary count vector by vector, score_gap and tie_values
    over each (position, head) row's keys up to its position, output_gap
    over each decoded step's output scores (per sequence for a batch), and,
    given att_fmt, the rows whose att_err exceeds the rounding bound."""
    counts = {"ternary": _ternary_per_vector(trace), "score_gap": 0, "tie_values": 0}
    counts["output_gap"] = counts["attention_rounding"] = 0
    for scores in trace.output_scores:
        for row in np.reshape(scores, (-1, scores.shape[-1])):
            top2 = np.sort(row)[-2:]
            counts["output_gap"] += len(row) > 1 and top2[1] - top2[0] < 1.0
    for lt in trace.layers:
        n = len(lt.dots)
        dots = lt.dots.reshape(n, -1, n)  # (position, row, key)
        values = lt.v.reshape(n, dots.shape[1], lt.v.shape[-1])
        att_err = lt.att_err.reshape(n, dots.shape[1])
        for i, h in np.ndindex(dots.shape[:2]):
            row = dots[i, h, : i + 1]
            best, integral = row.max(), np.all(row == np.rint(row))
            rest = row[row < best]
            counts["score_gap"] += not integral or (rest.size > 0 and best - rest.max() < 1.0)
            tied = np.flatnonzero(row == best)
            counts["tie_values"] += bool(
                integral and np.any(values[tied, h] != values[tied[0], h])
            )
            if att_fmt is not None:
                scaled = row / math.sqrt(lt.q.shape[-1])
                beta = scaled.max() - scaled[scaled < scaled.max()].max(initial=-np.inf)
                bound = 2.0 ** (-att_fmt.mantissa_bits - 1) + (i + 1) * math.exp(-beta)
                counts["attention_rounding"] += bool(att_err[i, h] > bound + 1e-12)
    return counts


def _at(rng, shape) -> tuple[int, ...]:
    return tuple(int(rng.integers(n)) for n in shape)


def _plant_faults(trace, rng, att_fmt) -> None:
    """Write faults into a trace through its layer views: non-integral and
    tied scores, which change a row's separation, rounding errors over the
    bound, and one half a key's term under it."""
    attention = [lt for lt in trace.layers if lt.dots.size]
    for li in rng.choice(len(attention), 4):
        lt = attention[li]
        n, rows = len(lt.dots), lt.dots.shape[1:-1]  # rows (H,), or (B, H) for a batch
        for _ in range(3):  # a quarter-integer score; a tied row
            i = int(rng.integers(1, n))
            lt.dots[(i, *_at(rng, rows), int(rng.integers(i)))] += 0.25
            i, h = int(rng.integers(1, n)), _at(rng, rows)
            lt.dots[(i, *h)][: i + 1] = lt.dots[(i, *h)][: i + 1].max()
        lt.att_err[(int(rng.integers(n)), *_at(rng, rows))] = 1.0
        # separation 1: the bound grows by e^-1 per key
        i, h = int(rng.integers(1, n)), _at(rng, rows)
        lt.dots[(i, *h)][: i + 1] = 0.0
        lt.dots[(i, *h)][i] = math.sqrt(lt.q.shape[-1])
        lt.att_err[(i, *h)] = 2.0 ** (-att_fmt.mantissa_bits - 1) + (i + 0.5) / math.e


@pytest.mark.parametrize("audit_values", [None, 1, 700])
def test_whole_model_audits_give_the_per_layer_counts_on_planted_faults(
    audit_values, monkeypatch
):
    """On a single and a batched denoised trace, as decoded and with faults
    planted in several layers, the rounding audit, which checks the rows
    of all layers together, counts what per-layer, row-by-row loops count,
    whatever its chunk size."""
    from dataclasses import replace

    from machines import fig2_machine

    from tm2tf import harness
    from tm2tf.automata import EINP, INP
    from tm2tf.compilers import compile_cot
    from tm2tf.harness import attention_rounding_bound_violations
    from tm2tf.netcore import Evaluator
    from tm2tf.softmaxify import convert

    denoised, cfg = convert(compile_cot(fig2_machine(), 6)[0], "denoised", 2 ** 6)
    cfg, att_fmt = replace(cfg, capture_trace=True), cfg.att_precision.fmt
    prompt = [INP, *"abab", EINP]
    traces = []
    for batch in (None, 3):
        ev = Evaluator(denoised, cfg, batch=batch)
        ev.extend(prompt if batch is None else [(t,) * batch for t in prompt])
        traces.append(ev.trace)
    if audit_values is not None:
        monkeypatch.setattr(harness, "_AUDIT_VALUES", audit_values)
    rng = np.random.default_rng(7)
    for trace in traces:
        assert _per_layer_counts(trace, att_fmt)["attention_rounding"] == 0
        assert attention_rounding_bound_violations(trace, att_fmt) == 0
        _plant_faults(trace, rng, att_fmt)
        planted = _per_layer_counts(trace, att_fmt)["attention_rounding"]
        assert planted and attention_rounding_bound_violations(trace, att_fmt) == planted


def test_validate_dfa_refuses_words_longer_than_the_context():
    """A word of length n takes n + 1 positions with its BOS; r = 2 has 4."""
    assert validate_dfa([parity_dfa()], r=2, max_len=3).checked == sum(2 ** n for n in range(4))
    with pytest.raises(ValueError, match="r >= 3"):
        validate_dfa([parity_dfa()], r=2, max_len=4)


def test_validate_softmax_scaled_small():
    report = validate_trials("cot", "scaled_only", seed=5, trials=12, step_cap=FAST)
    assert report.mismatches == []
    assert report.checked >= 1
    # Converted trials carry the hardmax record fields and skip statuses,
    # plus the scale c on every checked trial.
    hardmax = validate_cot(seed=5, trials=12, step_cap=FAST)
    assert report.skipped == hardmax.skipped
    for soft, hard in zip(report.trials, hardmax.trials, strict=True):
        assert ("c" in soft) == (soft["status"] == "checked")
        assert {k: v for k, v in soft.items() if k != "c"} == hard


def test_validate_trials_rejects_unknown_protocol_or_mode():
    with pytest.raises(ValueError):
        validate_trials("dfa", "hardmax", seed=1, trials=1)
    with pytest.raises(ValueError):
        validate_trials("cot", "scaled", seed=1, trials=1)


def test_validate_softmax_denoised_small():
    report = validate_trials("cot", "denoised", seed=5, trials=12, step_cap=FAST)
    assert report.mismatches == []
    assert report.checked >= 1
    assert not any(report.violations.values())


def test_probe_phi_bf16():
    rep = probe_phi(PRESETS["bf16"], 100, "bf16")
    assert (rep.first_confusion, rep.confounder) == (7, 6)


def test_probe_phi_no_confusion_small_range():
    rep = probe_phi(PRESETS["fp32"], 50, "fp32")
    assert rep.first_confusion is None
    assert rep.scanned == 50


def test_probe_phi_exact_agrees_with_bruteforce_fractions():
    """Full rational recomputation of the scan for a small range."""
    from fractions import Fraction

    from tm2tf.harness import _PHI_SHIFT, _phi_coords

    fmt = PRESETS["bf16"]
    a, b, a_int, b_int = _phi_coords(20, fmt)
    scale = Fraction(1, 2 ** _PHI_SHIFT)
    a_frac = [v * scale for v in a_int]
    b_frac = [v * scale for v in b_int]
    # Float views must match the exact values bit for bit.
    for i in range(1, 21):
        assert float(a_frac[i]) == a[i] and float(b_frac[i]) == b[i]
    first = None
    for i in range(2, 21):
        self_dot = a_frac[i] ** 2 + b_frac[i] ** 2
        if any(
            a_frac[i] * a_frac[j] + b_frac[i] * b_frac[j] > self_dot for j in range(1, i)
        ):
            first = i
            break
    rep = probe_phi(fmt, 20, "bf16")
    assert rep.first_confusion == first == 7


def test_exact_sqrt_rounding_matches_float():
    from tm2tf.fpcore import round_nearest
    from tm2tf.harness import _round_sqrt_mantissa

    import math

    fmt = FloatFormat(7, 8)
    for p, q in [(1, 2), (2, 1), (49, 100), (121, 4), (1, 10000), (3, 7)]:
        mant, exp = _round_sqrt_mantissa(p, q, fmt)
        # For values far from rounding boundaries the float path agrees.
        want = round_nearest(math.sqrt(p / q), fmt)
        assert math.ldexp(mant, exp) == want, (p, q)


def _even(v: Fraction, fmt: FloatFormat) -> bool:
    """v is an even multiple of its binade's step (0 counts as even)."""
    if v == 0:
        return True
    exponent = max(math.frexp(float(v))[1] - 1, fmt.e_min)
    return v / Fraction(2) ** (exponent - fmt.mantissa_bits) % 2 == 0


def test_exact_sqrt_rounding_matches_a_brute_force_reference():
    """sqrt(p/q) rounds to the nearest non-negative element, ties to even,
    max_value for anything beyond it; decided in exact arithmetic by
    comparing p/q with the squared midpoints of adjacent elements. The
    cases cover p = 0, saturation, subnormal results and exact ties."""
    seen = {"zero": 0, "saturated": 0, "subnormal": 0, "tie": 0}
    for fmt in (FloatFormat(1, 2), FloatFormat(1, 3), FloatFormat(2, 3), FloatFormat(3, 2)):
        elements = [Fraction(v) for v in representables_between(fmt, 0.0, fmt.max_value)]
        for p in range(61):
            for q in range(1, 61):
                square = Fraction(p, q)
                want = elements[0]
                for lo, hi in zip(elements, elements[1:]):
                    mid_square = ((lo + hi) / 2) ** 2
                    if square == mid_square:
                        want = lo if _even(lo, fmt) else hi
                        seen["tie"] += 1
                    if square <= mid_square:
                        break
                    want = hi
                mant, exp = _round_sqrt_mantissa(p, q, fmt)
                assert mant * Fraction(2) ** exp == want, (fmt, p, q)
                seen["zero"] += p == 0
                seen["saturated"] += square > Fraction(fmt.max_value) ** 2
                seen["subnormal"] += 0 < want < Fraction(fmt.min_normal)
    assert all(seen.values()), seen
    assert _round_sqrt_mantissa(25, 16, FloatFormat(1, 3)) == (2, -1)  # 1.25 ties to 1.0


def test_instantiate_capacity_gpt3():
    table = instantiate_capacity(96, 128, 12288, 4 * 12288, "cot")
    assert table["r_from_depth"] == 34
    assert table["r_from_d_k"] == 32
    assert table["r"] == 32
    row = next(r for r in table["machines"] if r["tapes"] == 3 and r["gamma"] == 10)
    assert row["max_states"] == 49
    assert row["fits_d"]


@pytest.mark.parametrize("construction", ["cot", "scot"])
def test_instantiate_capacity_counts_the_width_that_grows_with_r(construction):
    """At r = 8 the layers whose width grows with r need d_ff >= 146 (CoT)
    or 187 (SCoT) whatever the machine, so a budget of 50 lists no states.
    Under a budget of 200, each listed machine compiles within it, and one
    state more would not."""
    from tm2tf.compilers import cot_dims, scot_dims

    dims = cot_dims if construction == "cot" else scot_dims
    table = instantiate_capacity(28, 31, 1000, 50, construction)
    assert table["r"] == 8
    assert [row["max_states"] for row in table["machines"]] == [0] * 9
    table = instantiate_capacity(28, 31, 1000, 200, construction)
    listed = [row for row in table["machines"] if row["max_states"]]
    assert listed
    for row in listed:
        k, q, g = row["tapes"], row["max_states"], row["gamma"]
        assert dims(sample_tm(0, k, q, g), 8).d_ff <= 200 < dims(sample_tm(0, k, q + 1, g), 8).d_ff


@pytest.mark.parametrize(
    "budgets, empty_rows",
    [
        ((15, 31, 1000, 500), [(k, g) for k in (1, 2, 3) for g in (2, 4, 10)]),  # r = 2 < 4
        ((28, 31, 1000, 50), [(k, g) for k in (1, 2, 3) for g in (2, 4, 10)]),  # d_ff floor
        ((28, 31, 100000, 1500), [(3, 10)]),  # room for 1 state, but init != halt
    ],
)
def test_instantiate_capacity_lists_only_machines_that_compile(budgets, empty_rows):
    """A row lists states only at r >= 4 with at least 2 states; any other
    row has no states, no width and does not fit."""
    for row in instantiate_capacity(*budgets, "cot")["machines"]:
        if (row["tapes"], row["gamma"]) in empty_rows:
            assert (row["max_states"], row["d_used"], row["fits_d"]) == (0, None, False)
        else:
            assert row["max_states"] >= 2 and row["fits_d"]


def test_instantiate_capacity_small():
    table = instantiate_capacity(23, 1000, 1000, 1000, "cot")
    assert table["r_from_depth"] == 6


BIG = 10 ** 9
# (L, d_k, d, d_ff) budgets: r < 4 (L 7, 15; d_k 1, 15), the d_ff floor at
# r = 8 (50 vs 200), the 2-state edge (28, 31, 100000, 1500), GPT-3's
# (96, 128, 12288, 49152) and 10^9, never for L and d_k together.
CAPACITY_GRID = [
    budgets
    for budgets in itertools.product(
        (7, 15, 18, 28, 96, BIG),
        (1, 15, 31, 128, BIG),
        (100, 12288, 100000, BIG),
        (1, 50, 200, 1500, 49152, BIG),
    )
    if budgets[:2] != (BIG, BIG)
]


def test_instantiate_capacity_tables_are_pinned():
    """Every table of the grid, under both constructions, hashes as when
    the bounds were read off the size formula in closed form."""
    h = hashlib.sha256()
    for construction in ("cot", "scot"):
        for budgets in CAPACITY_GRID:
            table = instantiate_capacity(*budgets, construction)
            h.update(json.dumps(table, sort_keys=True).encode())
    assert len(CAPACITY_GRID) == 696
    assert h.hexdigest() == "090e59edd3afa0e235f43b3b3585ea1e5f3f7b82cccd72f7f4c5f8a2e14420e2"


def test_property_suites_clean():
    for fmt in (PRESETS["bf16"], PRESETS["fp16"], FloatFormat(3, 4)):
        assert rounding_relative_error_suite(fmt, 20000, 1) == 0
        assert perturbation_doubling_suite(fmt, 20000, 2) == 0
    assert softmax_hardmax_distance_suite(2000, 3) == 0


def test_skip_rate_band():
    """Around 70-80 percent of random machines skip; allow a broad band."""
    report = validate_cot(seed=123, trials=60, step_cap=FAST)
    rate = report.skipped / report.attempted
    assert 0.3 <= rate <= 0.95


def test_a_run_longer_than_its_context_is_skipped(monkeypatch):
    """With r = 2 no CoT run fits its 4 positions: the oracle's
    TokenBudgetError skips the trial, which still records its run."""
    from tm2tf import harness

    sample_trial = harness._sample_trial
    # each trial as sampled, with no bump on r
    monkeypatch.setattr(harness, "_sample_trial", lambda *args: (*sample_trial(*args)[:2], 0))
    monkeypatch.setattr(harness, "choose_r_cot", lambda t_hat: 2)
    report = validate_trials("cot", "hardmax", 0, 6)
    too_small = [t for t in report.trials if t["status"] == "skipped-r-too-small"]
    assert [(t["index"], t["steps"], t["space"], t["r"]) for t in too_small] == [
        (2, 3, 2, 2),
        (5, 2, 2, 2),
    ]
    assert report.skipped == report.attempted == 6 and report.checked == 0
    assert report.ok


def test_reports_deterministic():
    a = validate_cot(seed=42, trials=15, step_cap=FAST).to_json()
    b = validate_cot(seed=42, trials=15, step_cap=FAST).to_json()
    a.pop("wall_time")
    b.pop("wall_time")
    assert a == b
    c = validate_cot(seed=43, trials=15, step_cap=FAST).to_json()
    c.pop("wall_time")
    assert a != c


def test_validate_softmax_scot_denoised_small():
    report = validate_trials("scot", "denoised", seed=9, trials=8, step_cap=FAST)
    assert report.mismatches == []
    assert not any(report.violations.values())


def _broken_compile_dfa(dfa, r):
    """A compiled DFA broken so that every invariant and some words fail:
    q and k become +-1/2, one layer's keys all tie over differing values,
    and False scores exactly like True."""
    import copy

    from tm2tf.compilers import compile_dfa

    params, report = compile_dfa(dfa, r)
    broken = copy.deepcopy(params)
    broken.qk_scale = 0.5
    broken.unemb[broken.vocab.index("False")] = broken.unemb[broken.vocab.index("True")]
    broken.layers[1].heads[0].wk[:] = 0
    return broken, report


def _per_word_validate_dfa(dfas, r, max_len):
    """The plain loop: one Evaluator, one greedy step and one audit per word,
    each at the audit capture level."""
    import itertools

    from tm2tf import harness
    from tm2tf.automata import BOS, FALSE, TRUE, dfa_accepts
    from tm2tf.netcore import EvalConfig, Evaluator

    mismatches, violations = [], {}
    for d_idx, dfa in enumerate(dfas):
        params, _ = harness.compile_dfa(dfa, r)
        for n in range(max_len + 1):
            for word in itertools.product(dfa.alphabet, repeat=n):
                ev = Evaluator(params, EvalConfig(capture_trace="audit"))
                ev.extend([BOS, *word])
                got = ev.next_token()
                want = TRUE if dfa_accepts(dfa, list(word)) else FALSE
                if got != want:
                    mismatches.append(
                        {"dfa": d_idx, "word": "".join(word), "expected": want, "actual": got}
                    )
                for key, count in harness.trace_invariant_violations([ev.trace]).items():
                    violations[key] = violations.get(key, 0) + count
    return mismatches, violations


def test_batched_validate_dfa_matches_per_word_loop_on_a_broken_model(monkeypatch):
    from tm2tf import harness

    monkeypatch.setattr(harness, "compile_dfa", _broken_compile_dfa)
    dfas = [parity_dfa(), contains_ab_dfa(), mod3_dfa()]
    report = validate_dfa(dfas, r=3, max_len=6)
    mismatches, violations = _per_word_validate_dfa(dfas, r=3, max_len=6)
    assert all(violations.values()) and len(violations) == 4
    assert 0 < len(mismatches) < report.checked
    assert report.mismatches == mismatches
    assert report.violations == violations


def _audit_equals_arrays(run) -> list[dict[str, int]]:
    """The invariant counts of each evaluator trace that run(level) gives
    at a capture level: the audit level's step-time reductions must count
    what the array auditor, the plain loops of `_per_layer_counts`, counts
    on the same run captured in full."""
    audited = [trace_invariant_violations([t]) for t in run("audit")]
    arrays = [_per_layer_counts(t) for t in run(True)]
    for counts in arrays:
        del counts["attention_rounding"]
    assert audited == arrays
    return audited


def test_the_invariant_audit_refuses_a_trace_not_captured_at_the_audit_level():
    """A full or an uncaptured trace holds no step-time reductions to sum."""
    from tm2tf.automata import BOS
    from tm2tf.compilers import compile_dfa
    from tm2tf.netcore import EvalConfig, Evaluator

    params, _ = compile_dfa(parity_dfa(), 3)
    for level in (True, False):
        ev = Evaluator(params, EvalConfig(capture_trace=level))
        ev.extend([BOS, "1", "0"])
        ev.next_token()
        with pytest.raises(ValueError, match=f"not at {level!r}"):
            trace_invariant_violations([ev.trace])


ZERO_COUNTS = {"ternary": 0, "score_gap": 0, "tie_values": 0, "output_gap": 0}


@pytest.mark.parametrize("protocol", ["cot", "scot"])
def test_the_audit_level_counts_as_the_array_auditor_on_every_machine(protocol):
    """Every machine of the fixtures, on its words of up to 2 symbols that
    halt within 100 steps, compiled at the r the word needs."""
    import machines

    from tm2tf.automata import tm_run
    from tm2tf.compilers import choose_r_cot, choose_r_scot, compile_cot, compile_scot
    from tm2tf.generation import run_cot, run_scot
    from tm2tf.netcore import EvalConfig

    cot = protocol == "cot"
    tms = [machines.fig2_machine(), machines.one_step_machine(), machines.one_step_machine(2)]
    tms += [machines.bouncer_machine(), machines.copy_machine(), machines.counter_machine()]
    tms.append(machines.tally_machine())
    runs = 0
    for tm in tms:
        for n in range(3):
            for word in itertools.product(tm.input_alphabet, repeat=n):
                result = tm_run(tm, list(word), 100)
                if not result.halted:
                    continue
                if cot:
                    r = choose_r_cot(max(result.steps, n, 1))
                else:
                    r = choose_r_scot(max(result.space, 1))
                params, _ = (compile_cot if cot else compile_scot)(tm, r)
                run = run_cot if cot else run_scot
                counts = _audit_equals_arrays(
                    lambda level: run(params, word, EvalConfig(capture_trace=level)).eval_traces
                )
                assert counts and all(c == ZERO_COUNTS for c in counts), (tm.q_init, word)
                runs += 1
    assert runs >= 30


@pytest.mark.parametrize("broken", [False, True])
def test_the_audit_level_counts_as_the_array_auditor_on_batched_dfa_runs(broken):
    """The acceptance DFAs at r=3, all words of each length up to 4 as one
    batch; compiled as they are they count nothing, and broken (see
    `_broken_compile_dfa`) every invariant fails somewhere."""
    from tm2tf.automata import BOS
    from tm2tf.compilers import compile_dfa
    from tm2tf.harness import acceptance_dfas
    from tm2tf.netcore import EvalConfig, Evaluator

    total = dict(ZERO_COUNTS)
    for dfa in acceptance_dfas():
        params, _ = (_broken_compile_dfa if broken else compile_dfa)(dfa, 3)
        for n in range(5):
            words = list(itertools.product(dfa.alphabet, repeat=n))

            def run(level):
                ev = Evaluator(params, EvalConfig(capture_trace=level), batch=len(words))
                ev.extend([(BOS,) * len(words), *zip(*words)])
                ev.next_tokens()
                return [ev.trace]

            for key, count in _audit_equals_arrays(run)[0].items():
                total[key] += count
    assert all(total.values()) if broken else total == ZERO_COUNTS


def _broken_fig2(zero_unemb: bool):
    """fig2 CoT r=6 with q and k halved, so that dot products are
    quarter-integers, and every key of each layer's second head tied; with
    zero_unemb every output score ties as well."""
    import copy

    from machines import fig2_machine

    from tm2tf.compilers import compile_cot

    broken = copy.deepcopy(compile_cot(fig2_machine(), 6)[0])
    broken.qk_scale = 0.5
    if zero_unemb:
        broken.unemb[:] = 0
    for layer in broken.layers:
        if len(layer.heads) > 1:
            layer.heads[1].wk[:] = 0
    return broken


def test_the_audit_level_counts_as_the_array_auditor_on_a_broken_model():
    """The broken model of `test_trace_invariant_counts_on_a_broken_model`,
    with the counts of that test at the audit level and in the plain loops."""
    from tm2tf.automata import EINP, INP
    from tm2tf.netcore import EvalConfig, Evaluator

    broken = _broken_fig2(zero_unemb=True)

    def run(level):
        ev = Evaluator(broken, EvalConfig(capture_trace=level))
        ev.extend([INP, "a", "b", "a", EINP])
        ev.next_token()
        return [ev.trace]

    assert _audit_equals_arrays(run) == [
        {"ternary": 346, "score_gap": 94, "tie_values": 5, "output_gap": 1}
    ]


def test_the_audit_level_counts_as_the_array_auditor_where_a_cut_splits_a_block_step():
    """A proposal wrong in its middle is fed with the prompt as one block
    step, which `truncate` cuts at the wrong token; the decode goes on over
    the rows the block wrote. Each level counts what a plain decode of the
    broken model counts, and the audit level counts what the plain loops
    count on the same decode captured in full."""
    from tm2tf.automata import EINP, EOUTP, INP
    from tm2tf.generation import generate
    from tm2tf.netcore import EvalConfig

    broken = _broken_fig2(zero_unemb=False)
    prompt = [INP, *"abab", EINP]
    plain, _, ev = generate(broken, prompt, {EOUTP}, 20, EvalConfig(capture_trace="audit"))
    want = trace_invariant_violations([ev.trace])
    assert all(want[key] for key in ("ternary", "score_gap", "tie_values"))
    draft = plain[len(prompt) : -1]
    mid = len(draft) // 2
    draft[mid] = next(t for t in broken.vocab if t not in (draft[mid], EOUTP))
    cut = len(prompt) + mid

    def run(level):
        tokens, _, ev = generate(
            broken, prompt, {EOUTP}, 20, EvalConfig(capture_trace=level),
            propose=lambda tokens: draft if tokens == prompt else [],
        )
        assert tokens == plain
        assert [start for start, _ in ev._steps[:2]] == [0, cut]  # the block kept up to the cut
        return [ev.trace]

    assert _audit_equals_arrays(run) == [want]


def _outp_swapped(compile_tm):
    """compile_tm with the unembeddings of <outp> and </outp> swapped: the
    model decodes the oracle's tokens up to <outp>, emits </outp> there and
    stops, and every audited invariant still holds."""

    def broken_compile(tm, r):
        import copy

        from tm2tf.automata import EOUTP, OUTP

        params, report = compile_tm(tm, r)
        broken = copy.deepcopy(params)
        i, j = broken.vocab.index(OUTP), broken.vocab.index(EOUTP)
        broken.unemb[[i, j]] = broken.unemb[[j, i]]
        return broken, report

    return broken_compile


# SCoT seed 5 has a trial whose output comes in its second segment.
@pytest.mark.parametrize("protocol, seed, trials", [("cot", 3, 10), ("scot", 5, 17)])
def test_mismatch_report_names_the_first_differing_token(protocol, seed, trials, monkeypatch):
    from tm2tf import harness
    from tm2tf.automata import EOUTP, OUTP

    name = f"compile_{protocol}"
    monkeypatch.setattr(harness, name, _outp_swapped(getattr(harness, name)))
    report = validate_trials(protocol, "hardmax", seed, trials, FAST)
    assert not report.ok and not any(report.violations.values())
    assert report.checked > 0 and len(report.mismatches) == report.checked
    statuses = {t["index"]: t["status"] for t in report.trials}
    for m in report.mismatches:
        assert statuses[m["trial"]] == "mismatch"
        assert set(m) == {
            "trial", "segment", "index", "expected", "actual", "expected_len", "actual_len"
        }
        assert (m["expected"], m["actual"]) == (OUTP, EOUTP)
        assert m["actual_len"] == m["index"] + 1 < m["expected_len"]
        if protocol == "cot":
            assert m["segment"] == 0
    if protocol == "scot":  # the summary segments before the output one agree
        assert any(m["segment"] > 0 for m in report.mismatches)


# Each argument check as (call, message).
HARNESS_REFUSALS = {
    "probe below 2": (lambda: probe_phi(PRESETS["bf16"], 1), "max_i must be >= 2"),
    "budget below 1": (lambda: instantiate_capacity(28, 0, 1000, 50), "budgets must be >= 1"),
    "unknown construction": (
        lambda: instantiate_capacity(28, 31, 1000, 50, "dfa"),
        "construction must be cot or scot",
    ),
}


@pytest.mark.parametrize("case", list(HARNESS_REFUSALS))
def test_harness_refuses(case):
    call, message = HARNESS_REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# one evaluator plan per DFA and per denoised trial


def _counted_plans(monkeypatch) -> tuple[list, list]:
    """Patches EvalPlan and Evaluator to record each plan built and the
    plan of each evaluator built, in order."""
    from tm2tf.netcore import EvalPlan, Evaluator

    plans, used = [], []
    plan_init, ev_init = EvalPlan.__init__, Evaluator.__init__

    def counted_plan(plan, *args, **kwargs):
        plan_init(plan, *args, **kwargs)
        plans.append(plan)

    def counted_evaluator(ev, *args, **kwargs):
        ev_init(ev, *args, **kwargs)
        used.append(ev.plan)

    monkeypatch.setattr(EvalPlan, "__init__", counted_plan)
    monkeypatch.setattr(Evaluator, "__init__", counted_evaluator)
    return plans, used


def test_validate_dfa_builds_one_plan_per_dfa(monkeypatch):
    """The eight length batches of a DFA (words up to length 7 at r = 3)
    run on one plan."""
    plans, used = _counted_plans(monkeypatch)
    report = validate_dfa([parity_dfa(), contains_ab_dfa()], r=3, max_len=7)
    assert report.ok and report.checked == 2 * (2 ** 8 - 1)
    assert len(plans) == 2
    assert [plans.index(plan) for plan in used] == [0] * 8 + [1] * 8


def test_the_denoising_margin_audit_builds_one_reference_plan_per_trial(monkeypatch):
    """The hardmax reference of every segment of a denoised trial runs on
    one plan, and counts what a plan per segment counted. The segments are
    the oracle's for copy SCoT r=6 on "011", and their traces those of its
    conversion at c = 4, where attention leaks past the margin."""
    from dataclasses import replace

    from machines import copy_machine

    from tm2tf.automata import scot_segments_oracle
    from tm2tf.compilers import compile_scot
    from tm2tf.generation import GenerationTrace
    from tm2tf.harness import _denoising_margin_violations
    from tm2tf.netcore import EvalConfig, forward
    from tm2tf.softmaxify import convert

    hard, _ = compile_scot(copy_machine(), 6)
    params, cfg = convert(hard, "denoised", 2 ** 6, c=4.0)
    segments = scot_segments_oracle(copy_machine(), "011", 6)
    cfg = replace(cfg, capture_trace=True)
    traces = [forward(params, seg[:-1], cfg)[1] for seg in segments]
    trace = GenerationTrace(segments=segments, eval_traces=traces)
    assert len(segments) == 2
    reference = 0
    for seg, ev_trace in zip(trace.segments, trace.eval_traces):
        _, hard_trace = forward(hard, seg[:-1], EvalConfig(capture_trace=True))
        for hard_lt, conv_lt in zip(hard_trace.layers, ev_trace.layers[::2]):
            dev = np.abs(conv_lt.x_mid[: len(hard_lt.x_mid)] - hard_lt.x_mid).max(axis=-1)
            reference += int((dev > 0.25 + 1e-12).sum())
    plans, used = _counted_plans(monkeypatch)
    assert _denoising_margin_violations(hard, trace) == reference > 0
    assert len(plans) == 1 and used == plans * len(trace.segments)
