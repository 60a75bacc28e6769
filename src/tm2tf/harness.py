"""Randomized oracle validation, the position-vector precision probe, and
the property test suites.

Validation samples small random Turing machines, skips the ones that do
not halt cleanly, compiles the rest (and optionally converts them to
softmax) and compares greedy generation against the direct simulation
token for token. Every checked trial also checks the length bounds;
hardmax trials audit the construction invariants (ternary activations,
integer score gaps, tie-invariant values, unit output-score gaps) and
denoised trials the pre-denoising margin and the attention-weight rounding
bound. Every run audit lives here and reads what the evaluator traced.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .automata import (
    BOS,
    FALSE,
    TRUE,
    Dfa,
    TokenBudgetError,
    TuringMachine,
    cot_token_oracle,
    dfa_accepts,
    scot_segments_oracle,
    tm_run,
)
from .compilers import (
    choose_r_cot,
    choose_r_scot,
    compile_cot,
    compile_dfa,
    compile_scot,
)
from .fpcore import FloatFormat, round_array
from .generation import run_cot, run_scot
from .netcore import (
    MODES,
    ActivationTrace,
    EvalConfig,
    EvalPlan,
    Evaluator,
    forward,
    hardmax_weights,
    separation,
    softmax_weights,
)
from .softmaxify import convert

__all__ = [
    "ValidationReport",
    "ProbeReport",
    "acceptance_dfas",
    "sample_tm",
    "sample_word",
    "validate_trials",
    "validate_cot",
    "validate_scot",
    "validate_dfa",
    "probe_phi",
    "trace_invariant_violations",
    "attention_rounding_bound_violations",
    "rounding_relative_error_suite",
    "perturbation_doubling_suite",
    "softmax_hardmax_distance_suite",
]


@dataclass
class ValidationReport:
    name: str
    attempted: int = 0
    skipped: int = 0
    checked: int = 0
    mismatches: list[dict] = field(default_factory=list)
    violations: dict[str, int] = field(default_factory=dict)
    wall_time: float = 0.0
    trials: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not any(self.violations.values())

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class ProbeReport:
    format: str
    scanned: int
    first_confusion: int | None = None  # i*
    confounder: int | None = None  # j*

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# machine sampling


def acceptance_dfas() -> list:
    """The three fixed recognizers used by the exhaustive DFA validation."""
    parity = Dfa(
        ("even", "odd"),
        ("0", "1"),
        {
            ("even", "0"): "even",
            ("even", "1"): "odd",
            ("odd", "0"): "odd",
            ("odd", "1"): "even",
        },
        "even",
        frozenset({"even"}),
    )
    contains_ab = Dfa(
        ("start", "saw_a", "hit"),
        ("a", "b"),
        {
            ("start", "a"): "saw_a",
            ("start", "b"): "start",
            ("saw_a", "a"): "saw_a",
            ("saw_a", "b"): "hit",
            ("hit", "a"): "hit",
            ("hit", "b"): "hit",
        },
        "start",
        frozenset({"hit"}),
    )
    mod3_delta = {}
    for i in range(3):
        mod3_delta[(f"m{i}", "a")] = f"m{(i + 1) % 3}"
        mod3_delta[(f"m{i}", "b")] = f"m{i}"
    mod3 = Dfa(("m0", "m1", "m2"), ("a", "b"), mod3_delta, "m0", frozenset({"m0"}))
    return [parity, contains_ab, mod3]


def sample_tm(seed, tapes: int, q_count: int, gamma_count: int) -> TuringMachine:
    """Random machine: uniform transitions on all non-halting states.

    The input alphabet is the tape alphabet minus the blank; the last state
    halts. Deterministic in the seed.
    """
    if q_count < 2 or gamma_count < 2 or tapes < 1:
        raise ValueError("need q_count >= 2, gamma_count >= 2, tapes >= 1")
    rng = random.Random(seed)
    states = tuple(f"q{i}" for i in range(q_count))
    tape_alphabet = tuple(f"g{i}" for i in range(gamma_count - 1)) + ("_",)
    delta = {}
    for q in states[:-1]:
        for syms in itertools.product(tape_alphabet, repeat=tapes):
            delta[(q, syms)] = (
                rng.choice(states),
                tuple(rng.choice(tape_alphabet) for _ in range(tapes)),
                tuple(rng.choice("LSR") for _ in range(tapes)),
            )
    return TuringMachine(
        tapes,
        states,
        tape_alphabet[:-1],
        tape_alphabet,
        "_",
        states[0],
        states[-1],
        delta,
    )


def sample_word(seed, tm: TuringMachine, max_len: int) -> list[str]:
    rng = random.Random(seed)
    return [rng.choice(tm.input_alphabet) for _ in range(rng.randint(0, max_len))]


# ---------------------------------------------------------------------------
# trace invariants


def _merge_violations(total: dict[str, int], part: dict[str, int]) -> None:
    for k, v in part.items():
        total[k] = total.get(k, 0) + v


def trace_invariant_violations(traces: list[ActivationTrace]) -> dict[str, int]:
    """Count construction-invariant violations over hardmax evaluator traces
    captured at the audit level, by summing the reductions the evaluator
    made at each step.

    ternary: an activation vector (per position, and per head for q, k, v
    and o) outside {-1, 0, 1}. score_gap: a (position, head) score row that
    is not integer or whose maximum leads the next score by less than 1.
    tie_values: an integer (position, head) row whose tied maximal keys
    carry different values. output_gap: a decoded step whose top output
    score leads by less than 1. A trace at any other capture level raises
    ValueError.
    """
    out = {"ternary": 0, "score_gap": 0, "tie_values": 0, "output_gap": 0}
    for trace in traces:
        if trace.capture != "audit":
            raise ValueError(
                f"invariant audits read traces captured at 'audit', not at {trace.capture!r}"
            )
        integral = trace.score_integral
        out["ternary"] += int(trace.nonternary.sum())
        out["score_gap"] += int((~integral | (trace.score_gap < 1.0)).sum())
        out["tie_values"] += int((integral & ~trace.tied_values_equal).sum())
        out["output_gap"] += sum(int((g < 1.0).sum()) for g in trace.output_gaps)
    return out


# The rounding audit checks up to this many values at once (0.5 MB of
# float64), so that its copies add little to the peak memory of a long
# trace.
_AUDIT_VALUES = 1 << 16


def _position_chunks(arr: np.ndarray):
    """(first position, chunk) over arr in chunks of consecutive positions
    (its first axis) of at most _AUDIT_VALUES values, one position at
    least; none if arr is empty."""
    if arr.size:
        step = max(1, _AUDIT_VALUES * len(arr) // arr.size)
        for i in range(0, len(arr), step):
            yield i, arr[i : i + step]


def attention_rounding_bound_violations(
    trace: ActivationTrace, att_fmt: FloatFormat
) -> int:
    """Count (position, head) rows, (position, sequence, head) for a batch,
    whose traced weight-rounding error `att_err`, sum_j |rounded alpha_j -
    alpha_j|, exceeds 2^(-b_m-1) + n e^(-beta): n = i + 1 keys at position
    i, and beta the row's score separation. The -inf scores past position i
    change no maximum, so beta is taken over the whole masked row. The rows
    of all layers are checked together, a chunk of positions at a time.
    """
    violations, sqrt_dk = 0, math.sqrt(trace.q.shape[-1])
    for start, dots in _position_chunks(trace.dots):
        beta = separation(dots / sqrt_dk)
        keys = np.arange(start + 1, start + len(beta) + 1).reshape(-1, *[1] * (beta.ndim - 1))
        bound = 2.0 ** (-att_fmt.mantissa_bits - 1) + keys * np.exp(-beta)
        violations += int((trace.att_err[start : start + len(beta)] > bound + 1e-12).sum())
    return violations


# ---------------------------------------------------------------------------
# randomized validation


def _sample_trial(seed: int, index: int):
    """A random machine of 1-2 tapes, 2-4 states and 2-3 symbols, a word of
    at most 4 symbols, and an even bump of 0-8 on the r the run needs."""
    rng = random.Random(f"{seed}|trial|{index}")
    tapes = rng.choice((1, 2))
    q_count = rng.randint(2, 4)
    gamma_count = rng.randint(2, 3)
    tm = sample_tm(f"{seed}|tm|{index}", tapes, q_count, gamma_count)
    word = sample_word(f"{seed}|w|{index}", tm, 4)
    r_bump = 2 * rng.randint(0, 4)
    return tm, word, r_bump


def _first_divergence(expected: list[str], got: list[str]) -> dict:
    idx = next(
        (i for i, (a, b) in enumerate(zip(expected, got)) if a != b),
        min(len(expected), len(got)),
    )
    return {
        "index": idx,
        "expected": expected[idx] if idx < len(expected) else None,
        "actual": got[idx] if idx < len(got) else None,
        "expected_len": len(expected),
        "actual_len": len(got),
    }


def _segment_divergence(expected: list[list[str]], got: list[list[str]]) -> dict:
    seg_idx = next(
        (i for i, (a, b) in enumerate(zip(expected, got)) if a != b),
        min(len(expected), len(got)),
    )
    info = {"segment": seg_idx}
    if seg_idx < min(len(expected), len(got)):
        info.update(_first_divergence(expected[seg_idx], got[seg_idx]))
    return info


# The capture level of each mode's trials: what their audits read.
_CAPTURE = {"hardmax": "audit", "scaled_only": False, "denoised": True}


def validate_trials(
    protocol: str, mode: str, seed: int, trials: int, step_cap: int = 40
) -> ValidationReport:
    """Compare compiled models on random machines against the oracle.

    protocol "cot" compares the one CoT segment token for token, "scot"
    every segment. mode "hardmax" runs the compiled model and audits its
    construction invariants; "scaled_only" and "denoised" run its softmax
    conversion at theorem settings (see `softmaxify.convert`), and
    "denoised" audits the pre-denoising margin against the hardmax model
    and the attention-weight rounding error against its bound. Each
    trial decodes with `run_cot` or `run_scot` as any caller does, so the
    model drafts from its meta.machine: under hardmax, and under the
    denoised formats at these trials' r, where every sum is exact
    (`netcore.sum_bits`), a right model verifies a segment in block steps
    of its prompt, or a greedy token, and up to 32 proposed tokens;
    scaled_only trials are fed one token per step. Hardmax trials run at
    the audit capture level: the evaluator reduces each layer's invariants
    as it computes it and keeps no activation arrays. Denoised trials
    capture in full, since their margin audit reads every layer's x_mid;
    scaled_only trials capture nothing.
    A machine that does not halt within `step_cap` steps is skipped.
    """
    if protocol not in ("cot", "scot"):
        raise ValueError("protocol must be cot or scot")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {', '.join(MODES)}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    start = time.perf_counter()
    report = ValidationReport(name=protocol if mode == "hardmax" else f"{protocol}-{mode}")
    cot = protocol == "cot"
    for index in range(trials):
        report.attempted += 1
        tm, word, r_bump = _sample_trial(seed, index)
        result = tm_run(tm, word, step_cap)
        trial = {
            "index": index,
            "tapes": tm.tapes,
            "states": len(tm.states),
            "symbols": len(tm.tape_alphabet),
            "word_len": len(word),
        }
        report.trials.append(trial)
        if not result.halted or result.output is None:
            report.skipped += 1
            trial["status"] = (
                "skipped-nonhalting" if not result.halted else "skipped-invalid-output"
            )
            continue
        if cot:
            r = choose_r_cot(max(result.steps, len(word), 1)) + r_bump
        else:
            r = choose_r_scot(max(result.space, 1)) + r_bump
        trial.update({"steps": result.steps, "space": result.space, "r": r})
        try:
            if cot:
                expected = [cot_token_oracle(tm, word, r, step_cap=step_cap)]
            else:
                expected = scot_segments_oracle(tm, word, r, step_cap=step_cap)
        except TokenBudgetError:
            report.skipped += 1
            trial["status"] = "skipped-r-too-small"
            continue
        hard_params, _ = (compile_cot if cot else compile_scot)(tm, r)
        params, run_cfg = convert(hard_params, mode, 2 ** r)
        run_cfg = replace(run_cfg, capture_trace=_CAPTURE[mode])
        if mode != "hardmax":
            trial["c"] = params.qk_scale
        trace = (run_cot if cot else run_scot)(params, word, run_cfg)
        report.checked += 1
        if trace.segments != expected:
            report.mismatches.append(
                {"trial": index, **_segment_divergence(expected, trace.segments)}
            )
            trial["status"] = "mismatch"
        else:
            trial["status"] = "checked"
        if cot:
            too_long = {"length_bound": trace.total_tokens > 4 + 2 * len(word) + 4 * result.steps}
        else:
            too_long = {
                "segment_length_bound": trace.max_segment > 8 * (result.space + 3),
                "total_length_bound": trace.total_tokens > 8 * result.steps + 2 * len(word) + 4,
            }
        _merge_violations(report.violations, {k: 1 for k, bad in too_long.items() if bad})
        if mode == "hardmax":
            _merge_violations(report.violations, trace_invariant_violations(trace.eval_traces))
        elif mode == "denoised":
            att_fmt = run_cfg.att_precision.fmt
            audits = {
                "denoising_margin": _denoising_margin_violations(hard_params, trace),
                "attention_rounding": sum(
                    attention_rounding_bound_violations(t, att_fmt) for t in trace.eval_traces
                ),
            }
            _merge_violations(report.violations, {k: n for k, n in audits.items() if n})
    report.wall_time = time.perf_counter() - start
    return report


def validate_cot(seed: int, trials: int, step_cap: int = 40) -> ValidationReport:
    """Token-for-token comparison of compiled CoT models against the oracle."""
    return validate_trials("cot", "hardmax", seed, trials, step_cap)


def validate_scot(seed: int, trials: int, step_cap: int = 40) -> ValidationReport:
    """Segment-for-segment comparison of compiled SCoT models."""
    return validate_trials("scot", "hardmax", seed, trials, step_cap)


def validate_dfa(dfas: list, r: int, max_len: int) -> ValidationReport:
    """Exhaustive agreement with dfa_accepts on all words up to max_len.

    The words of each length run as one batch at the audit capture level,
    whose trace gets one audit; the invariants count per word, position
    and head, so the counts are those of auditing every word on its own.
    The batches of one DFA share one `EvalPlan`. A word of length max_len
    and its BOS must fit the 2^r positions."""
    if max_len + 1 > 2 ** r:
        raise ValueError(f"words up to length {max_len} need r >= {max_len.bit_length()}, got {r}")
    start = time.perf_counter()
    report = ValidationReport(name="dfa")
    cfg = EvalConfig(capture_trace="audit")
    for d_idx, dfa in enumerate(dfas):
        params, _ = compile_dfa(dfa, r)
        plan = EvalPlan(params, cfg)
        for n in range(max_len + 1):
            words = list(itertools.product(dfa.alphabet, repeat=n))
            ev = Evaluator(params, cfg, batch=len(words), plan=plan)
            ev.extend([(BOS,) * len(words), *zip(*words)])
            for word, got in zip(words, ev.next_tokens()):
                report.attempted += 1
                report.checked += 1
                want = TRUE if dfa_accepts(dfa, list(word)) else FALSE
                if got != want:
                    report.mismatches.append(
                        {"dfa": d_idx, "word": "".join(word), "expected": want, "actual": got}
                    )
            _merge_violations(report.violations, trace_invariant_violations([ev.trace]))
    report.wall_time = time.perf_counter() - start
    return report


def _denoising_margin_violations(hard_params, trace) -> int:
    """Check pre-denoising deviations <= 1/4 against the hardmax reference
    at every position each segment's converted evaluator ran: all but a
    stop token, which is never fed, so every token of a segment that ran
    out of budget. One evaluator per segment, on one plan."""
    violations = 0
    hard_cfg = EvalConfig(attention="hardmax", capture_trace=True)
    plan = EvalPlan(hard_params, hard_cfg)
    for seg, ev_trace in zip(trace.segments, trace.eval_traces):
        _, hard_trace = forward(hard_params, seg[: len(ev_trace.x0)], hard_cfg, plan)
        for hard_lt, conv_lt in zip(hard_trace.layers, ev_trace.layers[::2]):
            dev = np.abs(conv_lt.x_mid - hard_lt.x_mid).max(axis=-1)
            violations += int((dev > 0.25 + 1e-12).sum())
    return violations


# ---------------------------------------------------------------------------
# the phi position-vector probe


def _round_sqrt_mantissa(p: int, q: int, fmt: FloatFormat) -> tuple[int, int]:
    """Correctly round sqrt(p/q) (p >= 0, q >= 1) to the format, half-even.

    Returns (mantissa, exponent) with value = mantissa * 2^exponent, exact.
    """
    if p == 0:
        return 0, 0
    # With b = p.bit_length() - q.bit_length(), p/q lies in (2^(b-1),
    # 2^(b+1)), so b // 2 is the exponent of sqrt(p/q) or one above it.
    e = (p.bit_length() - q.bit_length()) // 2
    if p * 4 ** max(0, -e) < q * 4 ** max(0, e):  # sqrt(p/q) < 2^e
        e -= 1
    eff = min(max(e, fmt.e_min), fmt.e_max)
    s = fmt.mantissa_bits - eff
    # n = sqrt(p/q) * 2^s; a/b = n^2 with non-negative integers.
    a = p * 4 ** max(0, s)
    b = q * 4 ** max(0, -s)
    n0 = math.isqrt(a * b) // b
    cmp = 4 * a - (2 * n0 + 1) ** 2 * b  # sign of n - (n0 + 1/2)
    if cmp > 0:
        n_rounded = n0 + 1
    elif cmp < 0:
        n_rounded = n0
    else:
        n_rounded = n0 if n0 % 2 == 0 else n0 + 1
    cap = (2 ** (fmt.mantissa_bits + 1) - 1) * 2 ** (fmt.e_max - eff)
    return min(n_rounded, cap), eff - fmt.mantissa_bits


_PHI_SHIFT = 80  # fixed-point scale 2^-80 covers every coordinate exactly


def _phi_coords(max_i: int, fmt: FloatFormat, start: int = 0):
    """Rounded (a_i, b_i) with phi_i = (i, 1, -i, -1)/norm = (a, b, -a, -b),
    for start <= i <= max_i; i = 0, which no scan reads, gets (0, 0).

    The exact real coordinates i/sqrt(2i^2+2) and 1/sqrt(2i^2+2) are
    rounded straight into the format. Returns float views plus exact
    integer views scaled by 2^_PHI_SHIFT, entry k holding i = start + k.
    """
    n = max_i + 1 - start
    a = np.zeros(n)
    b = np.zeros(n)
    a_int = [0] * n
    b_int = [0] * n
    for i in range(max(start, 1), max_i + 1):
        denom = 2 * i * i + 2
        ma, ea = _round_sqrt_mantissa(i * i, denom, fmt)
        mb, eb = _round_sqrt_mantissa(1, denom, fmt)
        if ea + _PHI_SHIFT < 0 or eb + _PHI_SHIFT < 0:
            raise AssertionError("fixed-point scale too small for the format")
        k = i - start
        a_int[k] = ma << (ea + _PHI_SHIFT)
        b_int[k] = mb << (eb + _PHI_SHIFT)
        a[k] = math.ldexp(ma, ea)
        b[k] = math.ldexp(mb, eb)
    return a, b, a_int, b_int


def probe_phi(fmt: FloatFormat, max_i: int, format_name: str = "") -> ProbeReport:
    """First index whose rounded position vector is out-argmaxed by an earlier one.

    Dot products are exact: a float64 prefilter finds near-ties, which are
    then decided in rational arithmetic.
    """
    if max_i < 2:
        raise ValueError("max_i must be >= 2")
    a, b, a_int, b_int = _phi_coords(1, fmt)
    # Float64 dot products of values <= 1 err below 5e-16; 1e-14 is a safe
    # prefilter slack before exact integer confirmation.
    margin = 1e-14
    for i in range(2, max_i + 1):
        if i == len(a_int):
            # Round coordinates in doubling chunks as the scan reaches them:
            # a scan that stops at i rounds fewer than 2i of the max_i.
            more_a, more_b, more_a_int, more_b_int = _phi_coords(min(2 * i, max_i), fmt, i)
            a, b = np.concatenate([a, more_a]), np.concatenate([b, more_b])
            a_int += more_a_int
            b_int += more_b_int
        lhs = a[1:i] * a[i] + b[1:i] * b[i]
        rhs = a[i] * a[i] + b[i] * b[i]
        candidates = np.nonzero(lhs >= rhs - margin)[0] + 1
        if candidates.size == 0:
            continue
        self_dot = a_int[i] * a_int[i] + b_int[i] * b_int[i]
        best_j, best_dot = None, self_dot
        for j in candidates.tolist():
            dot = a_int[i] * a_int[j] + b_int[i] * b_int[j]
            if dot > best_dot or (dot == best_dot and best_j is not None and j > best_j):
                best_j, best_dot = j, dot
        if best_j is not None:
            return ProbeReport(format_name or str(fmt), i, i, best_j)
    return ProbeReport(format_name or str(fmt), max_i, None, None)


# ---------------------------------------------------------------------------
# property suites


def rounding_relative_error_suite(fmt: FloatFormat, samples: int, seed: int) -> int:
    """Violations of |round(x) - x| <= 2^(-b_m-1) |x| over the normal range."""
    rng = np.random.default_rng(seed)
    exps = rng.uniform(fmt.e_min, fmt.e_max, samples)
    mants = rng.uniform(1.0, 2.0 - 2.0 ** -fmt.mantissa_bits, samples)
    signs = rng.choice([-1.0, 1.0], samples)
    xs = signs * mants * np.exp2(exps)
    ys, _ = round_array(xs, fmt)
    bound = 2.0 ** (-fmt.mantissa_bits - 1) * np.abs(xs)
    return int(np.sum(np.abs(ys - xs) > bound))


def perturbation_doubling_suite(fmt: FloatFormat, samples: int, seed: int) -> int:
    """Violations of |round(x + y) - x| <= 2|y| for representable x."""
    rng = np.random.default_rng(seed)
    exps = rng.integers(fmt.e_min, fmt.e_max, samples)
    mants = rng.integers(0, 2 ** fmt.mantissa_bits, samples)
    signs = rng.choice([-1.0, 1.0], samples)
    xs = signs * (1.0 + mants * 2.0 ** -fmt.mantissa_bits) * np.exp2(exps.astype(float))
    ys = rng.uniform(-1.0, 1.0, samples) * np.abs(xs) * 0.4
    keep = np.abs(xs + ys) <= fmt.max_value
    xs, ys = xs[keep], ys[keep]
    rounded, _ = round_array(xs + ys, fmt)
    return int(np.sum(np.abs(rounded - xs) > 2 * np.abs(ys) + 1e-300))


def softmax_hardmax_distance_suite(vectors: int, seed: int) -> int:
    """Violations of ||softmax - hardmax||_1 <= 2 n exp(-separation)."""
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(vectors):
        n = int(rng.integers(1, 40))
        scores = rng.integers(-6, 7, n).astype(np.float64) * rng.uniform(0.2, 5.0)
        beta = separation(scores)
        dist = float(np.abs(softmax_weights(scores) - hardmax_weights(scores)).sum())
        if dist > 2 * n * math.exp(-beta) + 1e-9:
            violations += 1
    return violations
