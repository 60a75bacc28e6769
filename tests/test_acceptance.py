"""Acceptance suite: each test enforces one criterion at its stated size
and prints a PASS line with the measured numbers (run pytest -s to see
them on success).
"""

import math

import numpy as np
import pytest

from tm2tf.automata import BOS
from tm2tf.compilers import build_rope_position_prefix, instantiate_capacity
from tm2tf.fpcore import PRESETS, FloatFormat, representables_between, round_nearest
from tm2tf.gadgets import bin_pm1, denoising_neurons, mlp_weights
from tm2tf.harness import (
    acceptance_dfas,
    perturbation_doubling_suite,
    probe_phi,
    rounding_relative_error_suite,
    softmax_hardmax_distance_suite,
    validate_cot,
    validate_dfa,
    validate_scot,
    validate_trials,
)
from tm2tf.netcore import EvalConfig, forward
from tm2tf.softmaxify import c0_denoising

SEED = 20240817


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def cot_report():
    return validate_cot(seed=SEED, trials=200)


@pytest.fixture(scope="module")
def scot_report():
    return validate_scot(seed=SEED + 1, trials=200)


def test_criterion_1_cot_validation(cot_report):
    r = cot_report
    ok = r.attempted == 200 and not r.mismatches and r.checked > 0
    _line(
        1,
        ok,
        f"CoT 200 trials: checked={r.checked} skipped={r.skipped} "
        f"mismatches={len(r.mismatches)} wall={r.wall_time:.1f}s",
    )


def test_criterion_2_scot_validation(scot_report):
    r = scot_report
    length_viol = r.violations.get("segment_length_bound", 0) + r.violations.get(
        "total_length_bound", 0
    )
    ok = r.attempted == 200 and not r.mismatches and r.checked > 0 and length_viol == 0
    _line(
        2,
        ok,
        f"SCoT 200 trials: checked={r.checked} skipped={r.skipped} "
        f"mismatches={len(r.mismatches)} length-violations={length_viol} "
        f"wall={r.wall_time:.1f}s",
    )


def test_criterion_3_dfa_exhaustive():
    report = validate_dfa(acceptance_dfas(), r=3, max_len=7)
    ok = not report.mismatches and report.checked == 3 * (2 ** 8 - 1)
    _line(
        3,
        ok,
        f"DFA exhaustive: {report.checked} words over 3 machines, "
        f"mismatches={len(report.mismatches)} (dims asserted)",
    )


def test_criterion_4_ternary_suite(cot_report, scot_report):
    keys = ("ternary", "score_gap", "tie_values", "output_gap")
    total = sum(cot_report.violations.get(k, 0) for k in keys) + sum(
        scot_report.violations.get(k, 0) for k in keys
    )
    detail = {
        k: cot_report.violations.get(k, 0) + scot_report.violations.get(k, 0) for k in keys
    }
    _line(4, total == 0, f"activation/gap violations across all checked trials: {detail}")


def test_criterion_5_exact_attention_conversion():
    report = validate_trials("cot", "scaled_only", seed=SEED + 2, trials=50)
    ok = report.attempted == 50 and not report.mismatches and report.checked > 0
    _line(
        5,
        ok,
        f"scaled softmax + bf16 activations: checked={report.checked} "
        f"mismatches={len(report.mismatches)} wall={report.wall_time:.1f}s",
    )


def test_criterion_6_denoising_conversion():
    report = validate_trials("cot", "denoised", seed=SEED + 3, trials=50)
    margin = report.violations.get("denoising_margin", 0)
    ok = (
        report.attempted == 50
        and not report.mismatches
        and report.checked > 0
        and margin == 0
    )
    _line(
        6,
        ok,
        f"denoised softmax (b_m_att=4): checked={report.checked} "
        f"mismatches={len(report.mismatches)} margin-violations={margin} "
        f"wall={report.wall_time:.1f}s",
    )


def test_criterion_7_denoising_mlp_unit():
    w1, bias4, w2 = mlp_weights(denoising_neurons([0]), 1)
    rows = list(zip(w1[:, 0].tolist(), bias4.tolist(), w2[0].tolist()))
    checked = 0
    for b_m in (1, 2, 4, 7):
        for b_e in (3, 4, 5):
            fmt = FloatFormat(b_m, b_e)
            bands = [(-1.25, -0.75, -1.0), (-0.25, 0.25, 0.0), (0.75, 1.25, 1.0)]
            for lo, hi, target in bands:
                for x in representables_between(fmt, lo, hi):
                    acc = 0.0
                    for w_in, b, w_out in rows:
                        pre = w_in * x + b / 4.0
                        hidden = round_nearest(max(pre, 0.0), fmt)
                        acc += w_out * hidden
                    z = round_nearest(acc, fmt)
                    y = round_nearest(x + z, fmt)
                    assert y == target, (b_m, b_e, x)
                    checked += 1
    _line(7, checked > 0, f"denoising exact on {checked} representable inputs x 12 formats")


def test_criterion_8_phi_probe():
    import time

    expected = {"bf16": (7, 6), "fp16": (8, 7), "fp32": (61, 60), "fp64": (7875, 7874)}
    results = {}
    times = {}
    for name, want in expected.items():
        t0 = time.perf_counter()
        rep = probe_phi(PRESETS[name], 10000, name)
        times[name] = time.perf_counter() - t0
        results[name] = (rep.first_confusion, rep.confounder)
    ok = results == expected and max(times.values()) < 1.0
    _line(
        8,
        ok,
        f"first confusions {results} (want {expected}), "
        f"max scan time {max(times.values()):.2f}s",
    )


def test_criterion_9_constant_instantiation():
    c = c0_denoising(128, 2 ** 16)
    cap_depth = instantiate_capacity(96, 10 ** 9, 10 ** 9, 10 ** 9, "cot")
    cap_dk = instantiate_capacity(10 ** 9, 128, 10 ** 9, 10 ** 9, "cot")
    ok = abs(c - 13.3) <= 0.1 and cap_depth["r_from_depth"] == 34 and cap_dk["r_from_d_k"] == 32
    _line(
        9,
        ok,
        f"c0_denoising(128, 2^16)={c:.3f}; L=96 -> r={cap_depth['r_from_depth']}; "
        f"d_k=128 -> r={cap_dk['r_from_d_k']}",
    )


def test_criterion_10_rounding_property_suites():
    rel = {}
    dbl = {}
    for name in ("bf16", "fp16", "fp32", "fp64"):
        fmt = PRESETS[name]
        rel[name] = rounding_relative_error_suite(fmt, 100_000, SEED)
        dbl[name] = perturbation_doubling_suite(fmt, 100_000, SEED + 1)
    soft = softmax_hardmax_distance_suite(10_000, SEED + 2)
    ok = not any(rel.values()) and not any(dbl.values()) and soft == 0
    _line(
        10,
        ok,
        f"relative-error violations {rel}, doubling violations {dbl}, "
        f"softmax-distance violations {soft} (1e5 samples/format, 1e4 vectors)",
    )


def test_criterion_11_rope_prefix():
    worst = math.inf
    for r in (2, 3, 4):
        params, report = build_rope_position_prefix(r)
        res_coords = report.registers["res"]
        tokens = ["first"] + ["rest"] * (2 ** r - 1)
        reps, trace = forward(params, tokens, EvalConfig(capture_trace=True))
        for i in range(2 ** r):
            got = tuple(int(v) for v in reps[i][res_coords])
            assert got == bin_pm1(r, i), (r, i)
        d_k = params.dims.d_k
        for lt in trace.layers:
            for i, row in enumerate(lt.dots):
                for dots in row[..., : i + 1]:
                    if dots.size == 0 or not dots.any():
                        continue
                    best = dots.max()
                    rest = dots[dots < best - 1e-9]
                    if rest.size:
                        worst = min(worst, (best - rest.max()) / math.sqrt(d_k))
        assert worst >= 1.0 / (2.0 * math.sqrt(d_k)) - 1e-12
    _line(11, True, f"bin recovery exact for r in 2..4; min separation {worst:.4f}")
