import math
import re
from dataclasses import replace

import numpy as np
import pytest

from machines import bouncer_machine, copy_machine, fig2_machine, parity_dfa
from test_compilers_dfa import _classify

from tm2tf.automata import FALSE, TRUE, cot_token_oracle, dfa_accepts
from tm2tf.compilers import choose_r_cot, compile_cot, compile_dfa, compile_scot
from tm2tf.fpcore import PRESETS, FloatFormat
from tm2tf.gadgets import denoising_neurons, mlp_weights
from tm2tf.generation import run_cot, run_scot
from tm2tf.netcore import EvalConfig, LayerParams
from tm2tf.softmaxify import (
    ConversionError,
    act_format_containing,
    c0_denoising,
    c0_exact_attention,
    convert,
    convert_with_denoising,
    eval_config,
    min_att_exponent_bits,
    next_pow2_at_least,
    scale_qk,
    theorem_c,
)


def test_c0_exact_attention_examples():
    got = c0_exact_attention(1, 1, 1, 1, 1)
    want = math.sqrt(2 * math.log((16.0 / 6.0) * 20 * 60))
    assert abs(got - want) < 1e-12
    assert abs(got - 4.017) < 0.01
    # monotone in every argument
    base = c0_exact_attention(8, 16, 4, 3, 100)
    assert c0_exact_attention(9, 16, 4, 3, 100) >= base
    assert c0_exact_attention(8, 17, 4, 3, 100) >= base
    assert c0_exact_attention(8, 16, 5, 3, 100) >= base
    assert c0_exact_attention(8, 16, 4, 4, 100) >= base
    assert c0_exact_attention(8, 16, 4, 3, 101) >= base


def test_c0_exact_attention_no_overflow():
    # Deep model: the direct product would overflow a float.
    val = c0_exact_attention(12288, 49152, 128, 96, 2 ** 32)
    assert math.isfinite(val) and val > 0


def test_c0_denoising_examples():
    assert abs(c0_denoising(128, 2 ** 16) - 13.3) < 0.1
    assert abs(c0_denoising(1, 1) - math.sqrt(math.log(96))) < 1e-12
    assert c0_denoising(1, 100) <= c0_denoising(1, 1000)


def test_min_att_exponent_bits():
    assert min_att_exponent_bits(2 ** 14) == 5  # e_min(5) = -14
    assert min_att_exponent_bits(2) == 3
    assert min_att_exponent_bits(1) == 2
    # bf16's 8 exponent bits cover contexts to 2^126
    assert min_att_exponent_bits(2 ** 126) == 8
    fmt = PRESETS["bf16"]
    assert 2.0 ** fmt.e_min <= 1.0 / 2 ** 126


def test_next_pow2():
    assert next_pow2_at_least(4.02) == 8.0
    assert next_pow2_at_least(8.0) == 8.0
    assert next_pow2_at_least(0.3) == 0.5


def test_act_format_containing():
    fmt = act_format_containing(16.0)
    assert fmt.mantissa_bits == 1 and fmt.exponent_bits >= 3
    from tm2tf.fpcore import is_representable

    assert is_representable(16.0, fmt)


def test_scale_qk_identity_and_hardmax_invariance():
    params, _ = compile_dfa(parity_dfa(), 3)
    scaled = scale_qk(params, 5.0)
    assert scaled.qk_scale == 5.0
    cfg = EvalConfig()
    for word in ["", "1", "10", "1101"]:
        assert _classify(params, word, cfg) == _classify(scaled, word, cfg)
    with pytest.raises(ConversionError):
        scale_qk(params, 0.0)
    with pytest.raises(ConversionError):
        scale_qk(scaled, 2.0)  # already scaled


def test_scale_rejects_foreign_models():
    from test_netcore import _zero_model

    foreign = _zero_model()
    with pytest.raises(ConversionError):
        scale_qk(foreign, 4.0)
    with pytest.raises(ConversionError):
        convert_with_denoising(foreign, 4.0)


def test_conversions_refuse_heads_writing_one_coordinate():
    from model_docs import overlap_heads

    from tm2tf.netcore import params_from_json, params_to_json

    doc = params_to_json(compile_cot(fig2_machine(), 6)[0])
    li = overlap_heads(doc)
    params = params_from_json(doc)  # the file itself is valid
    for conversion in (scale_qk, convert_with_denoising):
        with pytest.raises(ConversionError, match=f"layer {li} head 1 writes"):
            conversion(params, 8.0)


def test_dfa_scaled_softmax_bf16_matches_hardmax():
    dfa = parity_dfa()
    params, _ = compile_dfa(dfa, 3)
    scaled, cfg = convert(params, "scaled_only", 2 ** 3)
    import itertools

    for n in range(6):
        for word in itertools.product(dfa.alphabet, repeat=n):
            got = _classify(scaled, word, cfg)
            want = TRUE if dfa_accepts(dfa, list(word)) else FALSE
            assert got == want, word


def test_cot_scaled_softmax_matches_oracle():
    tm = fig2_machine()
    r = choose_r_cot(7)
    params, _ = compile_cot(tm, r)
    scaled, cfg = convert(params, "scaled_only", 2 ** r)
    trace = run_cot(scaled, "aab", cfg)
    assert trace.segments[0] == cot_token_oracle(tm, "aab", r)


def _written_coords(layer) -> list[int]:
    return sorted({int(j) for head in layer.heads for j in np.flatnonzero(head.wo.any(axis=1))})


def test_convert_with_denoising_shapes():
    tm = fig2_machine()
    params, report = compile_cot(tm, 6)
    c = next_pow2_at_least(c0_denoising(report.dims.d_k, 2 ** 6))
    converted = convert_with_denoising(params, c)
    assert converted.dims.n_layers == 2 * report.dims.n_layers
    widest = max(len(_written_coords(layer)) for layer in params.layers)
    assert widest < report.dims.d
    assert converted.dims.d_ff == max(report.dims.d_ff, 6 * widest)
    assert converted.qk_scale == c
    # weight codes stay within {0,+-1,+-2}
    for layer in converted.layers:
        if layer.w1.size:
            assert np.abs(layer.w1).max() <= 2 and np.abs(layer.w2).max() <= 2
    # attention + 6 denoising rows per coordinate its heads write, then the
    # original MLP without heads
    headless = 0
    for layer, attention, mlp in zip(
        params.layers, converted.layers[0::2], converted.layers[1::2]
    ):
        coords = _written_coords(layer)
        headless += not layer.heads
        assert attention.heads is layer.heads and attention.w1.shape[0] == 6 * len(coords)
        assert np.flatnonzero(attention.w1.any(axis=0)).tolist() == coords
        assert np.flatnonzero(attention.w2.any(axis=1)).tolist() == coords
        assert mlp.heads == [] and mlp.w1 is layer.w1 and mlp.w2 is layer.w2
    assert headless > 0  # and a layer without heads gets no denoising rows


def _theorem_width(converted, d_ff: int):
    """The theorem's denoised model: every attention layer of `converted`
    denoises all d coordinates, in max(d_ff, 6d) width."""
    d = converted.dims.d
    full = mlp_weights(denoising_neurons(list(range(d))), d)
    layers = [
        LayerParams(layer.heads, *full) if i % 2 == 0 else layer
        for i, layer in enumerate(converted.layers)
    ]
    dims = replace(converted.dims, d_ff=max(d_ff, 6 * d))
    return replace(converted, dims=dims, layers=layers)


@pytest.mark.parametrize(
    "build, c, runner, words",
    [
        (lambda: compile_cot(fig2_machine(), 6), None, run_cot, ["ab", "ba", "cc"]),
        (lambda: compile_scot(bouncer_machine(4), 6), None, run_scot, ["x"]),
        (lambda: compile_cot(copy_machine(), 6), None, run_cot, ["0110", "10"]),
        # At c = 4, half the theorem's c, attention leaks up to 1/4 onto the
        # coordinates it writes on these words, and the denoisers snap it off.
        (lambda: compile_cot(fig2_machine(), 6), 4.0, run_cot, ["ab", "ba", "cc"]),
    ],
    ids=["fig2-cot-6", "bouncer4-scot-6", "copy-cot-6", "fig2-cot-6-c4"],
)
def test_lean_denoising_matches_theorem_width(build, c, runner, words):
    """Denoising only the coordinates that heads write changes nothing: the
    tokens, saturations and every layer's x_mid and x_out are those of the
    theorem's full-width denoisers, bit for bit."""
    params, _ = build()
    lean, cfg = convert(params, "denoised", 2 ** 6, c)
    full = _theorem_width(lean, params.dims.d_ff)
    full.validate_weights()
    cfg = replace(cfg, capture_trace=True)
    denoised = 0
    for word in words:
        got, want = runner(lean, word, cfg), runner(full, word, cfg)
        assert got.outcome == want.outcome == "output"
        assert got.segments == want.segments and got.saturations == want.saturations
        for got_ev, want_ev in zip(got.eval_traces, want.eval_traces, strict=True):
            for got_lt, want_lt in zip(got_ev.layers, want_ev.layers, strict=True):
                assert got_lt.x_mid.tobytes() == want_lt.x_mid.tobytes()
                assert got_lt.x_out.tobytes() == want_lt.x_out.tobytes()
            # values the denoisers moved, in the attention layers
            denoised += sum(int((lt.x_mid != lt.x_out).sum()) for lt in got_ev.layers[::2])
    assert c is None or denoised > 0


def test_denoised_cot_matches_oracle():
    tm = fig2_machine()
    r = choose_r_cot(7)
    params, _ = compile_cot(tm, r)
    converted, cfg = convert(params, "denoised", 2 ** r)
    trace = run_cot(converted, "aab", cfg)
    assert trace.segments[0] == cot_token_oracle(tm, "aab", r)
    assert trace.outcome == "output" and trace.output == ["a", "c", "b"]


def test_denoised_dfa_classifies_all_words():
    dfa = parity_dfa()
    params, _ = compile_dfa(dfa, 3)
    converted, cfg = convert(params, "denoised", 2 ** 3)
    import itertools

    for n in range(8):
        for word in itertools.product(dfa.alphabet, repeat=n):
            got = _classify(converted, word, cfg)
            want = TRUE if dfa_accepts(dfa, list(word)) else FALSE
            assert got == want, word


def test_trace_invariant_counts_on_a_broken_model():
    """Each invariant counts one per offending (position, head) or position."""
    import copy

    from tm2tf.automata import EINP, INP
    from tm2tf.netcore import Evaluator
    from tm2tf.harness import trace_invariant_violations

    params, _ = compile_cot(fig2_machine(), 6)
    broken = copy.deepcopy(params)
    broken.qk_scale = 0.5  # q, k become +-1/2 and dot products quarter-integers
    broken.unemb[:] = 0  # every output score ties
    for layer in broken.layers:
        if len(layer.heads) > 1:
            layer.heads[1].wk[:] = 0  # every key of the second head ties
    ev = Evaluator(broken, EvalConfig(capture_trace="audit"))
    ev.extend([INP, "a", "b", "a", EINP])
    ev.next_token()
    assert trace_invariant_violations([ev.trace]) == {
        "ternary": 346,
        "score_gap": 94,
        "tie_values": 5,
        "output_gap": 1,
    }


def test_attention_weight_rounding_bound_on_traces():
    from tm2tf.harness import attention_rounding_bound_violations

    tm = fig2_machine()
    r = choose_r_cot(7)
    params, _ = compile_cot(tm, r)
    converted, cfg = convert(params, "denoised", 2 ** r)
    att_fmt = cfg.att_precision.fmt
    trace = run_cot(converted, "aab", replace(cfg, capture_trace=True))
    assert trace.outcome == "output"
    assert (
        sum(attention_rounding_bound_violations(t, att_fmt) for t in trace.eval_traces)
        == 0
    )


def _margin_loop(hard_params, trace) -> int:
    """The pre-denoising margin audit in plain loops: each segment's tokens
    but a final stop token, which is never fed, go through the hardmax
    model one position at a time, and each position of each hardmax layer
    l whose x_mid is more than 1/4 from the converted model's at layer 2l
    counts once."""
    from tm2tf.automata import EOUTP, ESUMM
    from tm2tf.netcore import Evaluator

    violations = 0
    for seg, conv in zip(trace.segments, trace.eval_traces, strict=True):
        fed = seg[:-1] if seg[-1] in (EOUTP, ESUMM) else seg
        assert len(conv.x0) == len(fed)
        ev = Evaluator(hard_params, EvalConfig(attention="hardmax", capture_trace=True))
        for tok in fed:
            ev.extend([tok])
        for li, hard_lt in enumerate(ev.trace.layers):
            for p in range(len(fed)):
                dev = np.abs(conv.layers[2 * li].x_mid[p] - hard_lt.x_mid[p]).max()
                violations += bool(dev > 0.25 + 1e-12)
    return violations


def test_denoised_audit_counts_on_a_broken_model():
    """At c = 4, half the theorem's 8, attention leaks enough weight to push
    pre-denoising coordinates past 1/4 while its rounding stays in bound.
    The run fills its 64 positions, so the margin audit reads all of them,
    its last token's included, as the plain loop does."""
    from tm2tf.harness import _denoising_margin_violations, attention_rounding_bound_violations

    tm = fig2_machine()
    params, _ = compile_cot(tm, 6)
    converted, cfg = convert(params, "denoised", 64, c=4.0)
    trace = run_cot(converted, "aab", replace(cfg, capture_trace=True))
    assert trace.outcome == "budget_exceeded"
    assert _denoising_margin_violations(params, trace) == _margin_loop(params, trace) == 1012
    att_fmt = cfg.att_precision.fmt
    assert sum(attention_rounding_bound_violations(t, att_fmt) for t in trace.eval_traces) == 0


def _reconstructed_rounding(trace, att_fmt):
    """Each layer's (P, H) weight-rounding errors and the bound violations,
    recomputed from the traced scores one position at a time, as the
    evaluator computes them: the reference for the traced `att_err`."""
    from tm2tf.fpcore import round_array
    from tm2tf.netcore import separation, softmax_weights

    errs, violations = [], 0
    for lt in trace.layers:
        err = np.zeros(lt.att_err.shape)
        for i, dots in enumerate(lt.dots if lt.dots.size else []):
            scores = dots[..., : i + 1] / math.sqrt(lt.q.shape[-1])
            raw = softmax_weights(scores)
            rounded, _ = round_array(raw, att_fmt)
            err[i] = np.abs(rounded - raw).sum(axis=-1)
            bound = 2.0 ** (-att_fmt.mantissa_bits - 1) + (i + 1) * np.exp(-separation(scores))
            violations += int((err[i] > bound + 1e-12).sum())
        errs.append(err)
    return errs, violations


@pytest.mark.parametrize(
    "machine, protocol, word, c, att_fmt, count",
    [
        (fig2_machine, "cot", "aab", None, None, 0),
        (fig2_machine, "cot", "aab", None, FloatFormat(4, 3), 16),
        (lambda: bouncer_machine(4), "scot", "xyx", None, FloatFormat(4, 3), 236),
        (fig2_machine, "cot", "aab", 4.0, FloatFormat(4, 2), 296),
    ],
    ids=["fig2-cot-6", "fig2-cot-6-att43", "bouncer4-scot-6-att43", "fig2-cot-6-c4-att42"],
)
def test_traced_rounding_error_matches_its_reconstruction(
    machine, protocol, word, c, att_fmt, count
):
    """The traced att_err equals the per-position reconstruction byte for
    byte, and the audit counts what the reconstruction counts, at the
    theorem's c and at c = 4, under its attention format and below it."""
    from tm2tf.fpcore import Precision
    from tm2tf.harness import attention_rounding_bound_violations

    tm = machine()
    params, _ = (compile_cot if protocol == "cot" else compile_scot)(tm, 6)
    converted, cfg = convert(params, "denoised", 64, c=c)
    if att_fmt is not None:
        cfg = replace(cfg, att_precision=Precision(att_fmt))
    att_fmt = cfg.att_precision.fmt
    trace = (run_cot if protocol == "cot" else run_scot)(
        converted, word, replace(cfg, capture_trace=True)
    )
    reconstructed = 0
    for t in trace.eval_traces:
        errs, violations = _reconstructed_rounding(t, att_fmt)
        reconstructed += violations
        for err, lt in zip(errs, t.layers, strict=True):
            assert err.shape == lt.att_err.shape and err.tobytes() == lt.att_err.tobytes()
    audited = sum(attention_rounding_bound_violations(t, att_fmt) for t in trace.eval_traces)
    assert audited == reconstructed == count


def test_convert_settings_of_fig2_cot():
    """The one literal statement of what each mode picks, for fig2 CoT at
    r = 6 and N = 64."""
    params, _ = compile_cot(fig2_machine(), 6)
    hard, cfg = convert(params, "hardmax", 64)
    assert hard is params and cfg == EvalConfig()
    # mode: (c, layers, attention, activations, attention weights)
    want = {
        "scaled_only": (64.0, 23, "softmax", "custom:7,8", "exact"),
        "denoised": (8.0, 46, "softmax", "custom:1,3", "custom:4,4"),
    }
    for mode, settings in want.items():
        converted, cfg = convert(params, mode, 64)
        assert not cfg.capture_trace
        assert (
            converted.qk_scale,
            converted.dims.n_layers,
            cfg.attention,
            str(cfg.act_precision),
            str(cfg.att_precision),
        ) == settings, mode
    with pytest.raises(ValueError):
        convert(params, "scaled", 64)


def test_conversions_refuse_a_converted_model():
    """The mode, not qk_scale, marks a converted model: scaling by c = 1
    leaves qk_scale at 1."""
    params, _ = compile_dfa(parity_dfa(), 3)
    scaled = scale_qk(params, 1.0)
    assert scaled.qk_scale == 1.0 and scaled.mode == "scaled_only"
    denoised = convert_with_denoising(params, 8.0)
    for converted in (scaled, denoised):
        with pytest.raises(ConversionError):
            scale_qk(converted, 64.0)
        with pytest.raises(ConversionError):
            convert_with_denoising(converted, 8.0)
        for mode in ("scaled_only", "denoised"):
            with pytest.raises(ConversionError):
                convert(converted, mode, 8)


def test_eval_config_of_a_denoised_model_needs_its_context_bound():
    params, _ = compile_dfa(parity_dfa(), 3)
    denoised = convert_with_denoising(params, 8.0)
    with pytest.raises(ValueError):
        eval_config(denoised)
    converted, cfg = convert(params, "denoised", 8, c=8.0)
    assert converted.meta["N"] == 8 and eval_config(converted) == cfg
    assert "N" not in params.meta  # the source model is left as it was


def _parity_model():
    return compile_dfa(parity_dfa(), 2)[0]


# Each argument check as (call, message).
SOFTMAXIFY_REFUSALS = {
    "c0 exact": (lambda: c0_exact_attention(1, 1, 0, 1, 1), "all arguments must be >= 1"),
    "c0 denoising": (lambda: c0_denoising(4, 0), "arguments must be >= 1"),
    "exponent bits": (lambda: min_att_exponent_bits(0), "context bound must be >= 1"),
    "next power of two": (lambda: next_pow2_at_least(0.0), "x must be positive"),
    "theorem c of hardmax": (
        lambda: theorem_c("hardmax", _parity_model().dims, 4),
        "mode must be scaled_only or denoised",
    ),
    "eval config of an unknown mode": (
        lambda: eval_config(replace(_parity_model(), mode="unknown")),
        "mode must be one of hardmax, scaled_only, denoised, got 'unknown'",
    ),
    "convert to an unknown mode": (
        lambda: convert(_parity_model(), "scaled", 4),
        "mode must be one of hardmax, scaled_only, denoised",
    ),
    "context bound 0": (
        lambda: convert(_parity_model(), "scaled_only", 0),
        "context bound must be an integer >= 1, got 0",
    ),
    "fractional context bound": (
        lambda: convert(_parity_model(), "denoised", 4.0),
        "context bound must be an integer >= 1, got 4.0",
    ),
}


@pytest.mark.parametrize("case", list(SOFTMAXIFY_REFUSALS))
def test_softmaxify_refuses(case):
    call, message = SOFTMAXIFY_REFUSALS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
