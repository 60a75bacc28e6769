import math

import pytest

from tm2tf.compilers import build_rope_position_prefix, rope_dims
from tm2tf.gadgets import bin_pm1
from tm2tf.netcore import EvalConfig, forward


def test_rope_dims():
    for r in (1, 2, 3, 4):
        dims = rope_dims(r)
        assert dims.d == 2 * r + 3
        assert dims.d_k == 2 * (r + 2) + 2
        assert dims.d_v == 1
        assert dims.n_heads == 2
        assert dims.n_layers == r + 1


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_rope_recovers_binary_positions(r):
    params, report = build_rope_position_prefix(r)
    res_coords = report.registers["res"]
    tokens = ["first"] + ["rest"] * (2 ** r - 1)
    reps, trace = forward(params, tokens, EvalConfig(capture_trace=True))
    for i in range(2 ** r):
        got = tuple(int(v) for v in reps[i][res_coords])
        assert got == bin_pm1(r, i), f"position {i}"


def test_rope_position_zero_all_minus():
    params, report = build_rope_position_prefix(3)
    res_coords = report.registers["res"]
    reps, _ = forward(params, ["first"], EvalConfig())
    assert tuple(reps[0][res_coords]) == (-1.0, -1.0, -1.0)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_rope_score_separation(r):
    """Minimal hardmax dot-product separation >= 1/2, i.e. scores 1/(2 sqrt(dk))."""
    params, _ = build_rope_position_prefix(r)
    d_k = params.dims.d_k
    tokens = ["first"] + ["rest"] * (2 ** r - 1)
    _, trace = forward(params, tokens, EvalConfig(capture_trace=True))
    min_sep = math.inf
    for lt in trace.layers:
        for i, row in enumerate(lt.dots):
            for dots in row[..., : i + 1]:
                if dots.size == 0 or not dots.any():
                    continue  # zero-padding head
                best = dots.max()
                rest = dots[dots < best - 1e-9]
                if rest.size:
                    min_sep = min(min_sep, best - rest.max())
    assert min_sep >= 0.5 - 1e-9
    assert min_sep / math.sqrt(d_k) >= 1.0 / (2.0 * math.sqrt(d_k)) - 1e-12


def test_rope_mod_flags(monkeypatch=None):
    r = 3
    params, report = build_rope_position_prefix(r)
    tokens = ["first"] + ["rest"] * (2 ** r - 1)
    reps, _ = forward(params, tokens, EvalConfig())
    for k in range(1, r + 1):
        coord = report.registers[f"mod_2^{k}"][0]
        for i in range(2 ** r):
            want = 1.0 if i % (2 ** k) == 0 else 0.0
            assert reps[i][coord] == want, (k, i)


@pytest.mark.parametrize("r", [0, -1])
def test_rope_prefix_refuses_r_below_1(r):
    with pytest.raises(ValueError, match="r must be >= 1"):
        build_rope_position_prefix(r)
