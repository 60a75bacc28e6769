"""Pinned digests of compiled models: a refactor of the construction kit
must reproduce every weight array and the compile report bit for bit."""

import hashlib
import json

import pytest

from machines import bouncer_machine, copy_machine, fig2_machine
from tm2tf import harness
from tm2tf.compilers import build_rope_position_prefix, compile_cot, compile_dfa, compile_scot
from tm2tf.harness import acceptance_dfas
from tm2tf.softmaxify import convert_with_denoising, theorem_c


def _digest(params, report) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(params.vocab).encode())
    arrays = [params.emb, params.unemb]
    for layer in params.layers:
        h.update(f"layer with {len(layer.heads)} heads".encode())
        for head in layer.heads:
            arrays += [head.wq, head.wk, head.wv, head.wo]
        arrays += [layer.w1, layer.bias4, layer.w2]
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    h.update(json.dumps(report.to_json(), sort_keys=True).encode())
    return h.hexdigest()


def _denoised_fig2_cot_6():
    params, report = compile_cot(fig2_machine(), 6)
    c = theorem_c("denoised", report.dims, 2 ** 6)
    converted = convert_with_denoising(params, c)
    return converted, report


def _trial_models_digest() -> str:
    """One digest over every model that validate_cot and validate_scot
    compile at trials=1 for seeds 0-27, in compile order."""
    h = hashlib.sha256()

    def recording(compile_fn):
        def wrapped(tm, r):
            params, report = compile_fn(tm, r)
            h.update(_digest(params, report).encode())
            return params, report

        return wrapped

    mp = pytest.MonkeyPatch()
    mp.setattr(harness, "compile_cot", recording(compile_cot))
    mp.setattr(harness, "compile_scot", recording(compile_scot))
    try:
        for seed in range(28):
            harness.validate_cot(seed, 1)
            harness.validate_scot(seed, 1)
    finally:
        mp.undo()
    return h.hexdigest()


BUILDS = {
    "fig2-cot-6": lambda: _digest(*compile_cot(fig2_machine(), 6)),
    "fig2-scot-6": lambda: _digest(*compile_scot(fig2_machine(), 6)),
    "copy-cot-6": lambda: _digest(*compile_cot(copy_machine(), 6)),
    "copy-scot-6": lambda: _digest(*compile_scot(copy_machine(), 6)),
    "bouncer4-scot-6": lambda: _digest(*compile_scot(bouncer_machine(4), 6)),
    "bouncer8-cot-10": lambda: _digest(*compile_cot(bouncer_machine(8), 10)),
    "fig2-cot-6-denoised": lambda: _digest(*_denoised_fig2_cot_6()),
    "dfa0-3": lambda: _digest(*compile_dfa(acceptance_dfas()[0], 3)),
    "dfa1-3": lambda: _digest(*compile_dfa(acceptance_dfas()[1], 3)),
    "dfa2-3": lambda: _digest(*compile_dfa(acceptance_dfas()[2], 3)),
    "rope-3": lambda: _digest(*build_rope_position_prefix(3)),
    "trials-0-27": _trial_models_digest,
}

# A change to a construction that alters any weight or report entry must
# update these on purpose.
PINNED = {
    "bouncer4-scot-6": "7cd6e0932d0eef4df1e8f81bcafb29228f6bb58744027abae266f69bcd16a9c8",
    "bouncer8-cot-10": "be018dc0ae15d46a7e2cbc557f3f776647a7d928f6a6bd4401f681fa2a5510f9",
    "copy-cot-6": "b74df8189fe3ca0b5e48fb1b9c933e205c34c6fe6e018ec408aaf1ad6a9115fa",
    "copy-scot-6": "0b6c2b32e337e1cf0ac7958b49f4e42d70370a8b8b3125c97722339f78416365",
    "dfa0-3": "86ab537b23cf24efdd672165c79e0d8e332fd243b42de421e768b9c4de5515cb",
    "dfa1-3": "0d7e4b2244a1a0d0de3153adc34fb0d5eaa33a1ffbb2f2ecb939bd4310e6fbed",
    "dfa2-3": "8a7f6273a86904be83389d844e5c905cb16e1a6775ea59c564902c6d48b80dad",
    "fig2-cot-6": "2b184101fb18597d5fc09aea6c3c12d7c7fb755f84ead5330d5fbbf511aef2ea",
    "fig2-cot-6-denoised": "85022eb774eb6918be9c60b6de9d187cc2abb52adf5bae8ba225d27b6323aa97",
    "fig2-scot-6": "f42245d2305092312a4baba06b4b93188e46fd902018e0cf529908c45f1239ae",
    "rope-3": "e7ad54550e1f4de3693980ff5c5f2a5b6535222a403cbee771ae8e9e3961ea9c",
    "trials-0-27": "f28d3bc68a4a35676d5ad0e84857246c08caa13e85ad3310bc0320c87c8aab4d",
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_compiled_model_matches_pinned_digest(name):
    assert BUILDS[name]() == PINNED[name]
