"""Pinned digests of compiled models: a refactor of the construction kit
must reproduce every weight array and the compile report bit for bit."""

import hashlib
import json

import pytest

from machines import bouncer_machine, copy_machine, fig2_machine, tally_machine
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
    "tally-cot-8": lambda: _digest(*compile_cot(tally_machine(), 8)),
    "tally-scot-6": lambda: _digest(*compile_scot(tally_machine(), 6)),
    "trials-0-27": _trial_models_digest,
}

# A change to a construction that alters any weight or report entry must
# update these on purpose.
PINNED = {
    "bouncer4-scot-6": "af472159678e0af3e74e8d3f392fff2f82da29194259c180af7c25cc5151ed9a",
    "bouncer8-cot-10": "fc55d024462349d58ce660f35fd5fdc7e4f19f40bbe8da76fac846bb2cdfecd1",
    "copy-cot-6": "0553aba9a4fca732dc01e5ba0605321e0d287734028c71b7ace106a835d50b13",
    "copy-scot-6": "65308999ccb07482f1bff7220296bff15877c5b47df8fb4b3253ecc37586a0a8",
    "dfa0-3": "86ab537b23cf24efdd672165c79e0d8e332fd243b42de421e768b9c4de5515cb",
    "dfa1-3": "0d7e4b2244a1a0d0de3153adc34fb0d5eaa33a1ffbb2f2ecb939bd4310e6fbed",
    "dfa2-3": "8a7f6273a86904be83389d844e5c905cb16e1a6775ea59c564902c6d48b80dad",
    "fig2-cot-6": "2634aa0fe610c7523972296bbf7022e38612cc0555819a57c8df1c1fa590c3a6",
    "fig2-cot-6-denoised": "110008208d61cf70f8fa08da2bd2f0783aba9d58621e46da9a2d4363fe0b1bb0",
    "fig2-scot-6": "b802cfd981d780acf06ef93c15d8682ad65c88933a130be181845f01b23df714",
    "rope-3": "e7ad54550e1f4de3693980ff5c5f2a5b6535222a403cbee771ae8e9e3961ea9c",
    "tally-cot-8": "2ee3a413364cd69d01f01ac120c35b5b6fd5671fada99ecde37ebe5466296cfc",
    "tally-scot-6": "6f93569a89ed14eed77509abb29cdd0e018390f647f041065049b410ed420ebd",
    "trials-0-27": "f1e676730eff807a1ad6a7a87340120e800a0f5fa33154546a09fe020cea8089",
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_compiled_model_matches_pinned_digest(name):
    assert BUILDS[name]() == PINNED[name]
