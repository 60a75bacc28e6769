"""Pinned digests of compiled models: a refactor of the construction kit
must reproduce every weight array and the compile report bit for bit."""

import hashlib
import json

import pytest

from machines import copy_machine, fig2_machine
from tm2tf.compilers import build_rope_position_prefix, compile_cot, compile_dfa, compile_scot
from tm2tf.harness import acceptance_dfas


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


BUILDS = {
    "fig2-cot-6": lambda: compile_cot(fig2_machine(), 6),
    "fig2-scot-6": lambda: compile_scot(fig2_machine(), 6),
    "copy-cot-6": lambda: compile_cot(copy_machine(), 6),
    "copy-scot-6": lambda: compile_scot(copy_machine(), 6),
    "dfa0-3": lambda: compile_dfa(acceptance_dfas()[0], 3),
    "dfa1-3": lambda: compile_dfa(acceptance_dfas()[1], 3),
    "dfa2-3": lambda: compile_dfa(acceptance_dfas()[2], 3),
    "rope-3": lambda: build_rope_position_prefix(3),
}

# A change to a construction that alters any weight or report entry must
# update these on purpose.
PINNED = {
    "copy-cot-6": "b74df8189fe3ca0b5e48fb1b9c933e205c34c6fe6e018ec408aaf1ad6a9115fa",
    "copy-scot-6": "0b6c2b32e337e1cf0ac7958b49f4e42d70370a8b8b3125c97722339f78416365",
    "dfa0-3": "6b98e49ea0209c78d5dc86fde76c3764808ca9ac361fe0cf3685953b60e64a39",
    "dfa1-3": "a5626b1605e98eec568342d134df5c65f30695744ea1caa837dbaf5ad69cda96",
    "dfa2-3": "c97679086decf5dac1686c9668d53e4e47343f5d2468fb0459cbc11c6f1429b0",
    "fig2-cot-6": "2b184101fb18597d5fc09aea6c3c12d7c7fb755f84ead5330d5fbbf511aef2ea",
    "fig2-scot-6": "f42245d2305092312a4baba06b4b93188e46fd902018e0cf529908c45f1239ae",
    "rope-3": "e7ad54550e1f4de3693980ff5c5f2a5b6535222a403cbee771ae8e9e3961ea9c",
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_compiled_model_matches_pinned_digest(name):
    assert _digest(*BUILDS[name]()) == PINNED[name]
