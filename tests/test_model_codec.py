"""The model-file codec against a per-array reference.

`params_to_json` encodes and `params_from_json` decodes the sparse weight
entries of a whole model at once. The reference below is the per-array
codec they replace: one flatnonzero per array to save, and per array a
type check, an int64 conversion and the length, index and code checks to
load. Saved text must be byte-identical to the reference's, and every
refused document must be refused with the reference's exception type and
message, including documents with two faults, where the first failing
entry, in the reference's order, must be the one named."""

import itertools
import json
import math

import numpy as np
import pytest
from model_docs import CORRUPTIONS, HUGE
from test_cli import _model_file_cases
from test_netcore import _compile, _padded, _softmax_case

from tm2tf.netcore import (
    MODEL_FORMAT,
    Dims,
    HeadParams,
    LayerParams,
    TransformerParams,
    _HEAD_KEYS,
    _pos_from_json,
    _pos_to_json,
    check_dims,
    params_from_json,
    save_model,
)

# ---------------------------------------------------------------------------
# the per-array reference codec


def _ref_sparse(a: np.ndarray) -> dict:
    flat = a.reshape(-1)
    at = np.flatnonzero(flat)
    return {"shape": list(a.shape), "at": at.tolist(), "codes": flat[at].tolist()}


def _ref_to_json(params: TransformerParams) -> dict:
    return {
        "format": MODEL_FORMAT,
        "dims": dict(vars(params.dims)),
        "vocab": params.vocab,
        "positional": _pos_to_json(params.positional),
        "qk_scale": float(params.qk_scale).hex(),
        "source": params.source,
        "mode": params.mode,
        "meta": dict(params.meta),
        "emb": _ref_sparse(params.emb),
        "unemb": _ref_sparse(params.unemb),
        "layers": [
            {
                "heads": [{k: _ref_sparse(getattr(h, k)) for k in _HEAD_KEYS} for h in layer.heads],
                "w1": _ref_sparse(layer.w1),
                "bias4": _ref_sparse(layer.bias4),
                "w2": _ref_sparse(layer.w2),
            }
            for layer in params.layers
        ],
    }


def _ref_ints(values, name: str) -> np.ndarray:
    if type(values) is not list or not set(map(type, values)) <= {int}:
        raise ValueError(f"{name} must be a list of integers")
    return np.array(values, dtype=np.int64)


def _ref_weights(entry: dict, shape: tuple, dtype, name: str) -> np.ndarray:
    if type(entry) is not dict:
        raise ValueError(f"{name} must be a sparse array {{shape, at, codes}}")
    if entry["shape"] != list(shape) or not all(type(n) is int for n in entry["shape"]):
        raise ValueError(f"{name} has shape {entry['shape']!r}, expected {list(shape)}")
    at, codes = _ref_ints(entry["at"], f"{name} at"), _ref_ints(entry["codes"], f"{name} codes")
    size, info = math.prod(shape), np.iinfo(dtype)
    if at.size != codes.size:
        raise ValueError(f"{name} has {at.size} indices but {codes.size} codes")
    if at.size and (at[0] < 0 or at[-1] >= size or not np.all(at[1:] > at[:-1])):
        raise ValueError(f"{name} indices must be strictly increasing and in [0, {size})")
    if not np.all(codes != 0) or codes.min(initial=0) < info.min or codes.max(initial=0) > info.max:
        raise ValueError(f"{name} codes must be nonzero and within {info.dtype}")
    out = np.zeros(math.prod(shape), dtype)
    out[at] = codes
    return out.reshape(shape)


def _ref_from_json(doc: dict) -> TransformerParams:
    if type(doc) is not dict or type(doc.get("format")) is not int or doc["format"] != MODEL_FORMAT:
        raise ValueError(
            f"not a format-{MODEL_FORMAT} model file: compile or convert the model again"
        )
    dims = Dims(**doc["dims"])
    if not isinstance(doc["vocab"], list):
        raise ValueError("vocab must be a list of tokens")
    d, n_vocab = dims.d, len(doc["vocab"])
    check_dims(dims, n_vocab)
    if len(doc["layers"]) != dims.n_layers:
        raise ValueError(f"{len(doc['layers'])} layers but dims.n_layers = {dims.n_layers}")
    head_shapes = (dims.d_k, d), (dims.d_k, d), (dims.d_v, d), (d, dims.d_v)
    layers = []
    for li, ldoc in enumerate(doc["layers"]):
        if len(ldoc["heads"]) > dims.n_heads:
            raise ValueError(f"layer {li} has more than n_heads = {dims.n_heads} heads")
        heads = [
            HeadParams(
                *(
                    _ref_weights(h[k], shape, np.int8, f"layer {li} head {hi} {k}")
                    for k, shape in zip(_HEAD_KEYS, head_shapes)
                )
            )
            for hi, h in enumerate(ldoc["heads"])
        ]
        m = ldoc["bias4"]["shape"][0] if ldoc["bias4"]["shape"] else None
        if type(m) is not int or not 0 <= m <= dims.d_ff:
            raise ValueError(f"layer {li} bias4 shape must be [m], 0 <= m <= d_ff = {dims.d_ff}")
        layers.append(
            LayerParams(
                heads=heads,
                w1=_ref_weights(ldoc["w1"], (m, d), np.int8, f"layer {li} w1"),
                bias4=_ref_weights(ldoc["bias4"], (m,), np.int32, f"layer {li} bias4"),
                w2=_ref_weights(ldoc["w2"], (d, m), np.int8, f"layer {li} w2"),
            )
        )
    params = TransformerParams(
        dims=dims,
        vocab=list(doc["vocab"]),
        emb=_ref_weights(doc["emb"], (n_vocab, d), np.int8, "emb"),
        unemb=_ref_weights(doc["unemb"], (n_vocab, d), np.int8, "unemb"),
        positional=_pos_from_json(doc["positional"]),
        layers=layers,
        qk_scale=float.fromhex(doc["qk_scale"]),
        source=doc.get("source", ""),
        mode=doc.get("mode", "hardmax"),
        meta=doc.get("meta", {}),
    )
    params.validate_weights()
    return params


def _refusal(load, doc) -> tuple[str, str] | None:
    """(exception type, message) that load raises on doc, or None."""
    try:
        load(doc)
    except Exception as exc:  # noqa: BLE001 - every refusal is compared
        return type(exc).__name__, str(exc)
    return None


def _arrays(params: TransformerParams) -> list[np.ndarray]:
    arrays = [params.emb, params.unemb]
    for layer in params.layers:
        arrays += [getattr(h, k) for h in layer.heads for k in _HEAD_KEYS]
        arrays += [layer.w1, layer.bias4, layer.w2]
    return arrays


# ---------------------------------------------------------------------------
# encoding


def _bouncer8(mode: str) -> TransformerParams:
    from machines import bouncer_machine

    from tm2tf.compilers import compile_cot
    from tm2tf.softmaxify import convert

    r = 10
    params = compile_cot(bouncer_machine(8), r)[0]
    return params if mode == "hardmax" else convert(params, mode, 2 ** r)[0]


_KINDS = {
    **{kind: (lambda kind=kind: _compile(kind)[0]) for kind in ("dfa", "cot", "scot", "rope")},
    **{mode: (lambda mode=mode: _softmax_case(mode)[0]) for mode in ("scaled_only", "denoised")},
    "padded": lambda: _padded(_compile("cot")[0]),
    "bouncer8-hardmax": lambda: _bouncer8("hardmax"),
    "bouncer8-denoised": lambda: _bouncer8("denoised"),
}


@pytest.mark.parametrize("kind", _KINDS)
def test_saved_text_and_loaded_arrays_match_the_per_array_codec(kind, tmp_path):
    params = _KINDS[kind]()
    path = tmp_path / "model.json"
    save_model(params, str(path))
    text = path.read_text()
    assert text == json.dumps(_ref_to_json(params), separators=(",", ":"))
    got, want = params_from_json(json.loads(text)), _ref_from_json(json.loads(text))
    for a, b in zip(_arrays(got), _arrays(want), strict=True):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


# ---------------------------------------------------------------------------
# refusals


@pytest.fixture(scope="module")
def dfa_doc() -> dict:
    from tm2tf.netcore import params_to_json

    return params_to_json(_compile("dfa")[0])


def _copy(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_corruptions_are_refused_as_the_per_array_codec_refuses_them(name, dfa_doc):
    doc = _copy(dfa_doc)
    CORRUPTIONS[name](doc)
    want = _refusal(_ref_from_json, doc)
    assert want is not None
    assert _refusal(params_from_json, doc) == want


def test_model_file_cases_are_refused_as_the_per_array_codec_refuses_them(tmp_path):
    from machines import parity_dfa

    from tm2tf.automata import dfa_to_json

    spec = tmp_path / "dfa.json"
    spec.write_text(json.dumps(dfa_to_json(parity_dfa())))
    compared = 0
    for name, path in _model_file_cases(tmp_path, str(spec)):
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError, RecursionError):
            continue  # refused before the codec: missing, not UTF-8, not JSON, too deep
        want = _refusal(_ref_from_json, doc)
        assert want is not None, name
        assert _refusal(params_from_json, doc) == want, name
        compared += 1
    assert compared >= len(CORRUPTIONS) + 20


def _edit(fn):
    return lambda parent, key: fn(parent[key])


def _put(key, index, value):
    return _edit(lambda e: e[key].__setitem__(index, value(e) if callable(value) else value))


# Faults of one sparse entry with at least two codes, one check each.
_ENTRY_FAULTS = {
    "not-a-dict": lambda parent, key: parent.__setitem__(key, []),
    "wrong-shape": _edit(lambda e: e["shape"].append(1)),
    "no-at": _edit(lambda e: e.pop("at")),
    "at-not-a-list": _edit(lambda e: e.update(at="0")),
    "fractional-index": _put("at", 0, 0.0),
    "huge-index": _put("at", -1, HUGE),
    "no-codes": _edit(lambda e: e.pop("codes")),
    "codes-not-a-list": _edit(lambda e: e.update(codes=None)),
    "boolean-code": _put("codes", 0, True),
    "huge-code": _put("codes", 0, -HUGE),
    "extra-code": _edit(lambda e: e["codes"].append(1)),
    "unsorted-indices": _edit(lambda e: e["at"].reverse()),
    "index-past-end": _put("at", -1, lambda e: math.prod(e["shape"])),
    "zero-code": _put("codes", -1, 0),
    "code-beyond-int32": _put("codes", -1, 2 ** 31),
}

# Faults of a layer, found before its entries' own checks.
_LAYER_FAULTS = {
    "too-many-heads": _edit(lambda layer: layer.update(heads=layer["heads"] * 9)),
    "rows-beyond-d_ff": _edit(lambda layer: layer["bias4"]["shape"].__setitem__(0, 10 ** 10)),
}


def _entry_paths(doc: dict) -> dict[str, tuple]:
    """(container path, key) of three entries with two codes or more: a
    head's wq, a later layer's bias4, and emb, in the loader's order."""
    layers = doc["layers"]
    li = next(
        i
        for i, layer in enumerate(layers)
        if layer["heads"] and len(layer["heads"][0]["wq"]["at"]) > 1
    )
    lj = max(i for i, layer in enumerate(layers) if len(layer["bias4"]["at"]) > 1)
    assert li < lj and len(doc["emb"]["at"]) > 1
    return {
        "wq": (("layers", li, "heads", 0), "wq"),
        "bias4": (("layers", lj), "bias4"),
        "emb": ((), "emb"),
    }


def _container(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _apply(doc, path, key, fault) -> bool:
    """Apply fault to an entry; False if an earlier fault left nothing to break."""
    try:
        fault(_container(doc, path), key)
    except (KeyError, TypeError, IndexError, AttributeError):
        return False
    return True


@pytest.mark.parametrize(
    "first,second", list(itertools.combinations_with_replacement(["wq", "bias4", "emb"], 2))
)
def test_two_faults_are_refused_as_the_per_array_codec_refuses_them(first, second, dfa_doc):
    """The first failing entry is named, with its first failing check,
    whichever checks the two faults break."""
    paths = _entry_paths(dfa_doc)
    compared = 0
    for (x, fx), (y, fy) in itertools.product(_ENTRY_FAULTS.items(), repeat=2):
        doc = _copy(dfa_doc)
        if not (_apply(doc, *paths[first], fx) and _apply(doc, *paths[second], fy)):
            continue
        if doc == dfa_doc:
            continue  # the second fault undid the first
        want = _refusal(_ref_from_json, doc)
        assert want is not None and _refusal(params_from_json, doc) == want, (x, y)
        compared += 1
    assert compared > len(_ENTRY_FAULTS) ** 2 // 2
    if second == "emb":
        return
    layer = paths[second][0][1]
    for (x, fx), (y, fy) in itertools.product(_ENTRY_FAULTS.items(), _LAYER_FAULTS.items()):
        doc = _copy(dfa_doc)
        if _apply(doc, *paths[first], fx) and _apply(doc, ("layers",), layer, fy):
            want = _refusal(_ref_from_json, doc)
            assert want is not None and _refusal(params_from_json, doc) == want, (x, y)
