"""Models hold their layers' weights as entries (`netcore.HeadEntries`,
`netcore.MlpEntries`): compiling, loading, checking, saving and planning
read those, and a layer builds dense arrays only when code reads one."""

import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import machines
from tm2tf import harness, netcore
from tm2tf.compilers import compile_cot, compile_scot
from tm2tf.gadgets import HeadSpec, ModelBuilder, RegisterLayout, single_neuron
from tm2tf.generation import run_cot, run_scot
from tm2tf.netcore import (
    Dims,
    EvalConfig,
    EvalPlan,
    HeadEntries,
    HeadParams,
    LayerParams,
    MlpEntries,
    NoPositional,
    TransformerParams,
    load_model,
    params_from_json,
    params_to_json,
    save_model,
)

_HEAD_KEYS = ("wq", "wk", "wv", "wo")
_CONFIGS = (EvalConfig(), EvalConfig(attention="softmax"))  # an exact plan and one that is not


@pytest.fixture
def materialized(monkeypatch):
    """The parts whose dense arrays get built, listed as they are built."""
    built = []
    for cls in (HeadEntries, MlpEntries):
        dense = cls.dense

        def counted(part, dense=dense):
            if part._dense is None:
                built.append(part)
            return dense(part)

        monkeypatch.setattr(cls, "dense", counted)
    return built


def test_validation_builds_no_dense_layer_array(materialized):
    """The validation paths compile, check, plan and run models from their
    entries alone."""
    for seed in range(3):
        assert harness.validate_cot(seed, 1).ok
        assert harness.validate_scot(seed, 1).ok
    assert harness.validate_dfa(harness.acceptance_dfas()[:2], r=3, max_len=3).ok
    assert materialized == []


@pytest.mark.parametrize("protocol", ["cot", "scot"])
def test_runs_of_compiled_and_loaded_models_build_no_dense_layer_array(
    protocol, materialized, tmp_path
):
    compile_fn, runner = (compile_cot, run_cot) if protocol == "cot" else (compile_scot, run_scot)
    params, _ = compile_fn(machines.fig2_machine(), 6)
    path = str(tmp_path / "model.json")
    save_model(params, path)
    for model in (params, load_model(path)):
        for level in (False, "audit", True):
            assert runner(model, "abab", EvalConfig(capture_trace=level)).outcome == "output"
    assert materialized == []


def _same(a, b) -> bool:
    """Plans alike array for array: values and their bits (so the sign of
    zero), dtype, shape and memory order, and None in the same places."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            type(a) is type(b)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
            and a.flags.c_contiguous == b.flags.c_contiguous
            and a.flags.f_contiguous == b.flags.f_contiguous
        )
    return a == b


def _assert_twins(held: TransformerParams, dense: TransformerParams) -> None:
    """Equal plans under both exactness kinds, and the same model text."""
    for cfg in _CONFIGS:
        one, other = EvalPlan(held, cfg), EvalPlan(dense, cfg)
        assert one.sizes == other.sizes
        assert _same((one.emb, one.unemb_t, one.layers), (other.emb, other.unemb_t, other.layers))
    assert json.dumps(params_to_json(held)) == json.dumps(params_to_json(dense))


def _refusal(fn) -> tuple[type, str] | None:
    try:
        fn()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def _materialize(params: TransformerParams) -> TransformerParams:
    """A deep copy whose layers have built every dense array."""
    twin = copy.deepcopy(params)
    for layer in twin.layers:
        _ = layer.heads, layer.w1  # reading them builds them
    return twin


@st.composite
def _sparse(draw, shape: tuple[int, ...], codes) -> dict:
    size = int(np.prod(shape))
    at = sorted(draw(st.sets(st.integers(0, size - 1), max_size=min(size, 6)))) if size else []
    return {"shape": list(shape), "at": at, "codes": [draw(codes) for _ in at]}


@st.composite
def _model_docs(draw) -> dict:
    """Model files of small random models, with codes in and out of range."""
    d, d_k, d_v = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    n_heads, d_ff = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    n_layers = draw(st.integers(1, 3))
    vocab = ["a", "b", "c"][: draw(st.integers(1, 3))]
    rare = st.integers(-40, 40).filter(bool)  # outside every bound now and then
    head, mlp = st.sampled_from([1, -1, 1, -1, 2]), st.sampled_from([1, -1, 2, -2, 3])
    layers = []
    for _ in range(n_layers):
        shapes = [(d_k, d), (d_k, d), (d_v, d), (d, d_v)]
        heads = [
            {k: draw(_sparse(s, head)) for k, s in zip(_HEAD_KEYS, shapes)}
            for _ in range(draw(st.integers(0, n_heads)))
        ]
        m = draw(st.integers(0, d_ff))
        layers.append({
            "heads": heads,
            "w1": draw(_sparse((m, d), mlp)),
            "bias4": draw(_sparse((m,), st.one_of(st.integers(-9, 9).filter(bool), rare))),
            "w2": draw(_sparse((d, m), mlp)),
        })
    dims = dict(d=d, d_k=d_k, d_v=d_v, d_ff=d_ff, n_heads=n_heads, n_layers=n_layers)
    ternary = st.sampled_from([1, -1])
    return {
        "format": netcore.MODEL_FORMAT,
        "dims": dims,
        "vocab": vocab,
        "positional": {"kind": "none"},
        "qk_scale": draw(st.sampled_from([1.0, 4.0])).hex(),
        "source": "",
        "mode": "hardmax",
        "meta": {},
        "emb": draw(_sparse((len(vocab), d), ternary)),
        "unemb": draw(_sparse((len(vocab), d), ternary)),
        "layers": layers,
    }


def _dense(entry: dict, dtype=np.int8) -> np.ndarray:
    a = np.zeros(entry["shape"], dtype)
    a.reshape(-1)[entry["at"]] = entry["codes"]
    return a


def _dense_model(doc: dict) -> TransformerParams:
    """The document's model built from dense arrays, as a hand-made one is."""
    layers = [
        LayerParams(
            [HeadParams(*(_dense(h[k]) for k in _HEAD_KEYS)) for h in ldoc["heads"]],
            _dense(ldoc["w1"]),
            _dense(ldoc["bias4"], np.int32),
            _dense(ldoc["w2"]),
        )
        for ldoc in doc["layers"]
    ]
    return TransformerParams(
        dims=Dims(**doc["dims"]),
        vocab=list(doc["vocab"]),
        emb=_dense(doc["emb"]),
        unemb=_dense(doc["unemb"]),
        positional=NoPositional(),
        layers=layers,
        qk_scale=float.fromhex(doc["qk_scale"]),
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_model_docs())
def test_a_loaded_model_and_its_dense_twin_agree(doc):
    """A loaded model holds entries; its twin built from dense arrays gives
    the same refusal, or else the same plans and model text, and so does a
    copy of the loaded model that built its dense arrays."""
    dense = _dense_model(doc)
    refused = _refusal(dense.validate_weights)
    assert _refusal(lambda: params_from_json(doc)) == refused
    if refused is None:
        held = params_from_json(doc)
        _assert_twins(held, dense)
        _assert_twins(_materialize(held), dense)


@st.composite
def _builds(draw) -> tuple:
    """(dims, head specs per layer, MLP neuron outputs per layer) of a small
    builder model. Head rows may name a coordinate twice, which sums its
    signs, to +-2 or to 0."""
    d, d_k, d_v = draw(st.integers(2, 4)), draw(st.integers(1, 3)), 1
    n_layers = draw(st.integers(1, 2))
    coord = st.integers(0, d - 1)
    row = st.lists(st.tuples(coord, st.sampled_from([1, -1])), max_size=3)
    heads, neurons = [], []
    for layer in range(n_layers):
        heads.append([
            HeadSpec(
                f"h{layer}-{i}",
                tuple(draw(st.lists(row, max_size=d_k))),
                tuple(draw(st.lists(row, max_size=d_k))),
                tuple(draw(st.lists(row, min_size=1, max_size=d_v))),
                (draw(coord),),
            )
            for i in range(draw(st.integers(0, 2)))
        ])
        outputs = st.dictionaries(coord, st.sampled_from([1, -1, 2]), max_size=2)
        neurons.append([draw(outputs) for _ in range(draw(st.integers(0, 2)))])
    dims = Dims(d=d, d_k=d_k, d_v=d_v, d_ff=2, n_heads=2, n_layers=n_layers)
    return dims, heads, neurons


def _built_dense_twin(dims: Dims, heads, neurons) -> TransformerParams:
    """The builder's model filled densely the way it once was: head rows
    summed with np.add.at, output columns set to 1, MLP rows assigned."""
    d, d_k = dims.d, dims.d_k
    layers = []
    for specs, blocks in zip(heads, neurons):
        dense_heads = []
        for spec in specs:
            w = np.zeros((2 * d_k + dims.d_v, d), np.int8)
            for base, rows in zip((0, d_k, 2 * d_k), (spec.q_rows, spec.k_rows, spec.v_rows)):
                for i, pairs in enumerate(rows):
                    for c, s in pairs:
                        np.add.at(w, (base + i, c), np.int8(s))
            wo = np.zeros((d, dims.d_v), np.int8)
            wo[list(spec.out_coords), range(len(spec.out_coords))] = 1
            dense_heads.append(HeadParams(w[:d_k], w[d_k : 2 * d_k], w[2 * d_k :], wo))
        m = len(blocks)
        w1, bias4, w2 = np.zeros((m, d), np.int8), np.zeros(m, np.int32), np.zeros((d, m), np.int8)
        for i, out in enumerate(blocks):
            n = single_neuron([], [], out)
            w1[i, n.ins[:, 1]] = n.ins[:, 2]
            bias4[i] = n.bias4[0]
            w2[n.outs[:, 1], i] = n.outs[:, 2]
        layers.append(LayerParams(dense_heads, w1, bias4, w2))
    return TransformerParams(
        dims=dims, vocab=["t"], emb=np.zeros((1, d), np.int8), unemb=np.zeros((1, d), np.int8),
        positional=NoPositional(), layers=layers, source="test", meta={"r": 1},
    )


def _build(dims: Dims, heads, neurons) -> TransformerParams:
    layout = RegisterLayout()
    layout.register("x", dims.d)
    builder = ModelBuilder(layout, dims.n_layers)
    for layer, (specs, blocks) in enumerate(zip(heads, neurons), 1):
        for spec in specs:
            builder.add_head(layer, spec)
        if blocks:
            builder.add_neurons(layer, [single_neuron([], [], out) for out in blocks], f"op{layer}")
    return builder.finalize(["t"], dims, NoPositional(), "test", 1)[0]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_builds())
def test_a_built_model_and_its_densely_filled_twin_agree(build):
    """`finalize` sums repeated head entries as np.add.at did and drops
    the zeros: the same refusal as the densely filled twin, or else the
    same plans and model text."""
    dims, heads, neurons = build
    # the builder refuses a head whose output overlaps another's: keep the first
    kept = []
    for specs in heads:
        taken: set = set()
        kept.append([])
        for spec in specs:
            if taken.isdisjoint(spec.out_coords):
                taken.update(spec.out_coords)
                kept[-1].append(spec)
    dense = _built_dense_twin(dims, kept, neurons)
    refused = _refusal(dense.validate_weights)
    assert _refusal(lambda: _build(dims, kept, neurons)) == refused
    if refused is None:
        held = _build(dims, kept, neurons)
        _assert_twins(held, dense)
        _assert_twins(_materialize(held), dense)


def test_an_edit_after_materialization_is_the_weights():
    """Once a layer has built its arrays they are its weights: an edit made
    through them shows in the next plan, the next check and the saved file,
    and a layer that shares the entries (a converted model's) sees it too."""
    from tm2tf.softmaxify import convert

    params, _ = compile_cot(machines.fig2_machine(), 6)
    converted, _ = convert(params, "denoised", 2 ** 6)
    li = next(i for i, layer in enumerate(params.layers) if len(layer.heads) > 1)
    before = EvalPlan(params, EvalConfig()).layers[li][0]
    wq = params.layers[li].heads[1].wq
    wq[0, 0] = 0 if wq[0, 0] else 1
    params.layers[li].w2[0, 0] = 2
    twin = _materialize(params)
    _assert_twins(params, twin)
    assert not _same(EvalPlan(params, EvalConfig()).layers[li][0], before)
    # the converted model's layer holds the same heads and MLP
    assert converted.layers[2 * li].heads is params.layers[li].heads
    assert converted.layers[2 * li + 1].w2[0, 0] == 2
    params.layers[li].heads[1].wk[0, 0] = 2
    with pytest.raises(ValueError, match=f"layer {li} head 1 wk codes must lie in"):
        params.validate_weights()
    with pytest.raises(ValueError, match=f"layer {2 * li} head 1 wk codes must lie in"):
        converted.validate_weights()
