import json

import numpy as np
import pytest

from machines import fig2_machine, parity_dfa
from model_docs import CORRUPTIONS, overlap_heads, truncate_rows

from tm2tf.automata import dfa_to_json, tm_to_json
from tm2tf.cli import main
from tm2tf.compilers import build_rope_position_prefix, instantiate_capacity
from tm2tf.netcore import load_model, save_model
from tm2tf.softmaxify import c0_exact_attention


# Files that are not JSON the loaders can read: bytes that are not UTF-8,
# and arrays nested deeper than the JSON decoder recurses.
NOT_UTF8 = b"\xff\xfe{}"
DEEP_NESTING = "[" * 100_000


def _write(path, text: str | bytes) -> None:
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)


@pytest.fixture
def tm_file(tmp_path):
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(tm_to_json(fig2_machine())))
    return str(path)


@pytest.fixture
def dfa_file(tmp_path):
    path = tmp_path / "dfa.json"
    path.write_text(json.dumps(dfa_to_json(parity_dfa())))
    return str(path)


def test_compile_and_run_cot(tm_file, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    report = str(tmp_path / "report.json")
    code = main(
        ["compile-cot", "--tm", tm_file, "--r", "6", "--out", model, "--report", report]
    )
    assert code == 0
    rep = json.loads(open(report).read())
    assert rep["dims"]["L"] == 23

    trace_file = str(tmp_path / "trace.jsonl")
    code = main(
        ["run-cot", "--model", model, "--word", "aab", "--trace-out", trace_file]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "output: acb" in out
    assert "ties=0 saturations=0" in out
    lines = [json.loads(l) for l in open(trace_file)]
    assert any("token" in l for l in lines)


def test_compile_cot_rejects_odd_r(tm_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["compile-cot", "--tm", tm_file, "--r", "5", "--out", str(tmp_path / "m.json")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["compile-cot", "compile-scot"])
def test_compile_rejects_r_below_4(command, tm_file, tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main([command, "--tm", tm_file, "--r", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "r >= 4" in err
    assert not out.exists()


def test_model_roundtrip_bit_exact(dfa_file, tmp_path):
    model = str(tmp_path / "model.json")
    assert main(["compile-dfa", "--dfa", dfa_file, "--r", "3", "--out", model]) == 0
    first = load_model(model)
    second_path = str(tmp_path / "model2.json")
    from tm2tf.netcore import save_model

    save_model(first, second_path)
    assert open(model).read() == open(second_path).read()
    second = load_model(second_path)
    assert np.array_equal(first.emb, second.emb)
    for l1, l2 in zip(first.layers, second.layers):
        assert np.array_equal(l1.w1, l2.w1)
        assert np.array_equal(l1.bias4, l2.bias4)


def test_schema_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    doc = tm_to_json(fig2_machine())
    del doc["halt"]
    bad.write_text(json.dumps(doc))
    code = main(
        ["compile-cot", "--tm", str(bad), "--r", "6", "--out", str(tmp_path / "m.json")]
    )
    assert code == 2


def test_missing_file_exit_code(tmp_path):
    code = main(
        ["compile-cot", "--tm", str(tmp_path / "nope.json"), "--r", "6", "--out", "x"]
    )
    assert code == 2


def test_schema_error_names_entry(tmp_path, capsys):
    doc = tm_to_json(fig2_machine())
    doc["delta"]["go|a"] = "nowhere|a|S"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(
        ["compile-cot", "--tm", str(bad), "--r", "6", "--out", str(tmp_path / "m.json")]
    )
    assert code == 2
    assert "nowhere" in capsys.readouterr().err


def test_convert_auto_and_run_softmax(tm_file, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    main(["compile-cot", "--tm", tm_file, "--r", "6", "--out", model])
    conv = str(tmp_path / "denoised.json")
    assert main(["convert", "--model", model, "--mode", "denoised", "--out", conv]) == 0
    msg = capsys.readouterr().out
    assert "c=" in msg
    converted = load_model(conv)
    assert converted.dims.n_layers == 46

    code = main(["run-cot", "--model", conv, "--word", "aab"])
    assert code == 0
    out = capsys.readouterr().out
    assert "eval: attention=softmax act=custom:1,3 att=custom:4,4" in out
    assert "output: acb" in out


def test_convert_denoised_prints_both_sizes(tm_file, tmp_path, capsys):
    """The denoising rows built, of the theorem's 6d per layer: fig2 CoT at
    r = 6 has d = 117 and 23 layers, whose heads write 73 coordinates."""
    model, conv = str(tmp_path / "model.json"), str(tmp_path / "denoised.json")
    main(["compile-cot", "--tm", tm_file, "--r", "6", "--out", model])
    capsys.readouterr()
    assert main(["convert", "--model", model, "--mode", "denoised", "--out", conv]) == 0
    assert f" denoisers={6 * 73}/{6 * 117 * 23} -> " in capsys.readouterr().out
    assert main(["convert", "--model", model, "--mode", "scaled", "--out", conv]) == 0
    assert "denoisers=" not in capsys.readouterr().out


@pytest.mark.parametrize("command", ["compile-dfa", "compile-cot", "compile-scot", "convert"])
def test_unwritable_out_is_a_file_error(command, tm_file, dfa_file, tmp_path, capsys):
    out = str(tmp_path / "no-such-dir" / "m.json")
    if command == "convert":
        model = str(tmp_path / "model.json")
        assert main(["compile-dfa", "--dfa", dfa_file, "--r", "3", "--out", model]) == 0
        argv = ["convert", "--model", model, "--mode", "scaled", "--out", out]
    else:
        machine = dfa_file if command == "compile-dfa" else tm_file
        argv = [command, "--machine", machine, "--r", "4", "--out", out]
    assert main(argv) == 2
    assert f"file error: cannot write {out}" in capsys.readouterr().err


def test_layers_without_heads_decode_as_with_a_zero_head(tm_file, tmp_path, capsys):
    """A denoised model's MLP-only layers skip attention. A zero head put in
    each of them attends to all-zero values, so it must decode the same
    tokens, saturations and representations."""
    import dataclasses

    from tm2tf.generation import run_cot
    from tm2tf.netcore import Evaluator, HeadParams, save_model
    from tm2tf.softmaxify import eval_config

    model, conv, padded = (str(tmp_path / f"{n}.json") for n in ("model", "conv", "padded"))
    main(["compile-cot", "--tm", tm_file, "--r", "6", "--out", model])
    main(["convert", "--model", model, "--mode", "denoised", "--out", conv])
    params = load_model(conv)
    d, d_k, d_v = params.dims.d, params.dims.d_k, params.dims.d_v
    zero = HeadParams(*(np.zeros(s, np.int8) for s in [(d_k, d), (d_k, d), (d_v, d), (d, d_v)]))
    assert any(not layer.heads for layer in params.layers)
    layers = [dataclasses.replace(layer, heads=layer.heads or [zero]) for layer in params.layers]
    save_model(dataclasses.replace(params, layers=layers), padded)
    capsys.readouterr()
    outs = []
    for path in (conv, padded):
        assert main(["run-cot", "--model", path, "--word", "aab"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "output: acb" in outs[0]

    cfg = eval_config(params)
    tokens = run_cot(params, list("aab"), cfg).segments[0]
    reps = []
    for p in (params, load_model(padded)):
        ev = Evaluator(p, cfg)
        ev.extend(tokens)
        reps.append(ev.final_representations())
    assert reps[0].tobytes() == reps[1].tobytes()


@pytest.mark.parametrize("mode,c", [("denoised", "5"), ("scaled", "nan"), ("scaled", "inf")])
def test_convert_rejects_bad_c(tm_file, tmp_path, capsys, mode, c):
    model = str(tmp_path / "model.json")
    main(["compile-cot", "--tm", tm_file, "--r", "6", "--out", model])
    conv = tmp_path / "converted.json"
    code = main(["convert", "--model", model, "--mode", mode, "--c", c, "--out", str(conv)])
    assert code == 2
    assert "usage error" in capsys.readouterr().err
    assert not conv.exists()


def test_validate_dfa_cli(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = main(["validate", "--protocol", "dfa", "--max-len", "3", "--out", out])
    assert code == 0
    rep = json.loads(open(out).read())
    assert rep["mismatches"] == []


def test_validate_dfa_cli_refuses_words_longer_than_the_context(capsys):
    assert main(["validate", "--protocol", "dfa", "--r", "2", "--max-len", "5"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_validate_dfa_cli_refuses_a_turing_machine(tm_file, capsys):
    assert main(["validate", "--protocol", "dfa", "--dfa", tm_file]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [NOT_UTF8, DEEP_NESTING], ids=["not-utf8", "deep-nesting"])
def test_validate_dfa_cli_refuses_an_unreadable_dfa(text, tmp_path, capsys):
    spec = tmp_path / "dfa.json"
    _write(spec, text)
    assert main(["validate", "--protocol", "dfa", "--dfa", str(spec)]) == 2
    assert capsys.readouterr().err.startswith("schema error")


@pytest.mark.parametrize("mode", ["scaled", "denoised"])
def test_validate_dfa_cli_refuses_a_softmax_mode(mode, capsys):
    assert main(["validate", "--protocol", "dfa", "--mode", mode]) == 2
    assert "usage error" in capsys.readouterr().err


def test_validate_cot_cli(tmp_path):
    code = main(
        ["validate", "--protocol", "cot", "--seed", "3", "--trials", "10", "--step-cap", "25"]
    )
    assert code == 0


def test_validate_cli_exits_1_on_a_mismatch(tmp_path, monkeypatch):
    from test_harness import _outp_swapped

    from tm2tf import harness

    monkeypatch.setattr(harness, "compile_cot", _outp_swapped(harness.compile_cot))
    out = str(tmp_path / "report.json")
    code = main(
        ["validate", "--protocol", "cot", "--seed", "3", "--trials", "10", "--step-cap", "25",
         "--out", out]
    )
    assert code == 1
    rep = json.loads(open(out).read())
    assert rep["mismatches"] and {t["status"] for t in rep["trials"]} >= {"mismatch"}


def test_validate_converted_cli(tmp_path):
    out = str(tmp_path / "report.json")
    code = main(
        ["validate", "--protocol", "cot", "--mode", "scaled", "--trials", "4",
         "--step-cap", "25", "--out", out]
    )
    assert code == 0
    rep = json.loads(open(out).read())
    assert rep["name"] == "cot-scaled_only" and rep["checked"] >= 1


def test_probe_cli(capsys):
    assert main(["probe-phi", "--format", "bf16", "--max", "100"]) == 0
    assert "i*=7" in capsys.readouterr().out
    assert main(["probe-phi", "--format", "nope"]) == 2
    assert "usage error: unknown precision" in capsys.readouterr().err


BEYOND_FLOAT = str(2 ** 1100)  # a context bound past float range


def test_c0_cli(capsys):
    assert main(["c0", "--mode", "denoising", "--d-k", "128", "--N", "65536"]) == 0
    assert "13.3" in capsys.readouterr().out
    assert main(["c0", "--mode", "denoising", "--d-k", "8", "--N", BEYOND_FLOAT]) == 0
    assert capsys.readouterr().out == "c0 = 46.5777  (next power of two: 64)\n"
    assert main(["c0", "--mode", "exact"]) == 2


def test_capacity_cli(capsys):
    code = main(
        ["capacity", "--L", "96", "--d-k", "128", "--d", "12288", "--d-ff", "49152"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "r=32" in out and "49 states" in out
    # at r = 8 no machine's CoT model fits d_ff = 50
    assert main(["capacity", "--L", "28", "--d-k", "31", "--d", "1000", "--d-ff", "50"]) == 0
    out = capsys.readouterr().out
    assert "r=8" in out and out.count("up to 0 states") == 9


def test_capacity_cli_says_when_no_machine_fits(capsys):
    # r = 2 is below the compilers' minimum of 4
    assert main(["capacity", "--L", "15", "--d-k", "31", "--d", "1000", "--d-ff", "500"]) == 0
    out = capsys.readouterr().out
    assert "r=2" in out and out.count("up to 0 states (no machine fits)") == 9
    assert "fits)" not in out.replace("no machine fits)", "")
    # room for a single state, and a machine needs distinct init and halt states
    argv = ["capacity", "--L", "28", "--d-k", "31", "--d", "100000", "--d-ff", "1500"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "K=3 |Gamma|=10: up to 0 states (no machine fits)" in out
    assert "up to 1 states" not in out


def test_scot_cli_end_to_end(tmp_path, capsys):
    from machines import bouncer_machine

    path = tmp_path / "bouncer.json"
    path.write_text(json.dumps(tm_to_json(bouncer_machine(3))))
    model = str(tmp_path / "scot.json")
    assert main(["compile-scot", "--tm", str(path), "--r", "6", "--out", model]) == 0
    assert main(["run-scot", "--model", model, "--word", "xxx"]) == 0
    out = capsys.readouterr().out
    assert "outcome: output" in out


@pytest.mark.parametrize("mode", ["scaled", "denoised"])
def test_convert_refuses_heads_writing_one_coordinate(mode, tm_file, tmp_path, capsys):
    model, conv = tmp_path / "model.json", tmp_path / "converted.json"
    assert main(["compile-cot", "--tm", tm_file, "--r", "6", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    li = overlap_heads(doc)
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["convert", "--model", str(model), "--mode", mode, "--out", str(conv)]) == 2
    err = capsys.readouterr().err
    assert "usage error" in err and f"layer {li} head 1 writes" in err
    assert not conv.exists()


def _model_file_cases(tmp_path, dfa_file):
    """(name, path) of model files that must be refused with exit code 2."""
    model = tmp_path / "model.json"
    assert main(["compile-dfa", "--dfa", dfa_file, "--r", "3", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    truncate_rows(doc["layers"][0]["w1"])  # one row short of bias4
    files = {"not-json": "{", "empty": "{}", "bad-shape": json.dumps(doc)}
    codes = (("bad-code", 300), ("min-code", -128), ("fractional-code", 1.5), ("boolean-code", True))
    for name, code in codes:
        doc = json.loads(model.read_text())
        # 300 is beyond int8; -128 is its minimum, which np.abs keeps
        doc["emb"]["codes"][0] = code
        files[name] = json.dumps(doc)
    for name, corrupt in CORRUPTIONS.items():
        doc = json.loads(model.read_text())
        corrupt(doc)
        files[name] = json.dumps(doc)
    doc = json.loads(model.read_text())
    doc["qk_scale"] = "inf"
    files["inf-scale"] = json.dumps(doc)
    doc = json.loads(model.read_text())
    header = {
        "fractional-dims": {"dims": {**doc["dims"], "d_k": float(doc["dims"]["d_k"])}},
        "integer-vocab": {"vocab": list(range(len(doc["vocab"])))},
        "string-vocab": {"vocab": "".join(doc["vocab"])},
        "unknown-mode": {"mode": "banana"},
        "old-mode-name": {"mode": "denoised-softmax"},
        "zero-meta-N": {"meta": {**doc["meta"], "N": 0}},
        "fractional-meta-N": {"meta": {**doc["meta"], "N": 6.0}},
        "list-source": {"source": []},
        "object-source": {"source": {}},
        "list-meta": {"meta": list(doc["meta"].items())},
        # convert without --N reads meta.r whatever the positional kind
        "rotary-string-meta-r": {
            "positional": {"kind": "rotary", "freqs": []},
            "meta": {**doc["meta"], "r": "x"},
        },
        "unpositioned-list-meta-r": {
            "positional": {"kind": "none"},
            "meta": {**doc["meta"], "r": [3]},
        },
    }
    for name, fields in header.items():
        files[name] = json.dumps({**doc, **fields})
    pos = doc["positional"]  # binary_absolute, r = 3
    positional = {
        "unknown-positional-kind": {**pos, "kind": "binary"},
        "repeated-positional-coords": {**pos, "coords": [pos["coords"][0]] * pos["r"]},
        "too-few-positional-coords": {**pos, "coords": pos["coords"][:-1]},
        "fractional-positional-r": {**pos, "r": float(pos["r"])},
    }
    for name, value in positional.items():
        files[name] = json.dumps({**doc, "positional": value})
    rope = tmp_path / "rope.json"
    save_model(build_rope_position_prefix(3)[0], str(rope))
    load_model(str(rope))  # the unedited rotary model is valid
    doc = json.loads(rope.read_text())
    freqs = doc["positional"]["freqs"]
    rotary = {"nan-rotary-freqs": ["nan"] * len(freqs), "too-many-rotary-freqs": freqs * 20}
    for name, value in rotary.items():
        files[name] = json.dumps({**doc, "positional": {"kind": "rotary", "freqs": value}})
    files["not-utf8"] = NOT_UTF8
    files["deep-nesting"] = DEEP_NESTING
    for name, text in files.items():
        _write(tmp_path / f"{name}.json", text)
    return [("missing", str(tmp_path / "missing.json"))] + [
        (name, str(tmp_path / f"{name}.json")) for name in files
    ]


@pytest.mark.parametrize("command", ["run-cot", "run-scot", "convert"])
def test_bad_model_file_exit_code(command, dfa_file, tmp_path, capsys):
    for name, path in _model_file_cases(tmp_path, dfa_file):
        argv = [command, "--model", path]
        if command == "convert":
            argv += ["--mode", "scaled", "--out", str(tmp_path / "out.json")]
        assert main(argv) == 2, name
        want = "file error" if name == "missing" else "schema error"
        assert want in capsys.readouterr().err, name


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--protocol", "cot", "--trials", "0"],
        ["validate", "--protocol", "dfa", "--r", "0"],
        ["probe-phi", "--format", "bf16", "--max", "1"],
        ["capacity", "--L", "0", "--d-k", "128", "--d", "12288", "--d-ff", "49152"],
        ["c0", "--mode", "denoising", "--d-k", "0", "--N", "16"],
        ["validate", "--protocol", "cot", "--step-cap", "-4"],
        ["validate", "--protocol", "dfa", "--max-len", "-1"],
        ["run-cot", "--model", "model.json", "--budget", "-1"],
        ["convert", "--model", "model.json", "--mode", "scaled", "--c", "2", "--N", "0",
         "--out", "out.json"],
        ["compile-dfa", "--dfa", "dfa.json", "--r", "0", "--out", "model.json"],
    ],
)
def test_cli_rejects_sizes_below_minimum(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_run_usage_errors_exit_2_and_internal_errors_propagate(
    tm_file, tmp_path, capsys, monkeypatch
):
    import tm2tf.cli

    model = str(tmp_path / "model.json")
    assert main(["compile-cot", "--tm", tm_file, "--r", "6", "--out", model]) == 0
    capsys.readouterr()
    for command in ("run-cot", "run-scot"):
        assert main([command, "--model", model, "--word", "ax"]) == 2
        assert "usage error: token 'x' not in vocabulary" in capsys.readouterr().err
        for bad in ("<outp>", "</inp>"):
            assert main([command, "--model", model, "--word", f"a,{bad}"]) == 2
            err = capsys.readouterr().err
            assert f"usage error: word token '{bad}' is not an input symbol" in err
    # <inp>, 63 symbols and </inp> put the last prompt token at position 2^6.
    assert main(["run-cot", "--model", model, "--word", "a" * 63]) == 2
    assert "usage error: position 64 does not fit 6 positional bits" in capsys.readouterr().err

    def broken(*args, **kwargs):
        raise RuntimeError("internal bug")

    monkeypatch.setattr(tm2tf.cli, "run_cot", broken)
    with pytest.raises(RuntimeError, match="internal bug"):
        main(["run-cot", "--model", model, "--word", "ab"])


def test_compile_and_convert_write_no_model_over_the_size_bound(
    tm_file, dfa_file, tmp_path, capsys
):
    """A model whose dims the loader would refuse is never written."""
    for command, machine, r in (("compile-cot", tm_file, "60"), ("compile-dfa", dfa_file, "1000")):
        out = tmp_path / f"{command}.json"
        assert main([command, "--machine", machine, "--r", r, "--out", str(out)]) == 2
        assert "usage error: dims imply more than" in capsys.readouterr().err
        assert not out.exists()
    model, denoised = tmp_path / "r40.json", tmp_path / "denoised.json"
    assert main(["compile-cot", "--tm", tm_file, "--r", "40", "--out", str(model)]) == 0
    argv = ["convert", "--model", str(model), "--mode", "denoised", "--out", str(denoised)]
    assert main(argv) == 2
    assert "usage error: dims imply more than" in capsys.readouterr().err
    assert not denoised.exists()


def test_a_denoised_conversion_over_the_size_bound_builds_no_denoiser(
    tm_file, tmp_path, capsys, monkeypatch
):
    """The denoised dims are checked before any layer is built."""
    from tm2tf import softmaxify

    built = []
    monkeypatch.setattr(
        softmaxify, "denoising_neurons", lambda coords: built.append(coords) or []
    )
    model, denoised = tmp_path / "r40.json", tmp_path / "denoised.json"
    assert main(["compile-cot", "--tm", tm_file, "--r", "40", "--out", str(model)]) == 0
    argv = ["convert", "--model", str(model), "--mode", "denoised", "--out", str(denoised)]
    assert main(argv) == 2
    assert "usage error: dims imply more than" in capsys.readouterr().err
    assert not denoised.exists() and built == []


def test_run_cot_full_context_is_budget_exceeded(tm_file, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    assert main(["compile-cot", "--tm", tm_file, "--r", "4", "--out", model]) == 0
    assert main(["run-cot", "--model", model, "--word", "abab"]) == 1
    assert "outcome: budget_exceeded" in capsys.readouterr().out


@pytest.mark.parametrize("protocol", ["cot", "scot"])
def test_a_budget_past_the_context_is_budget_exceeded(protocol, tm_file, tmp_path, capsys):
    """--budget 1000 is cut to the 16 positions of r=4: not a usage error."""
    model = str(tmp_path / "model.json")
    assert main([f"compile-{protocol}", "--tm", tm_file, "--r", "4", "--out", model]) == 0
    capsys.readouterr()
    assert main([f"run-{protocol}", "--model", model, "--word", "abab", "--budget", "1000"]) == 1
    captured = capsys.readouterr()
    assert "outcome: budget_exceeded" in captured.out and not captured.err


def test_run_prints_saturations_of_a_tiny_activation_format(
    tm_file, tmp_path, capsys, monkeypatch
):
    """Queries and keys scaled by c = 4 exceed 3, the largest element of custom:1,2."""
    from tm2tf import cli
    from tm2tf.fpcore import parse_precision
    from tm2tf.netcore import EvalConfig

    model, scaled = str(tmp_path / "model.json"), str(tmp_path / "scaled.json")
    assert main(["compile-cot", "--tm", tm_file, "--r", "6", "--out", model]) == 0
    assert main(["convert", "--model", model, "--mode", "scaled", "--c", "4", "--out", scaled]) == 0
    capsys.readouterr()
    tiny = EvalConfig("softmax", parse_precision("custom:1,2"))
    monkeypatch.setattr(cli, "eval_config", lambda params: tiny)
    main(["run-cot", "--model", scaled, "--word", "ab", "--budget", "4"])
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("ties="))
    assert int(line.split("saturations=")[1]) > 0


def _spec_cases():
    """Malformed machine specs, as (command, document) params."""
    tm, dfa = tm_to_json(fig2_machine()), dfa_to_json(parity_dfa())
    cases = []
    for doc in (None, [], "tm", 7, 1.5, True):
        for command in ("compile-cot", "compile-dfa"):
            cases.append(pytest.param(command, doc, id=f"{command}-document-{doc!r}"))
    bad_deltas = [
        ("compile-cot", tm, []),
        ("compile-dfa", dfa, []),
        ("compile-cot", tm, None),
        ("compile-dfa", dfa, "x"),
        ("compile-cot", tm, {**tm["delta"], "go|a": 5}),
        ("compile-cot", tm, {**tm["delta"], "go|a": ["go", "a", "R"]}),
        ("compile-dfa", dfa, {**dfa["delta"], "even,0": 1}),
        ("compile-dfa", dfa, {**dfa["delta"], "even,0": None}),
    ]
    for i, (command, doc, delta) in enumerate(bad_deltas):
        cases.append(pytest.param(command, {**doc, "delta": delta}, id=f"{command}-delta-{i}"))
    for tapes in (1.5, True, "1", None, [1]):
        cases.append(pytest.param("compile-scot", {**tm, "tapes": tapes}, id=f"tapes-{tapes!r}"))
    doc = {**tm, "states": [*tm["states"], 3]}
    cases.append(pytest.param("compile-cot", doc, id="non-string-state"))
    return cases


@pytest.mark.parametrize("command,doc", _spec_cases())
def test_malformed_spec_is_a_schema_error(command, doc, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    flag = "--dfa" if command == "compile-dfa" else "--tm"
    r = "3" if command == "compile-dfa" else "6"
    code = main([command, flag, str(spec), "--r", r, "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "schema error" in capsys.readouterr().err


def _bad_machine_cases():
    """Machine specs that must exit 2, as (command, spec text, stderr fragment)."""
    tm, dfa = tm_to_json(fig2_machine()), dfa_to_json(parity_dfa())
    not_listed = "must be a list of strings"

    def tm_delta(**entries):
        delta = {**tm["delta"], **entries}
        return {**tm, "delta": {k: v for k, v in delta.items() if v is not None}}

    def dfa_delta(**entries):
        delta = {**dfa["delta"], **entries}
        return {**dfa, "delta": {k: v for k, v in delta.items() if v is not None}}

    dfa_cases = {
        "dfa-alphabet-string": ({**dfa, "alphabet": "01"}, not_listed),
        "dfa-accepting-letter": ({**dfa, "accepting": "e"}, not_listed),
        "dfa-accepting-word": ({**dfa, "accepting": "even"}, not_listed),
        "dfa-states-string": ({**dfa, "states": "eo"}, not_listed),
        "dfa-states-empty": ({**dfa, "states": []}, "at least one state"),
        "dfa-reserved-state": ({**dfa, "states": ["even", "odd", "<inp>"]}, "invalid state name"),
        "dfa-duplicate-state": ({**dfa, "states": ["even", "odd", "odd"]}, "duplicate"),
        "dfa-duplicate-symbol": ({**dfa, "alphabet": ["0", "1", "1"]}, "duplicate"),
        "dfa-missing-init": ({k: v for k, v in dfa.items() if k != "init"}, "missing field"),
        "dfa-unknown-init": ({**dfa, "init": "nowhere"}, "init state 'nowhere'"),
        "dfa-unknown-accepting": ({**dfa, "accepting": ["nowhere"]}, "accepting state"),
        "dfa-missing-delta": (dfa_delta(**{"odd,1": None}), "delta missing entry"),
        "dfa-delta-unknown-symbol": (dfa_delta(**{"odd,2": "odd"}), "unknown state/symbol"),
        "dfa-delta-unknown-target": (dfa_delta(**{"odd,1": "nowhere"}), "targets unknown state"),
        "dfa-delta-bad-key": (dfa_delta(odd="odd"), "bad DFA delta key"),
    }
    tm_cases = {
        "tm-input-alphabet-string": ({**tm, "input_alphabet": "a"}, not_listed),
        "tm-tape-alphabet-string": ({**tm, "tape_alphabet": "abc_"}, not_listed),
        "tm-states-string": ({**tm, "states": "go"}, not_listed),
        "tm-no-tapes": ({**tm, "tapes": 0}, "at least one tape"),
        "tm-input-alphabet-empty": ({**tm, "input_alphabet": []}, "must be nonempty"),
        "tm-duplicate-state": ({**tm, "states": [*tm["states"], "go"]}, "duplicate"),
        "tm-duplicate-input": ({**tm, "input_alphabet": ["a", "a", "b", "c"]}, "duplicate"),
        "tm-input-outside-tape": ({**tm, "input_alphabet": ["a", "z"]}, "contained in the tape"),
        "tm-blank-is-input": ({**tm, "blank": "a"}, "blank must be"),
        "tm-unknown-init": ({**tm, "init": "nowhere"}, "init/halt state not in states"),
        "tm-unknown-halt": ({**tm, "halt": "nowhere"}, "init/halt state not in states"),
        "tm-init-is-halt": ({**tm, "init": "halt"}, "init and halt states must differ"),
        "tm-missing-delta": (tm_delta(**{"go|a": None}), "delta missing entry"),
        "tm-delta-from-halt": (tm_delta(**{"halt|a": "go|a|R"}), "invalid source state"),
        "tm-delta-arity": (tm_delta(**{"go|a": "go|a,b|R,R"}), "wrong arity"),
        "tm-delta-unknown-symbol": (tm_delta(**{"go|a": "go|z|R"}), "unknown symbols"),
        "tm-delta-bad-move": (tm_delta(**{"go|a": "go|a|X"}), "invalid moves"),
        "tm-delta-bad-entry": (tm_delta(**{"go|a": "go|a"}), "bad TM delta entry"),
    }
    cases = [
        pytest.param("compile-dfa", json.dumps(doc), "schema error", want, id=name)
        for name, (doc, want) in dfa_cases.items()
    ]
    cases += [
        pytest.param("compile-cot", json.dumps(doc), "schema error", want, id=name)
        for name, (doc, want) in tm_cases.items()
    ]
    other = {
        "invalid-json": ("compile-cot", '{"tapes": 1,', "schema error", "not valid JSON"),
        "tm-to-compile-dfa": ("compile-dfa", json.dumps(tm), "usage error", "expects a DFA"),
        "dfa-to-compile-cot": ("compile-cot", json.dumps(dfa), "usage error", "expected a Turing"),
    }
    cases += [pytest.param(*case, id=name) for name, case in other.items()]
    unreadable = {
        "not-utf8": (NOT_UTF8, "not valid JSON"),
        "deep-nesting": (DEEP_NESTING, "nests too deeply"),
    }
    for command in ("compile-dfa", "compile-cot"):
        cases += [
            pytest.param(command, text, "schema error", want, id=f"{name}-{command}")
            for name, (text, want) in unreadable.items()
        ]
    return cases


@pytest.mark.parametrize("command,text,kind,want", _bad_machine_cases())
def test_bad_machine_spec_exits_2(command, text, kind, want, tmp_path, capsys):
    """Each malformed spec fails at load time with its own message, and no
    model is written."""
    spec, out = tmp_path / "spec.json", tmp_path / "m.json"
    _write(spec, text)
    r = "3" if command == "compile-dfa" else "6"
    assert main([command, "--machine", str(spec), "--r", r, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(kind) and want in err, err
    assert not out.exists()


def test_load_machine_specs_reject_non_string_delta_keys():
    from tm2tf.automata import MachineError, load_dfa, load_tm

    tm, dfa = tm_to_json(fig2_machine()), dfa_to_json(parity_dfa())
    with pytest.raises(MachineError):
        load_tm({**tm, "delta": {**tm["delta"], ("go", "a"): "go|a|R"}})
    with pytest.raises(MachineError):
        load_dfa({**dfa, "delta": {**dfa["delta"], 3: "even"}})


def test_run_refuses_a_denoised_model_without_its_context_bound(dfa_file, tmp_path, capsys):
    """A denoised model's attention-weight format follows from meta.N."""
    model, conv = str(tmp_path / "model.json"), tmp_path / "denoised.json"
    assert main(["compile-dfa", "--dfa", dfa_file, "--r", "3", "--out", model]) == 0
    assert main(["convert", "--model", model, "--mode", "denoised", "--out", str(conv)]) == 0
    doc = json.loads(conv.read_text())
    del doc["meta"]["N"]
    conv.write_text(json.dumps(doc))
    capsys.readouterr()
    for command in ("run-cot", "run-scot"):
        assert main([command, "--model", str(conv), "--word", "01"]) == 2
        assert "schema error" in capsys.readouterr().err


def test_convert_refuses_a_converted_model(dfa_file, tmp_path, capsys):
    """A model scaled by c = 1 keeps qk_scale 1, but its mode says it is converted."""
    model, scaled = str(tmp_path / "model.json"), str(tmp_path / "scaled.json")
    assert main(["compile-dfa", "--dfa", dfa_file, "--r", "3", "--out", model]) == 0
    assert main(["convert", "--model", model, "--mode", "scaled", "--c", "1", "--out", scaled]) == 0
    assert load_model(scaled).qk_scale == 1.0
    capsys.readouterr()
    for mode in ("denoised", "scaled"):
        out = tmp_path / f"again-{mode}.json"
        assert main(["convert", "--model", scaled, "--mode", mode, "--out", str(out)]) == 2
        assert "already converted" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "mode,N,att",
    [("scaled", None, "exact"), ("denoised", None, "custom:4,4"), ("denoised", 4096, "custom:4,5")],
)
def test_converted_file_carries_its_eval_config(mode, N, att, dfa_file, tmp_path, capsys):
    from tm2tf.cli import _MODES
    from tm2tf.softmaxify import convert, eval_config

    model, conv = str(tmp_path / "model.json"), str(tmp_path / "converted.json")
    assert main(["compile-dfa", "--dfa", dfa_file, "--r", "3", "--out", model]) == 0
    argv = ["convert", "--model", model, "--mode", mode, "--out", conv]
    assert main(argv + (["--N", str(N)] if N else [])) == 0
    converted = load_model(conv)
    assert converted.meta["N"] == (N or 2 ** 3)
    _, cfg = convert(load_model(model), _MODES[mode], N or 2 ** 3)
    assert eval_config(converted) == cfg and str(cfg.att_precision) == att
    assert f"att={att}" in capsys.readouterr().out


def test_readme_cli_examples_parse():
    """Every `tm2tf ...` command of the README's CLI code block, with
    backslash continuations joined and comments stripped, parses."""
    import shlex
    from pathlib import Path

    from tm2tf.cli import build_parser

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    lines = [line for line in lines if line.startswith("tm2tf ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line.split("#", 1)[0])[1:])


def test_c0_cli_exact_mode_and_missing_denoising_sizes(capsys):
    sizes = ["--d", "10", "--d-ff", "10", "--d-k", "4", "--L", "2", "--N", "64"]
    assert main(["c0", "--mode", "exact", *sizes]) == 0
    assert f"c0 = {c0_exact_attention(10, 10, 4, 2, 64):.6g}" in capsys.readouterr().out
    assert main(["c0", "--mode", "denoising", "--N", "64"]) == 2
    assert "usage error: c0 --mode denoising needs --d-k --N" in capsys.readouterr().err


def test_probe_cli_exact_format_and_out_file(tmp_path, capsys):
    assert main(["probe-phi", "--format", "exact"]) == 0
    assert capsys.readouterr().out == "exact precision never confuses positions\n"
    out = tmp_path / "probe.json"
    assert main(["probe-phi", "--format", "bf16", "--max", "6", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "bf16: no confusion up to 6\n"
    assert json.loads(out.read_text()) == {
        "format": "bf16",
        "scanned": 6,
        "first_confusion": None,
        "confounder": None,
    }


def test_capacity_cli_out_file(tmp_path):
    out = tmp_path / "capacity.json"
    sizes = ["--L", "28", "--d-k", "31", "--d", "1000", "--d-ff", "50"]
    assert main(["capacity", *sizes, "--out", str(out)]) == 0
    table = instantiate_capacity(28, 31, 1000, 50, "cot")
    assert json.loads(out.read_text()) == json.loads(json.dumps(table))


def test_capacity_cli_at_a_context_too_long_to_write_out(tmp_path, capsys):
    """At r = 25,000 the context 2^r has 7,526 digits, past Python's limit
    on int-to-str conversion; the table and the summary give r alone."""
    out = tmp_path / "capacity.json"
    sizes = ["--L", "100000", "--d-k", "100000", "--d", "10", "--d-ff", "10"]
    assert main(["capacity", *sizes, "--out", str(out)]) == 0
    assert "-> r=25000, context 2^25000\n" in capsys.readouterr().out
    table = json.loads(out.read_text())
    assert (table["r_from_depth"], table["r_from_d_k"], table["r"]) == (39996, 25000, 25000)
    assert [row["max_states"] for row in table["machines"]] == [0] * 9


def test_convert_at_a_context_bound_beyond_float_range(dfa_file, tmp_path, capsys):
    """c0 is finite, but attention weights down to 1/N = 2^-1100 need a
    format of 12 exponent bits, more than float64 holds: a usage error."""
    model, out = str(tmp_path / "model.json"), tmp_path / "denoised.json"
    assert main(["compile-dfa", "--dfa", dfa_file, "--r", "3", "--out", model]) == 0
    argv = ["convert", "--model", model, "--mode", "denoised", "--N", BEYOND_FLOAT]
    assert main([*argv, "--out", str(out)]) == 2
    assert "usage error: format exceeds float64 host precision" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, error",
    [
        ("scaled", "usage error: cannot write the model as JSON: Exceeds the limit"),
        ("denoised", "usage error: format exceeds float64 host precision"),
    ],
    ids=["scaled", "denoised"],
)
def test_convert_at_a_context_bound_too_long_to_write_out(mode, error, dfa_file, tmp_path, capsys):
    """meta.r = 20,000 gives meta.N = 2^20000, 6,021 digits, past Python's
    limit on int-to-str conversion. The scaled model cannot be written and
    the denoised one needs more exponent bits than float64 has: both are
    usage errors that write no file."""
    model, out = tmp_path / "model.json", tmp_path / "converted.json"
    assert main(["compile-dfa", "--dfa", dfa_file, "--r", "3", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    model.write_text(
        json.dumps({**doc, "positional": {"kind": "none"}, "meta": {**doc["meta"], "r": 20000}})
    )
    capsys.readouterr()
    assert main(["convert", "--model", str(model), "--mode", mode, "--out", str(out)]) == 2
    assert error in capsys.readouterr().err
    assert not out.exists()


def test_convert_refuses_a_model_without_r_unless_given_n(dfa_file, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert main(["compile-dfa", "--dfa", dfa_file, "--r", "3", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    del doc["meta"]["r"]
    model.write_text(json.dumps(doc))
    out = tmp_path / "scaled.json"
    argv = ["convert", "--model", str(model), "--mode", "scaled", "--out", str(out)]
    assert main(argv) == 2
    assert "usage error: model has no r; pass --N explicitly" in capsys.readouterr().err
    assert not out.exists()
    assert main([*argv, "--N", "8"]) == 0
    assert load_model(str(out)).meta == {"N": 8}


def test_run_prints_the_reason_of_an_undefined_outcome(tmp_path, capsys):
    from test_generation import VOCAB, successor_model

    from tm2tf.automata import EINP, EOUTP, OUTP, SUMM

    model = str(tmp_path / "model.json")
    save_model(successor_model(VOCAB, {EINP: OUTP, OUTP: SUMM, SUMM: EOUTP}), model)
    assert main(["run-cot", "--model", model, "--word", "a"]) == 1
    out = capsys.readouterr().out
    assert "outcome: undefined" in out
    assert "reason: output block contains non-input symbols" in out


def test_run_without_a_word_runs_the_empty_word(tm_file, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    assert main(["compile-cot", "--tm", tm_file, "--r", "6", "--out", model]) == 0
    capsys.readouterr()
    assert main(["run-cot", "--model", model]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "outcome: output" in out and "output: " in out


@pytest.mark.parametrize("command", ["capacity", "run-cot", "run-scot"])
def test_unwritable_report_or_trace_is_a_file_error(command, tm_file, tmp_path, capsys, monkeypatch):
    """A report or trace path that cannot be written exits 2 with a file
    error naming it; a trace path fails before anything is decoded."""
    bad = str(tmp_path / "no-such-dir" / "out.json")
    if command == "capacity":
        argv = ["capacity", "--L", "28", "--d-k", "31", "--d", "1000", "--d-ff", "50", "--out", bad]
    else:
        model = str(tmp_path / "model.json")
        protocol = command.removeprefix("run-")
        assert main([f"compile-{protocol}", "--tm", tm_file, "--r", "6", "--out", model]) == 0
        argv = [command, "--model", model, "--word", "ab", "--trace-out", bad]

        def decoded(*args, **kwargs):
            raise AssertionError("decoded before the trace file was opened")

        monkeypatch.setattr(f"tm2tf.cli.run_{protocol}", decoded)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and bad in err
    if command != "capacity":
        assert err.startswith(f"file error: cannot write {bad}: ")
