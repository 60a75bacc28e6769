"""Command-line surface: compile, convert, run, validate, probe.

Exit codes: 0 success (and zero mismatches for validate), 1 validation
mismatch, 2 usage/file/schema errors. All outputs go to explicit --out
paths; stdout carries short human-readable summaries.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .automata import Dfa, MachineError, TuringMachine, load_dfa, load_tm
from .compilers import compile_cot, compile_dfa, compile_scot, instantiate_capacity
from .fpcore import parse_precision
from .generation import run_cot, run_scot
from .harness import (
    acceptance_dfas,
    probe_phi,
    validate_dfa,
    validate_trials,
)
from .netcore import EvalError, load_model, save_model
from .softmaxify import (
    c0_denoising,
    c0_exact_attention,
    convert,
    eval_config,
    next_pow2_at_least,
)

# CLI --mode values -> the mode names of softmaxify and the harness
_MODES = {"hardmax": "hardmax", "scaled": "scaled_only", "denoised": "denoised"}


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise CliError(f"file error: cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CliError(f"schema error: {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CliError(f"schema error: {path} nests too deeply: {exc}") from exc


def _write_json(path: str, doc: dict) -> None:
    text = json.dumps(doc, separators=(",", ":"))  # the C encoder; json.dump is pure Python
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise CliError(f"file error: cannot write {path}: {exc}") from exc


def _open_for_writing(path: str | None):
    """The file at path opened for writing, or a null context for None."""
    if path is None:
        return contextlib.nullcontext()
    try:
        return open(path, "w")
    except OSError as exc:
        raise CliError(f"file error: cannot write {path}: {exc}") from exc


def _save_model(params, path: str) -> None:
    try:
        save_model(params, path)
    except OSError as exc:
        raise CliError(f"file error: cannot write {path}: {exc}") from exc
    except ValueError as exc:  # the encoder's, raised before the file is opened
        raise CliError(f"usage error: cannot write the model as JSON: {exc}") from exc


def load_machine(path: str):
    """Load a DFA or TM spec; the 'tapes' field marks Turing machines."""
    doc = _load_json(path)
    try:
        if isinstance(doc, dict) and "tapes" in doc:
            return load_tm(doc)
        return load_dfa(doc)
    except MachineError as exc:
        raise CliError(f"schema error: {path}: {exc}") from exc


def _parse_word(text: str) -> list[str]:
    if not text:
        return []
    return text.split(",") if "," in text else list(text)


def _even(value: str) -> int:
    r = int(value)
    if r % 2 != 0:
        raise argparse.ArgumentTypeError("r must be even")
    return r


def _at_least(minimum: int):
    """argparse type: an integer >= minimum."""

    def parse(value: str) -> int:
        n = int(value)
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {n}")
        return n

    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def _load_model(path: str):
    try:
        return load_model(path)
    except OSError as exc:
        raise CliError(f"file error: cannot read {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise CliError(f"schema error: {path}: {type(exc).__name__}: {exc}") from exc


def _cmd_compile(args) -> int:
    machine = load_machine(args.machine)
    if args.command == "compile-dfa":
        if not isinstance(machine, Dfa):
            raise CliError("usage error: compile-dfa expects a DFA spec")
        compile_fn = compile_dfa
    else:
        if not isinstance(machine, TuringMachine):
            raise CliError("usage error: expected a Turing machine spec")
        compile_fn = compile_cot if args.command == "compile-cot" else compile_scot
    try:
        params, report = compile_fn(machine, args.r)
    except ValueError as exc:  # an r too small, or dims over the size bound
        raise CliError(f"usage error: {exc}") from exc
    _save_model(params, args.out)
    if args.report:
        _write_json(args.report, report.to_json())
    d = report.dims
    print(
        f"{report.construction}: r={report.r} L={d.n_layers} H={d.n_heads} "
        f"d={d.d} d_k={d.d_k} d_v={d.d_v} d_ff={d.d_ff} -> {args.out}"
    )
    return 0


def _cmd_convert(args) -> int:
    params = _load_model(args.model)
    context_bound = args.context_bound
    if context_bound is None:
        r = params.meta.get("r")
        if r is None:
            raise CliError("usage error: model has no r; pass --N explicitly")
        context_bound = 2 ** r
    try:
        c = None if args.c == "auto" else float(args.c)
        converted, cfg = convert(params, _MODES[args.mode], context_bound, c)
    except ValueError as exc:
        raise CliError(f"usage error: {exc}") from exc
    _save_model(converted, args.out)
    sizes = ""
    if converted.mode == "denoised":
        # the denoising rows built, of the 6d per layer the theorem states
        built = sum(layer.parts()[1].m for layer in converted.layers[::2])
        sizes = f" denoisers={built}/{6 * params.dims.d * params.dims.n_layers}"
    print(
        f"converted mode={args.mode} c={converted.qk_scale} N={context_bound} "
        f"act={cfg.act_precision} att={cfg.att_precision}{sizes} -> {args.out}"
    )
    return 0


def _cmd_run(args) -> int:
    params = _load_model(args.model)
    try:
        cfg = eval_config(params)
    except ValueError as exc:
        raise CliError(f"schema error: {args.model}: {exc}") from exc
    print(f"eval: attention={cfg.attention} act={cfg.act_precision} att={cfg.att_precision}")
    word = _parse_word(args.word)
    runner = run_cot if args.command == "run-cot" else run_scot
    # The trace file is opened before decoding, so that a path that cannot
    # be written fails at once, as --out does.
    with _open_for_writing(args.trace_out) as trace_file:
        try:
            record = trace_file is not None
            trace = runner(params, word, cfg, budget=args.budget, record_steps=record)
        except EvalError as exc:  # a token outside the vocabulary or past the context
            raise CliError(f"usage error: {exc}") from exc
        if trace_file is not None:
            try:
                for rec in trace.records:
                    trace_file.write(json.dumps(rec) + "\n")
                for i, seg in enumerate(trace.segments):
                    trace_file.write(json.dumps({"segment": i, "length": len(seg)}) + "\n")
            except OSError as exc:
                raise CliError(f"file error: cannot write {args.trace_out}: {exc}") from exc
    print(f"outcome: {trace.outcome}")
    print(f"ties={trace.tie_warnings} saturations={trace.saturations}")
    if trace.outcome == "output":
        print("output: " + "".join(trace.output))
        print(f"t_T={trace.total_tokens} s_T={trace.max_segment} segments={len(trace.segments)}")
    elif trace.reason:
        print(f"reason: {trace.reason}")
    return 0 if trace.outcome == "output" else 1


def _cmd_validate(args) -> int:
    if args.protocol == "dfa":
        if args.mode != "hardmax":
            raise CliError(f"usage error: the dfa protocol validates hardmax only, not {args.mode}")
        dfas = [load_machine(p) for p in args.dfa] if args.dfa else acceptance_dfas()
        if not all(isinstance(dfa, Dfa) for dfa in dfas):
            raise CliError("usage error: --dfa expects DFA specs")
        try:
            report = validate_dfa(dfas, r=args.r, max_len=args.max_len)
        except ValueError as exc:
            raise CliError(f"usage error: {exc}") from exc
    else:
        report = validate_trials(
            args.protocol, _MODES[args.mode], args.seed, args.trials, args.step_cap
        )
    if args.out:
        _write_json(args.out, report.to_json())
    print(
        f"{report.name}: attempted={report.attempted} skipped={report.skipped} "
        f"checked={report.checked} mismatches={len(report.mismatches)} "
        f"violations={sum(report.violations.values())} ({report.wall_time:.1f}s)"
    )
    return 0 if report.ok else 1


def _cmd_probe(args) -> int:
    try:
        prec = parse_precision(args.format)
    except ValueError as exc:
        raise CliError(f"usage error: {exc}") from exc
    if prec.exact:
        print("exact precision never confuses positions")
        return 0
    rep = probe_phi(prec.fmt, args.max, args.format)
    if args.out:
        _write_json(args.out, rep.to_json())
    if rep.first_confusion is None:
        print(f"{args.format}: no confusion up to {rep.scanned}")
    else:
        print(f"{args.format}: i*={rep.first_confusion} confused with j*={rep.confounder}")
    return 0


def _cmd_c0(args) -> int:
    if args.mode == "exact":
        if None in (args.d, args.d_ff, args.d_k, args.layers, args.context_bound):
            raise CliError("usage error: c0 --mode exact needs --d --d-ff --d-k --L --N")
        value = c0_exact_attention(args.d, args.d_ff, args.d_k, args.layers, args.context_bound)
    else:
        if None in (args.d_k, args.context_bound):
            raise CliError("usage error: c0 --mode denoising needs --d-k --N")
        value = c0_denoising(args.d_k, args.context_bound)
    print(f"c0 = {value:.6g}  (next power of two: {next_pow2_at_least(value):g})")
    return 0


def _cmd_capacity(args) -> int:
    table = instantiate_capacity(
        args.layers, args.d_k, args.d, args.d_ff, args.construction
    )
    if args.out:
        _write_json(args.out, table)
    print(
        f"{table['construction']}: r<= {table['r_from_depth']} (depth), "
        f"{table['r_from_d_k']} (d_k) -> r={table['r']}, context 2^{table['r']}"
    )
    for row in table["machines"]:
        if not row["max_states"]:
            note = "no machine fits"
        else:
            note = f"d={row['d_used']}, " + ("fits" if row["fits_d"] else "exceeds d")
        print(
            f"  K={row['tapes']} |Gamma|={row['gamma']}: up to {row['max_states']} states ({note})"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tm2tf")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("compile-dfa", "compile-cot", "compile-scot"):
        p = sub.add_parser(name)
        p.add_argument("--machine", "--dfa", "--tm", dest="machine", required=True)
        p.add_argument(
            "--r", type=_at_least(1) if name == "compile-dfa" else _even, required=True
        )
        p.add_argument("--out", required=True)
        p.add_argument("--report")
        p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("convert")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=["scaled", "denoised"], required=True)
    p.add_argument("--c", default="auto")
    p.add_argument("--N", dest="context_bound", type=_at_least(1), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convert)

    for name in ("run-cot", "run-scot"):
        p = sub.add_parser(name)
        p.add_argument("--model", required=True)
        p.add_argument("--word", default="")
        p.add_argument("--budget", type=_at_least(0), default=None)
        p.add_argument("--trace-out", help="JSON-lines dump of emitted tokens")
        p.set_defaults(func=_cmd_run)

    p = sub.add_parser("validate")
    p.add_argument("--protocol", choices=["cot", "scot", "dfa"], required=True)
    p.add_argument("--mode", choices=["hardmax", "scaled", "denoised"], default="hardmax")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_at_least(1), default=200)
    p.add_argument("--step-cap", type=_at_least(0), default=40)
    p.add_argument("--r", type=_at_least(1), default=3)  # dfa protocol
    p.add_argument("--max-len", type=_at_least(0), default=7)
    p.add_argument("--dfa", action="append")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("probe-phi")
    p.add_argument("--format", required=True)
    p.add_argument("--max", type=_at_least(2), default=10000)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("c0")
    p.add_argument("--mode", choices=["exact", "denoising"], required=True)
    p.add_argument("--d", type=_at_least(1))
    p.add_argument("--d-ff", dest="d_ff", type=_at_least(1))
    p.add_argument("--d-k", dest="d_k", type=_at_least(1))
    p.add_argument("--L", dest="layers", type=_at_least(1))
    p.add_argument("--N", dest="context_bound", type=_at_least(1))
    p.set_defaults(func=_cmd_c0)

    p = sub.add_parser("capacity")
    p.add_argument("--L", dest="layers", type=_at_least(1), required=True)
    p.add_argument("--d-k", dest="d_k", type=_at_least(1), required=True)
    p.add_argument("--d", type=_at_least(1), required=True)
    p.add_argument("--d-ff", dest="d_ff", type=_at_least(1), required=True)
    p.add_argument("--construction", choices=["cot", "scot"], default="cot")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_capacity)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
