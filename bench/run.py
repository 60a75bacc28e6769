"""tm2tf benchmark: decode throughput, validation throughput and set-up cost.

Usage, from the repository root:

    python3 bench/run.py --workload decode-hardmax --seed 1 --seconds 8 --trace 0

Workloads (bench/README.md says why each was chosen):

  decode-hardmax   five compiled machines decoded under hardmax
  decode-softmax   fig2 CoT converted with scale_qk and with denoising,
                   decoded under rounded softmax
  validate-mixed   validate_dfa over acceptance_dfas() plus single-trial
                   validate_cot / validate_scot runs

The program is imported from src/ of the checkout this file sits in. One
client in one process runs operations back to back (a closed loop) in whole
passes until --seconds have passed and there are at least MIN_SAMPLES timed
calls. With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 one fixed pass runs three times (warm-up,
untraced, under the span tracer), and the line holds the per-layer metrics. Every
decode is compared token for token with the automata oracles and every
validation report must have zero mismatches and zero violations; any failed
operation is counted and makes the exit code 1. Results and spans are
written to bench/out/.
"""

from __future__ import annotations

import os

# One BLAS thread: the load is a single closed-loop client on a small host,
# and threads would only add scheduling noise to tiny matvecs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MACHINES = BENCH_DIR / "machines"
OUT = BENCH_DIR / "out"

WORKLOADS = ("decode-hardmax", "decode-softmax", "validate-mixed")
SETUP_REPS = 2  # setup_s is the median (of two: the mean) of this many complete set-ups
MIN_SAMPLES = 24  # timed calls per run, so the tail percentile lies above p50
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples above it

# The host-speed probe's median time on the reference host (2-core Intel
# Xeon VM at 2.1 GHz, Python 3.11, numpy 2.4.6 on OpenBLAS 0.3.31, one
# thread). Timed metrics are scaled by this over the probe times measured
# next to each operation; see HostProbe.
PROBE_REFERENCE_S = 0.007


@dataclass(frozen=True)
class ModelSpec:
    key: str
    machine: str  # file stem under bench/machines
    protocol: str  # cot | scot
    word_len: int  # every input word has exactly this length
    mode: str  # hardmax | scaled | denoised
    per_pass: int  # decodes of this model in one pass


# Calls per pass are weighted so that the median and the tail of the
# per-call ms/token fall inside one model's cluster of values, not between
# two (README: "Per-call percentiles").
DECODE_MODELS = {
    "decode-hardmax": (
        ModelSpec("bouncer8-cot", "bouncer8", "cot", 4, "hardmax", 1),
        ModelSpec("bouncer4-scot", "bouncer4", "scot", 4, "hardmax", 1),
        ModelSpec("copy-cot", "copy", "cot", 4, "hardmax", 5),
        ModelSpec("copy-scot", "copy", "scot", 4, "hardmax", 1),
        ModelSpec("fig2-cot", "fig2", "cot", 4, "hardmax", 1),
    ),
    "decode-softmax": (
        ModelSpec("fig2-cot-scaled", "fig2", "cot", 2, "scaled", 1),
        ModelSpec("fig2-cot-denoised", "fig2", "cot", 2, "denoised", 2),
    ),
}

# validate-mixed validates a fixed corpus: the three acceptance DFAs on every
# word up to length 7 at r=3 (the CLI defaults of `tm2tf validate --protocol
# dfa`, 765 words) and one validate_cot and one validate_scot trial under each
# validation seed in VALIDATE_SEEDS, with the default TrialConfig (step cap
# 40). The benchmark seed only shuffles the order of these operations: under
# random per-seed corpora trials_per_s ranged from 60/s to 93/s over five
# seeds, because the cost of a sampled machine varies by a factor of ten.
DFA_R, DFA_MAX_LEN = 3, 7
VALIDATE_SEEDS = range(28)  # 24 of the 56 trials get checked; the rest do not halt
VALIDATE_COUNTS = ("trials_attempted", "trials_checked", "mismatches", "violations")


class BenchError(Exception):
    pass


def import_program() -> None:
    """Import tm2tf from src/ of this checkout, or stop without a result."""
    if not (SRC / "tm2tf" / "__init__.py").is_file():
        raise SystemExit(f"bench: no tm2tf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tm2tf

    if Path(tm2tf.__file__).resolve().parent != (SRC / "tm2tf").resolve():
        raise SystemExit(f"bench: imported tm2tf from {tm2tf.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# environment


def blas_version() -> str | None:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        return None


def git_commit() -> str | None:
    """HEAD of the checkout read from .git without starting git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


# ---------------------------------------------------------------------------
# measurement


class HostProbe:
    """A fixed CPU kernel timed next to every measured operation.

    The host is shared: the speed of the same decode loop drifts by up to a
    factor of 1.6 within a minute, with CPU time tracking wall time. The
    probe (small float64 matvecs and a Python loop, like the evaluator's
    inner loop) slows down with it, so an operation's time is scaled by
    PROBE_REFERENCE_S over the mean of the probes just before and after it.
    Raw times are kept in the results file.
    """

    N, ITERS = 160, 600

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        codes = (np.arange(self.N * self.N) * 7919) % 3 - 1
        self.a = codes.astype(np.float64).reshape(self.N, self.N)
        self.samples: list[float] = []
        self.last = self.speed()

    def sample(self) -> float:
        np, a = self.np, self.a
        x = np.ones(self.N)
        acc = 0
        start = time.perf_counter()
        for i in range(self.ITERS):
            x = np.maximum(a @ x, 0.0)
            x /= x.max() + 1.0
            acc += i * i % 7
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def speed(self) -> float:
        """Median of three samples, so that one slow sample cannot rescale
        a whole operation."""
        return statistics.median(self.sample() for _ in range(3))

    def timed(self, fn, *args):
        """(result, raw seconds, seconds scaled to the reference host)."""
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        before, self.last = self.last, self.speed()
        return result, raw, raw * 2.0 * PROBE_REFERENCE_S / (before + self.last)


@dataclass
class Stats:
    """Checked operations of one run."""

    attempted: int = 0
    failed: int = 0
    checked: int = 0
    tokens: int = 0
    raw_s: float = 0.0
    scaled_s: float = 0.0
    samples: list[float] = field(default_factory=list)  # scaled ms per token, per call
    inputs: list = field(default_factory=list)

    def add(self, raw: float, scaled: float, tokens: int, checked: int) -> None:
        self.raw_s += raw
        self.scaled_s += scaled
        self.tokens += tokens
        self.checked += checked
        if tokens:
            self.samples.append(1000.0 * scaled / tokens)

    def tail(self) -> tuple[float, float]:
        """(value, percentile) of the highest nearest-rank percentile of the
        per-call samples that has TAIL_BEYOND samples above it."""
        ordered = sorted(self.samples)
        if len(ordered) < 2 * TAIL_BEYOND:
            raise BenchError(f"{len(ordered)} timed calls are too few for a tail percentile")
        rank = len(ordered) - TAIL_BEYOND
        return ordered[rank - 1], 100.0 * rank / len(ordered)

    def metrics(self, setup_scaled: list[float]) -> dict:
        tail_value = self.tail()[0]  # first: it rejects a run with too few timed calls
        return {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "tokens_per_s": (self.tokens / self.scaled_s, "tok/s"),
            "trials_per_s": (self.checked / self.scaled_s, "1/s"),
            "ms_per_token_p50": (statistics.median(self.samples), "ms"),
            "ms_per_token_tail": (tail_value, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def details(self) -> dict:
        return {
            "checked": self.checked,
            "tokens": self.tokens,
            "raw_tokens_per_s": self.tokens / self.raw_s,
            "raw_trials_per_s": self.checked / self.raw_s,
            "tail_percentile": self.tail()[1],
            "tail_samples": len(self.samples),
            "inputs_sha256": digest(self.inputs),
        }


def run_passes(ops_for_pass, run_op, seconds: float | None, stats: Stats) -> int:
    """Whole passes until `seconds` have passed and MIN_SAMPLES calls are
    timed; exactly one pass when `seconds` is None. Returns the pass count."""
    start = time.perf_counter()
    passes = 0
    while passes == 0 or (
        seconds is not None
        and (time.perf_counter() - start < seconds or len(stats.samples) < MIN_SAMPLES)
    ):
        timed_before = len(stats.samples)
        for op in ops_for_pass(passes):
            stats.inputs.append(op)
            try:
                run_op(op)
            except Exception as exc:  # counted as a failed operation, never skipped
                print(f"bench: {op!r} raised {exc!r}", file=sys.stderr)
                stats.attempted += 1
                stats.failed += 1
        passes += 1
        if len(stats.samples) == timed_before:
            break  # no call completed in a whole pass: stop instead of looping
    return passes


# ---------------------------------------------------------------------------
# decode workloads


class Decode:
    """Set-up and checked decode calls of one decode workload."""

    def __init__(self, workload: str, seed: int, workdir: Path, probe: HostProbe):
        from tm2tf import automata, cli, compilers, generation, netcore

        self.cli, self.automata, self.netcore = cli, automata, netcore
        self.compilers, self.generation = compilers, generation
        self.specs = {s.key: s for s in DECODE_MODELS[workload]}
        self.workload, self.seed, self.workdir, self.probe = workload, seed, workdir, probe
        self.machines = {
            s.machine: cli.load_machine(str(MACHINES / f"{s.machine}.json"))
            for s in self.specs.values()
        }
        self.r = {key: self._choose_r(s) for key, s in self.specs.items()}
        self.models: dict[str, tuple] = {}
        self.model_bytes = 0

    def _choose_r(self, spec: ModelSpec) -> int:
        """r from the worst case over every word of the stated length."""
        tm = self.machines[spec.machine]
        worst = 1
        for word in itertools.product(tm.input_alphabet, repeat=spec.word_len):
            result = self.automata.tm_run(tm, list(word), 10_000)
            if not (result.halted and result.output is not None):
                raise BenchError(f"{spec.machine} does not halt cleanly on {word}")
            size = max(result.steps, len(word)) if spec.protocol == "cot" else result.space
            worst = max(worst, size)
        if spec.protocol == "cot":
            return self.compilers.choose_r_cot(worst)
        return self.compilers.choose_r_scot(worst)

    def _cli(self, argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv)
        if code != 0:
            raise BenchError(f"tm2tf {' '.join(argv)} exited with {code}")

    def eval_config(self, spec: ModelSpec, params):
        from tm2tf.fpcore import EXACT, PRESETS, FloatFormat, Precision
        from tm2tf.softmaxify import act_format_containing, min_att_exponent_bits

        EvalConfig = self.netcore.EvalConfig
        if spec.mode == "hardmax":
            return EvalConfig()
        if spec.mode == "scaled":
            # Exact attention weights; activations in bf16, as validate_softmax does.
            return EvalConfig(
                attention="softmax", act_precision=Precision(PRESETS["bf16"]), att_precision=EXACT
            )
        # The theorem's formats: 1-bit-mantissa activations that contain c and
        # 4-bit-mantissa attention weights with enough exponent bits for 2^r.
        return EvalConfig(
            attention="softmax",
            act_precision=Precision(act_format_containing(params.qk_scale)),
            att_precision=Precision(FloatFormat(4, min_att_exponent_bits(2 ** self.r[spec.key]))),
        )

    def _load(self, spec: ModelSpec, path: Path) -> tuple:
        params = self.netcore.load_model(str(path))
        cfg = self.eval_config(spec, params)
        self.netcore.Evaluator(params, cfg)
        return params, cfg

    def setup(self) -> tuple[float, float]:
        """Spec to ready models: CLI compile (once per machine, protocol and
        r) and convert, then load_model and build the Evaluator. Returns
        (raw, scaled) seconds; each step is timed between probes."""
        raw = scaled = 0.0

        def step(fn, *args):
            nonlocal raw, scaled
            result, step_raw, step_scaled = self.probe.timed(fn, *args)
            raw, scaled = raw + step_raw, scaled + step_scaled
            return result

        compiled: dict[tuple, Path] = {}
        self.model_bytes = 0
        for spec in self.specs.values():
            r = self.r[spec.key]
            source = (spec.machine, spec.protocol, r)
            if source not in compiled:
                compiled[source] = self.workdir / f"{spec.machine}-{spec.protocol}-r{r}.json"
                step(self._cli, [f"compile-{spec.protocol}",
                                 "--tm", str(MACHINES / f"{spec.machine}.json"),
                                 "--r", str(r), "--out", str(compiled[source])])
            path = compiled[source]
            if spec.mode != "hardmax":
                path = self.workdir / f"{spec.key}.json"
                step(self._cli, ["convert", "--model", str(compiled[source]),
                                 "--mode", spec.mode, "--out", str(path)])
            self.models[spec.key] = step(self._load, spec, path)
            self.model_bytes += path.stat().st_size
        return raw, scaled

    def pass_ops(self, pass_index: int):
        for key, spec in self.specs.items():
            alphabet = self.machines[spec.machine].input_alphabet
            for i in range(spec.per_pass):
                rng = random.Random(f"{self.seed}|{self.workload}|{key}|{pass_index}|{i}")
                yield key, [rng.choice(alphabet) for _ in range(spec.word_len)]

    def run_op(self, op, stats: Stats, rows: dict) -> None:
        """One decode, timed, then compared with the oracle."""
        key, word = op
        spec = self.specs[key]
        tm, r = self.machines[spec.machine], self.r[key]
        if spec.protocol == "cot":
            expected = [self.automata.cot_token_oracle(tm, word, r)]
            runner = self.generation.run_cot
        else:
            expected = self.automata.scot_segments_oracle(tm, word, r)
            runner = self.generation.run_scot
        params, cfg = self.models[key]
        trace, raw, scaled = self.probe.timed(runner, params, word, cfg)
        stats.attempted += 1
        if trace.outcome != "output" or trace.segments != expected:
            print(f"bench: {key} {''.join(word)!r} differs from the oracle "
                  f"(outcome {trace.outcome})", file=sys.stderr)
            stats.failed += 1
        stats.add(raw, scaled, trace.total_tokens, 1)
        row = rows.setdefault(key, {"calls": 0, "tokens": 0, "scaled_s": 0.0})
        row["calls"] += 1
        row["tokens"] += trace.total_tokens
        row["scaled_s"] += scaled


def run_decode(workload: str, seed: int, seconds: float | None, workdir: Path) -> dict:
    """Timed run (SETUP_REPS set-ups, then passes), or one set-up and one
    pass when `seconds` is None."""
    probe = HostProbe()
    bench = Decode(workload, seed, workdir, probe)
    setups = [bench.setup() for _ in range(SETUP_REPS if seconds is not None else 1)]
    stats, rows = Stats(), {}
    passes = run_passes(bench.pass_ops, lambda op: bench.run_op(op, stats, rows), seconds, stats)
    out = {"stats": stats, "work_scaled_s": stats.scaled_s + sum(s for _, s in setups)}
    if seconds is not None:
        out["metrics"] = stats.metrics([s for _, s in setups])
        out["details"] = {
            **stats.details(),
            "passes": passes,
            "setup_raw_s": [r for r, _ in setups],
            "setup_scaled_s": [s for _, s in setups],
            "probe_median_s": statistics.median(probe.samples),
            "model_file_mb": bench.model_bytes / 1e6,
            "r": bench.r,
            "per_model": {
                key: {**row, "tokens_per_s": row["tokens"] / row["scaled_s"]}
                for key, row in rows.items()
            },
        }
    return out


# ---------------------------------------------------------------------------
# validation workload


def import_tm2tf() -> None:
    """Import the modules the validation workload calls from a clean module
    table; numpy stays loaded, as it is not part of tm2tf."""
    for name in [m for m in sys.modules if m.split(".")[0] == "tm2tf"]:
        del sys.modules[name]
    importlib.import_module("tm2tf.cli")
    importlib.import_module("tm2tf.harness")


class Validate:
    """validate_dfa ops and single-trial validate_cot / validate_scot ops."""

    def __init__(self, seed: int, probe: HostProbe):
        from tm2tf import harness

        self.harness, self.seed, self.probe = harness, seed, probe
        self.dfas = harness.acceptance_dfas()
        self.counts = dict.fromkeys(VALIDATE_COUNTS, 0)
        self.trial_tokens = 0
        # Tokens of each trial's decode, read off the GenerationTrace that
        # the harness gets back; one extra Python call per trial.
        self._originals = {name: getattr(harness, name) for name in ("run_cot", "run_scot")}
        for name, fn in self._originals.items():
            setattr(harness, name, self._counting(fn))

    def _counting(self, fn):
        def counted(*args, **kwargs):
            trace = fn(*args, **kwargs)
            self.trial_tokens += trace.total_tokens
            return trace

        return counted

    def close(self) -> None:
        for name, fn in self._originals.items():
            setattr(self.harness, name, fn)

    def pass_ops(self, pass_index: int) -> list[tuple[str, int]]:
        ops = [("dfa", i) for i in range(len(self.dfas))]
        ops += [(kind, s) for s in VALIDATE_SEEDS for kind in ("cot", "scot")]
        random.Random(f"{self.seed}|validate-mixed|{pass_index}").shuffle(ops)
        return ops

    def _validate(self, kind: str, arg: int):
        h = self.harness
        if kind == "dfa":
            return h.validate_dfa([self.dfas[arg]], r=DFA_R, max_len=DFA_MAX_LEN)
        fn = h.validate_cot if kind == "cot" else h.validate_scot
        return fn(seed=arg, trials=1)

    def run_op(self, op, stats: Stats) -> None:
        kind, arg = op
        before = self.trial_tokens
        report, raw, scaled = self.probe.timed(self._validate, kind, arg)
        if kind == "dfa":
            # Every word w of length <= DFA_MAX_LEN is fed as BOS, w.
            a = len(self.dfas[arg].alphabet)
            tokens = sum(a**n * (n + 1) for n in range(DFA_MAX_LEN + 1))
        else:
            tokens = self.trial_tokens - before
            self.counts["trials_attempted"] += report.attempted
            self.counts["trials_checked"] += report.checked
        self.counts["mismatches"] += len(report.mismatches)
        self.counts["violations"] += sum(report.violations.values())
        stats.attempted += report.attempted
        if not report.ok:
            # A failed word or trial each; at least one when the report is not ok.
            bad = len(report.mismatches) + sum(report.violations.values())
            stats.failed += max(1, min(bad, report.checked))
            print(f"bench: validate {kind} {arg} failed: {report.to_json()}", file=sys.stderr)
        stats.add(raw, scaled, tokens, report.checked)


def run_validate(seed: int, seconds: float | None) -> dict:
    """Timed run with the import set-up, or one pass without it when
    `seconds` is None (the traced run wraps the modules already imported)."""
    probe = HostProbe()
    setups = []
    if seconds is not None:
        setups = [probe.timed(import_tm2tf)[1:] for _ in range(SETUP_REPS)]
    bench = Validate(seed, probe)
    stats = Stats()
    try:
        passes = run_passes(bench.pass_ops, lambda op: bench.run_op(op, stats), seconds, stats)
    finally:
        bench.close()
    out = {"stats": stats, "counts": bench.counts,
           "work_scaled_s": stats.scaled_s + sum(s for _, s in setups)}
    if seconds is not None:
        out["metrics"] = stats.metrics([s for _, s in setups])
        out["details"] = {
            **stats.details(),
            "passes": passes,
            "setup_raw_s": [r for r, _ in setups],
            "setup_scaled_s": [s for _, s in setups],
            "probe_median_s": statistics.median(probe.samples),
            "trial_counts": bench.counts,
        }
    return out


# ---------------------------------------------------------------------------
# traced run


def run_traced(workload: str, seed: int, workdir: Path, spans_path: Path) -> dict:
    """One fixed pass to warm up, then untraced, then under the tracer.

    trace_overhead_share compares the probe-scaled time of the timed
    operations (set-up steps and calls) of the last two passes.
    """
    from layers import install_tracer, per_layer_metrics

    def work() -> dict:
        if workload == "validate-mixed":
            return run_validate(seed, None)
        return run_decode(workload, seed, None, workdir)

    runs = [work()]  # first-call costs (caches, file system) land here
    start = time.perf_counter()
    runs.append(work())
    untraced = time.perf_counter() - start
    tracer = install_tracer()
    try:
        start = time.perf_counter()
        runs.append(work())
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.write_spans(str(spans_path))
    traced_run = runs[-1]
    counts = traced_run.get("counts", dict.fromkeys(VALIDATE_COUNTS, 0))
    overhead = traced_run["work_scaled_s"] / runs[-2]["work_scaled_s"] - 1.0
    return {
        "stats": Stats(attempted=sum(r["stats"].attempted for r in runs),
                       failed=sum(r["stats"].failed for r in runs)),
        "metrics": per_layer_metrics(tracer, counts, overhead),
        "details": {
            "untraced_s": untraced,
            "traced_s": traced,
            "inputs_sha256": digest(traced_run["stats"].inputs),
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "layers": tracer.summary(),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            result = run_traced(args.workload, args.seed, workdir, OUT / f"spans-{tag}.jsonl")
        elif args.workload == "validate-mixed":
            result = run_validate(args.seed, args.seconds)
        else:
            result = run_decode(args.workload, args.seed, args.seconds, workdir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stats = result["stats"]
    attempted, failed = stats.attempted, stats.failed
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["metrics"].items()}
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "failed_share": {"failed": failed, "attempted": attempted, "value": failed / attempted},
        "metrics": metrics,
        "details": result["details"],
    }
    with open(OUT / f"{tag}.json", "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    env = " ".join(f"{k}={v}" for k, v in record["environment"].items())
    print(f"# {args.workload} trace={args.trace} {env}")
    details = record["details"]
    if "tail_percentile" in details:
        print(f"# ms_per_token_tail is p{details['tail_percentile']:.1f} of "
              f"{details['tail_samples']} timed calls")
        print(f"# times scaled to the reference host; probe median "
              f"{details['probe_median_s'] * 1000:.3f} ms vs {PROBE_REFERENCE_S * 1000:.3f} ms")
    if "model_file_mb" in details:
        print(f"model_file_mb = {details['model_file_mb']:.6f} MB")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_share = {failed}/{attempted} = {failed / attempted:g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
