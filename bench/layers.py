"""Per-layer metrics of a traced run: which tm2tf names are wrapped, the
counts taken at each wrapped call, and how spans and counts become the
per-layer metrics listed in BENCHMARK.json.

A layer is a tm2tf module. Spans wrap the names that callers look up, so
`round_array` is traced where netcore calls it and `compile_cot` where the
CLI and the harness call it.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import Tracer


def install_tracer() -> Tracer:
    """Wrap the tm2tf names listed below and return the installed tracer."""
    t = Tracer()

    def cli_count(tr, args, kwargs, result, seconds):
        argv = args[0] if args else kwargs["argv"]
        kind = "compile" if argv[0].startswith("compile-") else argv[0]
        tr.counts[f"cli.{kind}_s"] += seconds

    def compile_count(tr, args, kwargs, result, seconds):
        params, report = result
        d = report.dims
        tr.counts["compilers.heads_used"] += sum(report.heads_used)
        tr.counts["compilers.head_slots"] += d.n_layers * d.n_heads
        tr.counts["compilers.neurons_used"] += sum(report.neurons_used)
        tr.counts["compilers.neuron_slots"] += d.n_layers * d.d_ff
        arrays = []  # the layers' weight matrices; embeddings are not counted
        for layer in params.layers:
            arrays += [layer.w1, layer.w2]
            for h in layer.heads:
                arrays += [h.wq, h.wk, h.wv, h.wo]
        tr.counts["compilers.nonzero_weights"] += sum(int(np.count_nonzero(a)) for a in arrays)
        tr.counts["compilers.weights"] += sum(a.size for a in arrays)

    def load_count(tr, args, kwargs, result, seconds):
        tr.counts["netcore.model_bytes"] += os.path.getsize(args[0])

    def convert_count(tr, args, kwargs, result, seconds):
        tr.counts["softmaxify.zero_head_layers"] += sum(
            all(not (h.wq.any() or h.wk.any() or h.wv.any() or h.wo.any()) for h in layer.heads)
            for layer in result.layers
        )

    def init_count(tr, args, kwargs, result, seconds):
        tr.counts["netcore.evaluators"] += 1

    def extend_count(tr, args, kwargs, result, seconds):
        ev, tokens = args[0], args[1]
        tr.counts["netcore.positions"] += len(tokens)
        tr.counts["netcore.layer_steps"] += len(tokens) * len(ev.params.layers)

    def softmax_count(tr, args, kwargs, result, seconds):
        tr.counts["netcore.softmax_calls"] += 1

    def round_count(tr, args, kwargs, result, seconds):
        tr.counts["fpcore.round_calls"] += 1
        tr.counts["fpcore.round_elems"] += int(np.size(args[0]))

    def generate_count(tr, args, kwargs, result, seconds):
        prompt = args[1] if len(args) > 1 else kwargs["prompt"]
        tr.counts["generation.segments"] += 1
        tr.counts["generation.tokens_generated"] += len(result[0]) - len(prompt)

    def run_count(tr, args, kwargs, result, seconds):
        tr.counts["generation.non_output"] += result.outcome != "output"

    for module, name, layer, count in (
        ("tm2tf.cli", "main", "cli", cli_count),
        ("tm2tf.compilers", "compile_cot", "compilers", compile_count),
        ("tm2tf.compilers", "compile_scot", "compilers", compile_count),
        ("tm2tf.compilers", "compile_dfa", "compilers", compile_count),
        ("tm2tf.gadgets", "ModelBuilder.finalize", "gadgets", None),
        ("tm2tf.netcore", "save_model", "netcore", None),
        ("tm2tf.netcore", "load_model", "netcore", load_count),
        ("tm2tf.netcore", "Evaluator.__init__", "netcore", init_count),
        ("tm2tf.netcore", "Evaluator.extend", "netcore", extend_count),
        ("tm2tf.netcore", "Evaluator.next_token", "netcore", None),
        ("tm2tf.netcore", "softmax_weights", "netcore", softmax_count),
        ("tm2tf.fpcore", "round_array", "fpcore", round_count),
        ("tm2tf.softmaxify", "scale_qk", "softmaxify", convert_count),
        ("tm2tf.softmaxify", "convert_with_denoising", "softmaxify", convert_count),
        ("tm2tf.generation", "run_cot", "generation", run_count),
        ("tm2tf.generation", "run_scot", "generation", run_count),
        ("tm2tf.generation", "generate", "generation", generate_count),
        ("tm2tf.automata", "tm_run", "automata", None),
        ("tm2tf.automata", "cot_token_oracle", "automata", None),
        ("tm2tf.automata", "scot_segments_oracle", "automata", None),
        ("tm2tf.automata", "dfa_accepts", "automata", None),
        ("tm2tf.harness", "validate_cot", "harness", None),
        ("tm2tf.harness", "validate_scot", "harness", None),
        ("tm2tf.harness", "validate_dfa", "harness", None),
        ("tm2tf.harness", "trace_invariant_violations", "harness", None),
    ):
        t.wrap(module, name, layer, count)
    return t


def per_layer_metrics(tracer: Tracer, validate_counts: dict, overhead: float) -> dict:
    """Metric name -> (value, unit) from the spans and counts of a traced run.

    `validate_counts` are the validation reports' trial, mismatch and
    violation counts (zero on the decode workloads); `overhead` is traced
    over untraced wall time, minus 1.
    """
    s = tracer.summary()
    c = tracer.counts

    def total(*names):
        return sum(s.get(n, {}).get("total_s", 0.0) for n in names)

    def self_time(prefix, names=None):
        return sum(
            row["self_s"]
            for key, row in s.items()
            if key.startswith(prefix + ".") and (names is None or key.split(".", 1)[1] in names)
        )

    def calls(*names):
        return sum(s.get(n, {}).get("calls", 0) for n in names)

    def share(num, den):
        return c[num] / c[den] if c[den] else 0.0

    eval_self = self_time("netcore", {"Evaluator.extend", "Evaluator.next_token"})
    attempted = validate_counts["trials_attempted"]
    return {
        "cli.compile_cmd_s": (c["cli.compile_s"], "s"),
        "cli.convert_cmd_s": (c["cli.convert_s"], "s"),
        "netcore.save_s": (total("netcore.save_model"), "s"),
        "netcore.load_s": (total("netcore.load_model"), "s"),
        "netcore.model_bytes": (c["netcore.model_bytes"], "bytes"),
        "compilers.compile_s": (
            total("compilers.compile_cot", "compilers.compile_scot", "compilers.compile_dfa"), "s"
        ),
        "compilers.compile_calls": (
            calls("compilers.compile_cot", "compilers.compile_scot", "compilers.compile_dfa"),
            "count",
        ),
        "gadgets.finalize_s": (total("gadgets.ModelBuilder.finalize"), "s"),
        "compilers.live_head_share": (share("compilers.heads_used", "compilers.head_slots"), "ratio"),
        "compilers.live_neuron_share": (
            share("compilers.neurons_used", "compilers.neuron_slots"), "ratio"
        ),
        "compilers.nonzero_weight_share": (
            share("compilers.nonzero_weights", "compilers.weights"), "ratio"
        ),
        "softmaxify.convert_s": (
            total("softmaxify.scale_qk", "softmaxify.convert_with_denoising"), "s"
        ),
        "softmaxify.zero_head_layers": (c["softmaxify.zero_head_layers"], "count"),
        "netcore.eval_self_s": (eval_self, "s"),
        "netcore.positions": (c["netcore.positions"], "count"),
        "netcore.layer_steps": (c["netcore.layer_steps"], "count"),
        "netcore.us_per_layer_step": (
            1e6 * eval_self / c["netcore.layer_steps"] if c["netcore.layer_steps"] else 0.0, "us"
        ),
        "netcore.init_s": (total("netcore.Evaluator.__init__"), "s"),
        "netcore.evaluators": (c["netcore.evaluators"], "count"),
        "netcore.softmax_s": (total("netcore.softmax_weights"), "s"),
        "netcore.softmax_calls": (c["netcore.softmax_calls"], "count"),
        "fpcore.round_s": (total("fpcore.round_array"), "s"),
        "fpcore.round_calls": (c["fpcore.round_calls"], "count"),
        "fpcore.round_elems": (c["fpcore.round_elems"], "count"),
        "generation.self_s": (self_time("generation"), "s"),
        "generation.segments": (c["generation.segments"], "count"),
        "generation.tokens_generated": (c["generation.tokens_generated"], "count"),
        "generation.non_output": (c["generation.non_output"], "count"),
        "automata.oracle_s": (self_time("automata"), "s"),
        "automata.oracle_calls": (
            sum(row["outer_calls"] for key, row in s.items() if key.startswith("automata.")),
            "count",
        ),
        "harness.audit_s": (total("harness.trace_invariant_violations"), "s"),
        "harness.self_s": (
            self_time("harness", {"validate_cot", "validate_scot", "validate_dfa"}), "s"
        ),
        "harness.trials_attempted": (attempted, "count"),
        "harness.trials_checked": (validate_counts["trials_checked"], "count"),
        "harness.checked_share": (
            validate_counts["trials_checked"] / attempted if attempted else 0.0, "ratio"
        ),
        "harness.mismatches": (validate_counts["mismatches"], "count"),
        "harness.violations": (validate_counts["violations"], "count"),
        "trace_overhead_share": (overhead, "ratio"),
    }
