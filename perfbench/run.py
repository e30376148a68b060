"""Offline end-to-end and per-layer benchmark of hdlsmith.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see BENCHMARK.json for both lists). The program is
imported from ``src/`` next to this directory and driven only through its
public entry points and injection seams. Nothing here needs a network,
``iverilog`` or ``vvp``: replies come from a modelled provider and tool
times are modelled (see workloads.py), so every tool time is a modelled one.

Human-readable lines go to standard output first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Every
metric of every workload, with the oracle checks:

    for w in grid_sweep offline_repair; do for t in 0 1; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace $t
    done; done

``run_p50_s`` and ``run_tail_s`` time one ``execute_run`` call on
offline_repair and one search depth (a ``generate`` call and the evaluation
of its replies) on grid_sweep.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
TAIL_PCT = 90.0


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import hdlsmith
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import hdlsmith from {ROOT / 'src'}: {exc}")
    if Path(hdlsmith.__file__).resolve().parent != ROOT / "src" / "hdlsmith":
        raise SystemExit(f"perfbench: imported hdlsmith from {hdlsmith.__file__}, not from {ROOT / 'src'}")


sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from spans import (  # noqa: E402
    END, NAME, SEARCH, DEPTH, START, Tracer, durations, percentile, self_times, tail,
)
from workloads import WORKLOADS  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "run_p50_s": "s",
    "run_tail_s": "s",
    "llm_queries": "count",
    "input_tokens": "tokens",
    "output_tokens": "tokens",
    "cost_usd": "usd",
    "success_percent": "%",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "backends.generate_s_p50": "s",
    "backends.request_s_p50": "s",
    "backends.requests": "count",
    "backends.retries": "count",
    "backends.backoff_wait_s": "s",
    "backends.overflow_rejects": "count",
    "backends.inflight_max": "count",
    "backends.billed_share": "share",
    "search.depths": "count",
    "search.eval_wait_s": "s",
    "search.depth_s_p50": "s",
    "extract.calls_per_candidate": "count",
    "extract.s": "s",
    "extract.source.fenced_block": "count",
    "extract.source.module_span": "count",
    "extract.source.none": "count",
    "edatools.evaluate_s_p50": "s",
    "edatools.evaluate_s_tail": "s",
    "edatools.compile_calls": "count",
    "edatools.compile_s_p50": "s",
    "edatools.simulate_calls": "count",
    "edatools.simulate_s_p50": "s",
    "edatools.sim_timeouts": "count",
    "edatools.repeat_eval_share": "share",
    "edatools.write_s": "s",
    "edatools.parse_summary_s": "s",
    "edatools.files_written": "count",
    "edatools.bytes_written": "bytes",
    "core.rank.no_module": "count",
    "core.rank.compile_error": "count",
    "core.rank.unusable": "count",
    "core.rank.partial": "count",
    "core.rank.pass": "count",
    "prompts.window_s": "s",
    "prompts.fallback_share": "share",
    "prompts.prompt_chars_p50": "chars",
    "prompts.prompt_chars_max": "chars",
    "runcfg.execute_run_s_p50": "s",
    "runcfg.run_log_s": "s",
    "bench.run_suite_s": "s",
    "bench.report_s": "s",
    "bench.repeat_query_share": "share",
    "error_share": "share",
    "trace.overhead_s": "s",
}

WINDOW_SPANS = ("prompts.next_conversation", "prompts.succinct_window",
                "prompts.flatten_for_backend", "prompts.estimate_tokens")
_WORKDIR_RE = re.compile(r"iter(\d+)[/\\]response(\d+)$")


def measure_setup(workload, seed: int) -> list[float]:
    """Set-up times of fresh interpreters, each loading the workload's inputs."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(workload.inputs_dir), str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def layer_wrappers(tracer: Tracer, provider) -> dict:
    """Wrappers for the program's module-level functions, keyed by the original."""
    from hdlsmith import core, edatools, extract, faketools, prompts, runcfg, search

    def on_extract(result, *args, **kwargs):
        tracer.count("extract.source." + result.source.value)

    def on_rank(result, *args, **kwargs):
        tracer.count("core.rank." + gen.rank_class(result.value))

    def on_compile(result, module_src, testbench_src, *args, **kwargs):
        tracer.count("edatools.compile_calls")
        key = (module_src, testbench_src)
        if key in tracer.keys:
            tracer.count("edatools.repeat_compiles")
        tracer.keys.add(key)

    def on_simulate(result, *args, **kwargs):
        tracer.count("edatools.simulate_calls")
        tracer.count("edatools.sim_timeouts", int(result.timed_out))

    def evaluate_attrs(candidate_text, task, workdir, *args, **kwargs):
        match = _WORKDIR_RE.search(str(workdir))
        depth, slot = int(match.group(1)), int(match.group(2))
        arrival = provider.arrivals.get((task.name, depth, slot))
        if arrival is not None:
            tracer.sample("search.eval_wait_s", time.perf_counter() - arrival)
        return {"depth": depth, "slot": slot}

    def search_attrs(task, cfg, *args, **kwargs):
        return {"search": f"{task.name}/k{cfg.num_candidates}/d{cfg.max_depth}/{cfg.feedback_mode.value}"}

    def on_search(trace, task, cfg, *args, **kwargs):
        tracer.traces.append((task.name, cfg, trace))
        tracer.count("search.nodes", len(trace.nodes))
        tracer.count("search.fallback_nodes", sum(n.context_fallback for n in trace.nodes))

    plain = {
        extract.extract_module: ("extract.extract_module", None, on_extract),
        edatools.write_candidate_sources: ("edatools.write_candidate_sources", None, None),
        edatools.parse_summary: ("edatools.parse_summary", None, None),
        core.rank_outcome: ("core.rank_outcome", None, on_rank),
        prompts.next_conversation: ("prompts.next_conversation", None, None),
        prompts.succinct_window: ("prompts.succinct_window", None, None),
        prompts.flatten_for_backend: ("prompts.flatten_for_backend", None, None),
        prompts.estimate_tokens: ("prompts.estimate_tokens", None, None),
        runcfg.write_run_log: ("runcfg.write_run_log", None, None),
        search.run_search: ("search.run_search", search_attrs, on_search),
        edatools.evaluate: ("edatools.evaluate", evaluate_attrs, None),
        edatools.compile_design: ("edatools.compile", None, on_compile),
        faketools.fake_compile: ("edatools.compile", None, on_compile),
        edatools.simulate: ("edatools.simulate", None, on_simulate),
        faketools.fake_simulate: ("edatools.simulate", None, on_simulate),
    }
    return {func: tracer.wrap(name, func, attrs, hook) for func, (name, attrs, hook) in plain.items()}


def layer_values(tracer: Tracer, rep) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Per-repetition layer totals and counts, plus samples to pool across reps."""
    spans = tracer.spans
    own = self_times(spans)
    counts = tracer.counts
    stats = rep.stats

    def own_sum(*names):
        return sum(t for s, t in zip(spans, own) if s[NAME] in names)

    def own_samples(name):
        return [t for s, t in zip(spans, own) if s[NAME] == name]

    depth_spans: dict[tuple, list[float]] = {}
    generated = set()
    for s in spans:
        if s[NAME] in ("backends.generate", "edatools.evaluate"):
            key = (s[SEARCH], s[DEPTH])
            bounds = depth_spans.setdefault(key, [s[START], s[END]])
            bounds[0], bounds[1] = min(bounds[0], s[START]), max(bounds[1], s[END])
            if s[NAME] == "backends.generate":
                generated.add(key)
    evaluations = len(durations(spans, "edatools.evaluate"))
    calls_per_candidate = len(durations(spans, "extract.extract_module")) / evaluations if evaluations else 0.0
    compiles = counts["edatools.compile_calls"]
    values = {
        "backends.requests": stats.requests,
        "backends.retries": stats.retries,
        "backends.backoff_wait_s": stats.backoff_wait_s,
        "backends.overflow_rejects": stats.overflow_rejects,
        "backends.inflight_max": stats.inflight_max,
        "backends.billed_share": stats.billed / stats.requests if stats.requests else 0.0,
        "search.depths": len(generated),
        "search.eval_wait_s": sum(tracer.samples.get("search.eval_wait_s", ())),
        "extract.calls_per_candidate": calls_per_candidate,
        "extract.s": own_sum("extract.extract_module"),
        "edatools.compile_calls": compiles,
        "edatools.simulate_calls": counts["edatools.simulate_calls"],
        "edatools.sim_timeouts": counts["edatools.sim_timeouts"],
        "edatools.repeat_eval_share": counts["edatools.repeat_compiles"] / compiles if compiles else 0.0,
        "edatools.write_s": own_sum("edatools.write_candidate_sources"),
        "edatools.parse_summary_s": own_sum("edatools.parse_summary"),
        "edatools.files_written": rep.files_written,
        "edatools.bytes_written": rep.bytes_written,
        "prompts.window_s": own_sum(*WINDOW_SPANS),
        "prompts.fallback_share": (
            counts["search.fallback_nodes"] / counts["search.nodes"] if counts["search.nodes"] else 0.0
        ),
        "prompts.prompt_chars_max": max(stats.prompt_chars, default=0),
        "runcfg.run_log_s": own_sum("runcfg.write_run_log"),
        "bench.run_suite_s": sum(durations(spans, "bench.run_suite")),
        "bench.report_s": sum(durations(spans, "bench.report")),
        "bench.repeat_query_share": stats.repeat_billed / stats.billed if stats.billed else 0.0,
    }
    for source in ("fenced_block", "module_span", "none"):
        n = counts["extract.source." + source]
        values["extract.source." + source] = n / calls_per_candidate if calls_per_candidate else 0
    for cls in ("no_module", "compile_error", "unusable", "partial", "pass"):
        values["core.rank." + cls] = counts["core.rank." + cls]
    pooled = {
        "backends.generate_s": durations(spans, "backends.generate"),
        "backends.request_s": durations(spans, "backends.request"),
        "search.depth_s": [end - start for start, end in depth_spans.values()],
        "edatools.evaluate_s": durations(spans, "edatools.evaluate"),
        "edatools.compile_s": own_samples("edatools.compile"),
        "edatools.simulate_s": own_samples("edatools.simulate"),
        "prompts.prompt_chars": list(stats.prompt_chars),
        "runcfg.execute_run_s": durations(spans, "runcfg.execute_run"),
    }
    return values, pooled


def empty_tree(path: Path) -> None:
    """Truncate every file under ``path`` to zero bytes, keeping the files.

    The last file truncated is then synced, which commits the file system's
    journal up to and including every truncation, so that the commit (and
    the discard of the freed blocks on a disk mounted with ``discard``) is
    done before the next repetition starts instead of during it.
    """
    last = None
    for dirpath, _, names in os.walk(path):
        for name in names:
            last = os.path.join(dirpath, name)
            os.truncate(last, 0)
    if last is not None:
        fd = os.open(last, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def run_reps(workload, out: Path, label: str, seconds: float, min_reps: int, tracer: Tracer | None, log) -> list:
    """Repeat the workload for ``seconds``, and at least ``min_reps`` times.

    Every repetition of a run has the same inputs and writes the same output
    tree into ``out``. The first repetition (the warm-up, where the workload
    has one) creates the tree. After each repetition, outside the timed
    region, its files are checked against the traces and then truncated to
    zero bytes, so the next repetition writes the same files afresh but does
    not create them. On the ext4 disk (mounted with ``discard``) of the
    machine this was tuned on, creating a file took either about 60 us or
    about 700 us of kernel time, switching between the two for minutes at a
    time, and rewriting a file that still held data made the next repetition
    wait for its write-back; writing into empty files varied by a few
    percent from one run to the next.
    """
    reps = []
    start = time.perf_counter()
    while True:
        gc.collect()  # start every repetition with the same garbage-collector state
        if tracer is not None:
            tracer.reset()
            with tracer.patch(layer_wrappers(tracer, workload.provider)):
                workload.provider.tracer = tracer
                try:
                    rep = workload.run(out, tracer)
                finally:
                    workload.provider.tracer = None
            rep.layers = layer_values(tracer, rep)
        else:
            rep = workload.run(out, None)
        reps.append(rep)
        empty_tree(out)
        log(f"  {label} {len(reps)}: wall {rep.wall_s:.4f} s, {rep.attempted} searches, {rep.failed} failed")
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall_s for r in reps)
        if len(reps) >= min_reps and elapsed + typical > seconds:
            return reps


def check_reps(reps, problems: list[str]) -> None:
    first = reps[0].counts
    for i, rep in enumerate(reps[1:], 2):
        if rep.counts != first:
            diff = [k for k in first if rep.counts.get(k) != first[k]]
            problems.append(f"rep {i} counts differ from rep 1: {diff}")


def end_to_end(reps, setup) -> dict[str, float]:
    # Percentiles are taken per repetition and their median reported: a
    # phase in which the shared machine runs slow then moves the figures
    # only if it covers most repetitions, whereas a pooled p90 takes the
    # value of any phase that covers a tenth of the run.
    stats = reps[0].stats
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r.wall_s for r in reps),
        "run_p50_s": statistics.median(percentile(r.units, 50.0) for r in reps),
        "run_tail_s": statistics.median(percentile(r.units, TAIL_PCT) for r in reps),
        "llm_queries": stats.billed,
        "input_tokens": stats.input_tokens,
        "output_tokens": stats.output_tokens,
        "cost_usd": float(stats.cost_usd),
        "success_percent": 100.0 * reps[0].successes / reps[0].attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(traced, untraced, failed: int, attempted: int, log) -> dict[str, float]:
    scalars = [rep.layers[0] for rep in traced]
    metrics = {}
    for name in scalars[0]:
        values = [s[name] for s in scalars]
        metrics[name] = statistics.median(values)
    pooled: dict[str, list[float]] = {}
    for rep in traced:
        for name, values in rep.layers[1].items():
            pooled.setdefault(name, []).extend(values)
    for name, values in pooled.items():
        metrics[name + "_p50"] = percentile(values, 50.0)
    pct, value = tail(pooled["edatools.evaluate_s"])
    metrics["edatools.evaluate_s_tail"] = value
    log(f"  edatools.evaluate_s_tail is p{pct:g} of {len(pooled['edatools.evaluate_s'])} evaluations")
    metrics["error_share"] = failed / attempted
    metrics["trace.overhead_s"] = (
        statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in untraced)
    )
    return {name: metrics[name] for name in LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    def log(line: str) -> None:
        print(line, flush=True)

    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        workload.setup()
        log(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        log(f"  inputs in {workload.inputs_dir}; output tree in {work / 'out'}")
        log("  tool and provider times are modelled (no iverilog/vvp, no network)")
        # The warm-up repetition pays for lazy set-up inside the program and
        # creates the output tree.
        out = work / "out"
        out.mkdir()
        warm = run_reps(workload, out, "warm-up", 0, 1, None, log) if workload.warmup else []
        setup = measure_setup(workload, args.seed)
        if args.trace:
            untraced = run_reps(workload, out, "untraced", args.seconds / 2, 1, None, log)
            traced = run_reps(workload, out, "traced", args.seconds / 2, 1, Tracer(), log)
            reps = untraced + traced
        else:
            reps = run_reps(workload, out, "rep", args.seconds, workload.min_reps, None, log)
        problems = [p for rep in warm + reps for p in rep.problems]
        check_reps(warm + reps, problems)
        attempted = sum(r.attempted for r in warm + reps)
        failed = sum(r.failed for r in warm + reps)
        if args.trace:
            metrics = per_layer(traced, untraced, failed, attempted, log)
            units = LAYER_UNITS
        else:
            metrics = end_to_end(reps, setup)
            units = E2E_UNITS
            log(f"  run_p50_s, run_tail_s: median over {len(reps)} repetitions of the p50 and p{TAIL_PCT:g} "
                f"of each one's {len(reps[0].units)} {workload.unit_name} latencies; "
                f"setup_s: median of {SETUP_SAMPLES} fresh interpreters")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems[:20]:
        log(f"  PROBLEM: {problem}")
    for name, value in metrics.items():
        log(f"  {name:32s} {value:>16.6f} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
