"""The two benchmark workloads, driven through hdlsmith's public entry points.

grid_sweep
    One ``bench.run_suite`` call over a generated three-task suite with the
    README grid ``k=1,5; d=0,1,5,10``, succinct mode, ``parallelism=1`` and
    gpt-4o-mini, then ``export_report`` and ``load_report``. Replies come from
    the real ChatCompletionsBackend over the modelled provider with a fixed
    100 ms latency per reply, ten times the modelled compile plus simulate
    delay (5 ms + 5 ms) of the ``/bin/sh`` tool stand-ins in ``tools/``.
    Waiting is most of the time, so the process spawns of the stand-ins,
    which slow down when the machine is busy, move the figures little.

offline_repair
    A batch of ``runcfg.execute_run`` calls, one per generated config: k=5,
    d=10, full_context, gpt-3.5-turbo-16k and the in-process
    ``faketools.offline_evaluate``. Each reply takes a modelled 25 ms from a
    provider that serves one reply at a time, so issuing the k requests of a
    depth concurrently gains nothing here. Extraction, source and log writes
    and window building take about a twentieth of the time. On the shared
    2-vCPU machine this was tuned on, that work ran up to twice as slow for
    minutes at a time while other tenants were busy, so with no latency the
    median of a 30 s run moved by a third from one run to the next; the
    modelled latency, like a real provider's, damps that to a few percent.

All output goes to the benchmark's work directory inside the checkout.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import stat
import time
import warnings
from contextlib import nullcontext
from decimal import Decimal
from functools import partial
from pathlib import Path

import gen
from provider import ModelledProvider, ProviderEntry

TOOLS_DIR = Path(__file__).resolve().parent / "tools"
GRID_LATENCY_S = 0.100
GRID_THROTTLE_EVERY = 16
REPAIR_LATENCY_S = 0.025


def catalog_terms():
    from hdlsmith.backends import MODEL_CATALOG

    windows = {m: spec.max_context_tokens for m, spec in MODEL_CATALOG.items()}
    prices = {m: (spec.price_in, spec.price_out) for m, spec in MODEL_CATALOG.items()}
    return windows, prices


def build_registry(provider: ModelledProvider, seed: int, base_delay: float):
    """The program's registry with the modelled provider behind the ChatGPT family."""
    from hdlsmith.backends import ChatCompletionsBackend, RetryPolicy, default_registry

    # The backend reads its key from the environment; the modelled provider ignores it.
    os.environ["OPENAI_API_KEY"] = "perfbench-modelled-provider"
    backend = ChatCompletionsBackend(
        transport=provider.transport,
        retry=RetryPolicy(attempts=5, base_delay=base_delay, factor=2.0),
        sleep=provider.sleep,
        rng=random.Random(seed),
    )
    return default_registry(ChatGPT=ProviderEntry(provider, backend))


def _tree_size(path: Path) -> tuple[int, int]:
    files = size = 0
    for dirpath, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.stat(os.path.join(dirpath, name)).st_size
    return files, size


class Rep:
    """Result of one repetition."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.units: list[float] = []  # per-run (or per-depth) latencies
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict[str, object] = {}
        self.successes = 0
        self.files_written = 0
        self.bytes_written = 0
        self.stats = None


class GridSweep:
    name = "grid_sweep"
    unit_name = "search-depth"  # run_p50_s/run_tail_s: one generate call and its evaluations
    min_reps = 2
    # Waiting is nearly all of a repetition, so a warm-up would double the
    # run for little; the first repetition also creates the output tree.
    warmup = False

    def __init__(self, seed: int, work: Path):
        from hdlsmith.prompts import NO_MODULE_FEEDBACK, system_prompt

        self.seed = seed
        self.inputs = gen.GridInputs(seed, system_prompt=system_prompt(), no_module_feedback=NO_MODULE_FEEDBACK)
        self.inputs_dir = work / "inputs"
        self.inputs.write_suite(self.inputs_dir)
        bin_dir = work / "bin"
        bin_dir.mkdir(parents=True)
        for tool in ("iverilog", "vvp"):
            target = bin_dir / tool
            shutil.copyfile(TOOLS_DIR / f"{tool}.sh", target)
            target.chmod(target.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
        self.bin_dir = bin_dir

    @staticmethod
    def load(inputs_dir: Path, provider: ModelledProvider, seed: int):
        """The program's set-up: load the suite and build the registry."""
        from hdlsmith.bench import load_suite

        tasks = load_suite(inputs_dir)
        return tasks, build_registry(provider, seed, base_delay=2 * GRID_LATENCY_S)

    def setup(self) -> None:
        from hdlsmith.backends import lookup_model
        from hdlsmith.bench import GridPoint
        from hdlsmith.edatools import ToolchainConfig
        from hdlsmith.search import ModelSchedule

        windows, self.prices = catalog_terms()
        self.provider = ModelledProvider(
            self.inputs.reply,
            latency_s=GRID_LATENCY_S,
            throttle_every=GRID_THROTTLE_EVERY,
            seed=self.seed,
            windows=windows,
            prices=self.prices,
        )
        self.tasks, self.registry = self.load(self.inputs_dir, self.provider, self.seed)
        self.schedule = ModelSchedule.single(lookup_model(gen.GRID_MODEL))
        self.grid = [GridPoint(k, d) for k in gen.GRID_K for d in gen.GRID_D]
        self.tools = ToolchainConfig(
            compiler=str(self.bin_dir / "iverilog"), runtime=str(self.bin_dir / "vvp")
        )

    def run(self, out: Path, tracer) -> Rep:
        from hdlsmith import edatools
        from hdlsmith.bench import ReportFormat, export_report, load_report, run_suite

        rep = Rep()
        self.provider.reset()
        evaluator = partial(edatools.evaluate, tools=self.tools)
        span = tracer.span if tracer is not None else _no_span
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with span("bench.run_suite"):
                results = run_suite(
                    self.tasks, self.grid, self.schedule, self.registry,
                    evaluator=evaluator, workdir=out / "suite", parallelism=1,
                    sim_timeout=gen.GRID_SIM_TIMEOUT,
                )
            suite_end = time.perf_counter()
            with span("bench.report"):
                path = export_report(results, ReportFormat.JSON, out / "report.json")
                loaded = load_report(path)
        rep.wall_s = time.perf_counter() - start
        starts = self.provider.stats.call_starts + [suite_end]
        rep.units = [b - a for a, b in zip(starts, starts[1:])]
        rep.stats = self.provider.stats
        # run_suite reports a search that raised as a UserWarning.
        rep.problems += [f"warning: {w.message}" for w in caught if issubclass(w.category, UserWarning)]
        if loaded != results:
            rep.problems.append("load_report(export_report(results)) differs from results")
        self._check(results, rep)
        if tracer is not None:  # the traced run also sees every candidate's rank
            for name, cfg, trace in tracer.traces:
                want = self.inputs.predict(name, cfg.num_candidates, cfg.max_depth).ranks
                got = tuple(c.rank.value for c in trace.all_candidates())
                if got != want:
                    rep.problems.append(f"{name} k={cfg.num_candidates} d={cfg.max_depth}: ranks {got}, oracle {want}")
        rep.files_written, rep.bytes_written = _tree_size(out / "suite")
        return rep

    def _check(self, results, rep: Rep) -> None:
        price_in, price_out = self.prices[gen.GRID_MODEL]
        rows = []
        for result in results:
            k, d = result.params.num_candidates, result.params.max_depth
            for row in result.per_task:
                rep.attempted += 1
                task = self.inputs.tasks[row.task_name]
                want = self.inputs.predict(row.task_name, k, d)
                expected = (
                    want.success, want.queries_used, want.input_tokens, want.output_tokens,
                    gen.cost(want.input_tokens, want.output_tokens, price_in, price_out),
                    want.best_rank, task.category, task.subcategory,
                )
                got = (
                    row.success, row.queries_used, row.tokens.input_tokens, row.tokens.output_tokens,
                    row.cost_usd, row.best_rank, row.category, row.subcategory,
                )
                if got != expected:
                    rep.failed += 1
                    rep.problems.append(f"k={k} d={d} {row.task_name}: report {got}, oracle {expected}")
                rep.successes += row.success
                rows.append(got)
        stats = self.provider.stats
        queries = sum(r[1] for r in rows)
        if stats.billed > queries:
            rep.problems.append(f"provider billed {stats.billed} replies, reports show {queries}")
        if any(len(v) != 1 for v in stats.prompt_tokens.values()):
            rep.problems.append("one (task, depth, k) was billed for different prompts")
        rep.counts = {**stats.counts(), "rows": tuple(rows)}


class OfflineRepair:
    name = "offline_repair"
    unit_name = "execute_run"
    min_reps = 3
    warmup = True

    def __init__(self, seed: int, work: Path):
        from hdlsmith.prompts import system_prompt

        self.seed = seed
        self.inputs = gen.RepairInputs(seed, system_prompt=system_prompt())
        self.inputs_dir = work / "inputs"
        self.inputs.write_configs(self.inputs_dir)

    @staticmethod
    def load(inputs_dir: Path, provider: ModelledProvider, seed: int):
        """The program's set-up: parse every config and build the registry."""
        from hdlsmith.runcfg import load_config

        configs = [load_config(path) for path in sorted(inputs_dir.glob("*/config.json"))]
        return configs, build_registry(provider, seed, base_delay=0.0)

    def setup(self) -> None:
        windows, self.prices = catalog_terms()
        self.provider = ModelledProvider(
            self.inputs.reply, latency_s=REPAIR_LATENCY_S, serial=True, throttle_every=0, seed=self.seed,
            windows=windows, prices=self.prices,
        )
        self.configs, self.registry = self.load(self.inputs_dir, self.provider, self.seed)
        self.predicted = {run.name: self.inputs.predict(run.name) for run in self.inputs.runs}

    def run(self, out: Path, tracer) -> Rep:
        from hdlsmith import faketools
        from hdlsmith.runcfg import execute_run

        rep = Rep()
        self.provider.reset()
        span = tracer.span if tracer is not None else _no_span
        traces = []
        start = time.perf_counter()
        for cfg in self.configs:
            cfg = dataclasses.replace(cfg, outdir=out / cfg.name)
            t0 = time.perf_counter()
            try:
                with span("runcfg.execute_run", search=cfg.name):
                    trace = execute_run(cfg, self.registry, evaluator=faketools.offline_evaluate)
            except Exception as exc:  # a search that raised is a failed operation
                trace = exc
            rep.units.append(time.perf_counter() - t0)
            traces.append((cfg, trace))
        rep.wall_s = time.perf_counter() - start
        rep.stats = self.provider.stats
        for cfg, trace in traces:
            self._check(cfg, trace, rep)
        rejects = sum(r for _, depths in self.predicted.values() for *_, r in depths)
        if rep.stats.overflow_rejects != rejects:
            rep.problems.append(
                f"provider rejected {rep.stats.overflow_rejects} windows, oracle expects {rejects}"
            )
        rep.counts = {**rep.stats.counts(), "runs": tuple(self._summary(t) for _, t in traces)}
        rep.files_written, rep.bytes_written = _tree_size(out)
        return rep

    @staticmethod
    def _summary(trace) -> object:
        if isinstance(trace, Exception):
            return repr(trace)
        totals = trace.ledger.totals
        return (trace.termination.value, len(trace.all_candidates()), totals.input_tokens,
                totals.output_tokens, totals.cost_usd, trace.best_overall)

    def _check(self, cfg, trace, rep: Rep) -> None:
        from hdlsmith.core import Termination
        from hdlsmith.runcfg import scan_output_tree, trace_shape

        rep.attempted += 1
        if isinstance(trace, Exception):
            rep.failed += 1
            rep.problems.append(f"{cfg.name}: execute_run raised {trace!r}")
            return
        want, depths = self.predicted[cfg.name]
        price_in, price_out = self.prices[gen.REPAIR_MODEL]
        best = trace.best()
        totals = trace.ledger.totals
        got = (
            trace.termination is Termination.ALL_TESTS_PASSED,
            len(trace.all_candidates()),
            totals.input_tokens, totals.output_tokens, totals.cost_usd,
            best.rank.value if best else None,
            [(tuple(c.rank.value for c in n.candidates), n.chosen_index, n.context_fallback)
             for n in trace.nodes],
        )
        expected = (
            want.success, want.queries_used, want.input_tokens, want.output_tokens,
            gen.cost(want.input_tokens, want.output_tokens, price_in, price_out),
            want.best_rank,
            [(ranks, chosen, fallback) for ranks, chosen, fallback, _ in depths],
        )
        problems = []
        if got != expected:
            problems.append(f"trace {got[:6]}, oracle {expected[:6]}")
        log = (cfg.outdir / cfg.log).read_text()
        costs = [Decimal(line.rsplit("$", 1)[1]) for line in log.splitlines()
                 if line.startswith("Cost for response ")]
        if len(costs) != want.queries_used or sum(costs) != totals.cost_usd:
            problems.append("run log costs disagree with the ledger")
        if scan_output_tree(cfg.outdir) != trace_shape(trace):
            problems.append("output tree disagrees with the trace")
        if problems:
            rep.failed += 1
            rep.problems += [f"{cfg.name}: {p}" for p in problems]
        rep.successes += got[0]


def _no_span(*args, **kwargs):
    return nullcontext()


WORKLOADS = {cls.name: cls for cls in (GridSweep, OfflineRepair)}
