"""Command-line entry points: single runs and benchmark sweeps."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import runcfg
from .backends import (
    MOCK_FAMILY,
    MockBackend,
    default_registry,
    load_mock_script,
    lookup_model,
)
from .core import Termination, format_usd
from .edatools import ToolIoError, ToolNotFoundError
from .faketools import offline_evaluate
from .prompts import FeedbackMode
from .search import ModelSchedule, NoBackendError


def _registry_with_backend(spec: str | None):
    if spec is None:
        return default_registry()
    kind, _, arg = spec.partition(":")
    if kind != "mock" or not arg:
        raise runcfg.ConfigError("--backend", f"bad spec {spec!r}; expected mock:<script.json>")
    try:
        mock = load_mock_script(arg)
    except OSError as exc:
        raise runcfg.ConfigError("--backend", f"cannot read {arg}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise runcfg.ConfigError("--backend", str(exc)) from None
    return default_registry(**{MOCK_FAMILY: mock})


def _parse_grid(raw: str) -> list[tuple[int, int]]:
    # "k=1,5;d=0,1,5,10" expands to the cartesian product of the two axes.
    axes = {"k": [1], "d": [0]}
    for clause in raw.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        key, _, values = clause.partition("=")
        key = key.strip()
        if key not in axes or not values:
            raise runcfg.ConfigError("--grid", f"bad clause {clause!r}; expected k=... or d=...")
        try:
            axes[key] = [int(v) for v in values.split(",")]
        except ValueError:
            raise runcfg.ConfigError("--grid", f"{clause!r}: {key} values must be integers") from None
        lowest = 1 if key == "k" else 0  # k candidates per depth, d repair depths
        if min(axes[key]) < lowest:
            raise runcfg.ConfigError("--grid", f"{clause!r}: {key} must be at least {lowest}")
    return [(k, d) for k in axes["k"] for d in axes["d"]]


def _parse_model(spec: str, flag: str):
    family, sep, model_id = spec.partition(":")
    if not sep:
        raise runcfg.ConfigError(flag, f"bad spec {spec!r}; expected FAMILY:ID")
    return lookup_model(model_id, family)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = runcfg.load_config(args.config, args.override)
    backends = _registry_with_backend(args.backend)
    evaluator = offline_evaluate if args.offline_tools else None
    trace = runcfg.execute_run(cfg, backends, evaluator=evaluator)
    best = trace.best()
    print(f"Termination: {trace.termination.value}")
    if best is not None:
        print(f"Best rank: {best.rank.value!r} (iteration {best.depth}, response {best.index})")
    totals = trace.ledger.totals
    print(
        f"Totals: {totals.input_tokens} input tokens, "
        f"{totals.output_tokens} output tokens, {format_usd(totals.cost_usd)}"
    )
    print(f"Output directory: {cfg.outdir}")
    return 0 if trace.termination is Termination.ALL_TESTS_PASSED else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    # Imported here so that ``hdlsmith run`` does not load the sweep machinery.
    from .bench import (
        EmptySuiteError, GridPoint, ReportFormat, export_report, load_suite, run_suite, success_percent,
    )

    mode = FeedbackMode.SUCCINCT if args.mode == "succinct" else FeedbackMode.FULL_CONTEXT
    grid = [GridPoint(k, d, mode) for k, d in _parse_grid(args.grid)]
    if args.parallel < 1:
        raise runcfg.ConfigError("--parallel", f"{args.parallel}: must be at least 1")
    if not Path(args.suite).is_dir():
        raise runcfg.ConfigError("--suite", f"no such directory: {args.suite}")
    out = Path(args.out)  # written only after the paid sweep, so checked first
    if out.is_dir():
        raise runcfg.ConfigError("--out", f"is a directory: {out}")
    if not out.parent.is_dir():
        raise runcfg.ConfigError("--out", f"no such directory: {out.parent}")
    try:
        tasks = load_suite(args.suite)
    except EmptySuiteError as exc:
        raise runcfg.ConfigError("--suite", str(exc)) from None
    backends = _registry_with_backend(args.backend)
    backends.setdefault(MOCK_FAMILY, MockBackend({}))  # serves the default --model
    evaluator = offline_evaluate if args.offline_tools else None

    model = _parse_model(args.model, "--model")
    final = _parse_model(args.final_model, "--final-model") if args.final_model else None
    schedule = ModelSchedule(((0, model),), final)
    try:
        schedule.check_backends(backends)
    except NoBackendError as exc:
        flag = "--model" if exc.model is model else "--final-model"
        raise runcfg.ConfigError(flag, str(exc)) from None

    results = run_suite(
        tasks,
        grid,
        schedule,
        backends,
        evaluator=evaluator,
        workdir=args.workdir,
        parallelism=args.parallel,
    )
    format = ReportFormat.CSV if (args.format or out.suffix.lstrip(".")).lower() == "csv" else ReportFormat.JSON
    export_report(results, format, out)
    for result in results:
        passed = sum(r.success for r in result.per_task)
        print(
            f"k={result.params.num_candidates} d={result.params.max_depth} "
            f"{result.params.mode.value}: {success_percent(result)}% "
            f"({passed}/{len(result.per_task)})"
        )
    print(f"Report written to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hdlsmith",
        description="LLM-driven Verilog generation and repair with tool feedback",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one design task from a config file")
    run_p.add_argument("--config", required=True, help="JSON run configuration")
    run_p.add_argument(
        "--override", action="append", default=[], metavar="KEY.PATH=VALUE",
        help="override a config value, e.g. general.num_candidates=2",
    )
    run_p.add_argument(
        "--backend", default=None, metavar="mock:SCRIPT",
        help="replace the LLM backends, e.g. mock:replies.json for offline runs",
    )
    run_p.add_argument(
        "--offline-tools", action="store_true",
        help="evaluate with the scripted toolchain instead of iverilog/vvp",
    )
    run_p.set_defaults(func=_cmd_run)

    bench_p = sub.add_parser("bench", help="run a benchmark suite over a parameter grid")
    bench_p.add_argument("--suite", required=True, help="suite directory")
    bench_p.add_argument("--grid", default="k=1;d=0", help='e.g. "k=1,5;d=0,1,5,10"')
    bench_p.add_argument("--mode", choices=["succinct", "full"], default="succinct")
    bench_p.add_argument("--out", required=True, help="report file (.json or .csv)")
    bench_p.add_argument("--format", choices=["json", "csv"], default=None)
    bench_p.add_argument("--model", default=f"{MOCK_FAMILY}:mock", metavar="FAMILY:ID")
    bench_p.add_argument("--final-model", default=None, metavar="FAMILY:ID")
    bench_p.add_argument("--backend", default=None, metavar="mock:SCRIPT")
    bench_p.add_argument("--offline-tools", action="store_true")
    bench_p.add_argument("--workdir", default=None)
    bench_p.add_argument("--parallel", type=int, default=1)
    bench_p.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except runcfg.ConfigError as exc:
        # str(exc) starts with the key path of the offending setting.
        print(f"hdlsmith: configuration error: {exc}", file=sys.stderr)
        return 2
    except (ToolNotFoundError, ToolIoError) as exc:
        print(f"hdlsmith: tool error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"hdlsmith: I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
