"""Batch evaluation over a benchmark suite with success, cost and Pareto reporting.

A suite directory pairs ``<stem>_prompt.sv`` with ``<stem>_tb.sv`` per task;
an optional ``manifest.json`` supplies category tags. Results can be
exported to JSON or CSV and loaded back losslessly.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import math
import os
import re
import tempfile
import threading
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .backends import BackendRegistry, _run_threads
from .core import DesignTask, SearchTrace, TokenUsage
from .edatools import DEFAULT_SIM_TIMEOUT
from .prompts import FeedbackMode
from .search import (
    NUMBER,
    Evaluator,
    ModelSchedule,
    SearchConfig,
    pass_at_budget,
    prune,
    run_search,
)

PROMPT_SUFFIX = "_prompt.sv"
TESTBENCH_SUFFIX = "_tb.sv"
MANIFEST_NAME = "manifest.json"
_TREE_NAME = re.compile(f"k{NUMBER}_d{NUMBER}_(?:{'|'.join(mode.value for mode in FeedbackMode)})")


class EmptySuiteError(Exception):
    pass


@dataclass(frozen=True)
class GridPoint:
    num_candidates: int
    max_depth: int
    mode: FeedbackMode = FeedbackMode.SUCCINCT


@dataclass(frozen=True)
class SuiteParams:
    num_candidates: int
    max_depth: int
    mode: FeedbackMode
    schedule: str


@dataclass(frozen=True)
class TaskRow:
    """Summary of one task's search under one parameter set."""

    task_name: str
    success: bool
    queries_used: int
    tokens: TokenUsage
    cost_usd: Decimal
    best_rank: float | None
    category: str | None = None
    subcategory: str | None = None
    # The backend error's message when one ended this task's search at or
    # before the row's depth; reports have no column for it, so equality
    # ignores it.
    backend_error: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SuiteResult:
    params: SuiteParams
    per_task: tuple[TaskRow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_task", tuple(self.per_task))


@dataclass(frozen=True)
class ParetoPoint:
    """Average effort (tokens or dollars) versus success percentage."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("pareto coordinates must be finite")
        if self.x < 0 or not 0 <= self.y <= 100:
            raise ValueError("x must be >= 0 and y a percentage in [0, 100]")


def load_suite(directory: str | Path) -> list[DesignTask]:
    """Load every prompt/testbench pair in a suite directory, sorted by name.

    Tasks missing either file are reported and skipped; an optional manifest
    maps task names to category/subcategory tags. A manifest that is not a
    JSON object, an entry that is not one, or an entry whose tags are not
    non-empty strings is reported and its tasks load untagged.
    """
    directory = Path(directory)
    manifest = {}
    manifest_path = directory / MANIFEST_NAME
    if manifest_path.is_file():
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            problem = None if isinstance(manifest, dict) else "not a JSON object"
        except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
            problem = f"not valid JSON ({exc})"
        if problem is not None:
            warnings.warn(
                f"suite manifest {manifest_path} ignored, every task loads untagged: {problem}",
                stacklevel=2,
            )
            manifest = {}
    prompt_stems = {p.name[: -len(PROMPT_SUFFIX)]: p for p in directory.glob(f"*{PROMPT_SUFFIX}")}
    tb_stems = {p.name[: -len(TESTBENCH_SUFFIX)]: p for p in directory.glob(f"*{TESTBENCH_SUFFIX}")}
    for stem in sorted(set(prompt_stems) ^ set(tb_stems)):
        missing = "testbench" if stem in prompt_stems else "prompt"
        warnings.warn(f"suite task {stem!r} skipped: missing {missing} file", stacklevel=2)
    tasks = []
    for stem in sorted(set(prompt_stems) & set(tb_stems)):
        tags = manifest.get(stem, {})
        if not isinstance(tags, dict):
            problem = "its manifest entry is not a JSON object"
        elif any(
            tags.get(key) is not None and not (isinstance(tags[key], str) and tags[key])
            for key in ("category", "subcategory")
        ):
            # Reports store tags as text with "" for none, so only a non-empty
            # string survives a report round trip.
            problem = f"its category and subcategory must be non-empty strings, got {tags!r}"
        else:
            problem = None
        if problem is not None:
            warnings.warn(f"suite task {stem!r} loads untagged: {problem}", stacklevel=2)
            tags = {}
        try:
            tasks.append(
                DesignTask(
                    name=stem,
                    prompt_text=prompt_stems[stem].read_text(encoding="utf-8"),
                    testbench_src=tb_stems[stem].read_text(encoding="utf-8"),
                    category=tags.get("category"),
                    subcategory=tags.get("subcategory"),
                )
            )
        except ValueError as exc:
            warnings.warn(f"suite task {stem!r} skipped: {exc}", stacklevel=2)
    if not tasks:
        raise EmptySuiteError(f"no usable tasks in {directory}")
    return tasks


def run_suite(
    tasks: Sequence[DesignTask],
    grid: Iterable[GridPoint],
    schedule: ModelSchedule,
    backends: BackendRegistry,
    *,
    evaluator: Evaluator | None = None,
    workdir: str | Path | None = None,
    parallelism: int = 1,
    sim_timeout: float = DEFAULT_SIM_TIMEOUT,
) -> list[SuiteResult]:
    """Run every task at every grid point and summarize per-task traces.

    Grid points in one group share searches: each task is searched once at
    the group's deepest d and every point reads the prefix of that trace
    (:meth:`SearchTrace.upto`). A group is the points that share
    ``(num_candidates, mode)``; a schedule with a final-iteration model
    serves depth d with a different model at each d, so then each point is
    its own group. Under ``workdir`` each search writes
    a ``k<k>_d<d>_<mode>/<task>`` tree. A sweep that returns, not one that
    raises, then prunes ``workdir`` as a search prunes its tree
    (:func:`search.prune`): every other such tree and task folder is
    removed, and nothing else; a folder whose name has a number that
    hdlsmith would not write, such as ``k01``, is not a tree.

    A model family with no backend raises ``NoBackendError``, and a grid point
    or a ``sim_timeout`` that :class:`SearchConfig` rejects, two tasks with
    one name, or a ``parallelism`` below 1, raises ``ValueError``, before any
    search; so does a ``workdir``, or a folder above it, that exists but is
    not a directory, with ``NotADirectoryError``. With the default evaluator,
    a compiler or runtime that cannot be found raises ``ToolNotFoundError``
    before any request.
    Each search is one job of ``backends._run_threads``, so up to
    ``parallelism`` searches from anywhere in the sweep run at once, on
    worker threads named ``hdlsmith-sweep-<n>``; a worker takes the next
    search once its last has ended. Searches start in the grid order of the
    first point each serves, then in task order. Any error a search
    raises, such as an evaluator or tool I/O error, ends the sweep: no worker
    takes another search, no running search sends a request after its
    current depth, and once they have all stopped the first error raised is
    raised here; a search that the stop ended raises only after it, so its
    error is never the one raised. An interrupt (``KeyboardInterrupt``)
    stops them the same way. Either way the sweep returns or raises only
    once every worker it started has ended, so no search still writes under
    ``workdir``.
    """
    grid = list(dict.fromkeys(grid))  # a repeated point is run and reported once
    if not grid:
        raise ValueError("parameter grid is empty")
    if not tasks:
        raise EmptySuiteError("no tasks to run")
    names = [task.name for task in tasks]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        # Else two searches would write one task folder.
        raise ValueError(f"task names must be unique, repeated: {', '.join(repeated)}")
    schedule.check_backends(backends)
    if parallelism < 1:
        raise ValueError(f"parallelism must be at least 1, got {parallelism}")
    if workdir is not None:
        # Else the first search would fail there only once its first depth was paid for.
        path = Path(workdir).absolute()
        existing = next(folder for folder in (path, *path.parents) if folder.exists())  # "/" at the latest
        if not existing.is_dir():
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(existing))
    # Every row's config is built, and so checked, before the first search
    # and before its mode names its tree; its outdir is relative to root.
    rows = []
    for point in grid:
        row = SearchConfig(point.num_candidates, point.max_depth, point.mode, sim_timeout, outdir=Path())
        rows.append(replace(row, outdir=Path(f"k{row.num_candidates}_d{row.max_depth}_{point.mode.value}")))
    # A row reads the search at its group's deepest d. A final-iteration
    # model serves each d differently, so then each row is its own group.
    group = attrgetter("num_candidates", "feedback_mode") if schedule.final is None else (lambda row: row)
    deepest: dict[object, SearchConfig] = {}  # groups in grid order
    for row in rows:
        deepest[group(row)] = max(deepest.get(group(row), row), row, key=attrgetter("max_depth"))
    # Without a workdir the tree is scratch, removed once every worker has ended.
    tree = nullcontext(workdir) if workdir is not None else tempfile.TemporaryDirectory(prefix="suite_")
    stop = threading.Event()
    traces: dict[tuple[SearchConfig, DesignTask], SearchTrace] = {}

    def search(root: Path, cfg: SearchConfig, task: DesignTask) -> None:
        # A search ended by stop raises, uncaught: stop is set only after
        # _run_threads has recorded the error that ends the sweep.
        task_cfg = replace(cfg, outdir=root / cfg.outdir / task.name)
        traces[cfg, task] = run_search(task, task_cfg, schedule, backends, evaluator=evaluator, stop=stop)

    with tree as top:
        jobs = [partial(search, Path(top), cfg, task) for cfg in deepest.values() for task in tasks]
        _run_threads(jobs, parallelism, "hdlsmith-sweep", stop)
    if workdir is not None:
        searched = [Path(workdir) / cfg.outdir / name for cfg in deepest.values() for name in names]
        prune(Path(workdir), searched, _TREE_NAME, re.compile(".*", re.DOTALL))
    schedule_desc = schedule.describe()
    return [
        SuiteResult(
            SuiteParams(row.num_candidates, row.max_depth, row.feedback_mode, schedule_desc),
            tuple(_task_summary(task, traces[deepest[group(row)], task].upto(row.max_depth)) for task in tasks),
        )
        for row in rows
    ]


def _task_summary(task: DesignTask, trace: SearchTrace) -> TaskRow:
    queries, success = pass_at_budget(trace)
    totals = trace.ledger.totals
    best = trace.best()
    return TaskRow(
        task_name=task.name,
        success=success,
        queries_used=queries,
        tokens=TokenUsage(totals.input_tokens, totals.output_tokens),
        cost_usd=totals.cost_usd,
        best_rank=best.rank.value if best is not None else None,
        category=task.category,
        subcategory=task.subcategory,
        backend_error=trace.backend_error,
    )


def success_percent(result: SuiteResult) -> float:
    """Share of tasks that passed all testbench samples, in percent."""
    if not result.per_task:
        raise ValueError("cannot compute a percentage over zero tasks")
    # One decimal place, round half up, as success tables expect.
    value = Decimal(100 * sum(row.success for row in result.per_task)) / Decimal(len(result.per_task))
    return float(value.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def average_tokens(result: SuiteResult, successes_only: bool = False) -> float | None:
    rows = [r for r in result.per_task if r.success] if successes_only else list(result.per_task)
    if not rows:
        return None
    return sum(r.tokens.total for r in rows) / len(rows)


def average_cost(result: SuiteResult, successes_only: bool = False) -> Decimal | None:
    rows = [r for r in result.per_task if r.success] if successes_only else list(result.per_task)
    if not rows:
        return None
    return sum((r.cost_usd for r in rows), Decimal(0)) / len(rows)


def pareto_front(points: Iterable[ParetoPoint]) -> list[ParetoPoint]:
    """The non-dominated subset: no other point is at least as cheap and at
    least as successful with one strict improvement. Duplicates collapse to
    one representative; output is sorted by x ascending."""
    unique = sorted({(p.x, p.y) for p in points}, key=lambda t: (t[0], -t[1]))
    front: list[ParetoPoint] = []
    best_y = -math.inf
    for x, y in unique:
        if y > best_y:
            front.append(ParetoPoint(x, y))
            best_y = y
    return front


def suite_pareto_point(
    result: SuiteResult, metric: str = "tokens", successes_only: bool = False
) -> ParetoPoint | None:
    """One plot point for a suite run: average effort vs. success percent."""
    if metric == "tokens":
        average = average_tokens(result, successes_only)
    elif metric == "cost":
        cost = average_cost(result, successes_only)
        average = float(cost) if cost is not None else None
    else:
        raise ValueError(f"unknown pareto metric {metric!r}")
    if average is None:
        return None
    return ParetoPoint(average, success_percent(result))


class ReportFormat(Enum):
    CSV = "csv"
    JSON = "json"

    @classmethod
    def of(cls, path: Path) -> "ReportFormat":
        """The format a report path names: CSV for a ``.csv`` suffix in any case, else JSON."""
        return cls.CSV if path.suffix.lower() == ".csv" else cls.JSON


class _Field(NamedTuple):
    """One report column: its name, its JSON value read from the dataclass,
    and the decoder from that value or its CSV cell."""

    name: str
    get: Callable[[object], object]
    decode: Callable[[object], object]


def _optional(decode: Callable[[object], object]) -> Callable[[object], object]:
    return lambda value: None if value in (None, "") else decode(value)


# Column order is the CSV header order and the JSON key order.
_PARAM_FIELDS = (
    _Field("num_candidates", attrgetter("num_candidates"), int),
    _Field("max_depth", attrgetter("max_depth"), int),
    _Field("mode", lambda params: params.mode.value, FeedbackMode),
    _Field("schedule", attrgetter("schedule"), str),
)
_ROW_FIELDS = (
    _Field("task", attrgetter("task_name"), str),
    _Field("success", attrgetter("success"), lambda value: value in (True, "true")),
    _Field("queries_used", attrgetter("queries_used"), int),
    _Field("input_tokens", attrgetter("tokens.input_tokens"), int),
    _Field("output_tokens", attrgetter("tokens.output_tokens"), int),
    _Field("cost_usd", lambda row: str(row.cost_usd), Decimal),
    _Field("best_rank", attrgetter("best_rank"), _optional(float)),
    _Field("category", attrgetter("category"), _optional(str)),
    _Field("subcategory", attrgetter("subcategory"), _optional(str)),
)


def _encode(fields: tuple[_Field, ...], obj: object) -> dict:
    return {f.name: f.get(obj) for f in fields}


def _decode(fields: tuple[_Field, ...], record: dict) -> list:
    return [f.decode(record[f.name]) for f in fields]


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _task_row(task, success, queries_used, input_tokens, output_tokens, *rest) -> TaskRow:
    return TaskRow(task, success, queries_used, TokenUsage(input_tokens, output_tokens), *rest)


def _summary(result: SuiteResult) -> dict:
    return {
        "success_percent": success_percent(result),
        "avg_tokens_all": average_tokens(result),
        "avg_tokens_success": average_tokens(result, successes_only=True),
        "avg_cost_all": _decimal_str(average_cost(result)),
        "avg_cost_success": _decimal_str(average_cost(result, successes_only=True)),
    }


def _decimal_str(value: Decimal | None) -> str | None:
    return str(value) if value is not None else None


def render_report(results: Sequence[SuiteResult], format: ReportFormat) -> str:
    """Serialize suite results deterministically (byte-stable across runs)."""
    if format is ReportFormat.JSON:
        payload = {
            "results": [
                {
                    "params": _encode(_PARAM_FIELDS, result.params),
                    "summary": _summary(result),
                    "per_task": [_encode(_ROW_FIELDS, row) for row in result.per_task],
                }
                for result in results
            ]
        }
        return json.dumps(payload, indent=2) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(f.name for f in _PARAM_FIELDS + _ROW_FIELDS)
    for result in results:
        params = [_cell(f.get(result.params)) for f in _PARAM_FIELDS]
        for row in result.per_task:
            writer.writerow(params + [_cell(f.get(row)) for f in _ROW_FIELDS])
    return out.getvalue()


def export_report(
    results: Sequence[SuiteResult], format: ReportFormat, path: str | Path
) -> Path:
    path = Path(path)
    if format is not ReportFormat.of(path):
        raise ValueError(f"{path} names a {ReportFormat.of(path).value} report, not a {format.value} one")
    path.write_text(render_report(results, format), encoding="utf-8")
    return path


def load_report(path: str | Path) -> list[SuiteResult]:
    """Read a report back in the format its suffix names; ``load_report(export_report(x)) == x``."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if ReportFormat.of(path) is ReportFormat.JSON:
        return [
            SuiteResult(
                SuiteParams(*_decode(_PARAM_FIELDS, entry["params"])),
                tuple(_task_row(*_decode(_ROW_FIELDS, row)) for row in entry["per_task"]),
            )
            for entry in json.loads(text)["results"]
        ]
    grouped: dict[SuiteParams, list[TaskRow]] = {}
    for record in csv.DictReader(io.StringIO(text)):
        params = SuiteParams(*_decode(_PARAM_FIELDS, record))
        grouped.setdefault(params, []).append(_task_row(*_decode(_ROW_FIELDS, record)))
    return [SuiteResult(params, tuple(rows)) for params, rows in grouped.items()]
