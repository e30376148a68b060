"""Configuration parsing, run orchestration, output layout, and the run log.

The JSON configuration keeps the published key spelling (including the
hyphenated ``mixed-model``), so existing config files drop in unchanged.
A run materializes ``outdir/iter<N>/response<M>/`` per candidate plus a
top-level ``log.txt`` in a fixed line grammar.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import IO, Mapping, Sequence

from .backends import BackendRegistry, default_registry, lookup_model
from .core import DesignTask, EvalOutcome, ModelSpec, OutcomeKind, SearchTrace, format_usd
from .edatools import (
    DEFAULT_SIM_TIMEOUT,
    DEFAULT_TOOLS,
    ToolchainConfig,
    evaluate,
    require_tools,
    tool_version,
)
from .prompts import FeedbackMode
from .search import (
    Evaluator,
    ModelSchedule,
    NoBackendError,
    ScheduleEntry,
    SearchConfig,
    numbered,
    run_search,
)

_FINAL_ITERATION = -1  # the start_iteration that marks the final-iteration model


class ConfigError(Exception):
    """Configuration problem; carries the offending key path."""

    def __init__(self, key_path: str, detail: str = ""):
        self.key_path = key_path
        super().__init__(f"{key_path}: {detail}" if detail else key_path)


class MissingKeyError(ConfigError):
    pass


class TypeMismatchError(ConfigError):
    pass


class InvalidScheduleError(ConfigError):
    pass


class MissingFileError(ConfigError):
    pass


_KNOWN_GENERAL_KEYS = {
    "prompt",
    "name",
    "testbench",
    "model_family",
    "model_id",
    "num_candidates",
    "iterations",
    "outdir",
    "log",
    "mixed-model",
    "feedback_mode",
    "sim_timeout",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; ``iterations`` is the maximum tree depth.

    ``schedule`` is the active schedule: the ``mixed-model`` entries when
    ``mixed_model`` is set, else the single ``general`` model.
    """

    task: DesignTask  # the prompt and testbench text, read by parse_config
    schedule: ModelSchedule
    num_candidates: int
    iterations: int
    outdir: Path
    log: Path
    mixed_model: bool
    feedback_mode: FeedbackMode = FeedbackMode.SUCCINCT
    sim_timeout: float = DEFAULT_SIM_TIMEOUT

    @property
    def name(self) -> str:
        return self.task.name


def _require(mapping: Mapping, key: str, path: str):
    if key not in mapping:
        raise MissingKeyError(f"{path}.{key}", "required key is missing")
    return mapping[key]


def _require_str(mapping: Mapping, key: str, path: str) -> str:
    value = _require(mapping, key, path)
    if not isinstance(value, str) or not value:
        raise TypeMismatchError(f"{path}.{key}", "expected a non-empty string")
    return value


def _require_int(mapping: Mapping, key: str, path: str, minimum: int) -> int:
    value = _require(mapping, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeMismatchError(f"{path}.{key}", "expected an integer")
    if value < minimum:
        raise TypeMismatchError(f"{path}.{key}", f"must be at least {minimum}")
    return value


def _parse_mode(value: object, path: str) -> FeedbackMode:
    aliases = {
        "succinct": FeedbackMode.SUCCINCT,
        "full": FeedbackMode.FULL_CONTEXT,
        "full_context": FeedbackMode.FULL_CONTEXT,
        "full-context": FeedbackMode.FULL_CONTEXT,
    }
    if not isinstance(value, str) or value.lower() not in aliases:
        raise TypeMismatchError(path, "expected 'succinct' or 'full_context'")
    return aliases[value.lower()]


def load_config(path: str | Path, overrides: Sequence[str] = ()) -> RunConfig:
    """Load and validate a JSON run configuration file.

    ``overrides`` are ``key.path=value`` strings applied to the document
    before validation. Referenced prompt/testbench paths are resolved
    relative to the config file and must be non-empty UTF-8 text files, as
    must the config file itself. Unknown keys are warnings, not errors.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise MissingFileError(str(path), str(exc)) from exc
    except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
        raise TypeMismatchError(str(path), f"not valid JSON: {exc}") from exc
    return parse_config(_apply_overrides(raw, overrides), base_dir=path.parent)


def _parse_override(raw: str) -> tuple[list[str], object]:
    # The value is JSON when it parses as JSON and a plain string otherwise.
    key, sep, value = raw.partition("=")
    if not sep or not key:
        raise TypeMismatchError(key or raw, "override must look like key.path=value")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    return key.split("."), parsed


def _apply_overrides(document: object, overrides: Sequence[str]) -> object:
    for raw in overrides:
        path, value = _parse_override(raw)
        node = document
        for depth, part in enumerate(path):
            if not isinstance(node, dict):
                key_path = ".".join(path[:depth]) or "<root>"
                raise TypeMismatchError(key_path, "expected a JSON object")
            if depth == len(path) - 1:
                node[part] = value
            else:
                node = node.setdefault(part, {})
    return document


def parse_config(raw: object, base_dir: Path | None = None) -> RunConfig:
    """Validate an already-parsed configuration document."""
    base_dir = Path(base_dir) if base_dir is not None else Path.cwd()
    if not isinstance(raw, dict):
        raise TypeMismatchError("<root>", "expected a JSON object")
    for key in raw:
        if key not in ("general", "mixed-model"):
            warnings.warn(f"unknown configuration key: {key}", stacklevel=2)
    general = _require(raw, "general", "<root>")
    if not isinstance(general, dict):
        raise TypeMismatchError("general", "expected a JSON object")
    for key in general:
        if key not in _KNOWN_GENERAL_KEYS:
            warnings.warn(f"unknown configuration key: general.{key}", stacklevel=2)

    prompt_text, testbench_text = (_read_task_file(general, key, base_dir) for key in ("prompt", "testbench"))

    mixed_flag = general.get("mixed-model", False)
    if not isinstance(mixed_flag, bool):
        raise TypeMismatchError("general.mixed-model", "expected a boolean")

    entries = _parse_schedule_entries(raw.get("mixed-model"))

    mode = general.get("feedback_mode", "succinct")
    sim_timeout = general.get("sim_timeout", DEFAULT_SIM_TIMEOUT)
    is_number = isinstance(sim_timeout, (int, float)) and not isinstance(sim_timeout, bool)
    if not is_number or not math.isfinite(sim_timeout) or sim_timeout <= 0:
        raise TypeMismatchError("general.sim_timeout", "expected a positive finite number")

    name = _require_str(general, "name", "general")
    try:
        task = DesignTask(name, prompt_text, testbench_text)
    except ValueError as exc:  # the texts are non-empty, so the name is at fault
        raise TypeMismatchError("general.name", str(exc)) from None
    family = _require_str(general, "model_family", "general")
    model = lookup_model(_require_str(general, "model_id", "general"), family)
    return RunConfig(
        task=task,
        num_candidates=_require_int(general, "num_candidates", "general", minimum=1),
        iterations=_require_int(general, "iterations", "general", minimum=0),
        outdir=base_dir / _require_str(general, "outdir", "general"),
        log=Path(_require_str(general, "log", "general")),
        mixed_model=mixed_flag,
        feedback_mode=_parse_mode(mode, "general.feedback_mode"),
        sim_timeout=float(sim_timeout),
        # Last: the schedule rules are checked after every key is read.
        schedule=_active_schedule(mixed_flag, entries, model),
    )


def _read_task_file(general: Mapping, key: str, base_dir: Path) -> str:
    file = base_dir / _require_str(general, key, "general")
    if not file.is_file():
        raise MissingFileError(f"general.{key}", f"file not found: {file}")
    try:
        text = file.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TypeMismatchError(f"general.{key}", f"{file} is not UTF-8 text: {exc}") from None
    if not text:
        raise TypeMismatchError(f"general.{key}", f"file is empty: {file}")
    return text


def _active_schedule(
    mixed: bool, entries: tuple[ScheduleEntry, ...], model: ModelSpec
) -> ModelSchedule:
    if not mixed:
        return ModelSchedule.single(model)
    staged = tuple(e for e in entries if e.start_iteration != _FINAL_ITERATION)
    finals = [e.model for e in entries if e.start_iteration == _FINAL_ITERATION]
    if len(finals) > 1:
        raise InvalidScheduleError("mixed-model", "at most one final-iteration entry is allowed")
    # ModelSchedule holds the other schedule invariants.
    try:
        return ModelSchedule(staged, *finals)
    except ValueError as exc:
        raise InvalidScheduleError("mixed-model", str(exc)) from exc


def _parse_schedule_entries(section: object) -> tuple[ScheduleEntry, ...]:
    if section is None:
        return ()
    if not isinstance(section, dict):
        raise TypeMismatchError("mixed-model", "expected a JSON object of entries")
    entries = []
    for name, entry in section.items():
        path = f"mixed-model.{name}"
        if not isinstance(entry, dict):
            raise TypeMismatchError(path, "expected a JSON object")
        start = _require(entry, "start_iteration", path)
        if isinstance(start, bool) or not isinstance(start, int):
            raise TypeMismatchError(f"{path}.start_iteration", "expected an integer")
        if start < _FINAL_ITERATION:
            raise InvalidScheduleError(
                f"{path}.start_iteration", "must be >= 0, or -1 for the final iteration"
            )
        family = _require_str(entry, "model_family", path)
        model = lookup_model(_require_str(entry, "model_id", path), family)
        entries.append(ScheduleEntry(start, model))
    return tuple(entries)


def execute_run(
    cfg: RunConfig,
    backends: BackendRegistry | None = None,
    *,
    evaluator: Evaluator | None = None,
    tools: ToolchainConfig = DEFAULT_TOOLS,
) -> SearchTrace:
    """Drive a full search run and materialize the output directory.

    Produces ``outdir/iter<N>/response<M>/`` per generated candidate (source
    and artifact files as far as its evaluation got, plus a per-candidate
    log) and the top-level run log. A partial tree is left on disk when the
    run aborts. When the real toolchain is in use, its version banner heads
    the run log so warning-text classifications stay traceable, and a
    compiler or runtime that cannot be found raises ``ToolNotFoundError``,
    and a scheduled model family with no backend raises ``ConfigError``,
    before the output directory is created or any reply is requested. A run
    log that cannot be opened raises ``OSError`` before any reply, too.
    """
    if backends is None:
        backends = default_registry()
    try:
        cfg.schedule.check_backends(backends)
    except NoBackendError as exc:
        key_path = "mixed-model" if cfg.mixed_model else "general.model_family"
        raise ConfigError(key_path, str(exc)) from None
    version = None
    if evaluator is None:
        require_tools(tools)
        evaluator = partial(evaluate, tools=tools)
        version = tool_version(tools)
    search_cfg = SearchConfig(
        num_candidates=cfg.num_candidates,
        max_depth=cfg.iterations,
        feedback_mode=cfg.feedback_mode,
        sim_timeout=cfg.sim_timeout,
        outdir=cfg.outdir,
    )
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    log_path = cfg.log if cfg.log.is_absolute() else cfg.outdir / cfg.log
    # A backend error only ends the trace; an evaluator or tool I/O error
    # raises out of run_search and leaves the partial tree, and an empty
    # log, on disk for post-mortem inspection.
    with open(log_path, "w", encoding="utf-8") as sink:
        trace = run_search(cfg.task, search_cfg, cfg.schedule, backends, evaluator=evaluator)
        if version:
            sink.write(f"Tool version: {version}\n")
        write_run_log(trace, sink)
    return trace


def trace_shape(trace: SearchTrace) -> list[list[str]]:
    """Tree shape of an in-memory trace: outcome kinds per depth, per response."""
    return [[c.outcome.kind.value for c in node.candidates] for node in trace.nodes]


def scan_output_tree(outdir: str | Path) -> list[list[str]]:
    """Reconstruct the tree shape from a materialized output directory.

    Reads each ``iter<N>/response<M>/log.txt`` back; the result matches
    :func:`trace_shape` of the trace that produced the directory, except
    that a depth whose backend call failed after some replies arrived keeps
    those replies' directories without having a node in the trace.
    """
    shape = []
    for _, depth_dir in numbered(Path(outdir), "iter"):
        kinds = []
        for _, response_dir in numbered(depth_dir, "response"):
            kind = None
            log = response_dir / "log.txt"
            if log.is_file():
                for line in log.read_text(encoding="utf-8").splitlines():
                    if line.startswith("Outcome: "):
                        kind = line[len("Outcome: "):]
            kinds.append(kind)
        shape.append(kinds)
    return shape


def _outcome_lines(outcome: EvalOutcome) -> list[str]:
    kind = outcome.kind
    if kind is OutcomeKind.NO_MODULE:
        return ["No module found"]
    if kind is OutcomeKind.COMPILE_ERROR:
        return ["Compilation error"]
    if kind is OutcomeKind.COMPILE_WARNED_NO_SIM:
        return ["Compilation warning"]
    if kind is OutcomeKind.SIM_CRASH_OR_TIMEOUT:
        return [outcome.diagnosis or "Simulation crashed or timed out"]
    label = "Simulation error" if outcome.mismatches else "Simulation passed"
    return [label, f"Mismatches: {outcome.mismatches}", f"Samples: {outcome.samples}"]


def write_run_log(trace: SearchTrace, sink: IO[str]) -> None:
    """Emit the run log: per depth, the model header, then per candidate its
    outcome lines, token counts and 10-decimal cost, then the rank and
    length vectors."""
    for node in trace.nodes:
        sink.write(f"Iteration: {node.depth}\n")
        sink.write(f"Model type: {node.model_family}\n")
        sink.write(f"Model ID: {node.model_id}\n")
        sink.write(f"Number of responses: {len(node.candidates)}\n")
        for candidate in node.candidates:
            for line in _outcome_lines(candidate.outcome):
                sink.write(line + "\n")
            sink.write(f"Input tokens: {candidate.usage.input_tokens}\n")
            sink.write(f"Output tokens: {candidate.usage.output_tokens}\n")
            sink.write(
                f"Cost for response {candidate.index}: {format_usd(candidate.cost_usd)}\n"
            )
        ranks = ", ".join(repr(c.rank.value) for c in node.candidates)
        lengths = ", ".join(str(c.char_length) for c in node.candidates)
        sink.write(f"Response ranks: [{ranks}]\n")
        sink.write(f"Response lengths: [{lengths}]\n")
