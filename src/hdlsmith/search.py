"""Greedy tree search over candidate batches, with mixed-model scheduling.

At every depth the backend produces ``k`` candidates, all are evaluated and
ranked, and only the best one's tool feedback seeds the next depth. The
search exits early the moment any candidate passes every testbench sample,
and otherwise reports the best candidate seen anywhere in the tree.
"""

from __future__ import annotations

import re
import shutil
import sys
import threading
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable

from . import edatools
from .backends import (
    Backend,
    BackendError,
    BackendRegistry,
    ContextOverflowError,
    GenerationRequest,
    Reply,
)
from .core import (
    CandidateResponse,
    DepthNode,
    DesignTask,
    EvalOutcome,
    LedgerEntry,
    ModelSpec,
    SearchTrace,
    Termination,
    compute_cost,
    ledger_entries,
)
from .prompts import (
    Conversation,
    FeedbackMode,
    estimate_tokens,
    history,
    succinct_window,
)

_SURROGATE_RE = re.compile("[\ud800-\udfff]")
# A number as the f-strings that name output folders write it.
NUMBER = "(?:0|[1-9][0-9]*)"
ITER = re.compile(f"iter{NUMBER}")
RESPONSE = re.compile(f"response{NUMBER}")


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters: k candidates per depth, maximum depth d, window mode, and the required outdir.

    A ``feedback_mode`` that is not a :class:`FeedbackMode`, such as the
    string ``"succinct"``, raises ``ValueError``.
    """

    num_candidates: int
    max_depth: int
    feedback_mode: FeedbackMode = FeedbackMode.SUCCINCT
    sim_timeout: float = edatools.DEFAULT_SIM_TIMEOUT
    outdir: Path = field(kw_only=True)

    def __post_init__(self) -> None:
        object.__setattr__(self, "outdir", Path(self.outdir))
        if self.num_candidates < 1:
            raise ValueError("num_candidates must be at least 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        if not isinstance(self.feedback_mode, FeedbackMode):
            raise ValueError(f"feedback_mode must be a FeedbackMode, got {self.feedback_mode!r}")
        if not 0 < self.sim_timeout <= sys.float_info.max:
            raise ValueError("sim_timeout must be a positive finite number")


@dataclass(frozen=True)
class ScheduleEntry:
    start_iteration: int
    model: ModelSpec


class NoBackendError(KeyError):
    """A scheduled model's family has no registered backend."""

    def __init__(self, model: ModelSpec):
        super().__init__(f"no backend registered for model family {model.family!r}")
        self.model = model

    def __str__(self) -> str:
        return self.args[0]


@dataclass(frozen=True)
class ModelSchedule:
    """Which model serves which iteration.

    Each entry serves from its start iteration until the next entry's; the
    entries are kept in start order and one must start at 0. The optional
    ``final`` model serves only the last iteration of a search with depth > 0.
    """

    entries: tuple[ScheduleEntry, ...]
    final: ModelSpec | None = None

    def __post_init__(self) -> None:
        entries = sorted(
            (e if isinstance(e, ScheduleEntry) else ScheduleEntry(*e) for e in self.entries),
            key=lambda e: e.start_iteration,
        )
        object.__setattr__(self, "entries", tuple(entries))
        starts = [e.start_iteration for e in entries]
        if any(start < 0 for start in starts):
            raise ValueError("start iterations must be non-negative")
        if len(set(starts)) != len(starts):
            raise ValueError("start iterations must be distinct")
        if 0 not in starts:
            raise ValueError("a schedule needs an entry starting at iteration 0")

    @classmethod
    def single(cls, model: ModelSpec) -> "ModelSchedule":
        return cls((ScheduleEntry(0, model),))

    def model(self, depth: int, max_depth: int) -> ModelSpec:
        """The model serving ``depth`` of a search whose depths are ``0..max_depth``."""
        if self.final is not None and depth == max_depth > 0:
            return self.final
        return next(e.model for e in reversed(self.entries) if e.start_iteration <= depth)

    def check_backends(self, backends: BackendRegistry) -> None:
        """Raise :class:`NoBackendError` for the first model whose family has
        no backend: the entries in start order, then ``final``."""
        for model in [e.model for e in self.entries] + [self.final]:
            if model is not None and backends.get(model.family) is None:
                raise NoBackendError(model)

    def describe(self) -> str:
        """The schedule as reports label it, e.g. ``gpt-4o-mini@0, gpt-4o@final``."""
        parts = [f"{e.model.model_id}@{e.start_iteration}" for e in self.entries]
        if self.final is not None:
            parts.append(f"{self.final.model_id}@final")
        return ", ".join(parts)


# An evaluator's outcome carries the length of the module it extracted from
# the text it was given (0 for NO_MODULE). It owns the files in the folder
# it is given: the search removes stale folders, never a file in a kept one.
Evaluator = Callable[[str, DesignTask, Path, float], EvalOutcome]


class SearchStopped(Exception):
    """A search's stop event was set, so it sent no further depth's request."""


def run_search(
    task: DesignTask,
    cfg: SearchConfig,
    sched: ModelSchedule,
    backends: BackendRegistry,
    *,
    evaluator: Evaluator | None = None,
    stop: threading.Event | None = None,
) -> SearchTrace:
    """Run the greedy tree search for one task and return the full trace.

    Candidate ``i`` at depth ``n`` is evaluated inside
    ``outdir/iter<n>/response<i>`` when the backend hands its reply to
    ``GenerationRequest.on_reply`` (else once the call returns); its folder
    is recorded before the evaluator runs. However the search ends,
    :func:`prune` then keeps the recorded folders and removes every other
    ``iter<n>`` or ``response<i>`` folder: on return, the replies in the
    ledger stay; on a raise, also the folder whose evaluation raised, as
    that evaluation left it (``edatools.evaluate`` leaves it no
    ``log.txt``). A backend failure
    terminates the trace with partial results preserved and the error's
    message in ``backend_error``. A failed call's paid replies (a backend
    error's, or a context overflow's before the failover) are the trace's
    ``unheld`` entries, which its ledger counts; at most
    ``k * (d + 1)`` candidates are ever generated. A scheduled model whose
    family has no backend raises :class:`NoBackendError` before the first
    request, even one that no depth of this search reaches. With no
    ``evaluator``, a compiler or runtime that cannot be found raises
    ``ToolNotFoundError`` before the first request, too. Either removes
    nothing from the outdir.
    Once ``stop`` is set, the search raises ``SearchStopped`` before its next
    depth's request; the depth in progress finishes first.
    """
    # Every scheduled model's backend, and the default toolchain, is found
    # before the first request is paid for.
    sched.check_backends(backends)
    if evaluator is None:
        edatools.require_tools()
        evaluator = edatools.evaluate
    nodes: list[DepthNode] = []
    unheld: list[LedgerEntry] = []
    backend_error = None
    evaluated: set[Path] = set()  # each folder evaluated into

    try:
        for depth in range(cfg.max_depth + 1):
            if stop is not None and stop.is_set():
                raise SearchStopped(f"{task.name}: stopped before depth {depth}")
            model = sched.model(depth, cfg.max_depth)
            evaluate = partial(_evaluate_one, task, cfg, model, depth, evaluator, evaluated)
            for window, fallback in _windows(history(task, nodes), model, cfg.feedback_mode):
                request = GenerationRequest(
                    conversation=window,
                    model=model,
                    num_candidates=cfg.num_candidates,
                    task_name=task.name,
                    depth=depth,
                )
                candidates, error = _generate(backends[model.family], request, evaluate)
                if error is not None:
                    # Replies that a failed call delivered were paid for, but no
                    # node holds them.
                    unheld.extend(ledger_entries(candidates, model.model_id))
                if not isinstance(error, ContextOverflowError):
                    break
            if error is not None:
                backend_error = str(error)
                break

            node = DepthNode(depth, model.family, model.model_id, tuple(candidates), fallback)
            nodes.append(node)
            if node.chosen.rank.value == 1.0:
                break
    finally:
        # A reused outdir keeps the folders of an earlier, deeper or wider
        # search. No evaluation runs now: a fan-out call returns or raises
        # only once every helper thread it started has ended.
        prune(cfg.outdir, evaluated, ITER, RESPONSE)
    return SearchTrace(nodes, unheld=tuple(unheld), backend_error=backend_error)


def numbered(parent: Path, prefix: str) -> list[tuple[int, Path]]:
    """``(n, path)`` for each ``<prefix><n>`` directory in ``parent``, by ``n``,
    where ``<n>`` is written as the search writes it: ASCII digits, no leading zero."""
    name = re.compile(f"{re.escape(prefix)}({NUMBER})")
    found = []
    for path in parent.iterdir():
        match = name.fullmatch(path.name)
        if match and path.is_dir():
            found.append((int(match[1]), path))
    return sorted(found, key=lambda pair: pair[0])


def prune(root: Path, keep: Iterable[Path], *levels: re.Pattern[str]) -> None:
    """Remove each folder ``root/<a>/<b>/...`` whose names match ``levels``,
    one pattern per level, unless it is a path in ``keep`` or holds one.
    Each kept path names a folder at the last level.

    A kept folder's children are read at the next level. A folder that is a
    symbolic link is unlinked, its target untouched (``rmtree`` refuses a
    link). Files, names that do not match and a missing ``root`` are left
    alone.
    """
    # Only ancestors below root can match a level; hashing the rest, up to
    # "/", would cost several times the walk itself.
    held = {folder for path in keep for folder in (path, *path.parents[: len(levels) - 1])}
    parents = [root] if root.is_dir() else []
    for pattern in levels:
        found = [path for parent in parents for path in parent.iterdir() if pattern.fullmatch(path.name)]
        parents = [path for path in found if path in held and path.is_dir()]
        for path in found:
            if path not in held and path.is_dir():
                path.unlink() if path.is_symlink() else shutil.rmtree(path)


def _windows(
    history: Conversation, model: ModelSpec, mode: FeedbackMode
) -> Iterable[tuple[Conversation, bool]]:
    """The windows a depth may send from the history, in order, each with
    whether it is the succinct failover.

    Succinct mode sends the succinct window. Full-context mode sends the
    history, unless its estimate is over the model's context limit; then, or
    when the provider rejects the history as too long, it sends the succinct
    window, if that is shorter. The failover is for this depth's call only:
    the history keeps growing, so later, roomier models still see everything.
    """
    succinct = succinct_window(history)
    if mode is FeedbackMode.SUCCINCT:
        yield succinct, False
        return
    if succinct is history or estimate_tokens(history) <= model.max_context_tokens:
        yield history, False
    if succinct is not history:
        yield succinct, True


def _evaluate_one(
    task: DesignTask,
    cfg: SearchConfig,
    model: ModelSpec,
    depth: int,
    evaluator: Evaluator,
    evaluated: set[Path],
    index: int,
    reply: Reply,
) -> CandidateResponse:
    text, usage = reply
    # A lone surrogate (JSON "\ud800") cannot be written; U+FFFD keeps trace and files equal.
    text = _SURROGATE_RE.sub("\ufffd", text)
    workdir = cfg.outdir / f"iter{depth}" / f"response{index}"
    # Recorded first, so the folder whose evaluation raises is kept as it was left.
    evaluated.add(workdir)
    outcome = evaluator(text, task, workdir, cfg.sim_timeout)
    return CandidateResponse(
        raw_text=text,
        usage=usage,
        cost_usd=compute_cost(usage, model),
        outcome=outcome,
        depth=depth,
        index=index,
    )


def _generate(
    backend: Backend, request: GenerationRequest, evaluate: Callable[[int, Reply], CandidateResponse]
) -> tuple[list[CandidateResponse], BackendError | None]:
    """One ``generate`` call whose replies are evaluated as they arrive.

    Returns the evaluated replies in index order (for a failed call, those
    delivered before it failed) and the backend error, if any. Replies returned
    but not handed to ``on_reply``, as all of ``MockBackend``'s, go through it
    here in index order on the calling thread. The first evaluator error stops
    evaluation: ``on_reply`` raises it, so the backend sends no further
    request, and it is raised once the call is over, never as a backend error.
    """
    arrived: dict[int, CandidateResponse] = {}
    failures: list[Exception] = []

    def on_reply(index: int, reply: Reply) -> None:
        if failures:
            return  # the error discards this depth; do not write its workdirs
        try:
            arrived[index] = evaluate(index, reply)
        except Exception as exc:
            failures.append(exc)
            raise

    error = None
    try:
        replies = backend.generate(replace(request, on_reply=on_reply))
        for index, reply in enumerate(replies):
            if index not in arrived:
                on_reply(index, reply)
    except BackendError as exc:
        error = exc
    finally:
        if failures:
            raise failures[0]
    return [arrived[index] for index in sorted(arrived)], error


def pass_at_budget(trace: SearchTrace) -> tuple[int, bool]:
    """Queries actually consumed and whether the search succeeded.

    Every billed reply counts: the ledger holds a failed call's paid
    replies as the trace's ``unheld`` entries, though they are not
    candidates. The comparable zero-shot budget for a ``(k, d)`` search is
    ``k * (d + 1)`` candidates; traces that exit early consume fewer.
    """
    used = len(trace.ledger.entries)
    return used, trace.termination is Termination.ALL_TESTS_PASSED
