"""Greedy tree search over candidate batches, with mixed-model scheduling.

At every depth the backend produces ``k`` candidates, all are evaluated and
ranked, and only the best one's tool feedback seeds the next depth. The
search exits early the moment any candidate passes every testbench sample,
and otherwise reports the best candidate seen anywhere in the tree.
"""

from __future__ import annotations

import math
import re
import shutil
import threading
from dataclasses import dataclass, replace
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
    CostLedger,
    DepthNode,
    DesignTask,
    EvalOutcome,
    LedgerEntry,
    ModelSpec,
    SearchTrace,
    Termination,
    compute_cost,
)
from .prompts import (
    EMPTY_REPLY_PLACEHOLDER,
    Conversation,
    FeedbackMode,
    estimate_tokens,
    initial_conversation,
    next_conversation,
    succinct_window,
)

_SURROGATE_RE = re.compile("[\ud800-\udfff]")


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters: k candidates per depth, maximum depth d, window mode."""

    num_candidates: int
    max_depth: int
    feedback_mode: FeedbackMode = FeedbackMode.SUCCINCT
    sim_timeout: float = edatools.DEFAULT_SIM_TIMEOUT
    outdir: Path = Path("output_dir")

    def __post_init__(self) -> None:
        object.__setattr__(self, "outdir", Path(self.outdir))
        if self.num_candidates < 1:
            raise ValueError("num_candidates must be at least 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        if not (math.isfinite(self.sim_timeout) and self.sim_timeout > 0):
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

    def models(self, max_depth: int) -> list[ModelSpec]:
        """The model serving each depth ``0..max_depth`` of a search."""
        starts = {e.start_iteration: e.model for e in self.entries}
        model = starts[0]
        served = []
        for depth in range(max_depth + 1):
            model = starts.get(depth, model)
            served.append(model)
        if self.final is not None and max_depth > 0:
            served[-1] = self.final
        return served

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


# An evaluator's outcome carries the offsets of the module it extracted from
# the text it was given (None for NO_MODULE).
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
    ``GenerationRequest.on_reply`` (else once the call returns). On return,
    the ``iter<n>`` and ``response<i>`` folders past the depths and the ``k``
    of this search are removed; a search that raises leaves them. A backend
    failure terminates the trace with partial results preserved, and the
    replies the failed depth already paid for stay in the ledger; at most
    ``k * (d + 1)`` candidates are ever generated. A scheduled model whose
    family has no backend raises :class:`NoBackendError` before the first
    request, even one that no depth of this search reaches.
    Once ``stop`` is set, the search raises ``SearchStopped`` before its next
    depth's request; the depth in progress finishes first.
    """
    if evaluator is None:
        evaluator = edatools.evaluate
    conversation = initial_conversation(task)
    nodes: list[DepthNode] = []
    ledger_entries: list[LedgerEntry] = []
    termination = Termination.MAX_DEPTH_REACHED

    # Every scheduled model's backend is found before the first request is paid for.
    sched.check_backends(backends)
    for depth, model in enumerate(sched.models(cfg.max_depth)):
        if stop is not None and stop.is_set():
            raise SearchStopped(f"{task.name}: stopped before depth {depth}")
        conv_call, fallback = _window_for_call(conversation, model, cfg.feedback_mode)
        request = GenerationRequest(
            conversation=conv_call,
            model=model,
            num_candidates=cfg.num_candidates,
            task_name=task.name,
            depth=depth,
        )
        evaluate = partial(_evaluate_one, task, cfg, model, depth, evaluator)
        backend = backends[model.family]
        candidates, error = _generate(backend, request, evaluate)
        # Replies that a failed call delivered were paid for: they get ledger
        # entries at this depth, but are not candidates.
        if isinstance(error, ContextOverflowError) and not fallback and len(conversation.messages) > 4:
            # One failover retry with the succinct window; if that cannot
            # shrink the prompt (or already failed), the depth is lost.
            ledger_entries.extend(_ledger_entries(candidates, model))
            conv_call, fallback = succinct_window(conversation), True
            request = replace(request, conversation=conv_call)
            evaluate = partial(evaluate, clear_workdir=True)
            candidates, error = _generate(backend, request, evaluate)
        ledger_entries.extend(_ledger_entries(candidates, model))
        if error is not None:
            termination = Termination.BACKEND_ERROR
            break

        node = DepthNode(depth, model.family, model.model_id, tuple(candidates), fallback)
        nodes.append(node)
        chosen = node.chosen

        if chosen.rank.value == 1.0:
            termination = Termination.ALL_TESTS_PASSED
            break
        if depth == cfg.max_depth:
            break
        conversation = next_conversation(
            conversation,
            chosen.raw_text or EMPTY_REPLY_PLACEHOLDER,
            chosen.outcome.feedback,
            cfg.feedback_mode,
        )

    # A reused outdir keeps the folders of an earlier, deeper or wider search.
    written = len(nodes) + (termination is Termination.BACKEND_ERROR)
    _remove_stale_dirs(cfg.outdir, written, cfg.num_candidates)
    return SearchTrace(nodes, termination, CostLedger(tuple(ledger_entries)))


def numbered(parent: Path, prefix: str) -> list[tuple[int, Path]]:
    """``(n, path)`` for each ``<prefix><n>`` directory in ``parent``, by ``n``."""
    found = []
    for path in parent.iterdir():
        number = path.name[len(prefix):]
        if path.name.startswith(prefix) and number.isdecimal() and path.is_dir():
            found.append((int(number), path))
    return sorted(found, key=lambda pair: pair[0])


def _remove_stale_dirs(outdir: Path, depths: int, num_candidates: int) -> None:
    if not outdir.is_dir():
        return
    for depth, depth_dir in numbered(outdir, "iter"):
        if depth >= depths:
            shutil.rmtree(depth_dir)
            continue
        for index, response_dir in numbered(depth_dir, "response"):
            if index >= num_candidates:
                shutil.rmtree(response_dir)


def _window_for_call(
    conversation: Conversation, model: ModelSpec, mode: FeedbackMode
) -> tuple[Conversation, bool]:
    # Full-context histories that would blow the context window fail over to
    # the succinct shape for this call only; the canonical history keeps
    # growing so later, roomier models still see everything.
    if (
        mode is FeedbackMode.FULL_CONTEXT
        and len(conversation.messages) > 4
        and estimate_tokens(conversation) > model.max_context_tokens
    ):
        return succinct_window(conversation), True
    return conversation, False


def _evaluate_one(
    task: DesignTask,
    cfg: SearchConfig,
    model: ModelSpec,
    depth: int,
    evaluator: Evaluator,
    index: int,
    reply: Reply,
    *,
    clear_workdir: bool = False,
) -> CandidateResponse:
    # A failover retry evaluates into the workdirs whose replies the rejected
    # call may already have written; the candidate's files replace theirs.
    text, usage = reply
    # A lone surrogate (JSON "\ud800") cannot be written; U+FFFD keeps trace and files equal.
    text = _SURROGATE_RE.sub("\ufffd", text)
    workdir = cfg.outdir / f"iter{depth}" / f"response{index}"
    if clear_workdir and workdir.exists():
        shutil.rmtree(workdir)
    outcome = evaluator(text, task, workdir, cfg.sim_timeout)
    return CandidateResponse(
        raw_text=text,
        usage=usage,
        cost_usd=compute_cost(usage, model),
        outcome=outcome,
        depth=depth,
        index=index,
    )


def _ledger_entries(candidates: Iterable[CandidateResponse], model: ModelSpec) -> list[LedgerEntry]:
    return [LedgerEntry(c.depth, c.index, model.model_id, c.usage, c.cost_usd) for c in candidates]


def _generate(
    backend: Backend, request: GenerationRequest, evaluate: Callable[[int, Reply], CandidateResponse]
) -> tuple[list[CandidateResponse], BackendError | None]:
    """One ``generate`` call whose replies are evaluated as they arrive.

    Returns the evaluated replies in index order (for a failed call, those
    delivered before it failed) and the backend error, if any. Replies
    returned without being handed to ``GenerationRequest.on_reply`` are
    evaluated here, serially. The first evaluator error stops evaluation and
    is raised as is once the call is over, never passing for a backend error.
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

    replies: tuple[Reply, ...] = ()
    error = None
    try:
        replies = backend.generate(replace(request, on_reply=on_reply))
    except BackendError as exc:
        error = exc
    finally:
        if failures:
            raise failures[0]
    for index, reply in enumerate(replies):
        if index not in arrived:
            arrived[index] = evaluate(index, reply)
    return [arrived[index] for index in sorted(arrived)], error


def pass_at_budget(trace: SearchTrace) -> tuple[int, bool]:
    """Queries actually consumed and whether the search succeeded.

    Every billed reply counts, including those of a depth whose backend call
    failed, which are ledger entries without being candidates. The comparable
    zero-shot budget for a ``(k, d)`` search is ``k * (d + 1)`` candidates;
    traces that exit early consume fewer.
    """
    used = len(trace.ledger.entries)
    return used, trace.termination is Termination.ALL_TESTS_PASSED
