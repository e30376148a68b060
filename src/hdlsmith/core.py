"""Domain types shared across the framework, candidate ranking, and cost accounting.

Everything in this module is an immutable value type, safe to share between
threads; the free functions are pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from typing import NamedTuple, Sequence

_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Ranking scale for candidates that never produced a usable simulation.
RANK_NO_MODULE = -2.0
RANK_COMPILE_ERROR = -1.0
RANK_COMPILED_UNUSABLE = -0.5


class OutcomeKind(Enum):
    """Classification of what happened to one candidate in the toolchain."""

    NO_MODULE = "no_module"
    COMPILE_ERROR = "compile_error"
    COMPILE_WARNED_NO_SIM = "compile_warned_no_sim"
    SIMULATED = "simulated"
    SIM_CRASH_OR_TIMEOUT = "sim_crash_or_timeout"


class Termination(Enum):
    """Why a tree search stopped."""

    ALL_TESTS_PASSED = "all_tests_passed"
    MAX_DEPTH_REACHED = "max_depth_reached"
    BACKEND_ERROR = "backend_error"


@dataclass(frozen=True)
class DesignTask:
    """One benchmark problem: a design prompt plus its self-checking testbench.

    ``name`` doubles as the HDL module file stem, so it must be a legal HDL
    identifier. ``prompt_text`` is the natural-language description already
    merged with the module I/O skeleton.
    """

    name: str
    prompt_text: str
    testbench_src: str
    category: str | None = None
    subcategory: str | None = None

    def __post_init__(self) -> None:
        if not _IDENTIFIER_RE.fullmatch(self.name):
            raise ValueError(f"task name {self.name!r} is not a legal HDL identifier")
        if not self.prompt_text:
            raise ValueError("prompt_text must be non-empty")
        if not self.testbench_src:
            raise ValueError("testbench_src must be non-empty")


@dataclass(frozen=True)
class TokenUsage:
    """Input/output token counts for one model reply (or an aggregate)."""

    input_tokens: int
    output_tokens: int

    def __post_init__(self) -> None:
        if self.input_tokens < 0 or self.output_tokens < 0:
            raise ValueError("token counts must be non-negative")

    def __add__(self, other: "TokenUsage") -> "TokenUsage":
        return TokenUsage(
            self.input_tokens + other.input_tokens,
            self.output_tokens + other.output_tokens,
        )

    @property
    def total(self) -> int:
        return self.input_tokens + self.output_tokens


@dataclass(frozen=True)
class ModelSpec:
    """A model identity plus its pricing and context-window limits.

    Prices are USD per 1,000,000 tokens and are stored as exact decimals;
    binary floats are rejected so cost accounting never inherits float
    rounding from configuration.
    """

    family: str
    model_id: str
    price_in: Decimal
    price_out: Decimal
    max_context_tokens: int

    def __post_init__(self) -> None:
        for name in ("price_in", "price_out"):
            price = getattr(self, name)
            if isinstance(price, float):
                raise TypeError(f"{name} must be Decimal, str or int, not float")
            if not isinstance(price, Decimal):
                object.__setattr__(self, name, Decimal(price))
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.max_context_tokens < 1:
            raise ValueError("max_context_tokens must be positive")


@dataclass(frozen=True)
class EvalOutcome:
    """Classified result of compiling and simulating one candidate.

    ``mismatches``/``samples`` are present exactly when the candidate
    simulated and its testbench printed a parseable summary. ``diagnosis``
    carries the one-line crash/timeout note. ``module_span`` holds the
    half-open offsets of the module the evaluation extracted, into the text it
    evaluated. ``feedback`` is the repair prompt built from the tool output,
    which the outcome does not keep.
    """

    kind: OutcomeKind
    mismatches: int | None = None
    samples: int | None = None
    diagnosis: str | None = None
    module_span: tuple[int, int] | None = None
    feedback: str = ""

    def __post_init__(self) -> None:
        if self.module_span is not None and not 0 <= self.module_span[0] <= self.module_span[1]:
            raise ValueError(f"module_span {self.module_span!r} is not a pair of ordered offsets")
        if self.kind is OutcomeKind.SIMULATED:
            if self.mismatches is None or self.samples is None:
                raise ValueError("simulated outcomes must carry mismatch and sample counts")
            if self.samples < 1:
                raise ValueError("sample count must be positive")
            if not 0 <= self.mismatches <= self.samples:
                raise ValueError("mismatches must lie in [0, samples]")
        elif self.kind in (OutcomeKind.NO_MODULE, OutcomeKind.COMPILE_ERROR):
            if self.mismatches is not None or self.samples is not None:
                raise ValueError(f"{self.kind.value} outcomes cannot carry sample counts")


@dataclass(frozen=True)
class Rank:
    """Candidate quality on the ordering scale.

    Allowed values are -2 (no module), -1 (compile error), -0.5 (compiled but
    unusable) or the fraction of matching testbench samples in [0, 1]; 1.0 is
    reserved for a simulation with zero mismatches.
    """

    value: float

    def __post_init__(self) -> None:
        v = self.value
        if v not in (RANK_NO_MODULE, RANK_COMPILE_ERROR, RANK_COMPILED_UNUSABLE) and not (
            0.0 <= v <= 1.0
        ):
            raise ValueError(f"rank value {v!r} outside the allowed scale")


def rank_outcome(outcome: EvalOutcome) -> Rank:
    """Map a toolchain outcome onto the candidate-ordering scale.

    Total and pure: -2 for a reply without a module, -1 for a compile error,
    -0.5 for a module that compiled but produced no usable simulation summary
    (warnings-only or crash/timeout), and otherwise the proportion of correct
    testbench samples. A simulation with a parsed summary always gets the
    proportional rank, even if compilation warned.
    """
    kind = outcome.kind
    if kind is OutcomeKind.NO_MODULE:
        return Rank(RANK_NO_MODULE)
    if kind is OutcomeKind.COMPILE_ERROR:
        return Rank(RANK_COMPILE_ERROR)
    if kind in (OutcomeKind.COMPILE_WARNED_NO_SIM, OutcomeKind.SIM_CRASH_OR_TIMEOUT):
        return Rank(RANK_COMPILED_UNUSABLE)
    assert outcome.samples is not None and outcome.mismatches is not None
    value = (outcome.samples - outcome.mismatches) / outcome.samples
    if outcome.mismatches > 0 and value == 1.0:
        # Float rounding at huge sample counts must not fake a perfect score.
        value = math.nextafter(1.0, 0.0)
    return Rank(value)


@dataclass(frozen=True)
class CandidateResponse:
    """One evaluated LLM reply within a search tree; ``rank`` is derived from ``outcome``."""

    raw_text: str
    usage: TokenUsage
    cost_usd: Decimal
    outcome: EvalOutcome
    rank: Rank = field(init=False)
    depth: int
    index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rank", rank_outcome(self.outcome))
        if (self.outcome.module_span is None) != (self.outcome.kind is OutcomeKind.NO_MODULE):
            raise ValueError("module_span must be absent exactly for a NoModule outcome")
        span = self.outcome.module_span
        if span is not None and span[1] > len(self.raw_text):
            raise ValueError(f"module_span {span!r} lies outside a reply of {len(self.raw_text)} characters")
        if self.depth < 0 or self.index < 0:
            raise ValueError("depth and index must be non-negative")

    @property
    def module_src(self) -> str | None:
        """The module the evaluation extracted, a slice of ``raw_text``; None when there was none."""
        span = self.outcome.module_span
        return self.raw_text[span[0] : span[1]] if span is not None else None

    @property
    def char_length(self) -> int:
        """Length of the extracted module source, 0 when none was found."""
        span = self.outcome.module_span
        return span[1] - span[0] if span is not None else 0


def candidate_order_key(candidate: CandidateResponse) -> tuple[float, int, int]:
    """Sort key under which the best candidate is the minimum.

    Higher rank wins; ties break to the lower depth, then the lower index,
    so traces are reproducible.
    """
    return (-candidate.rank.value, candidate.depth, candidate.index)


def best_candidate(candidates: Sequence[CandidateResponse]) -> CandidateResponse:
    """The minimum under :func:`candidate_order_key`."""
    if not candidates:
        raise ValueError("cannot pick a best candidate from an empty batch")
    return min(candidates, key=candidate_order_key)


class LedgerEntry(NamedTuple):
    """Billing record for one generated candidate."""

    depth: int
    index: int
    model_id: str
    usage: TokenUsage
    cost_usd: Decimal


class LedgerTotals(NamedTuple):
    input_tokens: int
    output_tokens: int
    cost_usd: Decimal


@dataclass(frozen=True)
class CostLedger:
    """Exact per-response and aggregate token/dollar accounting."""

    entries: tuple[LedgerEntry, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(LedgerEntry(*e) for e in self.entries))

    @property
    def totals(self) -> LedgerTotals:
        cost = sum((e.cost_usd for e in self.entries), Decimal(0))
        return LedgerTotals(
            sum(e.usage.input_tokens for e in self.entries),
            sum(e.usage.output_tokens for e in self.entries),
            cost,
        )


def compute_cost(usage: TokenUsage, model: ModelSpec) -> Decimal:
    """Exact USD cost of one reply: tokens times per-million prices.

    Carried out entirely in decimal arithmetic so the 10-digit log rendering
    is reproduced bit-exactly.
    """
    raw = usage.input_tokens * model.price_in + usage.output_tokens * model.price_out
    return raw / Decimal(1_000_000)


def format_usd(cost: Decimal) -> str:
    """Render a cost the way run logs expect it: ``$`` plus 10 decimals."""
    return f"${cost:.10f}"


@dataclass(frozen=True)
class DepthNode:
    """One depth of a search trace: the candidate batch and the chosen best."""

    depth: int
    model_family: str
    model_id: str
    candidates: tuple[CandidateResponse, ...]
    context_fallback: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if not self.candidates:
            raise ValueError("a depth needs at least one candidate")

    @property
    def chosen(self) -> CandidateResponse:
        return best_candidate(self.candidates)

    @property
    def chosen_index(self) -> int:
        return self.chosen.index


@dataclass(frozen=True)
class SearchTrace:
    """The full tree produced by one search run."""

    nodes: tuple[DepthNode, ...]
    termination: Termination
    ledger: CostLedger

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))

    def upto(self, depth: int) -> "SearchTrace":
        """The trace a search with maximum depth ``depth`` would have produced.

        Greedy search makes a shallower search the prefix of a deeper one, as
        long as the schedule has no final-iteration model. A trace that went
        on past ``depth``, or whose backend failed only after it, ends with
        ``MAX_DEPTH_REACHED``; otherwise the termination is kept.
        """
        if depth < 0:
            raise ValueError("depth must be non-negative")
        nodes = self.nodes[: depth + 1]
        termination = self.termination
        if len(self.nodes) > depth + 1 or (
            len(self.nodes) == depth + 1 and termination is Termination.BACKEND_ERROR
        ):
            termination = Termination.MAX_DEPTH_REACHED
        ledger = CostLedger(tuple(e for e in self.ledger.entries if e.depth <= depth))
        return SearchTrace(nodes, termination, ledger)

    def all_candidates(self) -> list[CandidateResponse]:
        return [c for node in self.nodes for c in node.candidates]

    def best(self) -> CandidateResponse | None:
        """The best of the nodes' chosen candidates, None for an empty trace."""
        return best_candidate([node.chosen for node in self.nodes]) if self.nodes else None

    @property
    def best_overall(self) -> tuple[int, int] | None:
        """``(depth, index)`` of :meth:`best`."""
        best = self.best()
        return (best.depth, best.index) if best is not None else None
