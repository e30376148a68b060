"""Shared fixtures: canned tool output, task builders, candidate builders."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest

from hdlsmith.core import (
    CandidateResponse,
    DesignTask,
    EvalOutcome,
    OutcomeKind,
    TokenUsage,
)

# Output of a self-checking testbench for a badly failing sequential design.
SAMPLE_SUMMARY_OUTPUT = """Hint: Output 'count' has 218816 mismatches. First mismatch occurred at time 130.
Hint: Output 'counting' has 233794 mismatches. First mismatch occurred at time 130.
Hint: Output 'done' has 524 mismatches. First mismatch occurred at time 20130.
Hint: Total mismatched samples is 234318 out of 235447 samples

Simulation finished at 1177236 ps
Mismatches: 234318 in 235447 samples
"""

SAMPLE_TOTALS = (234318, 235447)


def run_fresh(source: str, *args: str, **env: str) -> None:
    """Run ``source`` with ``args`` as ``sys.argv[1:]`` in a fresh interpreter
    that imports hdlsmith from ``src/``, with ``env`` added to the
    environment; fail with its stderr unless it exits 0.

    The test process has long imported every module, so only a fresh
    interpreter shows which modules an entry point loads.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + pythonpath if pythonpath else src, **env}
    proc = subprocess.run(
        [sys.executable, "-c", source, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def no_thread_leak():
    """Fail a test that leaves more threads running than it started with.

    Replies are requested and evaluated on fan-out threads; every one of them
    must be joined before ``generate`` or ``run_search`` returns or raises.
    Modules opt in with ``pytestmark = pytest.mark.usefixtures("no_thread_leak")``.
    """
    before = threading.active_count()
    yield
    leaked = threading.active_count() - before
    assert leaked <= 0, f"{leaked} thread(s) still running after the test"


@pytest.fixture
def task() -> DesignTask:
    return DesignTask(
        name="top_module",
        prompt_text="// Build a 2-to-1 multiplexer\nmodule top_module(input a, input b, input sel, output out);",
        testbench_src="module tb(); endmodule",
    )


def make_outcome(kind: OutcomeKind = OutcomeKind.SIMULATED, **kwargs) -> EvalOutcome:
    if kind is OutcomeKind.SIMULATED:
        kwargs.setdefault("mismatches", 1)
        kwargs.setdefault("samples", 4)
    return EvalOutcome(kind, **kwargs)


def make_candidate(
    rank_value: float | None = None,
    *,
    depth: int = 0,
    index: int = 0,
    outcome: EvalOutcome | None = None,
    raw_text: str | None = None,
    usage: TokenUsage = TokenUsage(10, 20),
    cost: Decimal = Decimal("0.0001"),
    module_src: str = "module top_module(); endmodule",
) -> CandidateResponse:
    """Build a consistent candidate; rank_value picks a matching outcome.

    ``raw_text`` defaults to ``module_src`` in a fence, and an outcome with
    no module length, unless it is ``NO_MODULE``, gets ``module_src``'s.
    """
    if raw_text is None:
        raw_text = f"```\n{module_src}\n```"
    if outcome is None:
        if rank_value is None:
            rank_value = 0.5
        if rank_value == -2:
            outcome = EvalOutcome(OutcomeKind.NO_MODULE)
        elif rank_value == -1:
            outcome = EvalOutcome(OutcomeKind.COMPILE_ERROR, feedback="boom")
        elif rank_value == -0.5:
            outcome = EvalOutcome(OutcomeKind.SIM_CRASH_OR_TIMEOUT)
        else:
            # Pick counts whose proportional rank reproduces rank_value.
            samples = 1_000_000
            mismatches = round(samples * (1 - rank_value))
            outcome = EvalOutcome(
                OutcomeKind.SIMULATED, mismatches=mismatches, samples=samples
            )
    if outcome.kind is not OutcomeKind.NO_MODULE and outcome.module_chars == 0:
        outcome = replace(outcome, module_chars=len(module_src))
    return CandidateResponse(
        raw_text=raw_text,
        usage=usage,
        cost_usd=cost,
        outcome=outcome,
        depth=depth,
        index=index,
    )
