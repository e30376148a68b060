"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines inline). Criterion 10 needs Icarus Verilog on PATH and skips
cleanly otherwise.
"""

from __future__ import annotations

import json
import shutil
import time
from decimal import Decimal
from pathlib import Path

import pytest

from conftest import SAMPLE_SUMMARY_OUTPUT, SAMPLE_TOTALS
from hdlsmith.backends import MockBackend, lookup_model
from hdlsmith.bench import (
    GridPoint,
    ParetoPoint,
    ReportFormat,
    load_suite,
    pareto_front,
    render_report,
    run_suite,
)
from hdlsmith.core import (
    DesignTask,
    EvalOutcome,
    ModelSpec,
    OutcomeKind,
    TokenUsage,
    compute_cost,
    format_usd,
    rank_outcome,
)
from hdlsmith.edatools import evaluate, parse_summary
from hdlsmith.faketools import offline_evaluate, passing_reply, reply_with_module
from hdlsmith.prompts import FeedbackMode, Role
from hdlsmith.runcfg import execute_run, load_config
from hdlsmith.search import (
    FINAL_ITERATION,
    ModelSchedule,
    ScheduleEntry,
    SearchConfig,
    pass_at_budget,
    run_search,
)

HAVE_ICARUS = shutil.which("iverilog") is not None and shutil.which("vvp") is not None
FIXTURES = Path(__file__).parent / "fixtures"

MOCK_MODEL = lookup_model("mock")


def verdict(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def mock_search(task, tmp_path, *, k, d, script=None, schedule=None, mode=FeedbackMode.SUCCINCT):
    backend = MockBackend(script or {})
    cfg = SearchConfig(
        num_candidates=k, max_depth=d, feedback_mode=mode,
        sim_timeout=60.0, outdir=tmp_path / "out",
    )
    trace = run_search(
        task, cfg, schedule or ModelSchedule.single(MOCK_MODEL),
        {"mock": backend}, evaluator=offline_evaluate,
    )
    return trace, backend


def test_c01_rank_oracle():
    outcome = EvalOutcome(OutcomeKind.SIMULATED, mismatches=6220, samples=6283)
    start = time.perf_counter()
    rank = rank_outcome(outcome)
    elapsed = time.perf_counter() - start
    assert abs(rank.value - 0.010027057138309725) <= 1e-15
    assert elapsed < 0.001
    verdict(1, "rank oracle")


def test_c02_cost_oracle():
    model = ModelSpec("ChatGPT", "gpt-4o-mini", Decimal("0.15"), Decimal("0.60"), 128_000)
    first = format_usd(compute_cost(TokenUsage(396, 241), model))
    second = format_usd(compute_cost(TokenUsage(396, 373), model))
    assert first == "$0.0002040000"
    assert second == "$0.0002832000"
    verdict(2, "cost oracle")


def test_c03_testbench_parser():
    summary = parse_summary(SAMPLE_SUMMARY_OUTPUT)
    assert summary is not None
    assert (summary.total_mismatches, summary.total_samples) == SAMPLE_TOTALS
    verdict(3, "testbench parser")


def test_c04_query_budget(task, tmp_path):
    start = time.perf_counter()
    for (k, d), expected in {(1, 5): 6, (5, 10): 55, (5, 0): 5}.items():
        trace, _ = mock_search(task, tmp_path / f"k{k}d{d}", k=k, d=d)
        assert pass_at_budget(trace) == (expected, False)
    script = {("top_module", 3, 0): passing_reply()}
    trace, _ = mock_search(task, tmp_path / "pass3", k=5, d=10, script=script)
    assert pass_at_budget(trace) == (20, True)
    assert time.perf_counter() - start < 5.0
    verdict(4, "query budget")


def test_c05_context_window_shapes(task, tmp_path):
    _, backend = mock_search(task, tmp_path / "succinct", k=1, d=5)
    assert len(backend.calls) == 6
    for call in backend.calls[1:]:
        messages = call.conversation.messages
        assert len(messages) == 4
        assert [m.role for m in messages] == [Role.SYSTEM, Role.USER, Role.ASSISTANT, Role.USER]
        assert messages[1].content == task.prompt_text

    _, backend = mock_search(task, tmp_path / "full", k=1, d=5, mode=FeedbackMode.FULL_CONTEXT)
    for n, call in enumerate(backend.calls):
        assert len(call.conversation.messages) == 2 + 2 * n
    verdict(5, "context window shapes")


def test_c06_mixed_model_scheduling(task, tmp_path):
    schedule = ModelSchedule(
        (ScheduleEntry(0, lookup_model("small")), ScheduleEntry(FINAL_ITERATION, lookup_model("big")))
    )
    _, backend = mock_search(task, tmp_path / "never", k=1, d=10, schedule=schedule)
    assert [c.model_id for c in backend.calls] == ["small"] * 10 + ["big"]

    script = {("top_module", 2, 0): passing_reply()}
    _, backend = mock_search(task, tmp_path / "early", k=1, d=10, script=script, schedule=schedule)
    assert [c.model_id for c in backend.calls] == ["small"] * 3
    assert "big" not in {c.model_id for c in backend.calls}
    verdict(6, "mixed-model scheduling")


def test_c07_output_layout(tmp_path):
    (tmp_path / "design_prompt.sv").write_text("// design prompt")
    (tmp_path / "testbench.sv").write_text("module tb(); endmodule")
    config = {
        "general": {
            "prompt": "./design_prompt.sv",
            "name": "top_module",
            "testbench": "./testbench.sv",
            "model_family": "mock",
            "model_id": "mock",
            "num_candidates": 2,
            "iterations": 1,
            "outdir": "output_dir",
            "log": "log.txt",
            "mixed-model": False,
        }
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    cfg = load_config(config_path)
    script = {
        ("top_module", d, i): reply_with_module("mismatches=3 samples=9")
        for d in range(2)
        for i in range(2)
    }
    execute_run(cfg, {"mock": MockBackend(script)}, evaluator=offline_evaluate)

    listing = sorted(
        str(p.relative_to(cfg.outdir)) for p in cfg.outdir.rglob("*") if not p.is_dir()
    )
    expected = ["log.txt"]
    for d in range(2):
        for i in range(2):
            base = f"iter{d}/response{i}"
            expected += [
                f"{base}/log.txt",
                f"{base}/top_module.sv",
                f"{base}/top_module.vvp",
                f"{base}/top_module_tb.sv",
            ]
    assert listing == sorted(expected)
    verdict(7, "output layout")


def test_c08_deterministic_reports(tmp_path):
    def one_run(workdir: Path) -> str:
        suite = workdir / "suite"
        suite.mkdir(parents=True)
        for stem in ("adder", "counter", "mux"):
            (suite / f"{stem}_prompt.sv").write_text(f"// implement {stem}")
            (suite / f"{stem}_tb.sv").write_text("module tb(); endmodule")
        tasks = load_suite(suite)
        script = {("counter", 1, 0): passing_reply(name="counter")}
        results = run_suite(
            tasks,
            [GridPoint(1, 0), GridPoint(1, 1)],
            ModelSchedule.single(MOCK_MODEL),
            {"mock": MockBackend(script)},
            evaluator=offline_evaluate,
            workdir=workdir / "work",
        )
        return render_report(results, ReportFormat.JSON)

    first = one_run(tmp_path / "run_a")
    second = one_run(tmp_path / "run_b")
    assert first.encode() == second.encode()
    verdict(8, "deterministic reports")


def test_c09_pareto_matches_brute_force():
    import random

    rng = random.Random(20260809)
    mismatches = 0
    for _ in range(100):
        points = [
            ParetoPoint(rng.uniform(0, 1000), rng.uniform(0, 100))
            for _ in range(rng.randrange(0, 201))
        ]
        unique = {(p.x, p.y) for p in points}
        oracle = {
            (x, y)
            for x, y in unique
            if not any((ox <= x and oy >= y) and (ox < x or oy > y) for ox, oy in unique)
        }
        if {(p.x, p.y) for p in pareto_front(points)} != oracle:
            mismatches += 1
    assert mismatches == 0
    verdict(9, "pareto correctness")


@pytest.mark.skipif(not HAVE_ICARUS, reason="icarus verilog not installed")
def test_c10_live_tool_smoke(tmp_path):
    start = time.perf_counter()
    task = DesignTask(
        name="mux2to1",
        prompt_text="Build a 2-to-1 multiplexer.",
        testbench_src=(FIXTURES / "mux2to1_tb.sv").read_text(),
    )
    good = (FIXTURES / "mux2to1_good.sv").read_text()
    outcome = evaluate(f"```verilog\n{good}\n```", task, tmp_path / "good", timeout=30.0)
    assert rank_outcome(outcome).value == 1.0

    swapped = (FIXTURES / "mux2to1_swapped.sv").read_text()
    outcome = evaluate(f"```verilog\n{swapped}\n```", task, tmp_path / "swapped", timeout=30.0)
    rank = rank_outcome(outcome).value
    assert outcome.kind is OutcomeKind.SIMULATED
    assert 0.0 < rank < 1.0
    assert "Total mismatched samples" in outcome.feedback
    assert time.perf_counter() - start < 30.0
    verdict(10, "live tool smoke")
