"""Suite loading, grid runs, success/rollup math, Pareto, report round-trips."""

from __future__ import annotations

import _thread
import itertools
import json
import math
import tempfile
import threading
import warnings
from collections import Counter
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdlsmith import bench
from hdlsmith.backends import MockBackend
from hdlsmith.bench import (
    EmptySuiteError,
    GridPoint,
    ParetoPoint,
    ReportFormat,
    RollupLevel,
    SuiteParams,
    SuiteResult,
    TaskRow,
    average_cost,
    average_tokens,
    category_rollup,
    export_report,
    load_report,
    load_suite,
    pareto_front,
    render_report,
    run_suite,
    success_percent,
    suite_pareto_point,
)
from hdlsmith.core import Termination, TokenUsage
from hdlsmith.edatools import ToolIoError, ToolNotFoundError
from hdlsmith.faketools import offline_evaluate, passing_reply, reply_with_module
from hdlsmith.prompts import FeedbackMode
from hdlsmith.search import ModelSchedule, ScheduleEntry, SearchConfig, run_search
from hdlsmith.backends import lookup_model


def make_suite_dir(tmp_path: Path, stems=("adder", "counter", "mux"), manifest=None) -> Path:
    suite = tmp_path / "suite"
    suite.mkdir(exist_ok=True)
    for stem in stems:
        (suite / f"{stem}_prompt.sv").write_text(f"// implement {stem}\nmodule {stem}();")
        (suite / f"{stem}_tb.sv").write_text("module tb(); endmodule")
    if manifest is not None:
        (suite / "manifest.json").write_text(json.dumps(manifest))
    return suite


def make_row(name="t0", success=True, *, tokens=TokenUsage(100, 100), cost=Decimal("0.01"),
             queries=5, best_rank=1.0, category=None, subcategory=None) -> TaskRow:
    return TaskRow(name, success, queries, tokens, cost, best_rank, category, subcategory)


def make_result(flags, **row_kwargs) -> SuiteResult:
    params = SuiteParams(5, 10, FeedbackMode.SUCCINCT, "mock@0")
    rows = tuple(
        make_row(f"t{i}", flag, best_rank=1.0 if flag else 0.5, **row_kwargs)
        for i, flag in enumerate(flags)
    )
    return SuiteResult(params, rows)


class TestLoadSuite:
    def test_pairs_by_stem_sorted(self, tmp_path):
        suite = make_suite_dir(tmp_path, stems=("zeta", "alpha"))
        tasks = load_suite(suite)
        assert [t.name for t in tasks] == ["alpha", "zeta"]

    def test_manifest_tags(self, tmp_path):
        manifest = {"adder": {"category": "arithmetic", "subcategory": "adders"}}
        suite = make_suite_dir(tmp_path, manifest=manifest)
        tasks = {t.name: t for t in load_suite(suite)}
        assert tasks["adder"].category == "arithmetic"
        assert tasks["mux"].category is None

    def test_non_object_manifest_entry_loads_task_untagged(self, tmp_path):
        manifest = {"adder": "arith", "mux": {"category": "logic"}}
        suite = make_suite_dir(tmp_path, manifest=manifest)
        with pytest.warns(UserWarning, match="'adder' loads untagged"):
            tasks = {t.name: t for t in load_suite(suite)}
        assert sorted(tasks) == ["adder", "counter", "mux"]
        assert (tasks["adder"].category, tasks["adder"].subcategory) == (None, None)
        assert tasks["mux"].category == "logic"

    @pytest.mark.parametrize(
        "entry", [{"category": 3}, {"category": "arith", "subcategory": ["adders"]}, {"category": ""}]
    )
    def test_non_string_tag_loads_task_untagged(self, tmp_path, entry):
        manifest = {"adder": entry, "mux": {"category": "logic", "subcategory": "muxes"}}
        suite = make_suite_dir(tmp_path, manifest=manifest)
        with pytest.warns(UserWarning, match="'adder' loads untagged: its category and subcategory"):
            tasks = {t.name: t for t in load_suite(suite)}
        assert (tasks["adder"].category, tasks["adder"].subcategory) == (None, None)
        assert (tasks["mux"].category, tasks["mux"].subcategory) == ("logic", "muxes")
        rows = tuple(
            make_row(t.name, category=t.category, subcategory=t.subcategory) for t in tasks.values()
        )
        results = [SuiteResult(SuiteParams(1, 0, FeedbackMode.SUCCINCT, "mock@0"), rows)]
        for fmt in ReportFormat:
            path = tmp_path / f"report.{fmt.value}"
            export_report(results, fmt, path)
            assert load_report(path) == results

    @pytest.mark.parametrize("content", [b"{not json", b'["adder"]', b'"arith"', b"\xff{}"])
    def test_unusable_manifest_loads_every_task_untagged(self, tmp_path, content):
        suite = make_suite_dir(tmp_path)
        (suite / "manifest.json").write_bytes(content)
        with pytest.warns(UserWarning, match="manifest.json ignored"):
            tasks = load_suite(suite)
        assert [t.name for t in tasks] == ["adder", "counter", "mux"]
        assert all(t.category is None and t.subcategory is None for t in tasks)

    def test_unmatched_prompt_is_skipped_with_warning(self, tmp_path):
        suite = make_suite_dir(tmp_path)
        (suite / "orphan_prompt.sv").write_text("// nothing pairs with me")
        with pytest.warns(UserWarning, match="orphan"):
            tasks = load_suite(suite)
        assert all(t.name != "orphan" for t in tasks)

    def test_empty_dir_raises(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(EmptySuiteError):
            load_suite(empty)


PRICED_MOCK = lookup_model("gpt-4o-mini", "mock")
SWEEP_GRID = [
    GridPoint(k, d, mode)
    for mode in FeedbackMode
    for k in (1, 2)
    for d in (3, 0, 5, 1)  # out of order: rows keep the grid order
]
SWEEP_SCRIPT = {
    # adder passes at depth 3, but only with k >= 2.
    **{("adder", depth, 0): reply_with_module(f"mismatches={9 - depth} samples=10", "adder")
       for depth in range(6)},
    ("adder", 1, 1): reply_with_module("compile-error", "adder"),
    ("adder", 3, 1): passing_reply(name="adder"),
    ("counter", 0, 0): passing_reply(name="counter"),
    ("mux", 2, 0): reply_with_module("hang", "mux"),
    ("mux", 4, 1): reply_with_module("mismatches=1 samples=10", "mux"),
}
FINAL_MODEL_SCHEDULE = ModelSchedule((ScheduleEntry(0, PRICED_MOCK),), final=lookup_model("gpt-4o", "mock"))


def sweep_backend() -> MockBackend:
    return MockBackend(SWEEP_SCRIPT, tokens_per_reply=TokenUsage(120, 45))


class TestRunSuite:
    def schedule(self):
        return ModelSchedule.single(lookup_model("mock"))

    def test_grid_shape(self, tmp_path):
        tasks = load_suite(make_suite_dir(tmp_path))
        grid = [GridPoint(1, 0), GridPoint(1, 1)]
        results = run_suite(
            tasks, grid, self.schedule(), {"mock": MockBackend({})},
            evaluator=offline_evaluate, workdir=tmp_path / "work",
        )
        assert len(results) == 2
        assert all(len(r.per_task) == 3 for r in results)
        assert all(
            [row.task_name for row in r.per_task] == ["adder", "counter", "mux"]
            for r in results
        )

    def test_pass_at_depth_zero_uses_k_queries(self, tmp_path):
        tasks = load_suite(make_suite_dir(tmp_path, stems=("adder",)))
        backend = MockBackend({("adder", 0, 0): passing_reply(name="adder")})
        results = run_suite(
            tasks, [GridPoint(2, 3)], self.schedule(), {"mock": backend},
            evaluator=offline_evaluate, workdir=tmp_path / "work",
        )
        row = results[0].per_task[0]
        assert row.success is True
        assert row.queries_used == 2
        assert row.best_rank == 1.0

    def test_suite_cost_equals_sum_of_ledgers(self, tmp_path):
        tasks = load_suite(make_suite_dir(tmp_path))
        backend = MockBackend({}, tokens_per_reply=TokenUsage(50, 70))
        results = run_suite(
            tasks, [GridPoint(2, 1)], self.schedule(), {"mock": backend},
            evaluator=offline_evaluate, workdir=tmp_path / "work",
        )
        for row in results[0].per_task:
            assert row.tokens == TokenUsage(4 * 50, 4 * 70)
            assert row.cost_usd == Decimal(0)

    @pytest.mark.usefixtures("no_thread_leak")
    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_task_failure_ends_the_sweep(self, tmp_path, parallelism):
        tasks = load_suite(make_suite_dir(tmp_path, stems=("a0", "a1", "a2", "a3", "a4", "a5")))
        failure = threading.Event()
        late = []

        class Spy(MockBackend):
            def generate(self, req):
                if req.depth == 0 and failure.is_set():
                    late.append(req.task_name)
                return super().generate(req)

        def evaluator(text, task, workdir, timeout):
            if task.name == "a2":
                failure.set()
                raise RuntimeError("tool exploded")
            if parallelism > 1:
                # a0 and a1 run beside a2, so their workers come free only
                # after it failed, while a3 and later are still queued.
                failure.wait(timeout=10)
            return offline_evaluate(text, task, workdir, timeout)

        backend = Spy({})
        with pytest.raises(RuntimeError, match="tool exploded"):
            run_suite(
                tasks, [GridPoint(2, 1)], self.schedule(), {"mock": backend},
                evaluator=evaluator, workdir=tmp_path / "work", parallelism=parallelism,
            )
        # No search starts after one has raised.
        assert late == []
        assert {c.task_name for c in backend.calls} == {"a0", "a1", "a2"}

    @pytest.mark.usefixtures("no_thread_leak")
    @pytest.mark.parametrize(
        "parallelism, interrupt", [(3, False), (1, True), (3, True)], ids=["error", "interrupt", "interrupt, 3"]
    )
    def test_running_searches_stop_at_the_next_depth(self, tmp_path, monkeypatch, parallelism, interrupt):
        tasks = load_suite(make_suite_dir(tmp_path, stems=("a0", "a1", "a2")))
        at_depth_1 = threading.Barrier(parallelism)
        stops, stopped = [], []

        def spy(*args, **kwargs):
            stops.append(kwargs["stop"])
            return run_search(*args, **kwargs)

        def evaluator(text, task, workdir, timeout):
            if "iter1" in workdir.parts:
                # Every running search is at depth 1 when a0 fails, and
                # finishes that depth only once the sweep has stopped.
                at_depth_1.wait(timeout=10)
                if task.name == "a0" and not interrupt:
                    raise RuntimeError("tool exploded")
                if task.name == "a0":
                    _thread.interrupt_main()
                stopped.append(stops[0].wait(timeout=10))
            return offline_evaluate(text, task, workdir, timeout)

        monkeypatch.setattr(bench, "run_search", spy)
        backend = MockBackend({})
        with pytest.raises(KeyboardInterrupt if interrupt else RuntimeError):
            run_suite(
                tasks, [GridPoint(1, 5)], self.schedule(), {"mock": backend},
                evaluator=evaluator, workdir=tmp_path / "work", parallelism=parallelism,
            )
        running = [t.name for t in tasks[:parallelism]]
        assert stopped == [True] * (parallelism - (not interrupt))
        assert sorted((c.task_name, c.depth) for c in backend.calls) == [(t, d) for t in running for d in (0, 1)]

    @pytest.mark.parametrize("final", [False, True], ids=["model", "final model"])
    def test_family_without_backend_raises_before_any_search(self, tmp_path, final):
        # The foo model replaces the mock model, or joins it as the final model.
        foo = lookup_model("bar", "foo")
        schedule = ModelSchedule(((0, lookup_model("mock")),), foo) if final else ModelSchedule.single(foo)
        backend = MockBackend({})
        with pytest.raises(KeyError, match="no backend registered for model family 'foo'"):
            run_suite(
                load_suite(make_suite_dir(tmp_path)), [GridPoint(1, 1)], schedule, {"mock": backend},
                evaluator=offline_evaluate, workdir=tmp_path / "work",
            )
        assert backend.calls == []
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize(
        "grid",
        [[GridPoint(1, 2), GridPoint(0, 1)], [GridPoint(1, 3), GridPoint(1, -1)]],
        ids=["k=0", "d=-1 under a deeper d"],
    )
    def test_bad_grid_point_raises_before_any_search(self, tmp_path, grid):
        backend = MockBackend({})
        with pytest.raises(ValueError):
            run_suite(
                load_suite(make_suite_dir(tmp_path)), grid, self.schedule(), {"mock": backend},
                evaluator=offline_evaluate, workdir=tmp_path / "work",
            )
        assert backend.calls == []
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("sim_timeout", [math.nan, math.inf, 0, -1])
    def test_bad_sim_timeout_raises_before_any_search(self, tmp_path, sim_timeout):
        # Unchecked, NaN or inf would fail in the simulator after a billed
        # query, and 0 or -1 would time out every simulation as 0% success.
        backend = MockBackend({})
        with pytest.raises(ValueError, match="sim_timeout must be a positive finite number"):
            run_suite(
                load_suite(make_suite_dir(tmp_path)), [GridPoint(1, 1)], self.schedule(),
                {"mock": backend}, evaluator=offline_evaluate, workdir=tmp_path / "work",
                sim_timeout=sim_timeout,
            )
        assert backend.calls == []
        assert not (tmp_path / "work").exists()

    def test_parallelism_below_one_raises_before_any_search(self, tmp_path):
        backend = MockBackend({})
        with pytest.raises(ValueError, match="parallelism must be at least 1, got 0"):
            run_suite(
                load_suite(make_suite_dir(tmp_path)), [GridPoint(1, 1)], self.schedule(),
                {"mock": backend}, evaluator=offline_evaluate, workdir=tmp_path / "work", parallelism=0,
            )
        assert backend.calls == []
        assert not (tmp_path / "work").exists()

    def test_parallelism_below_one_makes_no_temp_workdir(self, tmp_path, monkeypatch):
        tasks = load_suite(make_suite_dir(tmp_path))
        (tmp_path / "temp").mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "temp"))
        with pytest.raises(ValueError, match="parallelism must be at least 1, got 0"):
            run_suite(
                tasks, [GridPoint(1, 1)], self.schedule(), {"mock": MockBackend({})},
                evaluator=offline_evaluate, parallelism=0,
            )
        assert list((tmp_path / "temp").iterdir()) == []

    @pytest.mark.parametrize("fails", [False, True])
    def test_temp_workdir_is_removed(self, tmp_path, monkeypatch, fails):
        tasks = load_suite(make_suite_dir(tmp_path))
        (tmp_path / "temp").mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "temp"))
        written = []

        def evaluator(text, task, workdir, timeout):
            written.append(workdir)
            if fails:
                raise ToolIoError("disk full")
            return offline_evaluate(text, task, workdir, timeout)

        sweep = lambda: run_suite(
            tasks, [GridPoint(2, 1)], self.schedule(), {"mock": MockBackend({})},
            evaluator=evaluator, parallelism=2,
        )
        if fails:
            with pytest.raises(ToolIoError, match="disk full"):
                sweep()
        else:
            assert len(sweep()[0].per_task) == 3
        assert written and all(tmp_path / "temp" in w.parents for w in written)
        assert list((tmp_path / "temp").iterdir()) == []

    def test_any_registered_family_is_served(self, tmp_path):
        tasks = load_suite(make_suite_dir(tmp_path, stems=("adder",)))
        backend = MockBackend({("adder", 1, 0): passing_reply(name="adder")})
        results = run_suite(
            tasks, [GridPoint(1, 2)], ModelSchedule.single(lookup_model("m", "mylocal")),
            {"mylocal": backend}, evaluator=offline_evaluate, workdir=tmp_path / "work",
        )
        row = results[0].per_task[0]
        assert (row.success, row.queries_used) == (True, 2)

    def test_missing_toolchain_raises_before_any_query(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path / "empty-bin"))
        backend = MockBackend({})
        with pytest.raises(ToolNotFoundError, match="compiler not found: iverilog"):
            run_suite(
                load_suite(make_suite_dir(tmp_path)), [GridPoint(3, 1)], self.schedule(),
                {"mock": backend}, workdir=tmp_path / "work",
            )
        assert backend.calls == []
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize(
        "grid, schedule",
        [
            ([GridPoint(1, 1)], ModelSchedule.single(PRICED_MOCK)),
            (SWEEP_GRID, ModelSchedule.single(PRICED_MOCK)),
            (SWEEP_GRID, FINAL_MODEL_SCHEDULE),
        ],
        ids=["one point", "sweep grid", "sweep grid with a final model"],
    )
    def test_parallel_matches_serial(self, tmp_path, grid, schedule):
        tasks = load_suite(make_suite_dir(tmp_path))
        runs = []
        for parallelism in (1, 4):
            workdir = tmp_path / f"work{parallelism}"
            results = run_suite(
                tasks, grid, schedule, {"mock": sweep_backend()},
                evaluator=offline_evaluate, workdir=workdir, parallelism=parallelism,
            )
            reports = [render_report(results, format) for format in ReportFormat]
            tree = {p.relative_to(workdir): p.read_bytes() for p in workdir.rglob("*") if p.is_file()}
            runs.append((reports, tree))
        assert runs[0] == runs[1]


def reference_sweep(tasks, grid, schedule, outdir: Path) -> list[SuiteResult]:
    """The naive sweep: one search per task per grid point, summarized here."""
    results = []
    for point in grid:
        rows = []
        for task in tasks:
            cfg = SearchConfig(point.num_candidates, point.max_depth, point.mode,
                               outdir=outdir / f"{point}" / task.name)
            trace = run_search(task, cfg, schedule, {"mock": sweep_backend()},
                               evaluator=offline_evaluate)
            totals = trace.ledger.totals
            best = trace.best()
            rows.append(TaskRow(
                task.name,
                trace.termination is Termination.ALL_TESTS_PASSED,
                len(trace.all_candidates()),
                TokenUsage(totals.input_tokens, totals.output_tokens),
                totals.cost_usd,
                best.rank.value if best is not None else None,
                task.category,
                task.subcategory,
            ))
        params = SuiteParams(point.num_candidates, point.max_depth, point.mode,
                             schedule.describe())
        results.append(SuiteResult(params, tuple(rows)))
    return results


class TestPrefixSweep:
    """A grid sweep runs each (k, mode) once at its deepest d."""

    def sweep(self, tmp_path, schedule):
        manifest = {"adder": {"category": "arithmetic"}}
        tasks = load_suite(make_suite_dir(tmp_path, manifest=manifest))
        backend = sweep_backend()
        results = run_suite(
            tasks, SWEEP_GRID, schedule, {"mock": backend},
            evaluator=offline_evaluate, workdir=tmp_path / "work",
        )
        reference = reference_sweep(tasks, SWEEP_GRID, schedule, tmp_path / "reference")
        return results, reference, backend

    @pytest.mark.parametrize("format", list(ReportFormat))
    def test_report_matches_search_per_grid_point(self, tmp_path, format):
        results, reference, _ = self.sweep(tmp_path, ModelSchedule.single(PRICED_MOCK))
        assert render_report(results, format) == render_report(reference, format)
        successes = [success_percent(r) for r in results if r.params.num_candidates == 2]
        assert successes == [66.7, 33.3, 66.7, 33.3] * 2

    def test_one_search_per_task_per_group(self, tmp_path):
        _, _, backend = self.sweep(tmp_path, ModelSchedule.single(PRICED_MOCK))
        searches = Counter((c.task_name, c.num_candidates) for c in backend.calls if c.depth == 0)
        # One search per mode for every task and k.
        assert searches == {(task, k): 2 for task in ("adder", "counter", "mux") for k in (1, 2)}
        assert sorted(p.name for p in (tmp_path / "work").iterdir()) == [
            "k1_d5_full_context", "k1_d5_succinct", "k2_d5_full_context", "k2_d5_succinct",
        ]

    def test_final_model_schedule_searches_every_depth(self, tmp_path):
        results, reference, backend = self.sweep(tmp_path, FINAL_MODEL_SCHEDULE)
        assert render_report(results, ReportFormat.JSON) == render_report(reference, ReportFormat.JSON)
        assert sum(c.depth == 0 for c in backend.calls) == 3 * len(SWEEP_GRID)
        assert len(list((tmp_path / "work").iterdir())) == len(SWEEP_GRID)

    def test_tool_error_in_deepest_search_ends_the_sweep(self, tmp_path):
        tasks = load_suite(make_suite_dir(tmp_path, stems=("alpha", "beta")))

        def evaluator(text, task, workdir, timeout):
            if task.name == "alpha" and "iter3" in workdir.parts:
                raise ToolIoError("disk full")
            return offline_evaluate(text, task, workdir, timeout)

        grid = [GridPoint(1, 0), GridPoint(1, 1), GridPoint(1, 5)]
        backend = MockBackend({})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ToolIoError, match="disk full"):
                run_suite(
                    tasks, grid, ModelSchedule.single(PRICED_MOCK), {"mock": backend},
                    evaluator=evaluator, workdir=tmp_path / "work",
                )
        assert [w.message for w in caught if issubclass(w.category, UserWarning)] == []
        # The d=5 search of alpha stopped at depth 3; beta's never started.
        assert [(c.task_name, c.depth) for c in backend.calls] == [("alpha", d) for d in range(4)]


class TestSuccessPercent:
    def test_zero_of_n(self):
        assert success_percent(make_result([False] * 5)) == 0.0

    def test_n_of_n(self):
        assert success_percent(make_result([True] * 5)) == 100.0

    def test_two_of_three_rounds_half_up(self):
        assert success_percent(make_result([True, False, True])) == 66.7

    def test_131_of_156(self):
        flags = [True] * 131 + [False] * 25
        assert success_percent(make_result(flags)) == 84.0

    def test_permutation_invariant(self):
        flags = [True, False, True, False, False, True]
        for perm in itertools.permutations(flags, len(flags)):
            assert success_percent(make_result(list(perm))) == success_percent(make_result(flags))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            success_percent(make_result([]))


def brute_force_front(points: list[ParetoPoint]) -> set[tuple[float, float]]:
    # O(n^2) dominance oracle.
    unique = {(p.x, p.y) for p in points}
    front = set()
    for x, y in unique:
        dominated = any(
            (ox <= x and oy >= y) and (ox < x or oy > y) for ox, oy in unique
        )
        if not dominated:
            front.add((x, y))
    return front


class TestParetoFront:
    def test_three_point_example(self):
        points = [ParetoPoint(1, 10), ParetoPoint(2, 20), ParetoPoint(3, 15)]
        assert pareto_front(points) == [ParetoPoint(1, 10), ParetoPoint(2, 20)]

    def test_single_point(self):
        assert pareto_front([ParetoPoint(4, 40)]) == [ParetoPoint(4, 40)]

    def test_duplicates_collapse(self):
        points = [ParetoPoint(1, 10)] * 3
        assert pareto_front(points) == [ParetoPoint(1, 10)]

    def test_validation(self):
        with pytest.raises(ValueError):
            ParetoPoint(-1, 50)
        with pytest.raises(ValueError):
            ParetoPoint(1, 101)
        with pytest.raises(ValueError):
            ParetoPoint(float("nan"), 10)

    coordinates = st.tuples(
        st.floats(min_value=0, max_value=1000, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    )

    @given(st.lists(coordinates, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_oracle(self, coords):
        points = [ParetoPoint(x, y) for x, y in coords]
        front = pareto_front(points)
        assert {(p.x, p.y) for p in front} == brute_force_front(points)
        assert [p.x for p in front] == sorted(p.x for p in front)

    @given(st.lists(coordinates, min_size=1, max_size=50))
    @settings(deadline=None)
    def test_front_is_mutually_non_dominating(self, coords):
        front = pareto_front([ParetoPoint(x, y) for x, y in coords])
        for a in front:
            for b in front:
                if a != b:
                    assert not ((a.x <= b.x and a.y >= b.y) and (a.x < b.x or a.y > b.y))


class TestAveragesAndParetoPoints:
    def test_all_tasks_versus_successes_only(self):
        result = SuiteResult(
            SuiteParams(1, 0, FeedbackMode.SUCCINCT, "m@0"),
            (
                make_row("a", True, tokens=TokenUsage(10, 10), cost=Decimal("0.02")),
                make_row("b", False, tokens=TokenUsage(30, 30), cost=Decimal("0.04")),
            ),
        )
        assert average_tokens(result) == 40.0
        assert average_tokens(result, successes_only=True) == 20.0
        assert average_cost(result) == Decimal("0.03")
        assert average_cost(result, successes_only=True) == Decimal("0.02")

    def test_suite_pareto_point(self):
        result = make_result([True, False])
        point = suite_pareto_point(result, metric="tokens")
        assert point == ParetoPoint(200.0, 50.0)

    def test_no_successes_yields_no_point(self):
        result = make_result([False])
        assert suite_pareto_point(result, metric="cost", successes_only=True) is None


class TestCategoryRollup:
    def test_single_category_equals_overall(self):
        result = make_result([True, False, True], category="logic")
        rows = category_rollup(result, RollupLevel.CATEGORY)
        assert rows == [("logic", success_percent(result), 3)]

    def test_two_categories(self):
        result = SuiteResult(
            SuiteParams(1, 0, FeedbackMode.SUCCINCT, "m@0"),
            (
                make_row("a", True, category="seq"),
                make_row("b", False, category="comb"),
            ),
        )
        rows = dict((r.label, (r.success_percent, r.n)) for r in category_rollup(result, RollupLevel.CATEGORY))
        assert rows == {"seq": (100.0, 1), "comb": (0.0, 1)}

    def test_untagged_group(self):
        result = make_result([True])
        rows = category_rollup(result, RollupLevel.SUBCATEGORY)
        assert rows[0].label == "uncategorized"

    @given(st.lists(st.tuples(st.booleans(), st.sampled_from([None, "a", "b", "c"])), min_size=1, max_size=30))
    def test_rollup_counts_sum_to_task_count(self, rows_spec):
        rows = tuple(
            make_row(f"t{i}", flag, category=cat) for i, (flag, cat) in enumerate(rows_spec)
        )
        result = SuiteResult(SuiteParams(1, 0, FeedbackMode.SUCCINCT, "m@0"), rows)
        rollup = category_rollup(result, RollupLevel.CATEGORY)
        assert sum(r.n for r in rollup) == len(rows)


row_strategy = st.builds(
    TaskRow,
    task_name=st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True),
    success=st.booleans(),
    queries_used=st.integers(min_value=0, max_value=100),
    tokens=st.builds(
        TokenUsage,
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    ),
    cost_usd=st.decimals(min_value=0, max_value=100, places=10),
    best_rank=st.one_of(st.none(), st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 1.0])),
    category=st.one_of(st.none(), st.sampled_from(["a", "b"])),
    subcategory=st.one_of(st.none(), st.sampled_from(["x", "y"])),
)

result_strategy = st.builds(
    SuiteResult,
    params=st.builds(
        SuiteParams,
        num_candidates=st.integers(min_value=1, max_value=5),
        max_depth=st.integers(min_value=0, max_value=10),
        mode=st.sampled_from(list(FeedbackMode)),
        schedule=st.sampled_from(["mock@0", "gpt-4o-mini@0, gpt-4o@final"]),
    ),
    per_task=st.lists(row_strategy, min_size=1, max_size=5, unique_by=lambda r: r.task_name).map(tuple),
)


class TestReports:
    def test_empty_results_csv_is_header_only(self, tmp_path):
        path = export_report([], ReportFormat.CSV, tmp_path / "r.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("num_candidates,max_depth,mode,schedule,task,")

    def test_single_result_json_schema(self, tmp_path):
        result = make_result([True, False], category="logic")
        path = export_report([result], ReportFormat.JSON, tmp_path / "r.json")
        payload = json.loads(path.read_text())
        entry = payload["results"][0]
        assert entry["params"]["num_candidates"] == 5
        assert entry["summary"]["success_percent"] == 50.0
        assert entry["per_task"][0]["cost_usd"] == "0.01"

    @given(st.lists(result_strategy, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_json_round_trip(self, results):
        text = render_report(results, ReportFormat.JSON)
        loaded = _load_from_text(text, ReportFormat.JSON)
        assert loaded == list(results)

    @given(st.lists(result_strategy, min_size=1, max_size=3, unique_by=lambda r: (
        r.params.num_candidates, r.params.max_depth, r.params.mode, r.params.schedule
    )))
    @settings(max_examples=30, deadline=None)
    def test_csv_round_trip(self, results):
        text = render_report(results, ReportFormat.CSV)
        loaded = _load_from_text(text, ReportFormat.CSV)
        assert loaded == list(results)

    def test_render_is_deterministic(self):
        results = [make_result([True, False, True])]
        assert render_report(results, ReportFormat.JSON) == render_report(results, ReportFormat.JSON)

    def test_render_golden_bytes(self):
        params = SuiteParams(5, 10, FeedbackMode.FULL_CONTEXT, "gpt-4o-mini@0, gpt-4o@final")
        rows = (
            TaskRow("adder", True, 7, TokenUsage(1200, 340), Decimal("0.0004140000"), 1.0,
                    "arithmetic", "adders"),
            TaskRow("mux", False, 55, TokenUsage(9000, 2500), Decimal("0.00285"), None, None, None),
        )
        results = [SuiteResult(params, rows)]
        assert render_report(results, ReportFormat.JSON) == GOLDEN_JSON
        assert render_report(results, ReportFormat.CSV) == GOLDEN_CSV


GOLDEN_JSON = """\
{
  "results": [
    {
      "params": {
        "num_candidates": 5,
        "max_depth": 10,
        "mode": "full_context",
        "schedule": "gpt-4o-mini@0, gpt-4o@final"
      },
      "summary": {
        "success_percent": 50.0,
        "avg_tokens_all": 6520.0,
        "avg_tokens_success": 1540.0,
        "avg_cost_all": "0.0016320000",
        "avg_cost_success": "0.0004140000"
      },
      "per_task": [
        {
          "task": "adder",
          "success": true,
          "queries_used": 7,
          "input_tokens": 1200,
          "output_tokens": 340,
          "cost_usd": "0.0004140000",
          "best_rank": 1.0,
          "category": "arithmetic",
          "subcategory": "adders"
        },
        {
          "task": "mux",
          "success": false,
          "queries_used": 55,
          "input_tokens": 9000,
          "output_tokens": 2500,
          "cost_usd": "0.00285",
          "best_rank": null,
          "category": null,
          "subcategory": null
        }
      ]
    }
  ]
}
"""

GOLDEN_CSV = (
    "num_candidates,max_depth,mode,schedule,task,success,queries_used,"
    "input_tokens,output_tokens,cost_usd,best_rank,category,subcategory\n"
    '5,10,full_context,"gpt-4o-mini@0, gpt-4o@final",adder,true,7,1200,340,0.0004140000,1.0,arithmetic,adders\n'
    '5,10,full_context,"gpt-4o-mini@0, gpt-4o@final",mux,false,55,9000,2500,0.00285,,,\n'
)


def _load_from_text(text: str, format: ReportFormat):
    import tempfile

    with tempfile.NamedTemporaryFile(
        "w", suffix=f".{format.value}", delete=False
    ) as handle:
        handle.write(text)
        name = handle.name
    try:
        return load_report(name, format)
    finally:
        Path(name).unlink()
