"""Suite loading, grid runs, success math, Pareto, report round-trips."""

from __future__ import annotations

import _thread
import itertools
import json
import math
import sys
import tempfile
import threading
import time
import warnings
from collections import Counter
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdlsmith import bench
from hdlsmith.backends import DEFAULT_MOCK_REPLY, MockBackend, TransportError
from hdlsmith.bench import (
    EmptySuiteError,
    GridPoint,
    ParetoPoint,
    ReportFormat,
    SuiteParams,
    SuiteResult,
    TaskRow,
    average_cost,
    average_tokens,
    export_report,
    load_report,
    load_suite,
    pareto_front,
    render_report,
    run_suite,
    success_percent,
    suite_pareto_point,
)
from hdlsmith.core import DesignTask, Termination, TokenUsage
from hdlsmith.edatools import ToolIoError, ToolNotFoundError
from hdlsmith.faketools import offline_evaluate, passing_reply, reply_with_module
from hdlsmith.prompts import FeedbackMode, estimate_tokens
from hdlsmith.search import ModelSchedule, ScheduleEntry, SearchConfig, run_search
from hdlsmith.backends import lookup_model

pytestmark = pytest.mark.usefixtures("no_thread_leak")


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

    def test_prompt_that_is_not_utf8_is_skipped_with_warning(self, tmp_path):
        suite = make_suite_dir(tmp_path)
        (suite / "bad_prompt.sv").write_bytes(b"\xff// implement bad\nmodule bad();")
        (suite / "bad_tb.sv").write_text("module tb(); endmodule", encoding="utf-8")
        with pytest.warns(UserWarning, match="suite task 'bad' skipped: 'utf-8' codec can't decode"):
            tasks = load_suite(suite)
        assert [t.name for t in tasks] == ["adder", "counter", "mux"]

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

    @pytest.mark.parametrize(
        "grid, points",
        [
            ([GridPoint(1, 0)] * 2, [(1, 0)]),
            ([GridPoint(1, 1), GridPoint(2, 0), GridPoint(1, 1), GridPoint(2, 0)], [(1, 1), (2, 0)]),
        ],
        ids=["one point twice", "two points twice"],
    )
    def test_repeated_grid_point_is_one_result(self, tmp_path, grid, points):
        # Each point is reported once, at its first place, and round-trips.
        results = run_suite(
            load_suite(make_suite_dir(tmp_path)), grid, self.schedule(), {"mock": MockBackend({})},
            evaluator=offline_evaluate, workdir=tmp_path / "work",
        )
        assert [(r.params.num_candidates, r.params.max_depth) for r in results] == points
        for fmt in ReportFormat:
            assert load_report(export_report(results, fmt, tmp_path / f"report.{fmt.value}")) == results

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

    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_task_failure_ends_the_sweep(self, tmp_path, monkeypatch, parallelism):
        tasks = load_suite(make_suite_dir(tmp_path, stems=("a0", "a1", "a2", "a3", "a4", "a5")))
        failure = threading.Event()
        late, stops = [], []

        def spy(*args, **kwargs):
            stops.append(kwargs["stop"])
            return run_search(*args, **kwargs)

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
                # once its error has stopped the sweep, while a3 and later
                # are still queued.
                stops[0].wait(timeout=10)
            return offline_evaluate(text, task, workdir, timeout)

        monkeypatch.setattr(bench, "run_search", spy)
        backend = Spy({})
        with pytest.raises(RuntimeError, match="tool exploded"):
            run_suite(
                tasks, [GridPoint(2, 1)], self.schedule(), {"mock": backend},
                evaluator=evaluator, workdir=tmp_path / "work", parallelism=parallelism,
            )
        # No search starts after one has raised.
        assert late == []
        assert {c.task_name for c in backend.calls} == {"a0", "a1", "a2"}

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

    def test_interrupt_while_a_worker_starts_waits_for_its_search(self, tmp_path, monkeypatch):
        # The interrupt lands in start(), just after the worker running a0 has
        # started and before start() has returned.
        tasks = load_suite(make_suite_dir(tmp_path, stems=("a0",)))
        at_depth_1 = threading.Event()
        stops, finished = [], []
        real_start = threading.Thread.start

        def start(thread):
            real_start(thread)
            if thread.name.startswith("hdlsmith-sweep-"):
                at_depth_1.wait(timeout=10)
                raise KeyboardInterrupt

        def spy(*args, **kwargs):
            stops.append(kwargs["stop"])
            return run_search(*args, **kwargs)

        def evaluator(text, task, workdir, timeout):
            if "iter1" in workdir.parts:
                at_depth_1.set()
                stops[0].wait(timeout=10)
                time.sleep(0.2)
                finished.append(task.name)
            return offline_evaluate(text, task, workdir, timeout)

        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(bench, "run_search", spy)
        with pytest.raises(KeyboardInterrupt):
            run_suite(
                tasks, [GridPoint(1, 5)], self.schedule(), {"mock": MockBackend({})},
                evaluator=evaluator, workdir=tmp_path / "work",
            )
        assert finished == ["a0"]

    @pytest.mark.parametrize(
        "grid, stems, error",
        [([], ("adder",), ValueError), ([GridPoint(1, 1)], (), EmptySuiteError)],
        ids=["empty grid", "no tasks"],
    )
    def test_nothing_to_run_raises_before_any_search(self, tmp_path, grid, stems, error):
        tasks = load_suite(make_suite_dir(tmp_path)) if stems else []
        backend = MockBackend({})
        with pytest.raises(error):
            run_suite(
                tasks, grid, self.schedule(), {"mock": backend},
                evaluator=offline_evaluate, workdir=tmp_path / "work",
            )
        assert backend.calls == []
        assert not (tmp_path / "work").exists()

    def test_repeated_task_name_raises_before_any_search(self, tmp_path):
        # Both searches would write the one k1_d0_succinct/adder folder.
        tasks = [
            DesignTask("adder", f"// implement adder {n}\nmodule adder();", "module tb(); endmodule")
            for n in range(2)
        ]
        backend = MockBackend({})
        with pytest.raises(ValueError, match="task names must be unique, repeated: adder"):
            run_suite(
                tasks, [GridPoint(1, 0)], self.schedule(), {"mock": backend},
                evaluator=offline_evaluate, workdir=tmp_path / "work", parallelism=2,
            )
        assert backend.calls == []
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("nested", [False, True], ids=["workdir", "folder above it"])
    def test_workdir_that_is_a_file_raises_before_any_search(self, tmp_path, nested):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        backend = MockBackend({})
        with pytest.raises(NotADirectoryError) as info:
            run_suite(
                load_suite(make_suite_dir(tmp_path)), [GridPoint(3, 0)], self.schedule(), {"mock": backend},
                evaluator=offline_evaluate, workdir=blocker / "sub" if nested else blocker,
            )
        assert info.value.filename == str(blocker)
        assert backend.calls == []

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
        [[GridPoint(1, 2), GridPoint(0, 1)], [GridPoint(1, 3), GridPoint(1, -1)], [GridPoint(1, 1, "succinct")]],
        ids=["k=0", "d=-1 under a deeper d", "mode a string"],
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

    @pytest.mark.parametrize("sim_timeout", [math.nan, math.inf, 0, -1, 10**400],
                             ids=["nan", "inf", "0", "-1", "10**400"])
    def test_bad_sim_timeout_raises_before_any_search(self, tmp_path, sim_timeout):
        # Unchecked, NaN or inf would fail in the simulator after a billed
        # query, and 0 or -1 would time out every simulation as 0% success;
        # 10**400 is too large for a float.
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

    def test_reused_workdir_holds_only_the_last_sweep(self, tmp_path):
        tasks = load_suite(make_suite_dir(tmp_path))
        work, fresh = tmp_path / "work", tmp_path / "fresh"
        for folder in ("notes", "k1_d1_notes", "k01_d1_succinct", "k\u0661_d\u0661_succinct"):
            (work / folder).mkdir(parents=True)
        (work / "k1_d1_succinct.txt").write_text("not a tree")

        def sweep(tasks, grid, workdir, evaluator=offline_evaluate):
            run_suite(tasks, grid, self.schedule(), {"mock": MockBackend({})},
                      evaluator=evaluator, workdir=workdir)
            return sorted(str(p.relative_to(workdir)) for p in workdir.rglob("*"))

        sweep(tasks, [GridPoint(1, 2), GridPoint(2, 1)], work)
        # A smaller suite at one of the same trees, and one tree fewer.
        last = sweep(tasks[:1], [GridPoint(1, 1), GridPoint(1, 2)], work)
        unrelated = ["k01_d1_succinct", "k1_d1_notes", "k1_d1_succinct.txt", "k\u0661_d\u0661_succinct", "notes"]
        assert [p for p in last if p not in unrelated] == sweep(tasks[:1], [GridPoint(1, 2)], fresh)
        assert set(unrelated) < set(last)

        def evaluator(text, task, workdir, timeout):
            raise ToolIoError("disk full")

        # A sweep that raises removes no tree.
        with pytest.raises(ToolIoError):
            sweep(tasks, [GridPoint(1, 0)], work, evaluator)
        assert (work / "k1_d2_succinct" / "adder" / "iter2").is_dir()

    def test_stale_tree_link_is_unlinked_and_its_target_kept(self, tmp_path):
        tasks = load_suite(make_suite_dir(tmp_path))[:1]
        work, target = tmp_path / "work", tmp_path / "elsewhere"
        (target / "adder").mkdir(parents=True)
        (target / "adder" / "notes.txt").write_text("mine")
        work.mkdir()
        (work / "k2_d1_succinct").symlink_to(target, target_is_directory=True)
        backend = MockBackend({})
        results = run_suite(tasks, [GridPoint(1, 1)], self.schedule(), {"mock": backend},
                            evaluator=offline_evaluate, workdir=work)
        assert len(backend.calls) == 2 and len(results) == 1
        assert not (work / "k2_d1_succinct").is_symlink()
        assert (target / "adder" / "notes.txt").read_text() == "mine"

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

    def test_each_search_runs_once_under_fast_thread_switching(self, tmp_path):
        # More workers than cores take the searches from one shared order.
        tasks = load_suite(make_suite_dir(tmp_path, stems=tuple(f"t{i}" for i in range(8))))
        backend = MockBackend({})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = run_suite(
                tasks, [GridPoint(1, 2), GridPoint(2, 1)], self.schedule(), {"mock": backend},
                evaluator=offline_evaluate, parallelism=6,
            )
        finally:
            sys.setswitchinterval(interval)
        # Every reply is a no-module one, so each search runs to its last depth.
        assert Counter((c.task_name, c.num_candidates, c.depth) for c in backend.calls) == {
            (t.name, k, depth): 1 for t in tasks for k, d in ((1, 2), (2, 1)) for depth in range(d + 1)
        }
        assert [[row.task_name for row in result.per_task] for result in results] == [[t.name for t in tasks]] * 2
        assert [row.queries_used for result in results for row in result.per_task] == [3] * 8 + [4] * 8


def reference_sweep(tasks, grid, schedule, outdir: Path, backend: MockBackend) -> list[SuiteResult]:
    """The naive sweep: one search per task per grid point, summarized here."""
    results = []
    for point in grid:
        rows = []
        for task in tasks:
            cfg = SearchConfig(point.num_candidates, point.max_depth, point.mode,
                               outdir=outdir / f"{point}" / task.name)
            trace = run_search(task, cfg, schedule, {"mock": backend},
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
                trace.backend_error,
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
        reference = reference_sweep(tasks, SWEEP_GRID, schedule, tmp_path / "reference", sweep_backend())
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

    def test_final_model_searches_start_in_grid_order(self, tmp_path):
        # Each row is its own group, so its searches start in grid order
        # (d=3, 0, 1), not by d, and send the naive sweep's requests in order.
        tasks = load_suite(make_suite_dir(tmp_path))
        grid = [GridPoint(1, d) for d in (3, 0, 1)]
        backend, naive = sweep_backend(), sweep_backend()
        results = run_suite(tasks, grid, FINAL_MODEL_SCHEDULE, {"mock": backend},
                            evaluator=offline_evaluate, parallelism=1)
        reference = reference_sweep(tasks, grid, FINAL_MODEL_SCHEDULE, tmp_path / "reference", naive)
        assert render_report(results, ReportFormat.JSON) == render_report(reference, ReportFormat.JSON)
        # Each depth-0 call starts a search: the depths each search sent, in
        # start order, are d + 1 for adder and mux, 1 for counter (it passes).
        starts = [i for i, call in enumerate(backend.calls) if call.depth == 0]
        sent = [end - start for start, end in zip(starts, starts[1:] + [len(backend.calls)])]
        assert sent == [4, 1, 4] + [1, 1, 1] + [2, 1, 2]
        assert backend.calls == naive.calls

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


PROPERTY_TASKS = tuple(DesignTask(name, f"// implement {name}\nmodule {name}();", "module tb(); endmodule")
                       for name in ("t0", "t1"))
# Each reply's eda directive; None is a reply with no module.
PROPERTY_REPLIES = ("pass", "compile-error", *(f"mismatches={n} samples=10" for n in (1, 5, 9)), None, "hang")
PROPERTY_KEYS = [(task.name, depth, index) for task in PROPERTY_TASKS for depth in range(5) for index in range(3)]

NEVER_PASSES = {key: reply_with_module("mismatches=5 samples=10", key[0]) for key in PROPERTY_KEYS}


class WindowBilledBackend(MockBackend):
    """Mock replies billed by the size of the window they answer, so rows
    that read another mode's search differ in tokens; a call at a ``faults``
    key ``(task, depth, model)`` raises ``TransportError`` after it is recorded."""

    def __init__(self, script, faults=frozenset()):
        super().__init__(script)
        self.faults = faults

    def generate(self, req):
        replies = super().generate(req)
        if (req.task_name, req.depth, req.model.model_id) in self.faults:
            raise TransportError("scripted outage")
        usage = TokenUsage(estimate_tokens(req.conversation), 45)
        return tuple((text, usage) for text, _ in replies)


@st.composite
def sweep_cases(draw):
    kinds = draw(st.lists(st.sampled_from(PROPERTY_REPLIES), min_size=len(PROPERTY_KEYS), max_size=len(PROPERTY_KEYS)))
    script = {
        key: DEFAULT_MOCK_REPLY if kind is None else reply_with_module(kind, key[0])
        for key, kind in zip(PROPERTY_KEYS, kinds)
    }
    point = st.builds(GridPoint, st.integers(1, 3), st.integers(0, 4), st.sampled_from(list(FeedbackMode)))
    grid = draw(st.lists(point, min_size=1, max_size=6))
    schedule = draw(st.sampled_from([ModelSchedule.single(PRICED_MOCK), FINAL_MODEL_SCHEDULE]))
    parallelism = draw(st.sampled_from([1, 3]))
    models = sorted({schedule.model(i, 4).model_id for i in range(5)})
    names = [task.name for task in PROPERTY_TASKS]
    faults = draw(st.sets(st.tuples(st.sampled_from(names), st.integers(0, 4), st.sampled_from(models)), max_size=2))
    return script, grid, schedule, parallelism, faults


class TestSweepEqualsNaiveSweep:
    """Whatever searches a sweep shares, its report is that of one search
    per row and task, and it sends no request the naive sweep would not."""

    @given(case=sweep_cases())
    # A backend error one and two depths after shallower rows' depths, and
    # rows whose (k, mode) groups differ only in mode or only in k, are
    # always among the cases.
    @example(case=(NEVER_PASSES, [GridPoint(1, d) for d in (0, 1, 2)], ModelSchedule.single(PRICED_MOCK), 1,
                   {("t1", 2, PRICED_MOCK.model_id)}))
    @example(case=(NEVER_PASSES, [GridPoint(2, 4, mode) for mode in FeedbackMode] + [GridPoint(1, 3)],
                   ModelSchedule.single(PRICED_MOCK), 3, set()))
    @settings(max_examples=60, deadline=None)
    def test_report_equals_naive_sweep(self, case):
        script, grid, schedule, parallelism, faults = case
        backend, naive = WindowBilledBackend(script, faults), WindowBilledBackend(script, faults)
        results = run_suite(PROPERTY_TASKS, grid, schedule, {"mock": backend},
                            evaluator=offline_evaluate, parallelism=parallelism)
        with tempfile.TemporaryDirectory() as outdir:
            # A repeated grid point is reported once.
            reference = reference_sweep(PROPERTY_TASKS, list(dict.fromkeys(grid)), schedule, Path(outdir), naive)
        assert render_report(results, ReportFormat.JSON) == render_report(reference, ReportFormat.JSON)
        # A report has no column for a backend error, so it is compared here.
        assert [row.backend_error for result in results for row in result.per_task] == [
            row.backend_error for result in reference for row in result.per_task
        ]
        assert len(backend.calls) <= len(naive.calls)

    @given(case=sweep_cases(), fault=st.sampled_from(PROPERTY_KEYS))
    @settings(max_examples=40, deadline=None)
    def test_evaluator_fault_ends_the_sweep(self, case, fault):
        script, grid, schedule, parallelism, _ = case
        backend = WindowBilledBackend(script)
        calls_at_fault = []

        def evaluator(text, task, workdir, timeout):
            if (task.name, *workdir.parts[-2:]) == (fault[0], f"iter{fault[1]}", f"response{fault[2]}"):
                calls_at_fault.append(len(backend.calls))
                raise ToolIoError("disk full")
            return offline_evaluate(text, task, workdir, timeout)

        threads = threading.active_count()
        try:
            run_suite(PROPERTY_TASKS, grid, schedule, {"mock": backend},
                      evaluator=evaluator, parallelism=parallelism)
        except ToolIoError:
            assert calls_at_fault
            if parallelism == 1:
                assert len(backend.calls) == calls_at_fault[0]
        else:
            assert not calls_at_fault
        assert threading.active_count() == threads


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

    def test_unknown_metric_is_rejected(self):
        with pytest.raises(ValueError, match="unknown pareto metric 'steps'"):
            suite_pareto_point(make_result([True]), metric="steps")

    def test_no_successes_yields_no_point(self):
        result = make_result([False])
        assert suite_pareto_point(result, metric="cost", successes_only=True) is None


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

    @pytest.mark.parametrize("format, name", [
        (ReportFormat.CSV, "r.json"), (ReportFormat.CSV, "report"), (ReportFormat.JSON, "r.CSV"),
    ])
    def test_format_the_path_contradicts_is_refused(self, tmp_path, format, name):
        # load_report reads a report by its suffix alone.
        with pytest.raises(ValueError, match="report, not a"):
            export_report([make_result([True])], format, tmp_path / name)
        assert list(tmp_path.iterdir()) == []

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
        return load_report(name)
    finally:
        Path(name).unlink()
