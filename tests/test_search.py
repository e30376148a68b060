"""Greedy tree search: budgets, early exit, scheduling, determinism."""

from __future__ import annotations

import io
import os
import sys
import tempfile
import threading
import time
from dataclasses import replace
from decimal import Decimal
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdlsmith.backends import (
    BackendError,
    ChatCompletionsBackend,
    ContextOverflowError,
    MessagesBackend,
    MockBackend,
    RetryPolicy,
    TransportError,
    lookup_model,
)
from hdlsmith.core import (
    DesignTask,
    ModelSpec,
    OutcomeKind,
    Termination,
    TokenUsage,
    candidate_order_key,
    compute_cost,
)
from hdlsmith.edatools import CompileResult, ProcessRun, ToolIoError, evaluate
from hdlsmith.extract import extract_module
from hdlsmith.faketools import fake_compile, offline_evaluate, passing_reply, reply_with_module
from hdlsmith.prompts import (
    EMPTY_REPLY_PLACEHOLDER,
    NO_MODULE_FEEDBACK,
    FeedbackMode,
    Role,
    estimate_tokens,
    initial_conversation,
    system_prompt,
)
from hdlsmith.runcfg import scan_output_tree, trace_shape, write_run_log
from hdlsmith.search import (
    ModelSchedule,
    NoBackendError,
    ScheduleEntry,
    SearchConfig,
    pass_at_budget,
    run_search,
)

MOCK_MODEL = lookup_model("mock")

pytestmark = pytest.mark.usefixtures("no_thread_leak")


def single_schedule() -> ModelSchedule:
    return ModelSchedule.single(MOCK_MODEL)


def search_config(k, d, tmp_path, mode=FeedbackMode.SUCCINCT) -> SearchConfig:
    return SearchConfig(
        num_candidates=k, max_depth=d, feedback_mode=mode,
        sim_timeout=60.0, outdir=tmp_path / "out",
    )


def run_mock_search(task, tmp_path, *, k, d, script=None, backend=None,
                    mode=FeedbackMode.SUCCINCT, schedule=None, evaluator=offline_evaluate):
    backend = backend if backend is not None else MockBackend(script or {})
    trace = run_search(
        task,
        search_config(k, d, tmp_path, mode),
        schedule or single_schedule(),
        {"mock": backend},
        evaluator=evaluator,
    )
    return trace, backend


class TestScheduleModels:
    def test_final_model_serves_only_the_final_iteration(self):
        a, b = lookup_model("a"), lookup_model("b")
        sched = ModelSchedule((ScheduleEntry(0, a),), final=b)
        assert sched.models(10) == [a] * 10 + [b]

    def test_single_model_everywhere(self):
        a = lookup_model("a")
        sched = ModelSchedule.single(a)
        assert sched.models(5) == [a] * 6

    @given(
        starts=st.sets(st.integers(1, 14), max_size=4),
        has_final=st.booleans(),
        d=st.integers(0, 12),
        data=st.data(),
    )
    def test_staged_entries_match_linear_scan_oracle(self, starts, has_final, d, data):
        starts = data.draw(st.permutations([0, *starts]))  # in any order
        entries = tuple(ScheduleEntry(start, lookup_model(f"m{start}")) for start in starts)
        final = lookup_model("final") if has_final else None
        sched = ModelSchedule(entries, final)

        def oracle(iteration):
            if final is not None and iteration == d > 0:
                return final
            chosen = None
            for entry in entries:
                if entry.start_iteration <= iteration:
                    if chosen is None or entry.start_iteration > chosen.start_iteration:
                        chosen = entry
            return chosen.model

        assert sched.models(d) == [oracle(i) for i in range(d + 1)]

    def test_final_model_never_serves_depth_zero(self):
        a, b = lookup_model("a"), lookup_model("b")
        sched = ModelSchedule((ScheduleEntry(0, a),), final=b)
        assert sched.models(0) == [a]

    def test_schedule_invariants(self):
        a, b = lookup_model("a"), lookup_model("b")
        with pytest.raises(ValueError):
            ModelSchedule((ScheduleEntry(1, a),))  # no start-0 entry
        with pytest.raises(ValueError):
            ModelSchedule((ScheduleEntry(0, a), ScheduleEntry(0, b)))
        with pytest.raises(ValueError):
            ModelSchedule((ScheduleEntry(0, a), ScheduleEntry(-1, b)))

    def test_describe_lists_entries_in_start_order_then_final(self):
        entries = [(4, "gpt-4o"), (0, "gpt-3.5-turbo"), (2, "gpt-4o-mini")]
        sched = ModelSchedule(
            tuple(ScheduleEntry(start, lookup_model(m)) for start, m in entries), lookup_model("gpt-4-turbo")
        )
        assert sched.describe() == "gpt-3.5-turbo@0, gpt-4o-mini@2, gpt-4o@4, gpt-4-turbo@final"

    def test_no_backend_error_is_a_key_error(self):
        model = lookup_model("x", "foo")
        with pytest.raises(KeyError) as info:
            ModelSchedule((ScheduleEntry(0, MOCK_MODEL),), model).check_backends({"mock": MockBackend({})})
        assert type(info.value) is NoBackendError and info.value.model is model
        assert str(info.value) == "no backend registered for model family 'foo'"



class TestBudgets:
    def test_early_exit_at_depth_zero(self, task, tmp_path):
        script = {("top_module", 0, 1): passing_reply()}
        trace, _ = run_mock_search(task, tmp_path, k=2, d=10, script=script)
        assert trace.termination is Termination.ALL_TESTS_PASSED
        assert pass_at_budget(trace) == (2, True)

    @pytest.mark.parametrize("k,d,expected", [(1, 5, 6), (5, 10, 55), (5, 0, 5)])
    def test_never_passing_consumes_full_budget(self, task, tmp_path, k, d, expected):
        trace, _ = run_mock_search(task, tmp_path, k=k, d=d)
        assert trace.termination is Termination.MAX_DEPTH_REACHED
        assert pass_at_budget(trace) == (expected, False)

    def test_pass_at_depth_three(self, task, tmp_path):
        script = {("top_module", 3, 2): passing_reply()}
        trace, _ = run_mock_search(task, tmp_path, k=5, d=10, script=script)
        assert pass_at_budget(trace) == (20, True)
        assert trace.best_overall == (3, 2)
        assert trace.best().rank.value == 1.0

    @given(
        k=st.integers(min_value=1, max_value=3),
        d=st.integers(min_value=0, max_value=3),
        pass_depth=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    )
    @settings(max_examples=20, deadline=None)
    def test_budget_bound(self, k, d, pass_depth, tmp_path_factory):
        task = DesignTask("top_module", "design prompt", "module tb(); endmodule")
        tmp_path = tmp_path_factory.mktemp("budget")
        script = {}
        if pass_depth is not None:
            script[("top_module", pass_depth, k - 1)] = passing_reply()
        trace, _ = run_mock_search(task, tmp_path, k=k, d=d, script=script)
        used, success = pass_at_budget(trace)
        assert used <= k * (d + 1)
        # Budget equality holds exactly when no depth before the last one
        # passed: a final-depth pass saves nothing under batch-then-check.
        assert (used == k * (d + 1)) == (pass_depth is None or pass_depth >= d)
        assert success == (pass_depth is not None and pass_depth <= d)


class TestTraceShape:
    def test_chosen_index_is_argmax_with_tie_breaks(self, task, tmp_path):
        script = {
            ("top_module", 0, 0): reply_with_module("mismatches=5 samples=10"),
            ("top_module", 0, 1): reply_with_module("mismatches=2 samples=10"),
            ("top_module", 0, 2): reply_with_module("mismatches=2 samples=10"),
        }
        trace, _ = run_mock_search(task, tmp_path, k=3, d=0, script=script)
        node = trace.nodes[0]
        assert node.chosen_index == 1  # rank tie between 1 and 2 breaks low
        best_key = min(candidate_order_key(c) for c in node.candidates)
        assert candidate_order_key(node.chosen) == best_key

    def test_best_overall_dominates_every_candidate(self, task, tmp_path):
        script = {
            ("top_module", 1, 0): reply_with_module("mismatches=1 samples=10"),
            ("top_module", 2, 1): reply_with_module("mismatches=4 samples=10"),
        }
        trace, _ = run_mock_search(task, tmp_path, k=2, d=2, script=script)
        best = trace.best()
        assert all(best.rank.value >= c.rank.value for c in trace.all_candidates())
        assert trace.best_overall == (1, 0)

    def test_running_best_rank_is_nondecreasing(self, task, tmp_path):
        script = {
            ("top_module", 0, 0): reply_with_module("mismatches=9 samples=10"),
            ("top_module", 1, 0): reply_with_module("mismatches=6 samples=10"),
            ("top_module", 2, 0): reply_with_module("compile-error"),
            ("top_module", 3, 0): reply_with_module("mismatches=1 samples=10"),
        }
        trace, _ = run_mock_search(task, tmp_path, k=1, d=3, script=script)
        running = []
        best = None
        for node in trace.nodes:
            for cand in node.candidates:
                if best is None or cand.rank.value > best:
                    best = cand.rank.value
                running.append(best)
        assert running == sorted(running)

    def test_ledger_covers_every_candidate(self, task, tmp_path):
        trace, _ = run_mock_search(task, tmp_path, k=3, d=2)
        assert len(trace.ledger.entries) == 9
        totals = trace.ledger.totals
        assert totals.input_tokens == 9 * 100
        assert totals.cost_usd == Decimal(0)  # mock model is unpriced

    def test_extraction_runs_once_per_candidate(self, task, tmp_path, monkeypatch):
        calls = []

        def counting_extract(raw):
            calls.append(raw)
            return extract_module(raw)

        for name, module in list(sys.modules.items()):
            if name.startswith("hdlsmith") and getattr(module, "extract_module", None) is extract_module:
                monkeypatch.setattr(module, "extract_module", counting_extract)
        script = {
            ("top_module", 0, 0): reply_with_module("mismatches=5 samples=10"),
            ("top_module", 0, 1): reply_with_module("compile-error"),
            ("top_module", 1, 2): reply_with_module("mismatches=1 samples=10", fenced=False),
        }
        trace, _ = run_mock_search(task, tmp_path, k=3, d=1, script=script)
        assert len(trace.all_candidates()) == 6
        assert len(calls) == 6

    def test_empty_reply_is_a_no_module_candidate(self, task, tmp_path):
        backend = MockBackend({}, default_reply="")
        trace, _ = run_mock_search(task, tmp_path, k=2, d=2, backend=backend)
        assert trace.termination is Termination.MAX_DEPTH_REACHED
        kinds = [c.outcome.kind for c in trace.all_candidates()]
        assert kinds == [OutcomeKind.NO_MODULE] * 6
        window = backend.calls[1].conversation.messages
        assert window[-2].content == EMPTY_REPLY_PLACEHOLDER
        assert window[-1].content == NO_MODULE_FEEDBACK

    def test_determinism_two_runs_identical(self, task, tmp_path):
        script = {("top_module", 2, 0): passing_reply()}
        trace_a, _ = run_mock_search(task, tmp_path / "a", k=2, d=5, script=script)
        trace_b, _ = run_mock_search(task, tmp_path / "b", k=2, d=5, script=script)
        assert trace_a == trace_b
        log_a, log_b = io.StringIO(), io.StringIO()
        write_run_log(trace_a, log_a)
        write_run_log(trace_b, log_b)
        assert log_a.getvalue() == log_b.getvalue()


class TestConversationFlow:
    def test_succinct_window_shapes_per_iteration(self, task, tmp_path):
        _, backend = run_mock_search(task, tmp_path, k=1, d=5)
        assert len(backend.calls) == 6
        assert len(backend.calls[0].conversation.messages) == 2
        for call in backend.calls[1:]:
            roles = [m.role for m in call.conversation.messages]
            assert roles == [Role.SYSTEM, Role.USER, Role.ASSISTANT, Role.USER]
            assert call.conversation.messages[1].content == task.prompt_text

    def test_full_context_grows_with_depth(self, task, tmp_path):
        _, backend = run_mock_search(task, tmp_path, k=1, d=5, mode=FeedbackMode.FULL_CONTEXT)
        for n, call in enumerate(backend.calls):
            assert len(call.conversation.messages) == 2 + 2 * n

    def test_feedback_provenance(self, task, tmp_path):
        script = {
            ("top_module", 0, 0): reply_with_module("mismatches=3 samples=9"),
            ("top_module", 0, 1): reply_with_module("mismatches=6 samples=9"),
        }
        trace, backend = run_mock_search(task, tmp_path, k=2, d=1, script=script)
        chosen = trace.nodes[0].chosen
        sent = backend.calls[1].conversation.messages
        assert sent[-1].content == chosen.outcome.feedback
        assert sent[-2].content == chosen.raw_text

    def test_crash_output_on_one_line_fits_the_next_window(self, task, tmp_path):
        # A simulation printing 1 MiB without a newline is fed back as its tail.
        def flood(artifact_path, timeout):
            return ProcessRun(None, "x" * (1 << 20), "", 1)

        def evaluator(text, task, workdir, timeout):
            return evaluate(text, task, workdir, timeout, compile_fn=fake_compile, simulate_fn=flood)

        trace, backend = run_mock_search(
            task, tmp_path, k=1, d=1, script={("top_module", 0, 0): reply_with_module()}, evaluator=evaluator
        )
        assert trace.nodes[0].chosen.outcome.kind is OutcomeKind.SIM_CRASH_OR_TIMEOUT
        assert estimate_tokens(backend.calls[1].conversation) < MOCK_MODEL.max_context_tokens

    @pytest.mark.parametrize("kind", [OutcomeKind.COMPILE_ERROR, OutcomeKind.SIMULATED])
    def test_thousands_of_diagnostics_fit_the_next_window(self, task, tmp_path, kind):
        # 8,000 compile errors or Hint lines, about 1 MB, are under OUTPUT_CAP.
        lines = tuple(f"top_module.sv:1: error: {'e' * 100} {n}" for n in range(8000))
        hints = "".join(f"Hint: Output 'out' has {n} mismatches. {'h' * 100}\n" for n in range(8000))

        def compile_fn(module_src, testbench_src, workdir, top_name):
            if kind is OutcomeKind.COMPILE_ERROR:
                return CompileResult(tuple(("error", line) for line in lines), None)
            return CompileResult((), workdir / f"{top_name}.vvp")

        def simulate_fn(artifact_path, timeout):
            return ProcessRun(0, hints + "Mismatches: 8000 in 9000 samples\n", "")

        def evaluator(text, task, workdir, timeout):
            return evaluate(text, task, workdir, timeout, compile_fn=compile_fn, simulate_fn=simulate_fn)

        mini = lookup_model("gpt-4o-mini", family="mock")
        trace, backend = run_mock_search(
            task, tmp_path, k=1, d=1, script={("top_module", 0, 0): reply_with_module()},
            schedule=ModelSchedule.single(mini), evaluator=evaluator,
        )
        assert trace.nodes[0].chosen.outcome.kind is kind
        assert estimate_tokens(backend.calls[1].conversation) < mini.max_context_tokens

    def test_lone_surrogate_becomes_replacement_character_once(self, task, tmp_path):
        # JSON "\ud800" decodes to a lone surrogate, which UTF-8 cannot encode.
        reply = reply_with_module("mismatches=3 samples=9").replace("endmodule", "// \ud800\nendmodule")
        trace, backend = run_mock_search(task, tmp_path, k=1, d=1, script={("top_module", 0, 0): reply})
        chosen = trace.nodes[0].chosen
        assert chosen.raw_text == reply.replace("\ud800", "\ufffd")
        assert backend.calls[1].conversation.messages[-2].content == chosen.raw_text
        written = tmp_path / "out" / "iter0" / "response0" / "top_module.sv"
        assert written.read_text(encoding="utf-8") == chosen.module_src
        assert "// \ufffd" in chosen.module_src

    def test_reply_without_surrogates_is_kept_as_sent(self, task, tmp_path):
        reply = reply_with_module("mismatches=3 samples=9") + " \U0001f600 \ufffd \x00"
        trace, _ = run_mock_search(task, tmp_path, k=1, d=0, script={("top_module", 0, 0): reply})
        assert trace.nodes[0].chosen.raw_text == reply

    def test_context_fallback_when_history_exceeds_window(self, task, tmp_path):
        tiny = lookup_model("tiny-context")
        tiny = type(tiny)(tiny.family, tiny.model_id, tiny.price_in, tiny.price_out, 60)
        trace, backend = run_mock_search(
            task, tmp_path, k=1, d=3, mode=FeedbackMode.FULL_CONTEXT,
            schedule=ModelSchedule.single(tiny),
        )
        assert any(node.context_fallback for node in trace.nodes)
        fallback_calls = [
            c for node, c in zip(trace.nodes, backend.calls) if node.context_fallback
        ]
        assert fallback_calls
        assert all(len(c.conversation.messages) == 4 for c in fallback_calls)


class TestMixedModelRuns:
    def small_big_schedule(self):
        small, big = lookup_model("small"), lookup_model("big")
        return ModelSchedule((ScheduleEntry(0, small),), final=big)

    def test_final_iteration_uses_big_model(self, task, tmp_path):
        trace, backend = run_mock_search(task, tmp_path, k=1, d=10, schedule=self.small_big_schedule())
        models = [call.model_id for call in backend.calls]
        assert models == ["small"] * 10 + ["big"]
        assert trace.nodes[-1].model_id == "big"

    def test_early_pass_never_reaches_big_model(self, task, tmp_path):
        script = {("top_module", 2, 0): passing_reply()}
        _, backend = run_mock_search(
            task, tmp_path, k=1, d=10, script=script, schedule=self.small_big_schedule()
        )
        assert [call.model_id for call in backend.calls] == ["small"] * 3


class _FailingBackend:
    def __init__(self, fail_at_depth, exc):
        self.fail_at_depth = fail_at_depth
        self.exc = exc
        self.inner = MockBackend({})

    def generate(self, req):
        if req.depth == self.fail_at_depth:
            raise self.exc
        return self.inner.generate(req)


class _OverflowOnceBackend:
    def __init__(self):
        self.inner = MockBackend({})
        self.overflowed = False
        self.calls = self.inner.calls

    def generate(self, req):
        if req.depth == 2 and not self.overflowed:
            self.overflowed = True
            raise ContextOverflowError("prompt is too long")
        return self.inner.generate(req)


class TestBackendFailures:
    def test_backend_error_preserves_partial_trace(self, task, tmp_path):
        backend = _FailingBackend(2, BackendError("boom"))
        trace = run_search(
            task, search_config(2, 5, tmp_path), single_schedule(),
            {"mock": backend}, evaluator=offline_evaluate,
        )
        assert trace.termination is Termination.BACKEND_ERROR
        assert len(trace.nodes) == 2
        assert pass_at_budget(trace) == (4, False)

    def test_error_at_depth_zero_yields_empty_trace(self, task, tmp_path):
        backend = _FailingBackend(0, BackendError("boom"))
        trace = run_search(
            task, search_config(1, 3, tmp_path), single_schedule(),
            {"mock": backend}, evaluator=offline_evaluate,
        )
        assert trace.best_overall is None
        assert trace.nodes == ()

    def test_provider_overflow_retries_with_succinct_window(self, task, tmp_path):
        backend = _OverflowOnceBackend()
        trace = run_search(
            task, search_config(1, 3, tmp_path, FeedbackMode.FULL_CONTEXT), single_schedule(),
            {"mock": backend}, evaluator=offline_evaluate,
        )
        assert trace.termination is Termination.MAX_DEPTH_REACHED
        assert trace.nodes[2].context_fallback
        assert len(backend.calls[2].conversation.messages) == 4

    def test_missing_family_is_a_configuration_error(self, task, tmp_path):
        with pytest.raises(KeyError):
            run_search(
                task, search_config(1, 0, tmp_path), single_schedule(),
                {}, evaluator=offline_evaluate,
            )

    @pytest.mark.parametrize("d", [3, 0])
    def test_missing_final_family_raises_before_any_request(self, task, tmp_path, d):
        # The final model serves only depth 3, or no depth at d=0, yet nothing is paid for.
        sched = ModelSchedule((ScheduleEntry(0, MOCK_MODEL),), final=lookup_model("x", "foo"))
        backend = MockBackend({})
        with pytest.raises(NoBackendError, match="no backend registered for model family 'foo'"):
            run_search(
                task, search_config(2, d, tmp_path), sched, {"mock": backend},
                evaluator=offline_evaluate,
            )
        assert backend.calls == []

    def test_any_registered_family_is_served(self, task, tmp_path):
        # The registry alone decides which families exist.
        backend = MockBackend({("top_module", 1, 0): passing_reply()})
        trace = run_search(
            task, search_config(1, 2, tmp_path), ModelSchedule.single(lookup_model("m", "mylocal")),
            {"mylocal": backend}, evaluator=offline_evaluate,
        )
        assert trace.termination is Termination.ALL_TESTS_PASSED
        assert [node.model_family for node in trace.nodes] == ["mylocal", "mylocal"]
        assert len(backend.calls) == 2

    @pytest.mark.parametrize("model", ["gpt-4o-mini", "claude-3-haiku"])
    def test_every_family_gets_the_canonical_conversation(self, task, tmp_path, model):
        model = lookup_model(model)
        backend = MockBackend({})
        run_search(
            task, search_config(1, 1, tmp_path), ModelSchedule.single(model),
            {model.family: backend}, evaluator=offline_evaluate,
        )
        assert backend.calls[0].conversation == initial_conversation(task)
        assert [m.role for m in backend.calls[1].conversation.messages] == [
            Role.SYSTEM, Role.USER, Role.ASSISTANT, Role.USER,
        ]


class _ReturnOnlyBackend:
    """A third-party backend: returns its replies, never calls ``on_reply``."""

    def __init__(self, script):
        self.inner = MockBackend(script)

    def generate(self, req):
        return self.inner.generate(replace(req, on_reply=None))


class TestReplyHandOver:
    """Every reply is evaluated once, whether it is handed over or returned."""

    SCRIPT = {
        ("top_module", n // 3, n % 3): text
        for n, text in enumerate([
            reply_with_module("mismatches=4 samples=10"), "no module here", reply_with_module("hang"),
            reply_with_module("compile-error"), "", reply_with_module("mismatches=2 samples=10"),
            reply_with_module("warning"), reply_with_module("crash"), passing_reply(),
        ])
    }

    def test_returned_replies_match_handed_over_replies(self, task, tmp_path):
        threads = set()

        def evaluator(text, task, workdir, timeout):
            threads.add(threading.current_thread())
            return offline_evaluate(text, task, workdir, timeout)

        cfg = search_config(3, 2, tmp_path / "returned")
        returned = run_search(
            task, cfg, single_schedule(), {"mock": _ReturnOnlyBackend(self.SCRIPT)}, evaluator=evaluator
        )
        assert threads == {threading.current_thread()}
        handed, _ = run_mock_search(task, tmp_path / "handed", k=3, d=2, script=self.SCRIPT)
        assert returned == handed
        assert returned.ledger == handed.ledger
        assert returned.termination is Termination.ALL_TESTS_PASSED
        assert scan_output_tree(tmp_path / "returned" / "out") == scan_output_tree(tmp_path / "handed" / "out")
        logs = []
        for trace in (returned, handed):
            sink = io.StringIO()
            write_run_log(trace, sink)
            logs.append(sink.getvalue())
        assert logs[0] == logs[1]

    def test_first_evaluator_error_stops_the_depth(self, task, tmp_path):
        calls = []

        def evaluator(text, task, workdir, timeout):
            calls.append(workdir.name)
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            run_mock_search(task, tmp_path, k=3, d=1, evaluator=evaluator)
        assert calls == ["response0"]
        assert not (tmp_path / "out" / "iter0" / "response1").exists()


class _ScriptedFailureBackend:
    """A mock backend that raises at one depth: on every request there, or
    (``once``) only on the first, as a provider rejecting one long prompt."""

    def __init__(self, script, fail_at_depth, exc, once):
        self.inner = MockBackend(script)
        self.fail_at_depth, self.exc, self.once = fail_at_depth, exc, once
        self.failed = False

    def generate(self, req):
        if req.depth == self.fail_at_depth and not (self.once and self.failed):
            self.failed = True
            raise self.exc
        return self.inner.generate(req)


PREFIX_REPLIES = (
    passing_reply(),
    reply_with_module("mismatches=3 samples=10"),
    reply_with_module("mismatches=7 samples=10"),
    reply_with_module("compile-error"),
    reply_with_module("hang"),
    "I am unable to help with that request.",
    "",
)
PREFIX_FAILURES = (
    None,
    ("overflow", ContextOverflowError("prompt is too long"), False),
    ("overflow once", ContextOverflowError("prompt is too long"), True),
    ("transport", TransportError("connection reset"), False),
)


@st.composite
def prefix_cases(draw):
    k = draw(st.integers(1, 3))
    d = draw(st.integers(0, 4))
    replies = {
        ("top_module", depth, index): draw(st.sampled_from(PREFIX_REPLIES))
        for depth in range(d + 1)
        for index in range(k)
    }
    failure = draw(st.sampled_from(PREFIX_FAILURES))
    fail_at = draw(st.integers(0, d + 1))
    mode = draw(st.sampled_from(list(FeedbackMode)))
    # A small window makes full-context histories fall back to the succinct shape.
    window = draw(st.sampled_from([128_000, 120]))
    entries = [ScheduleEntry(0, ModelSpec("mock", "small", 0, 0, window))]
    if d > 0 and draw(st.booleans()):
        entries.append(ScheduleEntry(draw(st.integers(1, d)), lookup_model("later")))
    return k, d, replies, failure, fail_at, mode, ModelSchedule(tuple(entries))


class TestPrefixTraces:
    """``run_search(d).upto(d')`` is the trace of a depth-d' search."""

    @staticmethod
    def search(task, case, depth, outdir):
        k, _, replies, failure, fail_at, mode, schedule = case
        if failure is None:
            backend = MockBackend(replies)
        else:
            backend = _ScriptedFailureBackend(replies, fail_at, failure[1], failure[2])
        cfg = SearchConfig(num_candidates=k, max_depth=depth, feedback_mode=mode,
                           sim_timeout=60.0, outdir=outdir)
        return run_search(task, cfg, schedule, {"mock": backend}, evaluator=offline_evaluate)

    @given(case=prefix_cases())
    @settings(max_examples=60, deadline=None)
    def test_prefix_of_deep_search_equals_shallow_search(self, case, tmp_path_factory):
        task = DesignTask("top_module", "design prompt", "module tb(); endmodule")
        outdir = tmp_path_factory.mktemp("prefix")
        d = case[1]
        deep = self.search(task, case, d, outdir)
        assert deep.upto(d) == deep
        for shallow_d in range(d + 1):
            assert deep.upto(shallow_d) == self.search(task, case, shallow_d, outdir)

    @pytest.mark.parametrize("depth, termination", [
        (0, Termination.MAX_DEPTH_REACHED),
        (1, Termination.MAX_DEPTH_REACHED),
        (2, Termination.BACKEND_ERROR),
        (4, Termination.BACKEND_ERROR),
    ])
    def test_backend_error_after_prefix_is_not_inherited(self, task, tmp_path, depth, termination):
        def search(d):
            backend = _ScriptedFailureBackend({}, 2, BackendError("boom"), False)
            return run_search(task, search_config(1, d, tmp_path), single_schedule(),
                              {"mock": backend}, evaluator=offline_evaluate)

        prefix = search(4).upto(depth)
        assert prefix.termination is termination
        assert prefix == search(depth)

    def test_passed_prefix_keeps_its_termination(self, task, tmp_path):
        script = {("top_module", 1, 0): passing_reply()}
        trace, _ = run_mock_search(task, tmp_path, k=1, d=5, script=script)
        assert trace.upto(1) == trace
        assert trace.upto(0).termination is Termination.MAX_DEPTH_REACHED
        assert trace.upto(0).best_overall == (0, 0)
        assert pass_at_budget(trace.upto(0)) == (1, False)
        with pytest.raises(ValueError):
            trace.upto(-1)


def chat_payload(text, prompt_tokens=100, completion_tokens=100):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


def run_http_search(task, tmp_path, monkeypatch, transport, *, k, d, model=MOCK_MODEL,
                    evaluator=offline_evaluate, mode=FeedbackMode.SUCCINCT, attempts=1):
    """``run_search`` through a real chat-completions backend over ``transport``."""
    monkeypatch.setenv("OPENAI_API_KEY", "test-key")
    backend = ChatCompletionsBackend(
        transport=transport, retry=RetryPolicy(attempts=attempts), sleep=lambda _: None
    )
    return run_search(
        task, search_config(k, d, tmp_path, mode), ModelSchedule.single(model),
        {model.family: backend}, evaluator=evaluator,
    )


def delayed(evaluator, seconds):
    def evaluate(text, task, workdir, timeout):
        time.sleep(seconds)
        return evaluator(text, task, workdir, timeout)
    return evaluate


class TestArrivalEvaluation:
    """Replies from a fanned-out backend are evaluated as they arrive."""

    def test_one_slot_provider_matches_a_serial_mock_run(self, task, tmp_path, monkeypatch):
        # A provider that answers one request at a time hands the replies
        # over in the order a serial loop would index them.
        k, d = 3, 2
        texts = [
            reply_with_module("mismatches=4 samples=10"), "no module here", reply_with_module("hang"),
            reply_with_module("compile-error"), reply_with_module("mismatches=9 samples=10"), "",
            reply_with_module("warning"), passing_reply(), reply_with_module("crash"),
        ]
        replies = iter(texts)
        server = threading.Lock()

        def transport(url, headers, body):
            with server:
                time.sleep(0.02)
                return 200, chat_payload(next(replies))

        served = run_http_search(task, tmp_path / "http", monkeypatch, transport, k=k, d=d)
        script = {("top_module", n // k, n % k): text for n, text in enumerate(texts)}
        mocked, _ = run_mock_search(task, tmp_path / "mock", k=k, d=d, script=script)
        assert served == mocked
        assert served.termination is Termination.ALL_TESTS_PASSED
        assert scan_output_tree(tmp_path / "http" / "out") == scan_output_tree(tmp_path / "mock" / "out")
        logs = []
        for trace in (served, mocked):
            sink = io.StringIO()
            write_run_log(trace, sink)
            logs.append(sink.getvalue())
        assert logs[0] == logs[1]

    def test_probe_evaluated_while_the_others_are_in_flight(self, task, tmp_path, monkeypatch):
        k = 3
        calls = iter(range(k))
        others_sent = threading.Semaphore(0)
        probe_evaluated = threading.Event()

        def transport(url, headers, body):
            n = next(calls)
            if n > 0:
                others_sent.release()
                # Fails the request unless the probe is evaluated meanwhile.
                assert probe_evaluated.wait(5)
            return 200, chat_payload(reply_with_module(f"mismatches={n + 1} samples=10"))

        def evaluator(text, task, workdir, timeout):
            if workdir.name == "response0":
                # Fails unless the other requests went out first.
                assert all(others_sent.acquire(timeout=5) for _ in range(k - 1))
                probe_evaluated.set()
            return offline_evaluate(text, task, workdir, timeout)

        trace = run_http_search(task, tmp_path, monkeypatch, transport, k=k, d=0, evaluator=evaluator)
        assert trace.termination is Termination.MAX_DEPTH_REACHED
        assert len(trace.nodes[0].candidates) == k

    def test_depth_overlaps_evaluation_with_requests(self, task, tmp_path, monkeypatch):
        # Serially a depth costs the probe's round trip, then the others',
        # then k evaluations: 2L + kE. Overlapped it is about 2L + E.
        k, latency, evaluation = 4, 0.2, 0.15

        def transport(url, headers, body):
            time.sleep(latency)
            return 200, chat_payload(reply_with_module("mismatches=1 samples=10"))

        start = time.perf_counter()
        trace = run_http_search(
            task, tmp_path, monkeypatch, transport, k=k, d=0,
            evaluator=delayed(offline_evaluate, evaluation),
        )
        elapsed = time.perf_counter() - start
        assert len(trace.nodes[0].candidates) == k
        assert elapsed < 2 * latency + 2 * evaluation

    def test_indices_follow_arrival_not_evaluation_end(self, task, tmp_path, monkeypatch):
        # The first fanned-out reply is still being evaluated when the second
        # arrives and finishes; it keeps the lower index all the same.
        calls = iter(range(3))
        texts = ["probe", "first", "second"]

        def transport(url, headers, body):
            n = next(calls)
            if n == 2:
                time.sleep(0.1)
            return 200, chat_payload(reply_with_module(f"mismatches={n} samples=10") + f"\n{texts[n]}")

        def evaluator(text, task, workdir, timeout):
            if text.endswith("first"):
                time.sleep(0.3)
            return offline_evaluate(text, task, workdir, timeout)

        trace = run_http_search(task, tmp_path, monkeypatch, transport, k=3, d=0, evaluator=evaluator)
        candidates = trace.nodes[0].candidates
        assert [c.raw_text.rsplit("\n", 1)[1] for c in candidates] == texts
        assert [c.index for c in candidates] == [0, 1, 2]
        assert [c.outcome.mismatches for c in candidates] == [0, 1, 2]

    @pytest.mark.parametrize("request_fails", [False, True], ids=["replies", "failed request"])
    def test_evaluator_error_on_a_fan_out_thread_is_raised(self, task, tmp_path, monkeypatch, request_fails):
        calls = iter(range(3))

        def transport(url, headers, body):
            n = next(calls)
            if n == 2 and request_fails:
                return 503, {}
            return 200, chat_payload(reply_with_module("mismatches=1 samples=10") + f"\nreply {n}")

        def evaluator(text, task, workdir, timeout):
            if threading.current_thread() is not threading.main_thread():
                raise OSError("disk full")
            return offline_evaluate(text, task, workdir, timeout)

        threads_before = threading.active_count()
        with pytest.raises(OSError, match="disk full"):
            run_http_search(task, tmp_path, monkeypatch, transport, k=3, d=1, evaluator=evaluator)
        assert threading.active_count() == threads_before

    def test_overflow_failover_evaluates_only_the_retry_as_candidates(self, task, tmp_path, monkeypatch):
        # At depth 2 the full window (6 messages) gets one reply through, then
        # a rejection; the succinct retry's replies are the depth's candidates.
        k = 2
        full_window_calls = iter(range(k))
        served = iter(range(100))

        def transport(url, headers, body):
            n = next(served)
            if len(body["messages"]) == 6 and next(full_window_calls) > 0:
                return 400, {"error": {"code": "context_length_exceeded", "message": "too long"}}
            marker = "paid" if len(body["messages"]) == 6 else f"reply {n}"
            return 200, chat_payload(reply_with_module("mismatches=1 samples=10") + f"\n{marker}", 10, 20)

        trace = run_http_search(
            task, tmp_path, monkeypatch, transport, k=k, d=2, mode=FeedbackMode.FULL_CONTEXT,
            model=lookup_model("gpt-4o-mini"),
        )
        assert trace.termination is Termination.MAX_DEPTH_REACHED
        node = trace.nodes[2]
        assert node.context_fallback
        assert len(node.candidates) == k
        assert not any(c.raw_text.endswith("paid") for c in trace.all_candidates())
        assert [(e.depth, e.index) for e in trace.ledger.entries] == [
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 0), (2, 1),
        ]
        assert pass_at_budget(trace) == (7, False)
        assert trace.ledger.totals[:2] == (70, 140)

    def test_overflow_failover_leaves_only_the_retry_files(self, task, tmp_path, monkeypatch):
        # By depth 2 the backend is proven, so the full window's k requests go
        # out at once: one delivers a module, the other is rejected. The
        # succinct retry's replies hold no module, so they write only a log.
        k = 2
        full_window_calls = iter(range(k))
        rejected = threading.Event()

        def transport(url, headers, body):
            if len(body["messages"]) == 6 and next(full_window_calls) > 0:
                rejected.set()
                return 400, {"error": {"code": "context_length_exceeded", "message": "too long"}}
            if rejected.is_set():
                return 200, chat_payload("no module here")
            return 200, chat_payload(reply_with_module("mismatches=1 samples=10"))

        trace = run_http_search(
            task, tmp_path, monkeypatch, transport, k=k, d=2, mode=FeedbackMode.FULL_CONTEXT,
            model=lookup_model("gpt-4o-mini"),
        )
        assert rejected.is_set()
        assert trace.nodes[2].context_fallback
        assert [c.outcome.kind for c in trace.nodes[2].candidates] == [OutcomeKind.NO_MODULE] * k
        for index in range(k):
            workdir = tmp_path / "out" / "iter2" / f"response{index}"
            assert sorted(p.name for p in workdir.iterdir()) == ["log.txt"]
        assert scan_output_tree(tmp_path / "out") == trace_shape(trace)


class TestPaidReplies:
    """Replies a failed depth already paid for stay in the ledger."""

    def failing_at_depth_one(self, task, tmp_path, monkeypatch):
        # Depth 0 gets all k replies; at depth 1 the third request fails for
        # good after the other two were answered (and billed).
        k = 3
        served = iter(range(100))

        def transport(url, headers, body):
            n = next(served)
            if n == 5:
                return 503, {}
            return 200, chat_payload(reply_with_module("mismatches=1 samples=10"), 10 + n, 20)

        return run_http_search(
            task, tmp_path, monkeypatch, transport, k=k, d=3, model=lookup_model("gpt-4o-mini")
        )

    def test_failed_fan_out_keeps_paid_replies_in_the_ledger(self, task, tmp_path, monkeypatch):
        trace = self.failing_at_depth_one(task, tmp_path, monkeypatch)
        assert trace.termination is Termination.BACKEND_ERROR
        assert len(trace.nodes) == 1
        assert trace.best_overall == (0, trace.nodes[0].chosen_index)
        assert [(e.depth, e.index) for e in trace.ledger.entries] == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
        assert pass_at_budget(trace) == (5, False)
        totals = trace.ledger.totals
        assert (totals.input_tokens, totals.output_tokens) == (10 + 11 + 12 + 13 + 14, 5 * 20)
        model = lookup_model("gpt-4o-mini")
        assert totals.cost_usd == (
            totals.input_tokens * model.price_in + totals.output_tokens * model.price_out
        ) / Decimal(10**6)
        # The paid replies were evaluated when they arrived; their workdirs stay.
        paid_shape = [[OutcomeKind.SIMULATED.value] * 2]
        assert scan_output_tree(tmp_path / "out") == trace_shape(trace) + paid_shape

    def test_prefix_keeps_paid_replies_only_from_the_failed_depth_on(self, task, tmp_path, monkeypatch):
        trace = self.failing_at_depth_one(task, tmp_path, monkeypatch)
        for depth in (1, 2):
            assert trace.upto(depth).ledger == trace.ledger
            assert trace.upto(depth).nodes == trace.nodes
        shallow = trace.upto(0)
        assert shallow.termination is Termination.MAX_DEPTH_REACHED
        assert [(e.depth, e.index) for e in shallow.ledger.entries] == [(0, 0), (0, 1), (0, 2)]
        assert pass_at_budget(shallow) == (3, False)


class TestReusedOutdir:
    """An outdir reused by a shallower, narrower search ends up holding its tree alone."""

    def test_stale_depths_and_responses_are_removed_on_return(self, task, tmp_path):
        outdir = tmp_path / "out"
        run_mock_search(task, tmp_path, k=3, d=3)
        assert [len(row) for row in scan_output_tree(outdir)] == [3] * 4

        def evaluator(text, task, workdir, timeout):
            if "iter1" in workdir.parts:
                raise ToolIoError("disk full")
            return offline_evaluate(text, task, workdir, timeout)

        with pytest.raises(ToolIoError):
            run_mock_search(task, tmp_path, k=1, d=1, evaluator=evaluator)
        assert [len(row) for row in scan_output_tree(outdir)] == [3] * 4  # left as it is

        (outdir / "iter\u00b2").mkdir()  # a digit that is not a decimal is not a depth
        trace, _ = run_mock_search(task, tmp_path, k=1, d=1)
        assert len(trace.nodes) == 2
        assert scan_output_tree(outdir) == trace_shape(trace)
        assert (outdir / "iter\u00b2").is_dir()


class TestWireConversations:
    """What the HTTP families put on the wire for a search's windows."""

    def test_messages_family_sends_the_system_text_as_a_user_turn(self, task, tmp_path, monkeypatch):
        monkeypatch.setenv("ANTHROPIC_API_KEY", "test-key")
        bodies = []

        def transport(url, headers, body):
            bodies.append(body)
            return 200, {"content": [{"type": "text", "text": "no module"}], "usage": {}}

        model = lookup_model("claude-3-haiku")
        backend = MessagesBackend(transport=transport, sleep=lambda _: None)
        run_search(task, search_config(1, 1, tmp_path), ModelSchedule.single(model),
                   {model.family: backend}, evaluator=offline_evaluate)
        assert bodies[0]["messages"] == [
            {"role": "user", "content": system_prompt() + "\n\n" + task.prompt_text},
        ]
        assert [m["role"] for m in bodies[1]["messages"]] == ["user", "assistant", "user"]

    def test_null_content_is_an_empty_billed_reply(self, task, tmp_path, monkeypatch):
        bodies = []

        def transport(url, headers, body):
            bodies.append(body)
            return 200, chat_payload(None, 5, 7)

        trace = run_http_search(task, tmp_path, monkeypatch, transport, k=1, d=1)
        assert [c.raw_text for c in trace.all_candidates()] == ["", ""]
        assert {c.rank.value for c in trace.all_candidates()} == {-2}
        assert bodies[1]["messages"][-2] == {"role": "assistant", "content": EMPTY_REPLY_PLACEHOLDER}
        assert [e.usage for e in trace.ledger.entries] == [TokenUsage(5, 7)] * 2


FENCE = "```"
MATRIX_REPLIES = st.one_of(
    st.sampled_from([
        "",
        None,  # a null content: an empty reply
        f"{FENCE}verilog\nmodule top_module();\n  // eda: pass\nendmodule",  # unclosed fence
        f"{FENCE}\n{FENCE}verilog\nmodule top_module(); endmodule\n{FENCE}\n{FENCE}",  # nested fences
        "/* module top_module(); endmodule */ no module here",
        "// module top_module();\n/* endmodule */",
    ]),
    # Lone surrogates (category Cs) too, which st.text leaves out by default.
    st.text(st.one_of(st.characters(), st.characters(categories=["Cs"])), max_size=200),
    st.sampled_from(["hang", "crash", "silent", "pass", "compile-error", "warning",
                     "mismatches=3 samples=10"]).map(reply_with_module),
    # A module padded to up to 64 KB.
    st.tuples(st.sampled_from([1_000, 16 * 1024, 64 * 1024]), st.sampled_from(["x", "é", "\n", "\U0001f600"]))
    .map(lambda size_char: reply_with_module("mismatches=1 samples=10") + size_char[1] * size_char[0]),
)
MATRIX_STATUSES = {
    429: {},
    503: {},
    500: {"error": {"message": "internal"}},
    401: {"error": {"message": "invalid api key"}},
    400: {"error": {"code": "context_length_exceeded", "message": "too long"}},
}


class _FaultTransport:
    """Answers request ``n`` with ``faults[n]``, a window of more than four
    messages with 400 when ``long_windows_overflow``, and else 200 with the
    next reply and a usage of its own, recorded as billed."""

    def __init__(self, faults, replies, long_windows_overflow):
        self.faults, self.replies = faults, replies
        self.long_windows_overflow = long_windows_overflow
        self.requests = 0
        self.billed: list[TokenUsage] = []
        self.lock = threading.Lock()

    def __call__(self, url, headers, body):
        with self.lock:
            n = self.requests
            self.requests += 1
            if self.long_windows_overflow and len(body["messages"]) > 4:
                return 400, MATRIX_STATUSES[400]
            if n in self.faults:
                return self.faults[n], MATRIX_STATUSES[self.faults[n]]
            usage = TokenUsage(1 + len(self.billed), 1000 + len(self.billed))
            text = self.replies[len(self.billed) % len(self.replies)]
            self.billed.append(usage)
        return 200, chat_payload(text, usage.input_tokens, usage.output_tokens)


class TestFaultMatrix:
    """No reply, tool outcome or transport failure makes a search raise."""

    @given(
        k=st.integers(1, 3),
        d=st.integers(0, 2),
        mode=st.sampled_from(list(FeedbackMode)),
        window=st.sampled_from([128_000, 200]),  # 200 tokens: a depth-2 full window falls back
        replies=st.lists(MATRIX_REPLIES, min_size=1, max_size=6),
        # Request positions, so a fault can hit a probe, a fan-out or a retry.
        faults=st.dictionaries(st.integers(0, 12), st.sampled_from(list(MATRIX_STATUSES)), max_size=3),
        long_windows_overflow=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_search_survives_any_fault(self, k, d, mode, window, replies, faults, long_windows_overflow):
        task = DesignTask("top_module", "// design prompt\nmodule top_module();", "module tb(); endmodule")
        model = replace(lookup_model("gpt-4o-mini"), max_context_tokens=window)
        transport = _FaultTransport(faults, replies, long_windows_overflow)
        backend = ChatCompletionsBackend(
            transport=transport, retry=RetryPolicy(attempts=2), sleep=lambda _: None
        )
        threads = threading.active_count()
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"OPENAI_API_KEY": "test-key"}):
            outdir = Path(tmp) / "out"
            cfg = SearchConfig(num_candidates=k, max_depth=d, feedback_mode=mode, sim_timeout=1.0, outdir=outdir)
            trace = run_search(task, cfg, ModelSchedule.single(model), {model.family: backend},
                               evaluator=offline_evaluate)
            scanned = scan_output_tree(outdir) if outdir.exists() else []
        assert threading.active_count() == threads
        assert len(trace.all_candidates()) <= k * (d + 1)
        for candidate in trace.all_candidates():
            candidate.raw_text.encode()  # no lone surrogate: the trace holds what the files hold
        # Every 200 answer, and only those, is in the ledger (billed in input_tokens order).
        assert sorted((e.usage for e in trace.ledger.entries), key=lambda u: u.input_tokens) == transport.billed
        assert all(e.cost_usd == compute_cost(e.usage, model) for e in trace.ledger.entries)
        # A failed depth keeps the directories of the replies it paid for.
        shape = trace_shape(trace)
        assert scanned[:len(shape)] == shape
        kept = scanned[len(shape):]
        if trace.termination is not Termination.BACKEND_ERROR:
            assert kept == []
        assert len(kept) <= 1 and all(None not in row and len(row) <= k for row in kept)
