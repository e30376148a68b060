"""Backend behavior against stubbed transports and recorded wire fixtures."""

from __future__ import annotations

import json
import math
import os
import random
import shlex
import signal
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

from conftest import run_fresh
from hdlsmith import edatools
from hdlsmith.backends import (
    MAX_IN_FLIGHT,
    NEAR_LIMIT_MARGIN,
    AuthError,
    BackendError,
    ChatCompletionsBackend,
    CommandBackend,
    ContextOverflowError,
    GenerationRequest,
    MessagesBackend,
    MockBackend,
    RateLimitedError,
    RetryPolicy,
    TransportError,
    _run_threads,
    backoff_delay,
    load_mock_script,
    lookup_model,
    requests_transport,
)
from hdlsmith.core import TokenUsage
from hdlsmith.edatools import OUTPUT_CAP
from hdlsmith.prompts import Conversation, Message, Role

FIXTURES = Path(__file__).parent / "fixtures"

pytestmark = pytest.mark.usefixtures("no_thread_leak")


def two_turn_conversation() -> Conversation:
    return Conversation((Message(Role.SYSTEM, "system text"), Message(Role.USER, "design prompt")))


class StubTransport:
    """Queue of canned (status, payload) responses; records every request."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []
        self._lock = threading.Lock()

    def __call__(self, url, headers, body):
        with self._lock:
            self.requests.append({"url": url, "headers": dict(headers), "body": body})
            if not self.responses:
                raise AssertionError("transport called more times than scripted")
            item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def fan_out_request(k, on_reply=None):
    return GenerationRequest(two_turn_conversation(), lookup_model("gpt-4o-mini"), k, on_reply=on_reply)


class ReplyLog:
    """An ``on_reply`` hook that records (index, reply, on the main thread?)."""

    def __init__(self):
        self.handed = []

    def __call__(self, index, reply):
        self.handed.append((index, reply, threading.current_thread() is threading.main_thread()))

    def by_index(self):
        return {index: reply for index, reply, _ in self.handed}


def chat_payload(text="reply", prompt_tokens=10, completion_tokens=20):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


class TestGenerationRequest:
    def test_request_asks_for_at_least_one_candidate(self):
        with pytest.raises(ValueError, match="num_candidates must be at least 1"):
            GenerationRequest(two_turn_conversation(), lookup_model("mock"), 0)


class TestMockBackend:
    def test_scripted_replies_in_index_order(self, task):
        backend = MockBackend(
            {("top_module", 0, 0): "reply A", ("top_module", 0, 1): "reply B"},
            tokens_per_reply=TokenUsage(5, 7),
        )
        req = GenerationRequest(
            two_turn_conversation(), lookup_model("mock"), 2, task_name="top_module", depth=0
        )
        replies = backend.generate(req)
        assert [text for text, _ in replies] == ["reply A", "reply B"]
        assert all(usage == TokenUsage(5, 7) for _, usage in replies)

    def test_missing_key_falls_back_to_default(self):
        backend = MockBackend({}, default_reply="no module here")
        req = GenerationRequest(two_turn_conversation(), lookup_model("mock"), 3, task_name="t", depth=1)
        replies = backend.generate(req)
        assert len(replies) == 3
        assert all(text == "no module here" for text, _ in replies)

    def test_deterministic_across_runs(self):
        script = {("t", 0, i): f"r{i}" for i in range(4)}
        req = GenerationRequest(two_turn_conversation(), lookup_model("mock"), 4, task_name="t", depth=0)
        first = MockBackend(script).generate(req)
        second = MockBackend(script).generate(req)
        assert first == second

    def test_replies_returned_in_index_order_never_handed_over(self):
        # The caller evaluates them (search._generate); see TestReplyHandOver.
        script = {("t", 0, i): f"r{i}" for i in range(3)}
        handed = []
        req = GenerationRequest(two_turn_conversation(), lookup_model("mock"), 3, task_name="t", depth=0)
        replies = MockBackend(script).generate(replace(req, on_reply=lambda *args: handed.append(args)))
        assert handed == []
        assert [text for text, _ in replies] == ["r0", "r1", "r2"]

    def test_calls_are_recorded(self):
        backend = MockBackend({})
        req = GenerationRequest(two_turn_conversation(), lookup_model("mock"), 2, task_name="t", depth=3)
        backend.generate(req)
        assert len(backend.calls) == 1
        call = backend.calls[0]
        assert (call.task_name, call.depth, call.num_candidates) == ("t", 3, 2)


class TestChatCompletionsBackend:
    def make_backend(self, transport, monkeypatch, **kwargs):
        monkeypatch.setenv("OPENAI_API_KEY", "test-key-123")
        kwargs.setdefault("sleep", lambda _: None)
        kwargs.setdefault("rng", random.Random(7))
        return ChatCompletionsBackend(transport=transport, **kwargs)

    def test_k_candidates_mean_k_provider_calls(self, monkeypatch):
        transport = StubTransport([(200, chat_payload(f"r{i}")) for i in range(5)])
        backend = self.make_backend(transport, monkeypatch)
        req = GenerationRequest(two_turn_conversation(), lookup_model("gpt-4o-mini"), 5)
        replies = backend.generate(req)
        assert len(replies) == 5
        assert len(transport.requests) == 5

    def test_per_reply_usage_matches_provider_reports(self, monkeypatch):
        # Usage is attributable because each reply came from its own call.
        # Replies come back in arrival order, so pair each text with its usage.
        canned = {("r0", 11, 21), ("r1", 12, 22), ("r2", 13, 23)}
        transport = StubTransport([(200, chat_payload(*report)) for report in sorted(canned)])
        backend = self.make_backend(transport, monkeypatch)
        req = GenerationRequest(two_turn_conversation(), lookup_model("gpt-4o-mini"), 3)
        replies = backend.generate(req)
        pairs = [(text, u.input_tokens, u.output_tokens) for text, u in replies]
        assert len(pairs) == 3
        assert set(pairs) == canned

    def test_rate_limited_twice_then_success(self, monkeypatch):
        delays = []
        transport = StubTransport([
            (429, {"error": {"message": "slow down"}}),
            (429, {"error": {"message": "slow down"}}),
            (200, chat_payload()),
        ])
        backend = self.make_backend(transport, monkeypatch, sleep=delays.append)
        req = GenerationRequest(two_turn_conversation(), lookup_model("gpt-4o-mini"), 1)
        replies = backend.generate(req)
        assert len(replies) == 1
        assert len(transport.requests) == 3
        assert len(delays) == 2
        assert delays == sorted(delays)

    def test_rate_limit_exhaustion_raises(self, monkeypatch):
        transport = StubTransport([(429, {})] * 5)
        backend = self.make_backend(transport, monkeypatch, retry=RetryPolicy(attempts=5))
        req = GenerationRequest(two_turn_conversation(), lookup_model("gpt-4o-mini"), 1)
        with pytest.raises(RateLimitedError):
            backend.generate(req)
        assert len(transport.requests) == 5

    def test_auth_error_is_not_retried(self, monkeypatch):
        transport = StubTransport([(401, {"error": {"message": "bad key"}})])
        backend = self.make_backend(transport, monkeypatch)
        req = GenerationRequest(two_turn_conversation(), lookup_model("gpt-4o-mini"), 1)
        with pytest.raises(AuthError):
            backend.generate(req)
        assert len(transport.requests) == 1

    def test_missing_api_key(self, monkeypatch):
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        backend = ChatCompletionsBackend(transport=StubTransport([]))
        req = GenerationRequest(two_turn_conversation(), lookup_model("gpt-4o-mini"), 1)
        with pytest.raises(AuthError):
            backend.generate(req)

    def test_context_overflow_detected(self, monkeypatch):
        transport = StubTransport(
            [(400, {"error": {"code": "context_length_exceeded", "message": "too big"}})]
        )
        backend = self.make_backend(transport, monkeypatch)
        req = GenerationRequest(two_turn_conversation(), lookup_model("gpt-4o-mini"), 1)
        with pytest.raises(ContextOverflowError):
            backend.generate(req)

    def test_server_errors_retry_then_raise(self, monkeypatch):
        transport = StubTransport([(503, {})] * 5)
        backend = self.make_backend(transport, monkeypatch)
        req = GenerationRequest(two_turn_conversation(), lookup_model("gpt-4o-mini"), 1)
        with pytest.raises(TransportError):
            backend.generate(req)
        assert len(transport.requests) == 5

    def test_recorded_fixture_replay(self, monkeypatch):
        fixture = json.loads((FIXTURES / "chat_completions_exchange.json").read_text())
        transport = StubTransport([(fixture["response"]["status"], fixture["response"]["body"])])
        backend = self.make_backend(transport, monkeypatch)
        req = GenerationRequest(two_turn_conversation(), lookup_model("gpt-4o-mini"), 1)
        replies = backend.generate(req)
        sent = transport.requests[0]
        expected = fixture["request"]
        assert sent["url"] == expected["url"]
        assert sent["headers"] == expected["headers"]
        assert json.dumps(sent["body"], sort_keys=True) == json.dumps(
            expected["body"], sort_keys=True
        )
        text, usage = replies[0]
        assert text == "```verilog\nmodule top_module(); endmodule\n```"
        assert usage == TokenUsage(396, 241)

    # A depth's k requests: one probe request, then k-1 concurrent ones.

    def test_probe_alone_then_the_rest_in_flight_together(self, monkeypatch):
        k = 5
        barrier = threading.Barrier(k - 1, timeout=5)
        events = []
        calls = iter(range(k))

        def transport(url, headers, body):
            n = next(calls)
            events.append(("start", n))
            if n > 0:
                # Times out (and fails the call) unless all k-1 are in flight.
                barrier.wait()
            events.append(("end", n))
            return 200, chat_payload(f"r{n}")

        replies = self.make_backend(transport, monkeypatch).generate(fan_out_request(k))
        assert events[:2] == [("start", 0), ("end", 0)]
        assert len(events) == 2 * k
        assert replies[0][0] == "r0"
        assert sorted(text for text, _ in replies) == [f"r{n}" for n in range(k)]

    @pytest.mark.parametrize(
        "status, payload, error",
        [
            (400, {"error": {"code": "context_length_exceeded", "message": "too big"}}, ContextOverflowError),
            (401, {"error": {"message": "bad key"}}, AuthError),
        ],
    )
    def test_rejected_probe_costs_one_request(self, monkeypatch, status, payload, error):
        transport = StubTransport([(status, payload)] + [(200, chat_payload())] * 4)
        backend = self.make_backend(transport, monkeypatch)
        with pytest.raises(error):
            backend.generate(fan_out_request(5))
        assert len(transport.requests) == 1

    def test_exhausted_retries_raise_after_every_request_returns(self, monkeypatch):
        k, attempts = 3, 3
        lock = threading.Lock()
        calls = []
        doomed = []  # the thread that makes the first fanned-out request
        slow_done = threading.Event()

        def transport(url, headers, body):
            # The first fanned-out request fails on every attempt; its retries
            # run on its thread, which may then take the other request.
            me = threading.get_ident()
            with lock:
                calls.append(me)
                if len(calls) == 1:
                    return 200, chat_payload("probe")
                if not doomed:
                    doomed.append(me)
                fail = me == doomed[0] and calls.count(me) <= attempts
            if fail:
                return 503, {}
            time.sleep(0.2)
            slow_done.set()
            return 200, chat_payload("slow")

        backend = self.make_backend(transport, monkeypatch, retry=RetryPolicy(attempts=attempts))
        threads_before = threading.active_count()
        with pytest.raises(TransportError):
            backend.generate(fan_out_request(k))
        assert slow_done.is_set()
        assert threading.active_count() == threads_before
        assert len(calls) == 1 + attempts + (k - 2)

    def test_serial_provider_replies_in_answer_order(self, monkeypatch):
        # A provider with one slot answers one request at a time; its answer
        # ordinals are the order in which the replies arrive.
        k = 4
        server = threading.Lock()
        answered = iter(range(k))

        def transport(url, headers, body):
            with server:
                time.sleep(0.05)
                return 200, chat_payload(f"answer {next(answered)}")

        replies = self.make_backend(transport, monkeypatch).generate(fan_out_request(k))
        assert [text for text, _ in replies] == [f"answer {n}" for n in range(k)]

    def test_replies_in_arrival_order_not_request_order(self, monkeypatch):
        # Each fanned-out request answers later than the ones sent after it.
        k = 4
        lock = threading.Lock()
        started = iter(range(k))
        finished = iter(range(k))

        def transport(url, headers, body):
            time.sleep(0.05 * (k - next(started)))
            with lock:
                return 200, chat_payload(f"arrival {next(finished)}")

        replies = self.make_backend(transport, monkeypatch).generate(fan_out_request(k))
        assert [text for text, _ in replies] == [f"arrival {n}" for n in range(k)]

    def test_no_reply_lost_under_fast_thread_switching(self, monkeypatch):
        k = 16  # more workers than cores
        calls = iter(range(50 * k))
        backend = self.make_backend(lambda *_: (200, chat_payload(f"r{next(calls)}")), monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                texts = [text for text, _ in backend.generate(fan_out_request(k))]
                assert len(set(texts)) == k
        finally:
            sys.setswitchinterval(interval)

    def test_single_candidate_starts_no_thread(self, monkeypatch):
        seen = []

        def transport(url, headers, body):
            seen.append((threading.current_thread() is threading.main_thread(), threading.active_count()))
            return 200, chat_payload()

        threads_before = threading.active_count()
        self.make_backend(transport, monkeypatch).generate(fan_out_request(1))
        assert seen == [(True, threads_before)]

    # Each reply goes to the request's ``on_reply`` as soon as it has its index.

    def test_each_reply_handed_over_once_with_its_arrival_index(self, monkeypatch):
        k = 4
        calls = iter(range(k))
        backend = self.make_backend(lambda *_: (200, chat_payload(f"r{next(calls)}")), monkeypatch)
        log = ReplyLog()
        replies = backend.generate(fan_out_request(k, log))
        assert len(log.handed) == k
        assert log.by_index() == dict(enumerate(replies))
        # The probe's reply is handled on the calling thread, the rest on the
        # threads that received them.
        assert sorted((index, on_main) for index, _, on_main in log.handed) == [
            (index, index == 0) for index in range(k)
        ]

    def test_single_candidate_handed_over_on_the_calling_thread(self, monkeypatch):
        log = ReplyLog()
        replies = self.make_backend(lambda *_: (200, chat_payload("only")), monkeypatch).generate(
            fan_out_request(1, log)
        )
        assert log.handed == [(0, replies[0], True)]

    def test_probe_handled_while_the_others_are_in_flight(self, monkeypatch):
        k = 3
        calls = iter(range(k))
        others_sent = threading.Semaphore(0)
        probe_handled = threading.Event()
        log = ReplyLog()

        def transport(url, headers, body):
            n = next(calls)
            if n > 0:
                others_sent.release()
                # Fails the request unless the probe is handled meanwhile.
                assert probe_handled.wait(5)
            return 200, chat_payload(f"r{n}")

        def on_reply(index, reply):
            log(index, reply)
            if index == 0:
                # Fails unless the other requests went out first.
                assert all(others_sent.acquire(timeout=5) for _ in range(k - 1))
                probe_handled.set()

        replies = self.make_backend(transport, monkeypatch).generate(fan_out_request(k, on_reply))
        assert log.handed[0] == (0, replies[0], True)
        assert log.by_index() == dict(enumerate(replies))

    def test_slow_handling_does_not_change_arrival_indices(self, monkeypatch):
        # r1 arrives before r2 but is still being handled when r2 arrives.
        k = 3
        calls = iter(range(k))

        def transport(url, headers, body):
            n = next(calls)
            if n == 2:
                time.sleep(0.1)
            return 200, chat_payload(f"r{n}")

        handled = {}

        def on_reply(index, reply):
            if reply[0] == "r1":
                time.sleep(0.3)
            handled[index] = reply

        replies = self.make_backend(transport, monkeypatch).generate(fan_out_request(k, on_reply))
        assert [text for text, _ in replies] == ["r0", "r1", "r2"]
        assert handled == dict(enumerate(replies))

    def test_replies_of_a_failed_fan_out_are_handed_over_before_it_raises(self, monkeypatch):
        k = 3
        calls = iter(range(k))

        def transport(url, headers, body):
            n = next(calls)
            return (503, {}) if n == 2 else (200, chat_payload(f"r{n}"))

        backend = self.make_backend(transport, monkeypatch, retry=RetryPolicy(attempts=1))
        log = ReplyLog()
        with pytest.raises(TransportError):
            backend.generate(fan_out_request(k, log))
        assert sorted((index, reply[0]) for index, reply, _ in log.handed) == [(0, "r0"), (1, "r1")]

    def test_on_reply_error_on_a_helper_is_raised_once_every_request_returned(self, monkeypatch):
        # pytest turns an exception that escapes a thread into an error, so
        # this also fails if the helper's error is left unhandled there.
        k = 4
        calls = iter(range(k))
        sent, returned = [], []

        def transport(url, headers, body):
            n = next(calls)
            sent.append(n)
            if n == 3:
                time.sleep(0.2)  # still in flight when a helper's on_reply raises
            returned.append(n)
            return 200, chat_payload(f"r{n}")

        def on_reply(index, reply):
            if threading.current_thread() is not threading.main_thread():
                raise ValueError(f"cannot handle {reply[0]}")

        with pytest.raises(ValueError, match="cannot handle"):
            try:
                self.make_backend(transport, monkeypatch).generate(fan_out_request(k, on_reply))
            finally:
                returned_at_raise = sorted(returned)
        assert returned_at_raise == sorted(sent)

    def test_interrupt_while_waiting_for_helpers_waits_for_them(self, monkeypatch):
        # A Ctrl-C while the calling thread waits: the helpers' requests are
        # still in flight, and their replies are handed over before it raises.
        k = 3
        main = threading.main_thread()
        first = threading.Lock()  # taken by the helper that sends the interrupt

        def transport(url, headers, body):
            if threading.current_thread() is not main:
                time.sleep(0.2)
                if first.acquire(blocking=False):
                    signal.pthread_kill(main.ident, signal.SIGINT)
                    time.sleep(0.3)
            return 200, chat_payload()

        log = ReplyLog()
        joined = []  # replies handed over when a helper is joined
        real_join = threading.Thread.join

        def join(thread, timeout=None):
            joined.append(len(log.handed))
            real_join(thread, timeout)

        backend = self.make_backend(transport, monkeypatch)
        backend.generate(fan_out_request(1))  # proves the backend, so the call does not probe
        threads_before = threading.active_count()
        monkeypatch.setattr(threading.Thread, "join", join)
        with pytest.raises(KeyboardInterrupt):
            try:
                backend.generate(fan_out_request(k, log))
            finally:
                handed, threads = len(log.handed), threading.active_count()
        assert handed == k
        assert threads == threads_before
        # No helper is joined while it works: an interrupted join can leave it running.
        assert set(joined) <= {k}

    def test_interrupt_stops_the_requests_not_yet_sent(self, monkeypatch):
        # More requests than slots: a Ctrl-C while the first MAX_IN_FLIGHT
        # are in flight leaves the queued ones unsent.
        k = MAX_IN_FLIGHT + 4
        main = threading.main_thread()
        sent = []
        lock = threading.Lock()

        def transport(url, headers, body):
            with lock:
                sent.append(threading.current_thread().name)
                if len(sent) == MAX_IN_FLIGHT:
                    signal.pthread_kill(main.ident, signal.SIGINT)
            time.sleep(0.3)
            return 200, chat_payload()

        backend = self.make_backend(transport, monkeypatch)
        backend.generate(fan_out_request(1))  # proves the backend, so the call does not probe
        sent.clear()
        with pytest.raises(KeyboardInterrupt):
            backend.generate(fan_out_request(k))
        assert len(sent) <= MAX_IN_FLIGHT

    def test_helper_that_begins_after_an_interrupt_in_start_sends_nothing(self, monkeypatch):
        # The interrupt lands in start() before the helper has begun: the call
        # is over once it has raised, so the helper makes no request then.
        sent = []
        real_start, real_run = threading.Thread.start, threading.Thread.run

        def start(thread):
            real_start(thread)
            raise KeyboardInterrupt

        def run(thread):
            time.sleep(0.5)  # the call raises meanwhile
            real_run(thread)

        def transport(url, headers, body):
            sent.append(threading.current_thread().name)
            return 200, chat_payload()

        backend = self.make_backend(transport, monkeypatch)
        backend.generate(fan_out_request(1))  # proves the backend, so the call does not probe
        sent.clear()
        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(threading.Thread, "run", run)
        with pytest.raises(KeyboardInterrupt):
            backend.generate(fan_out_request(2))
        assert sent == []

    def test_on_reply_takes_no_part_in_equality(self):
        assert fan_out_request(2, ReplyLog()) == fan_out_request(2)
        assert "on_reply" not in repr(fan_out_request(2, ReplyLog()))

    def test_requests_in_flight_are_capped(self, monkeypatch):
        k = MAX_IN_FLIGHT + 4
        lock = threading.Lock()
        calls = iter(range(2 * k))
        inflight = [0]
        peaks = []
        # The non-probing call's first MAX_IN_FLIGHT requests all wait to be in
        # flight together, so the cap is reached by design, not by chance.
        together = threading.Barrier(MAX_IN_FLIGHT, timeout=10)

        def transport(url, headers, body):
            with lock:
                inflight[0] += 1
                peaks[-1] = max(peaks[-1], inflight[0])
                n = next(calls)
            if k <= n < k + MAX_IN_FLIGHT:
                together.wait()
            time.sleep(0.02)
            with lock:
                inflight[0] -= 1
            return 200, chat_payload(f"r{n}")

        backend = self.make_backend(transport, monkeypatch)
        for _ in range(2):  # a probing call, then one on the proven backend
            peaks.append(0)
            log = ReplyLog()
            replies = backend.generate(fan_out_request(k, log))
            assert len({text for text, _ in replies}) == k
            assert sorted(index for index, _, _ in log.handed) == list(range(k))
            assert log.by_index() == dict(enumerate(replies))
        assert max(peaks) <= MAX_IN_FLIGHT
        assert peaks[1] == MAX_IN_FLIGHT  # without a probe the cap fills up

    def test_concurrent_calls_share_the_cap(self, monkeypatch):
        k = MAX_IN_FLIGHT
        lock = threading.Lock()
        calls = iter(range(1 + 2 * k))
        inflight = [0, 0]  # now, peak
        # The first MAX_IN_FLIGHT requests of the two calls wait to be in
        # flight together, so the cap is reached by design, not by chance.
        together = threading.Barrier(MAX_IN_FLIGHT, timeout=10)

        def transport(url, headers, body):
            with lock:
                inflight[0] += 1
                inflight[1] = max(inflight)
                n = next(calls)
            if 1 <= n <= MAX_IN_FLIGHT:
                together.wait()
            time.sleep(0.02)
            with lock:
                inflight[0] -= 1
            return 200, chat_payload(f"r{n}")

        backend = self.make_backend(transport, monkeypatch)
        backend.generate(fan_out_request(1))  # proves the backend, so neither call probes
        with ThreadPoolExecutor(2) as pool:
            calls_replies = list(pool.map(lambda _: backend.generate(fan_out_request(k)), range(2)))
        texts = sorted(text for replies in calls_replies for text, _ in replies)
        assert texts == sorted(f"r{n}" for n in range(1, 1 + 2 * k))
        assert inflight[1] == MAX_IN_FLIGHT


def messages_payload(text="reply"):
    return {"content": [{"type": "text", "text": text}], "usage": {"input_tokens": 10, "output_tokens": 20}}


OVERFLOW = (400, {"error": {"code": "context_length_exceeded", "message": "too long"}})


class LoggingTransport:
    """Answers after a short wait and logs when each request starts and ends.

    A call probed if its first request ended before a second one started.
    Scripted ``statuses`` answer the next requests; a request whose messages
    hold ``reject_chars`` characters or more is rejected as too long.
    """

    def __init__(self, payload, latency=0.05):
        self.payload = payload
        self.latency = latency
        self.events = []
        self.statuses = []
        self.reject_chars = math.inf
        self.lock = threading.Lock()

    def __call__(self, url, headers, body):
        with self.lock:
            self.events.append("start")
            status = self.statuses.pop(0) if self.statuses else 200
        time.sleep(self.latency)
        with self.lock:
            self.events.append("end")
        if sum(len(m["content"]) for m in body["messages"]) >= self.reject_chars:
            return OVERFLOW
        return status, self.payload(f"r{len(self.events)}") if status == 200 else {}

    def call(self, backend, req):
        """Run one ``generate`` call; returns whether it probed."""
        self.events = []
        replies = backend.generate(req)
        assert len(replies) == req.num_candidates
        return self.events[:2] == ["start", "end"]


def window(chars):
    return Conversation((Message(Role.USER, "x" * chars),))


@pytest.fixture(params=["chat", "messages"])
def http_family(request, monkeypatch):
    """(backend factory, payload builder, model) for each HTTP family."""
    if request.param == "chat":
        monkeypatch.setenv("OPENAI_API_KEY", "test-key")
        return ChatCompletionsBackend, chat_payload, lookup_model("gpt-4o-mini")
    monkeypatch.setenv("ANTHROPIC_API_KEY", "test-key")
    return MessagesBackend, messages_payload, lookup_model("claude-3-haiku")


class TestProbeRule:
    """A call probes only where a rejection every request would share is likely."""

    def make(self, http_family, transport):
        factory, _, model = http_family
        backend = factory(transport=transport, sleep=lambda _: None, rng=random.Random(7))
        return backend, model

    def test_proven_backend_sends_all_k_at_once(self, http_family):
        k = 4
        barrier = threading.Barrier(k, timeout=5)
        calls = iter(range(k + 1))
        senders = {}

        def transport(url, headers, body):
            n = next(calls)
            if n > 0:
                # Times out (and fails the call) unless all k are in flight.
                barrier.wait()
                senders[f"r{n}"] = threading.current_thread() is threading.main_thread()
            return 200, http_family[1](f"r{n}")

        backend, model = self.make(http_family, transport)
        backend.generate(GenerationRequest(two_turn_conversation(), model, 1))
        log = ReplyLog()
        replies = backend.generate(GenerationRequest(two_turn_conversation(), model, k, on_reply=log))
        assert log.by_index() == dict(enumerate(replies))
        # The calling thread made one request and is handed that reply.
        on_main = [reply[0] for _, reply, main in log.handed if main]
        assert on_main == [text for text, main in senders.items() if main]
        assert len(on_main) == 1

    def test_call_after_a_rejection_probes_and_the_next_does_not(self, http_family):
        transport = LoggingTransport(http_family[1])
        backend, model = self.make(http_family, transport)
        req = GenerationRequest(two_turn_conversation(), model, 3)
        assert transport.call(backend, req)  # unproven credentials
        assert not transport.call(backend, req)
        transport.statuses.append(429)  # one request is throttled, then retried
        assert not transport.call(backend, req)
        assert not transport.call(backend, req)  # the retry recovered: nothing failed
        # Every request is answered 429 on every attempt, or refused with 401.
        for status, error, attempts in [(429, RateLimitedError, backend.retry.attempts), (401, AuthError, 1)]:
            transport.statuses.extend([status] * (req.num_candidates * attempts))
            with pytest.raises(error):
                backend.generate(req)
            assert not transport.statuses
            assert transport.call(backend, req)
            assert not transport.call(backend, req)

    def test_near_limit_window_probes_and_its_rejection_costs_one_request(self, http_family):
        transport = LoggingTransport(http_family[1])
        backend, model = self.make(http_family, transport)
        model = replace(model, max_context_tokens=1000)
        edge = math.ceil((1 - NEAR_LIMIT_MARGIN) * model.max_context_tokens)  # in tokens of 4 chars
        assert transport.call(backend, GenerationRequest(window(4), model, 3))  # unproven
        assert not transport.call(backend, GenerationRequest(window(4 * (edge - 1)), model, 3))
        assert transport.call(backend, GenerationRequest(window(4 * edge), model, 3))
        transport.reject_chars = 4 * edge
        transport.events = []
        with pytest.raises(ContextOverflowError):
            backend.generate(GenerationRequest(window(4 * edge), model, 5))
        assert transport.events == ["start", "end"]  # the rejection cost one request


class TestMalformedPayloads:
    """A payload of the wrong shape fails its request with a ``BackendError``.

    The status still picks the error class; the payload only fills the
    message, whatever JSON value the transport handed back.
    """

    @pytest.mark.parametrize(
        "http_family, status, payload, error",
        [
            ("chat", 200, {"choices": [{"message": {"content": "ok"}}], "usage": None}, TransportError),
            ("chat", 200, {"choices": [{"message": {"content": "ok"}}], "usage": [1]}, TransportError),
            ("chat", 200, {"choices": [{"message": {"content": "ok"}}], "usage": {"prompt_tokens": "many"}},
             TransportError),
            ("chat", 200, ["choices"], TransportError),
            ("chat", 200, {"choices": [{"message": {"content": 5}}], "usage": {}}, TransportError),
            ("chat", 200, {"choices": [{"message": {"content": ["ok"]}}], "usage": {}}, TransportError),
            ("messages", 200, {"content": [{"type": "text", "text": "ok"}], "usage": None}, TransportError),
            ("messages", 200, {"content": ["ok"], "usage": {}}, TransportError),
            ("messages", 200, {"content": [{"type": "text", "text": "ok"}], "usage": {"input_tokens": -1}},
             TransportError),
            ("messages", 200, "oops", TransportError),
            ("chat", 500, [], TransportError),
            ("messages", 500, [], TransportError),
            ("chat", 400, "oops", BackendError),
            ("messages", 400, "oops", BackendError),
            ("chat", 401, ["denied"], AuthError),
            ("messages", 429, None, RateLimitedError),
        ],
        indirect=["http_family"],
    )
    def test_malformed_payload_is_a_backend_error(self, http_family, status, payload, error):
        factory, _, model = http_family
        transport = StubTransport([(status, payload)] * 2)
        backend = factory(transport=transport, retry=RetryPolicy(attempts=2), sleep=lambda _: None)
        with pytest.raises(BackendError) as info:
            backend.generate(GenerationRequest(two_turn_conversation(), model, 1))
        assert type(info.value) is error

    def test_null_content_is_an_empty_billed_reply(self, monkeypatch):
        # A refusal or a tool call carries no text, and is paid for all the same.
        monkeypatch.setenv("OPENAI_API_KEY", "test-key")
        transport = StubTransport([(200, chat_payload(None, 5, 7))])
        replies = ChatCompletionsBackend(transport=transport).generate(fan_out_request(1))
        assert replies == (("", TokenUsage(5, 7)),)

    def test_error_status_message_quotes_a_non_object_payload(self, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "test-key")
        backend = ChatCompletionsBackend(transport=StubTransport([(400, "oops")]))
        with pytest.raises(BackendError, match="^unexpected status 400: oops$"):
            backend.generate(fan_out_request(1))


class TestMessagesBackend:
    def make_backend(self, transport, monkeypatch):
        monkeypatch.setenv("ANTHROPIC_API_KEY", "test-key-456")
        return MessagesBackend(transport=transport, sleep=lambda _: None, rng=random.Random(7))

    def test_recorded_fixture_replay(self, monkeypatch):
        # The canonical conversation goes in; the backend sends its system
        # text as a leading user turn.
        fixture = json.loads((FIXTURES / "messages_exchange.json").read_text())
        transport = StubTransport([(fixture["response"]["status"], fixture["response"]["body"])])
        backend = self.make_backend(transport, monkeypatch)
        replies = backend.generate(GenerationRequest(two_turn_conversation(), lookup_model("claude-3-haiku"), 1))
        sent = transport.requests[0]
        expected = fixture["request"]
        assert sent["url"] == expected["url"]
        assert sent["headers"] == expected["headers"]
        assert json.dumps(sent["body"], sort_keys=True) == json.dumps(
            expected["body"], sort_keys=True
        )
        text, usage = replies[0]
        assert "module top_module" in text
        assert usage == TokenUsage(410, 198)

    def test_consecutive_same_role_turns_are_merged(self, monkeypatch):
        transport = StubTransport(
            [(200, {"content": [{"type": "text", "text": "ok"}], "usage": {}})]
        )
        backend = self.make_backend(transport, monkeypatch)
        conv = Conversation(
            (
                Message(Role.USER, "one"),
                Message(Role.USER, "two"),
                Message(Role.ASSISTANT, "reply"),
                Message(Role.USER, "three"),
            )
        )
        backend.generate(GenerationRequest(conv, lookup_model("claude-3-haiku"), 1))
        wire = transport.requests[0]["body"]["messages"]
        assert [m["role"] for m in wire] == ["user", "assistant", "user"]
        assert wire[0]["content"] == "one\n\ntwo"

    def test_prompt_too_long_maps_to_overflow(self, monkeypatch):
        transport = StubTransport([(400, {"error": {"message": "prompt is too long: ..."}})])
        backend = self.make_backend(transport, monkeypatch)
        req = GenerationRequest(two_turn_conversation(), lookup_model("claude-3-haiku"), 1)
        with pytest.raises(ContextOverflowError):
            backend.generate(req)


class TestCommandBackend:
    def test_local_process_replies(self):
        backend = CommandBackend((sys.executable, "-c", "print('module m(); endmodule')"))
        req = GenerationRequest(two_turn_conversation(), lookup_model("local-model", "local"), 2)
        replies = backend.generate(req)
        assert len(replies) == 2
        assert all("module m()" in text for text, _ in replies)
        assert all(usage.input_tokens > 0 for _, usage in replies)

    def test_timeout_past_what_epoll_takes_in_one_call_still_replies(self):
        backend = CommandBackend(("cat",), timeout=1e7)
        req = GenerationRequest(two_turn_conversation(), lookup_model("local-model", "local"), 2)
        assert len(backend.generate(req)) == 2

    def test_bytes_that_are_not_utf8_become_replacement_characters(self):
        backend = CommandBackend(("/bin/sh", "-c", "cat > /dev/null; printf 'module m(); endmodule \\377\\r\\n'"))
        req = GenerationRequest(two_turn_conversation(), lookup_model("local-model", "local"), 1)
        ((text, usage),) = backend.generate(req)
        assert text == "module m(); endmodule \ufffd\n"
        assert usage.output_tokens == 6

    def test_timeout_is_transport_error(self):
        backend = CommandBackend(("/bin/sh", "-c", "exec sleep 30"), timeout=0.2)
        req = GenerationRequest(two_turn_conversation(), lookup_model("local-model", "local"), 1)
        with pytest.raises(TransportError, match="local model timed out after 0.2s"):
            backend.generate(req)

    def test_flooding_process_is_transport_error(self, tmp_path):
        pid = tmp_path / "pid"
        backend = CommandBackend(("/bin/sh", "-c", f"echo $$ > {pid}; exec yes flood"), timeout=10.0)
        req = GenerationRequest(two_turn_conversation(), lookup_model("local-model", "local"), 1)
        start = time.monotonic()
        with pytest.raises(TransportError, match=f"local model printed more than {OUTPUT_CAP} bytes"):
            backend.generate(req)
        assert time.monotonic() - start < 1
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid.read_text()), 0)

    def test_start_failure_is_transport_error(self, tmp_path):
        backend = CommandBackend((str(tmp_path / "no-such-model"),))
        req = GenerationRequest(two_turn_conversation(), lookup_model("local-model", "local"), 1)
        with pytest.raises(TransportError, match="No such file or directory"):
            backend.generate(req)

    def test_unwritable_temp_dir_is_transport_error(self, tmp_path, monkeypatch):
        # The prompt reaches stdin through a temporary file.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        backend = CommandBackend(("cat",))
        req = GenerationRequest(two_turn_conversation(), lookup_model("local-model", "local"), 1)
        with pytest.raises(TransportError, match="No such file or directory"):
            backend.generate(req)

    def test_nonzero_exit_is_transport_error(self):
        backend = CommandBackend((sys.executable, "-c", "import sys; sys.exit(3)"))
        req = GenerationRequest(two_turn_conversation(), lookup_model("local-model", "local"), 1)
        with pytest.raises(TransportError):
            backend.generate(req)

    @pytest.mark.parametrize(
        "argv, timeout",
        [((), 300.0), (("cat",), math.inf), (("cat",), math.nan), (("cat",), 0.0), (("cat",), -1.0),
         (("cat",), 10**400)],
        ids=["no argv", "inf", "nan", "zero", "negative", "too large for a float"],
    )
    def test_bad_argv_or_timeout_refused_before_any_process(self, monkeypatch, argv, timeout):
        started = []

        def run_process(*args, **kwargs):
            started.append(args)
            raise OSError("not started in this test")

        monkeypatch.setattr(edatools, "run_process", run_process)
        req = GenerationRequest(two_turn_conversation(), lookup_model("local-model", "local"), 2)
        with pytest.raises(ValueError, match="argv" if not argv else "timeout"):
            CommandBackend(argv, timeout).generate(req)
        assert started == []

    def test_candidates_run_concurrently(self):
        k, delay = 3, 0.5
        backend = CommandBackend(("/bin/sh", "-c", f"sleep {delay}; echo 'module m(); endmodule'"))
        req = GenerationRequest(two_turn_conversation(), lookup_model("local-model", "local"), k)
        start = time.perf_counter()
        replies = backend.generate(req)
        elapsed = time.perf_counter() - start
        assert len(replies) == k
        assert all("module m()" in text for text, _ in replies)
        assert elapsed < k * delay

    def test_replies_handed_over_as_they_arrive(self):
        backend = CommandBackend((sys.executable, "-c", "print('module m(); endmodule')"))
        log = ReplyLog()
        req = GenerationRequest(two_turn_conversation(), lookup_model("local-model", "local"), 2, on_reply=log)
        replies = backend.generate(req)
        assert log.by_index() == dict(enumerate(replies))

    def test_probes_first_call_and_after_a_failed_run(self, tmp_path):
        # Each run logs its start and end; the run that removes the ``fail``
        # directory exits 3. A call probed if its first run ended first.
        log, fail = tmp_path / "log", tmp_path / "fail"
        script = (
            f"echo start >> {shlex.quote(str(log))}; sleep 0.1; echo end >> {shlex.quote(str(log))}; "
            f"if rmdir {shlex.quote(str(fail))} 2>/dev/null; then exit 3; fi; echo 'module m(); endmodule'"
        )
        backend = CommandBackend(("/bin/sh", "-c", script))
        req = GenerationRequest(two_turn_conversation(), lookup_model("local-model", "local"), 2)

        def probed():
            log.write_text("")
            assert len(backend.generate(req)) == 2
            return log.read_text().split()[:2] == ["start", "end"]

        assert probed()
        assert not probed()
        fail.mkdir()
        with pytest.raises(TransportError):
            backend.generate(req)
        assert probed()
        assert not probed()


class TestRunThreads:
    """``_run_threads`` is the one place that hands out the fan-out's and the sweep's jobs."""

    @pytest.mark.parametrize("most, count", [(3, 7), (8, 2), (1, 3), (2, 0)])
    def test_threads_take_jobs_once_in_list_order(self, most, count):
        threads = min(most, count)
        taken, held = [], []
        # The first job on each thread holds it until ``here`` has looked,
        # so exactly the first ``threads`` jobs are taken by then.
        gate, release = threading.Barrier(threads + 1, timeout=10), threading.Event()

        def job(i):
            taken.append((i, threading.current_thread().name))
            if i < threads:
                gate.wait()
                release.wait(10)

        def here():
            gate.wait()
            held.extend(taken)
            release.set()

        _run_threads([partial(job, i) for i in range(count)], most, "worker", threading.Event(), here)
        assert sorted(i for i, _ in held) == list(range(threads))
        names = {f"worker-{n}" for n in range(threads)}
        assert {name for _, name in held} == {name for _, name in taken} == names
        assert sorted(i for i, _ in taken) == list(range(count))
        if most == 1:
            assert [i for i, _ in taken] == list(range(count))

    def test_error_raised_and_no_later_job_taken(self):
        ran = []

        def boom():
            ran.append("boom")
            raise RuntimeError("boom")

        jobs = [lambda: ran.append("ok"), boom, lambda: ran.append("never")]
        with pytest.raises(RuntimeError, match="boom"):
            _run_threads(jobs, 1, "worker", threading.Event())
        assert ran == ["ok", "boom"]

    def test_no_job_taken_once_stop_is_set(self):
        stop = threading.Event()
        stop.set()
        ran = []
        _run_threads([partial(ran.append, i) for i in range(3)], 2, "worker", stop, lambda: ran.append("here"))
        assert ran == ["here"]


class TestRetryPolicy:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_backoff_delays_nondecreasing(self, seed):
        rng = random.Random(seed)
        policy = RetryPolicy()
        delays = [backoff_delay(policy, i, rng) for i in range(policy.attempts - 1)]
        assert delays == sorted(delays)
        assert all(d > 0 for d in delays)

    @pytest.mark.parametrize("attempts", [0, -1])
    def test_needs_at_least_one_attempt(self, attempts):
        # With no attempt, no request would ever be sent.
        with pytest.raises(ValueError, match="attempts must be at least 1"):
            RetryPolicy(attempts=attempts)

    @pytest.mark.parametrize(
        "field, value",
        [("base_delay", -1.0), ("base_delay", math.nan), ("base_delay", math.inf),
         pytest.param("base_delay", 10**400, id="base_delay-10**400"),
         ("factor", 0.5), ("factor", math.nan), ("factor", math.inf),
         pytest.param("factor", 10**400, id="factor-10**400")],
    )
    def test_delays_are_finite_and_never_shrink(self, field, value):
        # A negative delay would reach time.sleep; a factor below 1 shrinks delays.
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**{field: value})


class TestMockScriptFile:
    def test_load_round_trip(self, tmp_path):
        script = {
            "default_reply": "nope",
            "tokens_per_reply": {"input_tokens": 9, "output_tokens": 11},
            "replies": {"top_module/0/0": "module m(); endmodule"},
        }
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        backend = load_mock_script(path)
        req = GenerationRequest(
            two_turn_conversation(), lookup_model("mock"), 2, task_name="top_module", depth=0
        )
        replies = backend.generate(req)
        assert replies[0] == ("module m(); endmodule", TokenUsage(9, 11))
        assert replies[1] == ("nope", TokenUsage(9, 11))

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("{not json", "not a JSON file"),
            ("[1, 2]", 'a mock script must be a JSON object whose "replies" is an object'),
            ('{"replies": ["a"]}', 'a mock script must be a JSON object whose "replies" is an object'),
            ('{"replies": {"a/0": "x"}}', "reply key 'a/0' is not <task>/<depth>/<index>"),
            ('{"replies": {"a/b/0": "x"}}', "reply key 'a/b/0' is not <task>/<depth>/<index>"),
            ('{"replies": {"a/0/0": 3}}', "every reply must be a string"),
            ('{"default_reply": null}', "every reply must be a string"),
            ('{"tokens_per_reply": [1]}', "tokens_per_reply needs integer input_tokens and output_tokens"),
            ('{"tokens_per_reply": {"input_tokens": "many"}}', "tokens_per_reply needs integer"),
            ('{"tokens_per_reply": {"input_tokens": 1.5}}', "tokens_per_reply needs integer"),
            ('{"tokens_per_reply": {"output_tokens": "7"}}', "tokens_per_reply needs integer"),
            ('{"tokens_per_reply": {"input_tokens": true}}', "tokens_per_reply needs integer"),
        ],
    )
    def test_malformed_script_names_the_file(self, tmp_path, text, detail):
        path = tmp_path / "script.json"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_mock_script(path)
        assert str(info.value).startswith(f"{path}: {detail}")

    def test_missing_script_raises_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_mock_script(tmp_path / "missing.json")


class FakeResponse:
    def __init__(self, status_code, text):
        self.status_code = status_code
        self.text = text

    def json(self):
        return json.loads(self.text)


class TestRequestsTransport:
    """The HTTP transport, with ``requests.post`` replaced: no network needed."""

    def test_request_and_reply_pass_through(self, monkeypatch):
        sent = []

        def post(url, **kwargs):
            sent.append((url, kwargs))
            return FakeResponse(201, '{"id": "x", "choices": []}')

        monkeypatch.setattr(requests, "post", post)
        headers = {"Authorization": "Bearer k"}
        body = {"model": "m", "messages": []}
        assert requests_transport("https://example.test/v1", headers, body) == (
            201, {"id": "x", "choices": []}
        )
        assert sent == [("https://example.test/v1", {"headers": headers, "json": body, "timeout": 120.0})]

    def test_request_exception_is_transport_error(self, monkeypatch):
        def post(url, **kwargs):
            raise requests.ConnectionError("connection refused")

        monkeypatch.setattr(requests, "post", post)
        with pytest.raises(TransportError, match="connection refused"):
            requests_transport("https://example.test/v1", {}, {})

    @pytest.mark.parametrize("text", ["<html>Bad Gateway</html>", "", "[1, 2]", '"oops"', "null", "3"])
    def test_body_that_is_not_a_json_object_comes_back_raw(self, monkeypatch, text):
        monkeypatch.setattr(requests, "post", lambda url, **kwargs: FakeResponse(502, text))
        assert requests_transport("https://example.test/v1", {}, {}) == (502, {"raw": text})


# Run in a fresh interpreter: the test process itself has long imported requests.
IMPORT_GUARD = """
import sys
import tempfile

import hdlsmith, hdlsmith.cli
from hdlsmith.backends import ChatCompletionsBackend, GenerationRequest, default_registry, lookup_model
from hdlsmith.prompts import Conversation, Message, Role

assert "requests" not in sys.modules, "loaded by importing hdlsmith"
default_registry()
payload = {"choices": [{"message": {"content": "ok"}}], "usage": {}}
backend = ChatCompletionsBackend(transport=lambda url, headers, body: (200, payload))
conversation = Conversation((Message(Role.USER, "hi"),))
replies = backend.generate(GenerationRequest(conversation, lookup_model("gpt-4o-mini"), 1))
assert replies[0][0] == "ok"
assert "requests" not in sys.modules, "loaded by a request through an injected transport"
"""


def test_http_client_is_not_loaded_until_a_request_is_sent():
    run_fresh(IMPORT_GUARD, OPENAI_API_KEY="test-key")
