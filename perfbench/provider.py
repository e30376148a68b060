"""A modelled chat-completions provider behind the real ChatCompletionsBackend.

The registry entry the program calls (:class:`ProviderEntry`) tags each
``generate`` call with an id in the request's ``user`` field and hands the
request to a real ``hdlsmith.backends.ChatCompletionsBackend``. That backend
posts every candidate through :meth:`ModelledProvider.transport`, an
in-process stand-in for the HTTP API:

- the reply is a pure function of (task, depth, slot); the k billed replies
  of one ``generate`` call get slots 0..k-1 in the order they are answered;
- usage comes from the body and reply lengths, with a per-message overhead,
  so a full window that the program's own estimate lets through can still be
  rejected with ``400 context_length_exceeded``;
- every ``throttle_every``-th ``generate`` call gets one 429 or 503 answer
  (a seeded choice), so the backend's RetryPolicy retries it and never gives
  up; its backoff sleeps through :meth:`ModelledProvider.sleep`;
- answers that bill wait a fixed modelled latency first; a ``serial``
  provider, like a model server with one slot, serves one such wait at a
  time, so issuing requests concurrently cannot hide it.

The provider counts what it sees in every run, traced or not.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from decimal import Decimal
from typing import Callable

from gen import provider_tokens, reply_tokens

ReplyFn = Callable[[str, int, int], str]


@dataclass
class ProviderStats:
    """What the provider saw during one repetition of a workload."""

    requests: int = 0
    billed: int = 0
    retries: int = 0
    overflow_rejects: int = 0
    inflight_max: int = 0
    repeat_billed: int = 0
    input_tokens: int = 0
    output_tokens: int = 0
    cost_usd: Decimal = Decimal(0)
    backoff_wait_s: float = 0.0
    prompt_chars: list[int] = field(default_factory=list)
    # Billed prompt tokens per (task, depth, k): one value per key, since the
    # window of a depth depends only on the replies chosen before it.
    prompt_tokens: dict[tuple[str, int, int], set[int]] = field(default_factory=dict)
    # Start times of generate calls, for the per-depth latency of a search.
    call_starts: list[float] = field(default_factory=list)

    def counts(self) -> dict[str, object]:
        """The fields that must repeat exactly from one repetition to the next."""
        return {
            "requests": self.requests,
            "billed": self.billed,
            "retries": self.retries,
            "overflow_rejects": self.overflow_rejects,
            "repeat_billed": self.repeat_billed,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "cost_usd": self.cost_usd,
        }


@dataclass
class _Call:
    task: str
    depth: int
    num_candidates: int
    throttle_status: int | None
    next_slot: int = 0


class ModelledProvider:
    def __init__(
        self,
        reply: ReplyFn,
        *,
        latency_s: float,
        serial: bool = False,
        throttle_every: int,
        seed: int,
        windows: dict[str, int],
        prices: dict[str, tuple[Decimal, Decimal]],
    ):
        self._reply = reply
        self.latency_s = latency_s
        self.throttle_every = throttle_every
        self._seed = seed
        self._windows = windows
        self._prices = prices
        self._lock = threading.Lock()
        self._server = threading.Lock() if serial else nullcontext()
        self._ids = itertools.count()
        self.tracer = None
        self.reset()

    def reset(self) -> None:
        """Start a new repetition: fresh counters, call ordinals and history."""
        with self._lock:
            self.stats = ProviderStats()
            self._calls: dict[str, _Call] = {}
            self._ordinal = 0
            self._statuses = random.Random(self._seed)
            self._inflight = 0
            self._seen: set[tuple[str, int, int, int]] = set()
            # Latest arrival time of each (task, depth, slot) reply.
            self.arrivals: dict[tuple[str, int, int], float] = {}

    def _span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer is not None else nullcontext()

    def open_call(self, task: str, depth: int, num_candidates: int) -> str:
        with self._lock:
            ordinal = self._ordinal
            self._ordinal += 1
            status = None
            if self.throttle_every and ordinal % self.throttle_every == self.throttle_every - 1:
                status = self._statuses.choice((429, 503))
            call_id = f"call-{next(self._ids)}"
            self._calls[call_id] = _Call(task, depth, num_candidates, status)
            self.stats.call_starts.append(time.perf_counter())
        return call_id

    def close_call(self, call_id: str) -> None:
        with self._lock:
            del self._calls[call_id]

    def sleep(self, seconds: float) -> None:
        """The backend's backoff sleep: timed, and added to the stats."""
        start = time.perf_counter()
        with self._span("backends.backoff"):
            time.sleep(seconds)
        with self._lock:
            self.stats.backoff_wait_s += time.perf_counter() - start

    def transport(self, url: str, headers, body) -> tuple[int, dict]:
        call = self._calls[body["user"]]
        with self._span("backends.request", depth=call.depth):
            return self._answer(call, body)

    def _answer(self, call: _Call, body) -> tuple[int, dict]:
        stats = self.stats
        texts = [m["content"] for m in body["messages"]]
        with self._lock:
            stats.requests += 1
            self._inflight += 1
            stats.inflight_max = max(stats.inflight_max, self._inflight)
            stats.prompt_chars.append(sum(len(t) for t in texts))
            status, call.throttle_status = call.throttle_status, None
        try:
            if status is not None:
                with self._lock:
                    stats.retries += 1
                return status, {"error": {"message": "modelled throttle", "code": str(status)}}
            prompt = provider_tokens(texts)
            if prompt > self._windows[body["model"]]:
                with self._lock:
                    stats.overflow_rejects += 1
                return 400, {
                    "error": {
                        "code": "context_length_exceeded",
                        "message": f"This model's maximum context length is "
                        f"{self._windows[body['model']]} tokens; the messages have {prompt}.",
                    }
                }
            if self.latency_s:
                with self._server:
                    time.sleep(self.latency_s)
            with self._lock:
                slot = call.next_slot
                call.next_slot += 1
            text = self._reply(call.task, call.depth, slot)
            completion = reply_tokens(text)
            price_in, price_out = self._prices[body["model"]]
            # String hashes are cached on the message texts, so this stays cheap.
            conversation = hash(tuple(texts))
            with self._lock:
                self.arrivals[(call.task, call.depth, slot)] = time.perf_counter()
                stats.billed += 1
                stats.input_tokens += prompt
                stats.output_tokens += completion
                stats.cost_usd += (prompt * price_in + completion * price_out) / Decimal(1_000_000)
                key = (call.task, call.depth, slot, conversation)
                stats.repeat_billed += key in self._seen
                self._seen.add(key)
                stats.prompt_tokens.setdefault(
                    (call.task, call.depth, call.num_candidates), set()
                ).add(prompt)
            return 200, {
                "choices": [{"message": {"role": "assistant", "content": text}}],
                "usage": {"prompt_tokens": prompt, "completion_tokens": completion},
            }
        finally:
            with self._lock:
                self._inflight -= 1


class ProviderEntry:
    """The registry entry: tags the request, then calls the real backend."""

    def __init__(self, provider: ModelledProvider, backend):
        self.provider = provider
        self.backend = backend

    def generate(self, req):
        provider = self.provider
        call_id = provider.open_call(req.task_name, req.depth, req.num_candidates)
        tagged = replace(req, sampling={**req.sampling, "user": call_id})
        try:
            with provider._span("backends.generate", depth=req.depth):
                return self.backend.generate(tagged)
        finally:
            provider.close_call(call_id)
