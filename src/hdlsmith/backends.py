"""Uniform interface for requesting candidate completions from model backends.

Two HTTP wire-format families are implemented directly (a chat-completions
style and a messages style), plus a local-process hook and a deterministic
scripted mock for offline runs. Credentials come from environment variables;
transports are injectable so tests replay recorded fixtures.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from decimal import Decimal
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Protocol

from .core import ModelSpec, TokenUsage
from .prompts import Conversation, Role, estimate_tokens, flatten_for_backend

CHAT_COMPLETIONS_FAMILY = "ChatGPT"
MESSAGES_FAMILY = "Claude"
MOCK_FAMILY = "mock"


class BackendError(Exception):
    """Base class for generation failures; aborts the current search depth."""


class AuthError(BackendError):
    """Bad or missing credentials; never retried."""


class RateLimitedError(BackendError):
    """Provider throttled the request; retried with backoff."""


class TransportError(BackendError):
    """Network or server-side failure; retried with backoff."""


class ContextOverflowError(BackendError):
    """The prompt exceeded the model's context window; signals window fallback."""


# One candidate: the reply text and the usage its provider reported for it.
Reply = tuple[str, TokenUsage]


@dataclass(frozen=True)
class GenerationRequest:
    """One request for ``num_candidates`` completions of a conversation.

    ``task_name``/``depth`` are attribution metadata: scripted backends key
    replies on them and call records carry them.

    ``on_reply``, when set, is called once per reply as ``on_reply(index,
    reply)`` as soon as that reply has its arrival index, so the caller can
    work on each reply while the others are still in flight. The HTTP and
    command backends call it on the thread that received the reply, also for
    the replies of a call that then raises (see ``_FanOut``); ``MockBackend``
    only returns its replies. A reply returned but never handed over is the
    caller's to handle. It takes no part in equality.
    """

    conversation: Conversation
    model: ModelSpec
    num_candidates: int = 1
    sampling: Mapping[str, object] = field(default_factory=dict)
    task_name: str | None = None
    depth: int | None = None
    on_reply: Callable[[int, Reply], None] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_candidates < 1:
            raise ValueError("num_candidates must be at least 1")


class Backend(Protocol):
    def generate(self, req: GenerationRequest) -> tuple[Reply, ...]:
        """The request's replies, in the order they arrived."""


MODEL_CATALOG: dict[str, ModelSpec] = {
    spec.model_id: spec
    for spec in (
        ModelSpec(MESSAGES_FAMILY, "claude-3-haiku", Decimal("0.25"), Decimal("1.25"), 200_000),
        ModelSpec(CHAT_COMPLETIONS_FAMILY, "gpt-3.5-turbo-16k", Decimal("3.00"), Decimal("4.00"), 16_000),
        ModelSpec(CHAT_COMPLETIONS_FAMILY, "gpt-4o-mini", Decimal("0.15"), Decimal("0.60"), 128_000),
        ModelSpec(CHAT_COMPLETIONS_FAMILY, "gpt-4o", Decimal("5.00"), Decimal("15.00"), 128_000),
    )
}


def lookup_model(model_id: str, family: str | None = None) -> ModelSpec:
    """Resolve a model id against the pricing catalog.

    Unknown ids get a zero-priced spec with a generous context window so
    scripted and experimental models work without catalog entries.
    """
    spec = MODEL_CATALOG.get(model_id)
    if spec is not None:
        if family is not None and family != spec.family:
            return replace(spec, family=family)
        return spec
    return ModelSpec(family or MOCK_FAMILY, model_id, Decimal(0), Decimal(0), 128_000)


@dataclass(frozen=True)
class RetryPolicy:
    attempts: int = 5
    base_delay: float = 1.0
    factor: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")
        if not 0 <= self.base_delay <= sys.float_info.max:
            raise ValueError("base_delay must be a non-negative finite number")
        if not 1 <= self.factor <= sys.float_info.max:
            raise ValueError("factor must be a finite number of at least 1")


DEFAULT_RETRY = RetryPolicy()


def backoff_delay(policy: RetryPolicy, retry_index: int, rng: random.Random) -> float:
    """Jittered exponential delay before retry ``retry_index`` (0-based).

    Jitter spans the upper half of each exponential step, so consecutive
    delays never decrease.
    """
    half = policy.base_delay * policy.factor**retry_index / 2.0
    return half + rng.random() * half


# A window whose estimate is within this share of the model's context limit
# is probed: the estimate ignores per-message overhead, so a provider may
# count such a window over the limit and reject every request for it.
NEAR_LIMIT_MARGIN = 0.10
# Requests in flight at once against one backend, across all its calls; the
# others queue.
MAX_IN_FLIGHT = 8


# How long a thread waiting for the threads it started sleeps at a time: an
# interrupt reaches it only when it wakes, not while it blocks on a lock. It
# waits on a condition, never in ``Thread.join`` while a thread works: on
# CPython 3.10-3.12 an interrupted join marks the live thread stopped, so a
# later join, and the interpreter's exit, no longer wait for it.
_INTERRUPT_POLL_S = 0.1


def _run_threads(
    jobs: list[Callable[[], None]], most: int, name: str, stop: threading.Event, here: Callable[[], None] | None = None
) -> None:
    """Run ``jobs`` on ``min(most, len(jobs))`` new threads named
    ``<name>-<n>``, and ``here`` on the calling thread once they have
    started; return once every one of them has ended.

    Each thread takes the next job in list order, runs it, and then takes
    another, until none is left or ``stop`` is set: no job is taken once
    ``stop`` is set. Whatever raises, on any of them or on the calling
    thread (an interrupt too), sets ``stop``, which a job may read to end
    early. The call then returns or raises only once every thread that
    began has ended, so none still works after it. The calling thread's own
    error is raised first, else the first error a thread raised.
    """
    state = threading.Condition()
    started = begun = ended = 0  # threads whose start() returned, that began, that ended
    raised: list[BaseException] = []
    todo = iter(jobs)

    def take() -> Callable[[], None] | None:
        with state:
            return None if stop.is_set() else next(todo, None)

    def run() -> None:
        nonlocal begun, ended
        with state:
            begun += 1
        try:
            # Read after counting itself: a thread that begins after the last
            # wait, as one whose start() an interrupt cut short may, finds
            # ``stop`` set.
            while (job := take()) is not None:
                job()
        except BaseException as exc:  # raised on the calling thread
            raised.append(exc)
            stop.set()
        finally:
            with state:
                ended += 1
                state.notify()

    def wait_for_threads() -> None:
        with state:
            while ended < max(started, begun):
                state.wait(_INTERRUPT_POLL_S)

    threads = [threading.Thread(target=run, name=f"{name}-{n}") for n in range(min(most, len(jobs)))]
    try:
        for thread in threads:
            thread.start()
            started += 1
        if here is not None:
            here()
        wait_for_threads()
    except BaseException:
        stop.set()
        raise
    finally:
        wait_for_threads()  # again after an error, an interrupt of the first wait included
        for thread in threads:
            if thread.is_alive():  # its work is over
                thread.join()
    if raised:
        raise raised[0]


class _FanOut:
    """Sends each call's ``num_candidates`` identical requests for one backend.

    A call may start with one probe request alone, so that a rejection every
    request of the call would get (bad credentials, throttling, a window over
    the context limit) costs one request, not k; it also costs a round trip.
    So a call probes only where such a rejection is likely: while the backend
    is failing, and for a window within ``NEAR_LIMIT_MARGIN`` of the model's
    context limit. A backend is failing until a call ends with every request
    answered, and again once a call ends with a request that finally failed;
    a request that a retry recovered was answered. A request holds one of the
    backend's ``MAX_IN_FLIGHT`` slots only while in flight, so the backend's
    calls share the cap, no thread holds two, and the others queue. A call
    runs its helper threads with ``_run_threads``, so it returns or raises
    only once they have all ended, also when interrupted.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._failing = True
        self._slots = threading.BoundedSemaphore(MAX_IN_FLIGHT)

    def __call__(self, req: GenerationRequest, request: Callable[[], Reply]) -> tuple[Reply, ...]:
        """Make the requests, all at once or after a probe.

        When the call probes and the probe succeeds, the other k-1 go out at
        once; otherwise all k go out at once, one of them from the calling
        thread. The other k-1 are the jobs of ``_run_threads``, made by up to
        ``MAX_IN_FLIGHT - 1`` helper threads, each taking the next one until
        none is left.
        Replies are indexed and returned in arrival order: the requests are
        indistinguishable, and a provider that serves one request at a time
        then yields the same order as a serial loop. ``req.on_reply(index,
        reply)`` runs on the thread that received the reply, right after it
        got its index; a probe's reply is received on the calling thread and
        handed over there once the helpers have started. Once an ``on_reply``
        raised, on any thread, or the calling thread was interrupted, no
        helper takes a further request. Any error is raised only once every
        helper has ended, so no request is still in flight and no reply is
        handed over after the call; an ``on_reply`` error is raised before a
        request's. However the call ends, the backend then counts as failing
        exactly when one of its requests failed.
        """
        deliver = req.on_reply or (lambda index, reply: None)
        replies: list[Reply] = []
        errors: list[Exception] = []
        lock = threading.Lock()

        def receive() -> tuple[int, Reply] | None:
            try:
                with self._slots:
                    reply = request()
            except Exception as exc:
                errors.append(exc)
                return None
            with lock:
                replies.append(reply)
                return len(replies) - 1, reply

        def attempt() -> None:
            received = receive()
            if received is not None:
                deliver(*received)

        stop = threading.Event()
        try:
            # Decide on the probe once, up front: the helper threads are appending
            # to ``replies`` while the calling thread makes its own request.
            limit = req.model.max_context_tokens
            near_limit = estimate_tokens(req.conversation) >= (1 - NEAR_LIMIT_MARGIN) * limit
            with self._lock:
                failing = self._failing
            probe = receive() if failing or near_limit else None
            if errors:
                raise errors[0]
            here = attempt if probe is None else partial(deliver, *probe)
            # The requests besides the calling thread's.
            _run_threads([attempt] * (req.num_candidates - 1), MAX_IN_FLIGHT - 1, "hdlsmith-request", stop, here)
            if errors:
                raise errors[0]
            return tuple(replies)
        finally:
            # Once per call, after every request has returned: a failure and a
            # success recorded per request would race.
            with self._lock:
                self._failing = bool(errors)


# Transport signature: (url, headers, json_body) -> (status_code, payload).
Transport = Callable[[str, Mapping[str, str], Mapping[str, object]], tuple[int, dict]]


def requests_transport(url: str, headers: Mapping[str, str], body: Mapping[str, object]) -> tuple[int, dict]:
    """POST ``body`` as JSON; return the status and the reply's JSON object,
    or ``{"raw": text}`` for a reply that is not a JSON object."""
    # Imported here, not at module scope: loading the HTTP client costs more
    # than the rest of the package's start-up, and only a process that sends
    # a request needs it.
    import requests

    try:
        resp = requests.post(url, headers=dict(headers), json=body, timeout=120.0)
    except requests.RequestException as exc:
        raise TransportError(str(exc)) from exc
    try:
        payload = resp.json()
    except ValueError:
        payload = None
    if not isinstance(payload, dict):
        payload = {"raw": resp.text}
    return resp.status_code, payload


def _error_field(payload: object) -> object:
    # An injected transport may hand back any JSON value, not only an object.
    return payload.get("error") if isinstance(payload, dict) else None


def _error_message(payload: object) -> str:
    err = _error_field(payload)
    if isinstance(err, dict):
        return str(err.get("message", err))
    return str(err or payload)


def _looks_like_overflow(payload: object) -> bool:
    err = _error_field(payload)
    code = err.get("code", "") if isinstance(err, dict) else ""
    message = _error_message(payload).lower()
    return (
        code == "context_length_exceeded"
        or "context length" in message
        or "prompt is too long" in message
        or "too many tokens" in message
    )


def _raise_for_status(status: int, payload: object) -> None:
    if status in (401, 403):
        raise AuthError(_error_message(payload))
    if status == 429:
        raise RateLimitedError(_error_message(payload))
    if status == 400 and _looks_like_overflow(payload):
        raise ContextOverflowError(_error_message(payload))
    if status >= 500:
        raise TransportError(f"server error {status}: {_error_message(payload)}")
    if status != 200:
        raise BackendError(f"unexpected status {status}: {_error_message(payload)}")


class _HttpBackend:
    """Shared retry/credential plumbing for the two HTTP families."""

    def __init__(
        self,
        *,
        base_url: str,
        api_key_env: str,
        transport: Transport | None = None,
        retry: RetryPolicy = DEFAULT_RETRY,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.api_key_env = api_key_env
        self.transport = transport or requests_transport
        self.retry = retry
        self._sleep = sleep
        self._rng = rng or random.Random()
        self._fan_out = _FanOut()

    def _api_key(self) -> str:
        key = os.environ.get(self.api_key_env)
        if not key:
            raise AuthError(f"environment variable {self.api_key_env} is not set")
        return key

    def _post_with_retries(self, url: str, headers: Mapping[str, str], body: Mapping[str, object]) -> dict:
        for attempt in range(self.retry.attempts):
            try:
                status, payload = self.transport(url, headers, body)
                _raise_for_status(status, payload)
                return payload
            except (RateLimitedError, TransportError):
                if attempt + 1 == self.retry.attempts:
                    raise
                self._sleep(backoff_delay(self.retry, attempt, self._rng))
        raise TransportError("retry loop exhausted")  # unreachable

    def generate(self, req: GenerationRequest) -> tuple[Reply, ...]:
        # Providers report usage per call, not per choice, so each candidate
        # is its own request to keep usage attributable per reply.
        return self._fan_out(req, partial(self._single_completion, req))

    def _single_completion(self, req: GenerationRequest) -> Reply:
        raise NotImplementedError


class ChatCompletionsBackend(_HttpBackend):
    """Chat-completions wire format (system/user/assistant message list)."""

    def __init__(self, base_url: str = "https://api.openai.com/v1", api_key_env: str = "OPENAI_API_KEY", **kwargs):
        super().__init__(base_url=base_url, api_key_env=api_key_env, **kwargs)

    def _single_completion(self, req: GenerationRequest) -> Reply:
        headers = {
            "Authorization": f"Bearer {self._api_key()}",
            "Content-Type": "application/json",
        }
        body = {
            "model": req.model.model_id,
            "messages": [
                {"role": m.role.value, "content": m.content} for m in req.conversation.messages
            ],
        }
        body.update(req.sampling)
        payload = self._post_with_retries(f"{self.base_url}/chat/completions", headers, body)
        try:
            text = payload["choices"][0]["message"]["content"]
            usage = payload.get("usage", {})
            tokens = TokenUsage(int(usage.get("prompt_tokens", 0)), int(usage.get("completion_tokens", 0)))
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            raise TransportError(f"malformed completion payload: {exc}") from exc
        # A refusal or a tool call carries no text: an empty, still billed reply.
        if text is None:
            text = ""
        if not isinstance(text, str):
            raise TransportError(f"malformed completion payload: content is {type(text).__name__}")
        return text, tokens


class MessagesBackend(_HttpBackend):
    """Messages wire format (user/assistant turns, no native system role)."""

    api_version = "2023-06-01"
    default_max_tokens = 4096

    def __init__(self, base_url: str = "https://api.anthropic.com/v1", api_key_env: str = "ANTHROPIC_API_KEY", **kwargs):
        super().__init__(base_url=base_url, api_key_env=api_key_env, **kwargs)

    @staticmethod
    def _wire_messages(conv: Conversation) -> list[dict]:
        # The system text goes as a leading user turn; consecutive same-role
        # turns merge because the wire format requires strict alternation.
        merged: list[dict] = []
        for msg in flatten_for_backend(conv).messages:
            role = "assistant" if msg.role is Role.ASSISTANT else "user"
            if merged and merged[-1]["role"] == role:
                merged[-1]["content"] += "\n\n" + msg.content
            else:
                merged.append({"role": role, "content": msg.content})
        return merged

    def _single_completion(self, req: GenerationRequest) -> Reply:
        headers = {
            "x-api-key": self._api_key(),
            "anthropic-version": self.api_version,
            "content-type": "application/json",
        }
        sampling = dict(req.sampling)
        body = {
            "model": req.model.model_id,
            "max_tokens": int(sampling.pop("max_tokens", self.default_max_tokens)),
            "messages": self._wire_messages(req.conversation),
        }
        body.update(sampling)
        payload = self._post_with_retries(f"{self.base_url}/messages", headers, body)
        try:
            text = "".join(
                block["text"] for block in payload["content"] if block.get("type") == "text"
            )
            usage = payload.get("usage", {})
            tokens = TokenUsage(int(usage.get("input_tokens", 0)), int(usage.get("output_tokens", 0)))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise TransportError(f"malformed messages payload: {exc}") from exc
        return text, tokens


@dataclass
class CommandBackend:
    """Local-process hook: pipe the rendered conversation to a command.

    One subprocess per candidate, started like HTTP requests (see
    ``_FanOut``); stdout is the reply. A command that cannot start, times
    out, exits non-zero or prints more than ``edatools.OUTPUT_CAP`` bytes on
    a stream is a ``TransportError``. Usage is estimated at ~4 characters
    per token since there is no provider report. An empty ``argv``, or a
    ``timeout`` that is not positive and finite, raises ``ValueError``.
    """

    argv: tuple[str, ...]
    timeout: float = 300.0
    _fan_out: _FanOut = field(default_factory=_FanOut, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.argv:
            raise ValueError("argv must name a command")
        if not 0 < self.timeout <= sys.float_info.max:
            raise ValueError("timeout must be a positive finite number")

    @staticmethod
    def _render(conv: Conversation) -> str:
        return "\n\n".join(f"[{m.role.value}]\n{m.content}" for m in conv.messages)

    def generate(self, req: GenerationRequest) -> tuple[Reply, ...]:
        return self._fan_out(req, partial(self._run, self._render(req.conversation)))

    def _run(self, prompt: str) -> Reply:
        from .edatools import OUTPUT_CAP, run_process  # here, not at module scope: only this backend starts processes

        try:
            proc = run_process(self.argv, self.timeout, input=prompt)
        except OSError as exc:
            raise TransportError(str(exc)) from exc
        if proc.dropped:
            raise TransportError(f"local model printed more than {OUTPUT_CAP} bytes and was killed")
        if proc.timed_out:
            raise TransportError(f"local model timed out after {self.timeout:g}s")
        if not proc.exit_ok:
            raise TransportError(f"local model exited {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout, TokenUsage(math.ceil(len(prompt) / 4), math.ceil(len(proc.stdout) / 4))


@dataclass(frozen=True)
class MockCall:
    """Record of one generate() invocation against the mock backend."""

    task_name: str | None
    depth: int | None
    model_id: str
    num_candidates: int
    conversation: Conversation


DEFAULT_MOCK_REPLY = "I am unable to help with that request."


class MockBackend:
    """Deterministic scripted backend for offline runs and tests.

    Replies are keyed by ``(task_name, depth, index)``; unknown keys fall back
    to a configurable default reply that contains no module and therefore
    ranks -2 downstream. Every call is recorded for instrumentation.
    """

    def __init__(
        self,
        script: Mapping[tuple[str, int, int], str] | None = None,
        tokens_per_reply: TokenUsage = TokenUsage(100, 100),
        default_reply: str = DEFAULT_MOCK_REPLY,
    ):
        self.script = dict(script or {})
        self.tokens_per_reply = tokens_per_reply
        self.default_reply = default_reply
        self.calls: list[MockCall] = []
        self._lock = threading.Lock()

    def generate(self, req: GenerationRequest) -> tuple[Reply, ...]:
        with self._lock:
            self.calls.append(
                MockCall(req.task_name, req.depth, req.model.model_id, req.num_candidates, req.conversation)
            )
        return tuple(
            (self.script.get((req.task_name, req.depth, i), self.default_reply), self.tokens_per_reply)
            for i in range(req.num_candidates)
        )


def load_mock_script(path: str | Path) -> MockBackend:
    """Build a mock backend from a JSON script file.

    Schema: ``{"default_reply": str, "tokens_per_reply": {"input_tokens": n,
    "output_tokens": n}, "replies": {"<task>/<depth>/<index>": str}}``; all
    keys optional. A file that cannot be read raises ``OSError``; one that
    does not follow the schema raises ``ValueError`` naming the file.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("replies", {}), dict):
        raise ValueError(f'{path}: a mock script must be a JSON object whose "replies" is an object')
    script: dict[tuple[str, int, int], str] = {}
    for key, text in data.get("replies", {}).items():
        try:
            task_name, depth, index = key.rsplit("/", 2)
            script[(task_name, int(depth), int(index))] = text
        except ValueError:
            raise ValueError(f"{path}: reply key {key!r} is not <task>/<depth>/<index>") from None
    default_reply = data.get("default_reply", DEFAULT_MOCK_REPLY)
    tokens = data.get("tokens_per_reply", {})
    counts = [tokens.get(key, 100) for key in ("input_tokens", "output_tokens")] if isinstance(tokens, dict) else []
    # JSON 1.5, "7" and true are not counts, though int() reads them as 1, 7 and 1.
    if len(counts) != 2 or any(type(count) is not int or count < 0 for count in counts):
        raise ValueError(f"{path}: tokens_per_reply needs integer input_tokens and output_tokens")
    if not all(isinstance(text, str) for text in (*script.values(), default_reply)):
        raise ValueError(f"{path}: every reply must be a string")
    return MockBackend(script, tokens_per_reply=TokenUsage(*counts), default_reply=default_reply)


BackendRegistry = Mapping[str, Backend]


def default_registry(**extra: Backend) -> dict[str, Backend]:
    """The standard family-to-backend map, with overrides merged in."""
    registry: dict[str, Backend] = {
        CHAT_COMPLETIONS_FAMILY: ChatCompletionsBackend(),
        MESSAGES_FAMILY: MessagesBackend(),
    }
    registry.update(extra)
    return registry
