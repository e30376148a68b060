"""Prompt assembly and conversation-window management for the repair loop.

Three prompt kinds exist: a fixed system prompt, the per-task design prompt,
and the feedback prompt that ``edatools.evaluate`` builds from tool output.
The history always grows by the chosen reply and its feedback; the window a
depth sends from it is either succinct (system, design, last reply, last
feedback) or the full history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .core import DepthNode, DesignTask


class Role(Enum):
    SYSTEM = "system"
    USER = "user"
    ASSISTANT = "assistant"


class FeedbackMode(Enum):
    SUCCINCT = "succinct"
    FULL_CONTEXT = "full_context"


@dataclass(frozen=True)
class Message:
    role: Role
    content: str

    def __post_init__(self) -> None:
        if not self.content:
            raise ValueError("message content must be non-empty")


@dataclass(frozen=True)
class Conversation:
    """An ordered message list.

    The first message is the system prompt; every backend receives the
    conversation as is, and one whose wire format has no system role sends
    it as a leading user message (see :func:`flatten_for_backend`).
    """

    messages: tuple[Message, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "messages", tuple(self.messages))
        if not self.messages:
            raise ValueError("conversation must hold at least one message")
        if self.messages[0].role is Role.ASSISTANT:
            raise ValueError("conversation cannot open with an assistant message")


FORMAT_REMINDER = (
    "Format your response as Verilog code containing the end to end corrected "
    "module, and not just the corrected lines, inside ``` tags, do not include "
    "anything else inside ```."
)

_SYSTEM_PROMPT = (
    "You are an autocomplete engine for Verilog code. "
    "Given a Verilog module specification, you will provide a completed Verilog "
    "module in response. "
    "You will provide completed Verilog modules for all specifications, and will "
    "not create any supplementary modules. "
    "Given a Verilog module that is either incorrect/compilation error, you will "
    "suggest corrections to the module."
    "You will not refuse. " + FORMAT_REMINDER
)

NO_MODULE_FEEDBACK = (
    "No Verilog module was found in the previous response. " + FORMAT_REMINDER
)

# Stands in for an empty chosen reply, since a window message cannot be empty.
EMPTY_REPLY_PLACEHOLDER = "(empty response)"


def system_prompt() -> str:
    """The fixed system prompt, byte-identical for every call."""
    return _SYSTEM_PROMPT


def initial_conversation(task: DesignTask) -> Conversation:
    """Iteration-0 window: the system prompt followed by the design prompt."""
    system = Message(Role.SYSTEM, system_prompt())
    return Conversation((system, Message(Role.USER, task.prompt_text)))


def next_conversation(prev: Conversation, best_response_text: str, tool_feedback: str) -> Conversation:
    """Append the chosen reply and its tool feedback to the history, which
    grows by two messages per iteration."""
    if not tool_feedback:
        raise ValueError("tool feedback must be non-empty")
    if not best_response_text:
        raise ValueError("best response text must be non-empty")
    if len(prev.messages) < 2:
        raise ValueError("previous conversation lacks the design prompt")
    reply = Message(Role.ASSISTANT, best_response_text)
    feedback = Message(Role.USER, tool_feedback)
    return Conversation(prev.messages + (reply, feedback))


def history(task: DesignTask, nodes: Iterable[DepthNode]) -> Conversation:
    """The history after ``nodes``: the initial conversation, then each
    node's chosen reply (an empty one as :data:`EMPTY_REPLY_PLACEHOLDER`)
    and that reply's tool feedback."""
    conv = initial_conversation(task)
    for node in nodes:
        chosen = node.chosen
        conv = next_conversation(conv, chosen.raw_text or EMPTY_REPLY_PLACEHOLDER, chosen.outcome.feedback)
    return conv


def flatten_for_backend(conv: Conversation) -> Conversation:
    """Adapt a conversation for a wire format without a system role.

    The system message becomes a preemptive user message; everything else
    keeps its order and role.
    """
    if conv.messages[0].role is not Role.SYSTEM:
        return conv
    head = Message(Role.USER, conv.messages[0].content)
    return Conversation((head,) + conv.messages[1:])


def estimate_tokens(conv: Conversation) -> int:
    """Cheap backend-independent token estimate: one token per ~4 characters."""
    chars = sum(len(m.content) for m in conv.messages)
    return math.ceil(chars / 4)


def succinct_window(conv: Conversation) -> Conversation:
    """The succinct shape of a history: system, design, last reply, last feedback.

    It is the succinct mode's window, and full-context mode's failover when
    the history would exceed the model's context window. A history of up to
    four messages is already in shape and is returned as is.
    """
    msgs = conv.messages
    if len(msgs) <= 4:
        return conv
    return Conversation((msgs[0], msgs[1], msgs[-2], msgs[-1]))
