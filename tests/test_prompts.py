"""Prompt text stability and conversation window shapes."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_candidate, make_outcome
from hdlsmith.core import DepthNode, OutcomeKind
from hdlsmith.prompts import (
    EMPTY_REPLY_PLACEHOLDER,
    Conversation,
    Message,
    Role,
    estimate_tokens,
    flatten_for_backend,
    history,
    initial_conversation,
    next_conversation,
    succinct_window,
    system_prompt,
)

SYSTEM_PROMPT_SHA256 = "33e1b838c6ffeb03f580c94caa0b87bf94e4d21e959a9a0d47d93d3165fffb6e"


class TestSystemPrompt:
    def test_opening_words(self):
        assert system_prompt().startswith("You are an autocomplete engine for Verilog code.")

    def test_mentions_fence_tags(self):
        assert "inside ``` tags" in system_prompt()

    def test_byte_stable(self):
        first, second = system_prompt(), system_prompt()
        assert first == second
        assert hashlib.sha256(first.encode()).hexdigest() == SYSTEM_PROMPT_SHA256


class TestInitialConversation:
    def test_two_messages(self, task):
        conv = initial_conversation(task)
        assert [m.role for m in conv.messages] == [Role.SYSTEM, Role.USER]

    def test_design_prompt_verbatim(self, task):
        conv = initial_conversation(task)
        assert conv.messages[1].content == task.prompt_text

    def test_mode_does_not_change_shape(self, task):
        # One history serves both modes: after one round it is four messages,
        # and the succinct window is that history itself, as full context
        # sends it.
        conv = next_conversation(initial_conversation(task), "reply", "feedback")
        assert [m.role for m in conv.messages] == [
            Role.SYSTEM, Role.USER, Role.ASSISTANT, Role.USER,
        ]
        assert succinct_window(conv) is conv


class TestNextConversation:
    def _iterate(self, task, rounds):
        conv = initial_conversation(task)
        for n in range(rounds):
            conv = next_conversation(conv, f"reply {n}", f"feedback {n}")
        return conv

    def test_succinct_is_four_messages_at_any_depth(self, task):
        window = succinct_window(self._iterate(task, 3))
        assert len(window.messages) == 4
        assert [m.role for m in window.messages] == [
            Role.SYSTEM, Role.USER, Role.ASSISTANT, Role.USER,
        ]

    @pytest.mark.parametrize("rounds", range(6))
    def test_full_context_grows_by_two(self, task, rounds):
        conv = self._iterate(task, rounds)
        assert len(conv.messages) == 2 + 2 * rounds

    def test_succinct_keeps_original_design_prompt(self, task):
        conv = self._iterate(task, 1)
        first = succinct_window(conv).messages[1].content
        conv = next_conversation(conv, "another reply", "more feedback")
        assert succinct_window(conv).messages[1].content == first == task.prompt_text

    def test_design_prompt_present_every_round_both_modes(self, task):
        conv = initial_conversation(task)
        for n in range(5):
            conv = next_conversation(conv, f"r{n}", f"f{n}")
            window = succinct_window(conv)
            assert conv.messages[1].content == window.messages[1].content == task.prompt_text
            assert len(window.messages) <= 4

    def test_rejects_empty_feedback(self, task):
        conv = initial_conversation(task)
        with pytest.raises(ValueError):
            next_conversation(conv, "reply", "")

    def test_rejects_empty_reply(self, task):
        conv = initial_conversation(task)
        with pytest.raises(ValueError):
            next_conversation(conv, "", "feedback")

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Message(Role.USER, ""), "message content must be non-empty"),
            (lambda: Conversation(()), "conversation must hold at least one message"),
            (lambda: Conversation((Message(Role.ASSISTANT, "hi"),)),
             "conversation cannot open with an assistant message"),
            (lambda: next_conversation(Conversation((Message(Role.SYSTEM, "sys"),)), "reply", "feedback"),
             "previous conversation lacks the design prompt"),
        ],
        ids=["empty message", "empty conversation", "assistant first", "no design prompt"],
    )
    def test_malformed_conversation_is_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_latest_reply_and_feedback_are_last_two(self, task):
        conv = self._iterate(task, 4)
        for window in (conv, succinct_window(conv)):
            assert window.messages[-2] == Message(Role.ASSISTANT, "reply 3")
            assert window.messages[-1] == Message(Role.USER, "feedback 3")


class TestHistory:
    def test_appends_each_nodes_chosen_reply_and_its_feedback(self, task):
        no_module = make_outcome(OutcomeKind.NO_MODULE, feedback="no module")
        nodes = [
            DepthNode(0, "mock", "mock", (make_candidate(raw_text="", outcome=no_module),)),
            DepthNode(1, "mock", "mock", (
                make_candidate(-2, depth=1, index=0),
                make_candidate(depth=1, index=1, outcome=make_outcome(feedback="2 mismatches")),
            )),
        ]
        assert history(task, []) == initial_conversation(task)
        expected = next_conversation(initial_conversation(task), EMPTY_REPLY_PLACEHOLDER, "no module")
        expected = next_conversation(expected, nodes[1].candidates[1].raw_text, "2 mismatches")
        assert history(task, nodes) == expected


class TestFlatten:
    def test_identity_without_system_message(self):
        conv = Conversation(
            (Message(Role.USER, "design"), Message(Role.ASSISTANT, "reply"))
        )
        assert flatten_for_backend(conv) is conv

    def test_system_becomes_leading_user(self, task):
        conv = initial_conversation(task)
        flat = flatten_for_backend(conv)
        assert [m.role for m in flat.messages] == [Role.USER, Role.USER]
        assert flat.messages[0].content == system_prompt()
        assert flat.messages[1].content == task.prompt_text

    @given(
        st.lists(
            st.tuples(st.sampled_from([Role.USER, Role.ASSISTANT]), st.text(min_size=1, max_size=8)),
            max_size=6,
        )
    )
    def test_role_multiset_preserved_modulo_system(self, tail):
        messages = [Message(Role.SYSTEM, "sys")] + [Message(r, c) for r, c in tail]
        conv = Conversation(tuple(messages))
        flat = flatten_for_backend(conv)
        assert len(flat.messages) == len(conv.messages)
        assert [m.content for m in flat.messages] == [m.content for m in conv.messages]
        assert [m.role for m in flat.messages[1:]] == [m.role for m in conv.messages[1:]]
        assert flat.messages[0].role is Role.USER


class TestWindowHelpers:
    def test_estimate_rounds_up(self, task):
        conv = Conversation((Message(Role.SYSTEM, "abcde"),))
        assert estimate_tokens(conv) == 2

    def test_succinct_window_collapses_long_history(self, task):
        conv = initial_conversation(task)
        for n in range(4):
            conv = next_conversation(conv, f"r{n}", f"f{n}")
        window = succinct_window(conv)
        assert len(window.messages) == 4
        assert window.messages[0] == conv.messages[0]
        assert window.messages[1].content == task.prompt_text
        assert window.messages[2] == conv.messages[-2]
        assert window.messages[3] == conv.messages[-1]

    def test_short_conversations_pass_through(self, task):
        conv = initial_conversation(task)
        assert succinct_window(conv) is conv
