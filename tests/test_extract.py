"""Module extraction from free-form replies: fences, spans, comment masking."""

from __future__ import annotations

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hdlsmith.core import DesignTask
from hdlsmith.extract import ExtractionResult, ExtractionSource, extract_module
from hdlsmith.faketools import offline_evaluate


# Replies that move the module around: indented and tagged fences, padding
# inside them, CRLF line ends and non-ASCII prose; plus free-form jumbles.
@st.composite
def replies(draw):
    nl = draw(st.sampled_from(["\n", "\r\n"]))
    pad = st.sampled_from(["", " ", "\t ", nl, nl + nl, " " + nl])
    prose = st.text(max_size=12)
    inner = f"{draw(pad)}module m_é();{nl}  // 模块{nl}endmodule{draw(pad)}"
    if draw(st.booleans()):
        opening = draw(st.sampled_from(["```", "```verilog", "  ```sv", "\t```"]))
        closing = draw(st.sampled_from(["```", "   ```"]))
        inner = f"{opening}{nl}{inner}{nl}{closing}"
    return f"{draw(prose)}{nl}{inner}{nl}{draw(prose)}"


jumbles = st.lists(
    st.sampled_from(["```", "```v", "\n", "\r\n", " ", "module m();", "endmodule", "// module", "é"])
    | st.text(max_size=6),
    max_size=20,
).map("".join)


class TestFencedExtraction:
    def test_canonical_fenced_reply(self):
        raw = "Here is the fix:\n```verilog\nmodule top_module(); endmodule\n```"
        result = extract_module(raw)
        assert result.source is ExtractionSource.FENCED_BLOCK
        assert result.module_src == "module top_module(); endmodule"

    def test_fence_lines_are_stripped(self):
        raw = "```\nmodule m();\nendmodule\n```"
        result = extract_module(raw)
        assert "```" not in result.module_src

    def test_language_tag_ignored(self):
        for tag in ("", "verilog", "systemverilog", "sv"):
            result = extract_module(f"```{tag}\nmodule m(); endmodule\n```")
            assert result.module_src == "module m(); endmodule"

    def test_first_block_with_module_wins(self):
        raw = (
            "Explanation:\n```python\nprint('not hdl')\n```\n"
            "The fix:\n```verilog\nmodule a(); endmodule\n```\n"
            "Old version:\n```verilog\nmodule b(); endmodule\n```"
        )
        result = extract_module(raw)
        assert result.source is ExtractionSource.FENCED_BLOCK
        assert "module a" in result.module_src
        assert "module b" not in result.module_src

    def test_block_with_keyword_only_in_comment_is_skipped(self):
        raw = (
            "```\n// module endmodule words in a comment only\nx = 1\n```\n"
            "module real_one(); endmodule"
        )
        result = extract_module(raw)
        assert result.source is ExtractionSource.MODULE_SPAN
        assert result.module_src == "module real_one(); endmodule"


class TestSpanExtraction:
    def test_span_covers_all_modules(self):
        raw = "module a(); endmodule\nmodule b(); endmodule"
        # Independent oracle: plain first-index / last-index over the text.
        start = raw.index("module")
        end = raw.rindex("endmodule") + len("endmodule")
        result = extract_module(raw)
        assert result.source is ExtractionSource.MODULE_SPAN
        assert result.module_src == raw[start:end] == raw

    def test_leading_prose_is_dropped(self):
        raw = "Sure! Here is the design.\nmodule m();\nendmodule\nHope this helps."
        result = extract_module(raw)
        assert result.module_src == "module m();\nendmodule"

    def test_whole_word_matching(self):
        assert extract_module("I cannot write modular code").module_src is None
        assert extract_module("the endmodule keyword alone").module_src is None

    def test_endmodule_never_matches_module_search(self):
        # 'endmodule' must not satisfy the opening-keyword search.
        assert extract_module("endmodule only").module_src is None

    def test_line_comments_are_masked(self):
        raw = "// module fake(); endmodule\nmodule real_m(); endmodule\n// endmodule again"
        result = extract_module(raw)
        assert result.module_src == "module real_m(); endmodule"

    def test_reversed_keywords_do_not_extract(self):
        assert extract_module("endmodule then module m();").module_src is None


class TestExtractionProperties:
    @pytest.mark.parametrize(
        "module_src, source",
        [(None, ExtractionSource.FENCED_BLOCK), (None, ExtractionSource.MODULE_SPAN),
         ("module m(); endmodule", ExtractionSource.NONE)],
        ids=["fenced without module", "span without module", "module without source"],
    )
    def test_result_has_a_module_exactly_when_a_source_was_found(self, module_src, source):
        with pytest.raises(ValueError, match="module_src present exactly when a source was found"):
            ExtractionResult(module_src, source)

    def test_refusal_yields_none(self):
        result = extract_module("I cannot help with that request.")
        assert result.module_src is None
        assert result.source is ExtractionSource.NONE

    identifier = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)

    @given(identifier, st.sampled_from(["", "  ", "\n"]), st.booleans())
    def test_idempotent_on_extracted_modules(self, name, pad, fenced):
        body = f"module {name}(input a, output b);\n  assign b = a;\nendmodule"
        raw = f"noise before\n```verilog\n{body}\n```{pad}" if fenced else f"prose\n{body}\nprose"
        first = extract_module(raw)
        assert first.module_src is not None
        second = extract_module(first.module_src)
        assert second.module_src == first.module_src
        assert second.source is ExtractionSource.MODULE_SPAN

    @given(st.text(max_size=200))
    def test_extraction_always_ends_with_endmodule_token(self, raw):
        result = extract_module(raw)
        if result.module_src is not None:
            assert re.search(r"\bendmodule\b", result.module_src)

    @given(replies() | jumbles)
    def test_outcome_keeps_the_length_of_the_extracted_module(self, raw):
        task = DesignTask(name="m", prompt_text="// design m", testbench_src="module tb(); endmodule")
        with tempfile.TemporaryDirectory() as workdir:
            outcome = offline_evaluate(raw, task, Path(workdir), 1.0)
        assert outcome.module_chars == len(extract_module(raw).module_src or "")
