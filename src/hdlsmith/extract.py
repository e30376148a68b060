"""Pull a compilable Verilog module out of free-form LLM response text."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

_MODULE_RE = re.compile(r"\bmodule\b")
_ENDMODULE_RE = re.compile(r"\bendmodule\b")


class ExtractionSource(Enum):
    FENCED_BLOCK = "fenced_block"
    MODULE_SPAN = "module_span"
    NONE = "none"


@dataclass(frozen=True)
class ExtractionResult:
    """The extracted module, None exactly when no source was found."""

    module_src: str | None
    source: ExtractionSource

    def __post_init__(self) -> None:
        if (self.module_src is not None) != (self.source is not ExtractionSource.NONE):
            raise ValueError("module_src present exactly when a source was found")


def _mask_line_comments(text: str) -> str:
    # Blank out '//...' to end of line with spaces so offsets are preserved.
    # Block comments are deliberately not parsed; a keyword inside /* */ is a
    # known false positive.
    out = []
    for line in text.split("\n"):
        idx = line.find("//")
        out.append(line if idx < 0 else line[:idx] + " " * (len(line) - idx))
    return "\n".join(out)


def _fenced_blocks(text: str) -> Iterator[str]:
    # Triple-backtick fences, line-oriented; the fence line itself (with any
    # language tag) is never part of the block.
    block: list[str] | None = None
    for line in text.split("\n"):
        if line.lstrip().startswith("```"):
            if block is None:
                block = []
            else:
                yield "\n".join(block)
                block = None
        elif block is not None:
            block.append(line)


def extract_module(raw: str) -> ExtractionResult:
    """Extract Verilog module text from a response.

    Preference order: the first fenced code block that holds both a whole-word
    ``module`` and ``endmodule``; otherwise the span from the first ``module``
    keyword to the last ``endmodule`` (so replies with helper modules stay
    compilable as one unit); otherwise nothing. Keyword occurrences inside
    line comments never count.
    """
    for block in _fenced_blocks(raw):
        masked = _mask_line_comments(block)
        if _MODULE_RE.search(masked) and _ENDMODULE_RE.search(masked):
            return ExtractionResult(block.strip(), ExtractionSource.FENCED_BLOCK)
    masked = _mask_line_comments(raw)
    first = _MODULE_RE.search(masked)
    last = None
    for match in _ENDMODULE_RE.finditer(masked):
        last = match
    if first is not None and last is not None and last.end() > first.start():
        return ExtractionResult(raw[first.start() : last.end()], ExtractionSource.MODULE_SPAN)
    return ExtractionResult(None, ExtractionSource.NONE)
