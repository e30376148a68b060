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
    """The extracted module and where it starts in the reply.

    ``module_src`` is ``raw[start:start + len(module_src)]`` of the reply it
    came from; both are None exactly when no source was found.
    """

    module_src: str | None
    source: ExtractionSource
    start: int | None = None

    def __post_init__(self) -> None:
        found = self.source is not ExtractionSource.NONE
        if (self.module_src is not None) != found or (self.start is not None) != found:
            raise ValueError("module_src and start present exactly when a source was found")

    @property
    def span(self) -> tuple[int, int] | None:
        """Half-open offsets of the module in the reply, None when there is none."""
        if self.module_src is None or self.start is None:
            return None
        return self.start, self.start + len(self.module_src)


def _mask_line_comments(text: str) -> str:
    # Blank out '//...' to end of line with spaces so offsets are preserved.
    # Block comments are deliberately not parsed; a keyword inside /* */ is a
    # known false positive.
    out = []
    for line in text.split("\n"):
        idx = line.find("//")
        out.append(line if idx < 0 else line[:idx] + " " * (len(line) - idx))
    return "\n".join(out)


def _fenced_blocks(text: str) -> Iterator[tuple[int, str]]:
    # Triple-backtick fences, line-oriented; the fence line itself (with any
    # language tag) is never part of the block. Yields each block with its
    # offset in ``text``.
    offset = 0
    open_at: int | None = None
    for line in text.split("\n"):
        end = offset + len(line)
        if line.lstrip().startswith("```"):
            if open_at is None:
                open_at = end + 1
            else:
                yield open_at, text[open_at : offset - 1]
                open_at = None
        offset = end + 1


def extract_module(raw: str) -> ExtractionResult:
    """Extract Verilog module text from a response, with its offset there.

    Preference order: the first fenced code block that holds both a whole-word
    ``module`` and ``endmodule``; otherwise the span from the first ``module``
    keyword to the last ``endmodule`` (so replies with helper modules stay
    compilable as one unit); otherwise nothing. Keyword occurrences inside
    line comments never count.
    """
    for offset, block in _fenced_blocks(raw):
        masked = _mask_line_comments(block)
        if _MODULE_RE.search(masked) and _ENDMODULE_RE.search(masked):
            stripped = block.lstrip()
            start = offset + len(block) - len(stripped)
            return ExtractionResult(stripped.rstrip(), ExtractionSource.FENCED_BLOCK, start)
    masked = _mask_line_comments(raw)
    first = _MODULE_RE.search(masked)
    last = None
    for match in _ENDMODULE_RE.finditer(masked):
        last = match
    if first is not None and last is not None and last.end() > first.start():
        return ExtractionResult(raw[first.start() : last.end()], ExtractionSource.MODULE_SPAN, first.start())
    return ExtractionResult(None, ExtractionSource.NONE)
