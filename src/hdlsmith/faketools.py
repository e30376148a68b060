"""Deterministic compiler/simulator stand-ins for offline runs and tests.

The fakes honor directives embedded as line comments in the candidate module
source, so a scripted backend reply fully controls its own evaluation:

    // eda: compile-error
    // eda: warning
    // eda: mismatches=6220 samples=6283
    // eda: pass
    // eda: hang
    // eda: crash
    // eda: silent

They produce the same on-disk layout as the real toolchain (sources, a
placeholder ``.vvp`` artifact, ``log.txt``) and a simulation stdout shaped
like a real self-checking testbench summary.
"""

from __future__ import annotations

import re
from functools import partial
from pathlib import Path

from .core import DesignTask, EvalOutcome
from .edatools import CompileResult, ProcessRun, ToolIoError, candidate_files, evaluate, write_candidate_sources

_DIRECTIVE_RE = re.compile(r"//\s*eda:\s*(.+?)\s*$", re.MULTILINE)
_MISMATCH_DIRECTIVE_RE = re.compile(r"mismatches=(\d+)\s+samples=(\d+)")

DEFAULT_MISMATCHES = 50
DEFAULT_SAMPLES = 100


def _directives(module_src: str) -> list[str]:
    return [m.group(1) for m in _DIRECTIVE_RE.finditer(module_src)]


def fake_compile(
    module_src: str, testbench_src: str, workdir: Path, top_name: str
) -> CompileResult:
    module_path, _ = write_candidate_sources(module_src, testbench_src, workdir, top_name)
    directives = _directives(module_src)
    if "compile-error" in directives:
        message = f"{module_path.name}:1: error: scripted compile failure"
        return CompileResult((("error", message),), None)
    artifact = candidate_files(workdir, top_name).artifact
    artifact.write_text("fake compiled artifact\n", encoding="utf-8")
    if "warning" in directives:
        message = f"{module_path.name}:1: warning: scripted warning"
        return CompileResult((("warning", message),), artifact)
    return CompileResult((), artifact)


def fake_simulate(artifact_path: Path, timeout: float) -> ProcessRun:
    artifact_path = Path(artifact_path)
    if not artifact_path.exists():
        raise ToolIoError(f"simulation artifact missing: {artifact_path}")
    module_src = artifact_path.with_suffix(".sv").read_text(encoding="utf-8")
    directives = _directives(module_src)
    if "hang" in directives:
        return ProcessRun(None, "", "")
    if "crash" in directives:
        return ProcessRun(1, "", "scripted simulator crash\n")
    if "silent" in directives:
        return ProcessRun(0, "simulation ran quietly\n", "")
    mismatches, samples = DEFAULT_MISMATCHES, DEFAULT_SAMPLES
    if "pass" in directives:
        mismatches, samples = 0, DEFAULT_SAMPLES
    for directive in directives:
        counts = _MISMATCH_DIRECTIVE_RE.search(directive)
        if counts:
            mismatches, samples = int(counts.group(1)), int(counts.group(2))
    return ProcessRun(0, _summary_stdout(mismatches, samples), "")


def _summary_stdout(mismatches: int, samples: int) -> str:
    lines = []
    if mismatches > 0:
        lines.append(
            f"Hint: Output 'out' has {mismatches} mismatches. "
            "First mismatch occurred at time 130."
        )
        lines.append(f"Hint: Total mismatched samples is {mismatches} out of {samples} samples")
        lines.append("")
    lines.append(f"Simulation finished at {samples * 10} ps")
    lines.append(f"Mismatches: {mismatches} in {samples} samples")
    return "\n".join(lines) + "\n"


def offline_evaluate(
    candidate_text: str, task: DesignTask, workdir: Path, timeout: float
) -> EvalOutcome:
    """Drop-in evaluator using the fakes instead of the real toolchain."""
    return evaluate(
        candidate_text,
        task,
        workdir,
        timeout,
        compile_fn=fake_compile,
        simulate_fn=fake_simulate,
    )


def reply_with_module(directive: str = "", name: str = "top_module", fenced: bool = True) -> str:
    """Craft a canned LLM reply containing a module with an eda directive."""
    comment = f"  // eda: {directive}\n" if directive else ""
    body = f"module {name}();\n{comment}endmodule"
    if fenced:
        return f"Here is the corrected design:\n```verilog\n{body}\n```"
    return body


passing_reply = partial(reply_with_module, "pass")
