"""Drive the compile/simulate toolchain on a candidate, classify the result
and build its repair prompt.

The default toolchain is Icarus Verilog (``iverilog``/``vvp``) invoked with
the SystemVerilog standard flag; the tool paths are configurable. Each
candidate is evaluated in its own working directory holding the written
sources, the compiled artifact and a per-candidate log.
"""

from __future__ import annotations

import os
import re
import shutil
import time
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .core import DesignTask, EvalOutcome, OutcomeKind
from .extract import ExtractionSource, extract_module
from .prompts import NO_MODULE_FEEDBACK


class CompileStatus(Enum):
    OK = "ok"
    OK_WITH_WARNINGS = "ok_with_warnings"
    ERROR = "error"


class ToolNotFoundError(RuntimeError):
    """The compiler or simulation runtime binary could not be invoked."""


class ToolIoError(RuntimeError):
    """A tool process failed to start (not for a missing binary) or left no
    simulation artifact; a file that cannot be written is a plain ``OSError``."""


class CompileResult(NamedTuple):
    messages: tuple[tuple[str, str], ...]  # (severity, raw tool line)
    artifact_path: Path | None  # None: the compile failed
    dropped: int = 0  # output bytes past OUTPUT_CAP; the compiler was killed

    @property
    def status(self) -> CompileStatus:
        if self.artifact_path is None:
            return CompileStatus.ERROR
        if any(severity == "warning" for severity, _ in self.messages):
            return CompileStatus.OK_WITH_WARNINGS
        return CompileStatus.OK


class TestbenchSummary(NamedTuple):
    """Mismatch totals printed by a self-checking bench."""

    __test__ = False  # keep pytest from collecting this as a test class

    total_mismatches: int
    total_samples: int


@dataclass(frozen=True)
class ToolchainConfig:
    """Paths of the external compiler and simulation runtime."""

    compiler: str = "iverilog"
    runtime: str = "vvp"


DEFAULT_TOOLS = ToolchainConfig()
LANGUAGE_FLAG = "-g2012"  # IEEE 1800-2012 SystemVerilog

DEFAULT_SIM_TIMEOUT = 60.0
# Fixed, not the caller's simulation timeout: sweeps set that to fractions of
# a second, and a slow compiler start must not turn a good module into an error.
COMPILE_TIMEOUT = 60.0
# Bytes kept of each stream a process prints; past it the process is killed.
# A module that prints in a zero-delay loop would otherwise fill memory and
# disk until its timeout.
OUTPUT_CAP = 1 << 20
_READ_SIZE = 1 << 16
_SELECT_SLICE = 3600.0  # seconds a pipe poll waits at most
# Characters of tool output a repair prompt keeps from each source: compile
# diagnostics and testbench Hint lines from their start (the first errors are
# the ones to fix), crash or timeout output from its end. Output up to
# OUTPUT_CAP must not overflow the next window.
FEEDBACK_CHARS = 4096
# Non-blank lines kept from the end of a crashed or timed-out simulation's output.
_TAIL_LINES = 20
# The authoritative summary line of a self-checking testbench.
MISMATCH_LINE_RE = re.compile(r"^Mismatches: (\d+) in (\d+) samples\s*$")

def require_tools() -> None:
    """Raise ``ToolNotFoundError`` unless both the default compiler and
    runtime resolve to executables (a name on ``PATH`` or a path)."""
    for role, binary in (("compiler", DEFAULT_TOOLS.compiler), ("simulation runtime", DEFAULT_TOOLS.runtime)):
        if shutil.which(binary) is None:
            raise ToolNotFoundError(f"{role} not found: {binary}")


class ProcessRun(NamedTuple):
    """What one tool process printed and how it ended."""

    returncode: int | None  # None: killed at its timeout or once a stream passed OUTPUT_CAP
    stdout: str
    stderr: str
    dropped: int = 0  # bytes read past OUTPUT_CAP, both streams together

    @property
    def exit_ok(self) -> bool:
        return self.returncode == 0

    @property
    def timed_out(self) -> bool:
        return self.returncode is None and not self.dropped


def _decode(output: bytes) -> str:
    # As text mode reads a pipe, except that no byte can make it raise.
    return output.decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n")


def run_process(
    argv: Sequence[str], timeout: float, cwd: Path | None = None, input: str | None = None
) -> ProcessRun:
    """Run ``argv``, killing it after ``timeout`` seconds; every process starts here.

    ``input`` is written as UTF-8 to an unnamed temporary file that becomes
    stdin; without it stdin is inherited. Both pipes are read as they fill,
    and each keeps at most ``OUTPUT_CAP`` bytes: once a stream passes the
    cap the process is killed, and ``dropped`` counts the bytes read past
    it. Both are decoded once, as UTF-8 with U+FFFD for any byte that does
    not decode and with text mode's newlines (CRLF and CR become LF), so no
    output can raise. A killed process gives ``returncode=None`` and its
    output so far. An ``OSError`` from writing ``input`` or starting the
    process propagates. The pipes are polled with ``selectors``, which
    needs a POSIX system.
    """
    import subprocess  # here, not at module scope: only a process run needs it

    deadline = time.monotonic() + timeout
    stdin = None
    try:
        if input is not None:
            import tempfile  # only a process given input needs it

            stdin = tempfile.TemporaryFile()
            stdin.write(input.encode())
            stdin.seek(0)
        with subprocess.Popen(argv, cwd=cwd, stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                stdout, stderr, dropped = _read_capped(proc, deadline)
                returncode = None if dropped else proc.wait(max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                returncode = None
            finally:
                if proc.poll() is None:
                    proc.kill()  # leaving the with block reaps it
    finally:
        if stdin is not None:
            stdin.close()
    return ProcessRun(returncode, _decode(stdout), _decode(stderr), dropped)


def _read_capped(proc, deadline: float) -> tuple[bytes, bytes, int]:
    # Read stdout and stderr until both close, the deadline passes or one
    # passes OUTPUT_CAP.
    import selectors

    kept = {proc.stdout.fileno(): bytearray(), proc.stderr.fileno(): bytearray()}
    dropped = 0
    with selectors.DefaultSelector() as selector:
        for fd in kept:
            selector.register(fd, selectors.EVENT_READ)
        while selector.get_map() and not dropped:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            # Epoll takes its timeout in int milliseconds, so a wait past
            # about 24.8 days would overflow; the loop re-checks the deadline.
            for key, _ in selector.select(min(remaining, _SELECT_SLICE)):
                chunk = os.read(key.fd, _READ_SIZE)
                if not chunk:
                    selector.unregister(key.fd)
                room = OUTPUT_CAP - len(kept[key.fd])
                kept[key.fd] += chunk[:room]
                dropped += max(0, len(chunk) - room)
    stdout, stderr = kept.values()
    return bytes(stdout), bytes(stderr), dropped


def _run_tool(argv: list[str], timeout: float, cwd: Path, role: str) -> ProcessRun:
    try:
        return run_process(argv, timeout, cwd=cwd)
    except FileNotFoundError as exc:
        raise ToolNotFoundError(f"{role} not found: {argv[0]}") from exc
    except OSError as exc:
        raise ToolIoError(str(exc)) from exc


def tool_version() -> str | None:
    """First line of the default compiler's version banner; None if it cannot start or is killed."""
    try:
        proc = run_process([DEFAULT_TOOLS.compiler, "-V"], timeout=10.0)
    except OSError:
        return None
    banner = (proc.stdout or proc.stderr).strip().splitlines()
    return banner[0] if banner and not (proc.timed_out or proc.dropped) else None


class CandidateFiles(NamedTuple):
    module: Path
    testbench: Path
    artifact: Path


def candidate_files(workdir: Path, top_name: str) -> CandidateFiles:
    """The files a candidate's evaluation may write beside its ``log.txt``:
    ``<top>.sv``, ``<top>_tb.sv`` and the compiled ``<top>.vvp``."""
    return CandidateFiles(workdir / f"{top_name}.sv", workdir / f"{top_name}_tb.sv", workdir / f"{top_name}.vvp")


def write_candidate_sources(
    module_src: str, testbench_src: str, workdir: Path, top_name: str
) -> tuple[Path, Path]:
    """Materialize ``<top>.sv`` and ``<top>_tb.sv`` inside the work directory."""
    workdir.mkdir(parents=True, exist_ok=True)
    module_path, tb_path, _ = candidate_files(workdir, top_name)
    module_path.write_text(module_src, encoding="utf-8")
    tb_path.write_text(testbench_src, encoding="utf-8")
    return module_path, tb_path


def _classify_lines(stderr: str) -> tuple[tuple[str, str], ...]:
    # The tool's own "warning"/"error" markers decide severity; anything else
    # is informational context kept for the feedback prompt.
    messages = []
    for line in stderr.splitlines():
        if not line.strip():
            continue
        lowered = line.lower()
        if "warning" in lowered:
            severity = "warning"
        elif "error" in lowered or "give up" in lowered:
            severity = "error"
        else:
            severity = "info"
        messages.append((severity, line))
    return tuple(messages)


def compile_design(
    module_src: str,
    testbench_src: str,
    workdir: Path,
    top_name: str,
    tools: ToolchainConfig = DEFAULT_TOOLS,
) -> CompileResult:
    """Write the sources and compile them into ``<top>.vvp``.

    Exit code 0 with no warning lines is ``OK``; exit 0 with warnings is
    ``OK_WITH_WARNINGS``; anything else is ``ERROR`` with the tool's
    diagnostics attached. A compiler still running after ``COMPILE_TIMEOUT``
    seconds, or once it prints more than ``OUTPUT_CAP`` bytes on a stream, is
    killed and the result is an ``ERROR`` saying so.
    """
    module_path, tb_path = write_candidate_sources(module_src, testbench_src, workdir, top_name)
    artifact = candidate_files(workdir, top_name).artifact
    argv = [tools.compiler, LANGUAGE_FLAG, "-o", artifact.name, module_path.name, tb_path.name]
    proc = _run_tool(argv, COMPILE_TIMEOUT, workdir, "compiler")
    if proc.dropped:
        message = f"error: compiler printed more than {OUTPUT_CAP} bytes and was killed"
        return CompileResult((("error", message),), None, proc.dropped)
    if proc.timed_out:
        message = f"error: compile timed out after {COMPILE_TIMEOUT:g} seconds and was killed"
        return CompileResult((("error", message),), None)
    return CompileResult(_classify_lines(proc.stderr), artifact if proc.exit_ok else None)


def simulate(
    artifact_path: Path,
    timeout: float = DEFAULT_SIM_TIMEOUT,
    tools: ToolchainConfig = DEFAULT_TOOLS,
) -> ProcessRun:
    """Run the simulation runtime on a compiled artifact, killing it at timeout
    or once it prints more than ``OUTPUT_CAP`` bytes on a stream."""
    artifact_path = Path(artifact_path)
    if not artifact_path.exists():
        raise ToolIoError(f"simulation artifact missing: {artifact_path}")
    argv = [tools.runtime, "-n", artifact_path.name]
    return _run_tool(argv, timeout, artifact_path.parent, "simulation runtime")


def parse_summary(stdout: str) -> TestbenchSummary | None:
    """Extract the testbench mismatch summary from simulation stdout.

    The last ``Mismatches: N in M samples`` line is authoritative. Returns
    None when no consistent summary exists, and ignores unrelated
    interleaved output.
    """
    totals = None
    for line in stdout.splitlines():
        total = MISMATCH_LINE_RE.match(line)
        if total:
            totals = (int(total.group(1)), int(total.group(2)))
    if totals is None:
        return None
    mismatches, samples = totals
    if samples < 1 or mismatches > samples:
        return None
    return TestbenchSummary(mismatches, samples)


CompileFn = Callable[[str, str, Path, str], CompileResult]
SimulateFn = Callable[[Path, float], ProcessRun]


def evaluate(
    candidate_text: str,
    task: DesignTask,
    workdir: Path,
    timeout: float = DEFAULT_SIM_TIMEOUT,
    *,
    tools: ToolchainConfig = DEFAULT_TOOLS,
    compile_fn: CompileFn | None = None,
    simulate_fn: SimulateFn | None = None,
) -> EvalOutcome:
    """Full pipeline for one candidate: extract, compile, simulate, classify.

    The returned outcome carries the extracted module's length
    (``module_chars``, 0 when there is none), so callers never extract a
    second time, and the repair prompt for its kind, so none reads the tool
    output again: the compile diagnostics, the testbench's ``Hint:`` and
    summary lines, or a crash diagnosis with the output's last 20 non-blank
    lines.

    A parsed testbench summary always yields ``SIMULATED`` (warnings do not
    demote it); a warned compile with no summary is ``COMPILE_WARNED_NO_SIM``;
    a clean compile whose simulation crashed, hung or stayed silent is
    ``SIM_CRASH_OR_TIMEOUT``.

    The work directory, fresh or holding an earlier evaluation's files, of
    this task or another, ends up holding this outcome's: a ``log.txt``
    transcript, the sources unless the reply had no module, and the artifact
    unless the compile failed. Once the log is written, every ``.sv`` and
    ``.vvp`` file that this outcome did not write is removed; no other file
    or folder is touched. An evaluation that raises removes the folder's
    ``log.txt``, so no earlier transcript is left beside its files.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if compile_fn is None:
        compile_fn = partial(compile_design, tools=tools)
    if simulate_fn is None:
        simulate_fn = partial(simulate, tools=tools)

    try:
        extraction = extract_module(candidate_text)
        module_src = extraction.module_src
        compiled = sim = summary = diagnosis = None
        files = candidate_files(workdir, task.name)
        written: Sequence[Path] = ()
        if module_src is None:
            kind, feedback = OutcomeKind.NO_MODULE, NO_MODULE_FEEDBACK
        else:
            compiled = compile_fn(module_src, task.testbench_src, workdir, task.name)
            written = files[:2]
            if compiled.status is CompileStatus.ERROR:
                kind, feedback = OutcomeKind.COMPILE_ERROR, _diagnostics(compiled)
            else:
                written = files
                sim = simulate_fn(compiled.artifact_path, timeout)
                summary = parse_summary(sim.stdout)
                if summary is not None:
                    kind, feedback = OutcomeKind.SIMULATED, _summary_block(sim.stdout)
                elif compiled.status is CompileStatus.OK_WITH_WARNINGS:
                    kind, feedback = OutcomeKind.COMPILE_WARNED_NO_SIM, _diagnostics(compiled)
                else:
                    kind = OutcomeKind.SIM_CRASH_OR_TIMEOUT
                    diagnosis = feedback = _diagnose(sim, timeout)
                    tail = _output_tail(sim.stdout)
                    if tail:
                        feedback += "\n" + tail
        outcome = EvalOutcome(
            kind,
            mismatches=summary.total_mismatches if summary is not None else None,
            samples=summary.total_samples if summary is not None else None,
            diagnosis=diagnosis,
            module_chars=len(module_src or ""),
            feedback=feedback,
        )
        _write_candidate_log(workdir, task, extraction.source, compiled, sim, outcome)
        _remove_unwritten_sources(workdir, written)
    except BaseException:
        # The folder keeps no transcript of an earlier evaluation.
        (workdir / "log.txt").unlink(missing_ok=True)
        raise
    return outcome


def _remove_unwritten_sources(workdir: Path, written: Sequence[Path]) -> None:
    # Any task's sources and artifact, this one's or an earlier evaluation's
    # of another task, end in these suffixes; a file the simulation wrote,
    # such as a testbench's waveform dump, does not.
    kept = {path.name for path in written}
    with os.scandir(workdir) as entries:
        for entry in entries:
            if entry.name.endswith((".sv", ".vvp")) and entry.name not in kept and entry.is_file():
                os.unlink(entry.path)


def _diagnostics(compiled: CompileResult) -> str:
    text = "\n".join(line for _, line in compiled.messages)[:FEEDBACK_CHARS]
    return text or "Compilation produced no diagnostic output."


def _summary_block(stdout: str) -> str:
    # The testbench's own words: its Hint lines, then the final authoritative
    # mismatch-count line, which a parsed summary guarantees.
    lines = stdout.splitlines()
    hints = "\n".join(line for line in lines if line.startswith("Hint:"))[:FEEDBACK_CHARS]
    final = next(line for line in reversed(lines) if MISMATCH_LINE_RE.match(line))
    return f"{hints}\n{final}" if hints else final


def _output_tail(stdout: str) -> str:
    lines = [line for line in stdout.splitlines() if line.strip()]
    return "\n".join(lines[-_TAIL_LINES:])[-FEEDBACK_CHARS:]


def _diagnose(sim: ProcessRun, timeout: float) -> str:
    if sim.dropped:
        return f"Simulation printed more than {OUTPUT_CAP} bytes and was killed."
    if sim.timed_out:
        return f"Simulation timed out after {timeout:g} seconds and was killed."
    if not sim.exit_ok:
        return "Simulation crashed before printing a testbench summary."
    return "Simulation finished without printing a testbench summary."


def _write_candidate_log(
    workdir: Path,
    task: DesignTask,
    source: ExtractionSource,
    compiled: CompileResult | None,
    sim: ProcessRun | None,
    outcome: EvalOutcome,
) -> None:
    lines = [f"Task: {task.name}", f"Extraction: {source.value}"]
    if compiled is not None:
        lines.append(f"Compile status: {compiled.status.value}")
        if compiled.messages:
            lines.append(_capped("\n".join(f"{severity}: {text}" for severity, text in compiled.messages)))
        if compiled.dropped:
            lines.append(_dropped_line("Compile", compiled.dropped))
    if sim is not None:
        lines.append(f"Simulation exit_ok: {sim.exit_ok}")
        lines.append(f"Simulation timed_out: {sim.timed_out}")
        if sim.dropped:
            lines.append(_dropped_line("Simulation", sim.dropped))
        if sim.stdout:
            lines.append("--- simulation stdout ---")
            lines.append(_capped(sim.stdout.rstrip("\n")))
        if sim.stderr:
            lines.append("--- simulation stderr ---")
            lines.append(_capped(sim.stderr.rstrip("\n")))
    lines.append(f"Outcome: {outcome.kind.value}")
    if outcome.kind is OutcomeKind.SIMULATED:
        lines.append(f"Mismatches: {outcome.mismatches}")
        lines.append(f"Samples: {outcome.samples}")
    if outcome.diagnosis:
        lines.append(outcome.diagnosis)
    (workdir / "log.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _dropped_line(tool: str, dropped: int) -> str:
    return f"{tool} output dropped: {dropped} bytes past the {OUTPUT_CAP}-byte cap"


def _capped(section: str) -> str:
    # At most OUTPUT_CAP bytes of UTF-8, cut at a character boundary: each
    # kept byte that did not decode became U+FFFD, three bytes in UTF-8.
    data = section.encode()
    return section if len(data) <= OUTPUT_CAP else data[:OUTPUT_CAP].decode(errors="ignore")
