"""Toolchain driving, outcome classification, and summary parsing."""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SAMPLE_SUMMARY_OUTPUT, SAMPLE_TOTALS
from hdlsmith import edatools
from hdlsmith.core import DesignTask, OutcomeKind
from hdlsmith.edatools import (
    CompileResult,
    CompileStatus,
    ProcessRun,
    TestbenchSummary,
    ToolchainConfig,
    ToolIoError,
    ToolNotFoundError,
    compile_design,
    evaluate,
    parse_summary,
    simulate,
    tool_version,
)
from hdlsmith.faketools import (
    fake_compile,
    fake_simulate,
    offline_evaluate,
    reply_with_module,
)

FIXTURES = Path(__file__).parent / "fixtures"

HAVE_ICARUS = shutil.which("iverilog") is not None and shutil.which("vvp") is not None
needs_icarus = pytest.mark.skipif(not HAVE_ICARUS, reason="icarus verilog not installed")


class TestParseSummary:
    def test_failing_bench_output(self):
        summary = parse_summary(SAMPLE_SUMMARY_OUTPUT)
        assert summary is not None
        assert (summary.total_mismatches, summary.total_samples) == SAMPLE_TOTALS

    def test_zero_mismatch_line(self):
        summary = parse_summary("Mismatches: 0 in 6283 samples\n")
        assert summary == TestbenchSummary(0, 6283)

    def test_absent_when_no_mismatch_line(self):
        assert parse_summary("VCD info: dumpfile dump.vcd opened\nall done\n") is None

    def test_last_mismatch_line_wins(self):
        stdout = "Mismatches: 5 in 10 samples\nmore output\nMismatches: 2 in 10 samples\n"
        summary = parse_summary(stdout)
        assert summary.total_mismatches == 2

    def test_inconsistent_counts_are_unparseable(self):
        assert parse_summary("Mismatches: 11 in 10 samples\n") is None
        assert parse_summary("Mismatches: 0 in 0 samples\n") is None

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
                max_size=40,
            ).filter(lambda s: not s.startswith(("Hint: Output", "Mismatches:"))),
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    def test_noise_lines_do_not_change_the_parse(self, noise, rng):
        base = SAMPLE_SUMMARY_OUTPUT.splitlines()
        for line in noise:
            base.insert(rng.randrange(len(base) + 1), line)
        summary = parse_summary("\n".join(base))
        assert summary is not None
        assert (summary.total_mismatches, summary.total_samples) == SAMPLE_TOTALS


ARTIFACT = Path("top_module.vvp")


class TestDerivedFacts:
    """Each result stores its facts once; the rest is read off them."""

    @pytest.mark.parametrize("returncode, dropped, exit_ok, timed_out", [
        (0, 0, True, False),
        (1, 0, False, False),
        (None, 0, False, True),
        (None, 7, False, False),
    ])
    def test_process_run(self, returncode, dropped, exit_ok, timed_out):
        run = ProcessRun(returncode, "", "", dropped)
        assert (run.exit_ok, run.timed_out) == (exit_ok, timed_out)

    @pytest.mark.parametrize("messages, artifact, status", [
        ((("warning", "w"),), None, CompileStatus.ERROR),
        ((("info", "i"), ("warning", "w")), ARTIFACT, CompileStatus.OK_WITH_WARNINGS),
        ((("error", "e"), ("info", "i")), ARTIFACT, CompileStatus.OK),
    ], ids=["no_artifact", "warning", "no_warning"])
    def test_compile_status(self, messages, artifact, status):
        assert CompileResult(messages, artifact).status is status

    @pytest.mark.parametrize("stdout, totals", [
        ("Mismatches: 0 in 6283 samples\n", (0, 6283)),
        (SAMPLE_SUMMARY_OUTPUT, SAMPLE_TOTALS),
    ], ids=["passing", "failing"])
    def test_summary(self, stdout, totals):
        assert parse_summary(stdout) == totals


class TestToolErrors:
    def test_missing_compiler_binary(self, tmp_path):
        tools = ToolchainConfig(compiler="definitely-not-a-real-compiler-xyz")
        with pytest.raises(ToolNotFoundError):
            compile_design("module m(); endmodule", "module tb(); endmodule", tmp_path, "m", tools)

    def test_missing_artifact(self, tmp_path):
        with pytest.raises(ToolIoError):
            simulate(tmp_path / "missing.vvp", timeout=1.0)

    @pytest.mark.parametrize(
        "make", [lambda path: path.mkdir(), lambda path: path.write_text("#!/bin/sh\n")],
        ids=["directory", "not executable"],
    )
    def test_compiler_that_cannot_start_is_tool_io_error(self, tmp_path, make):
        # Any start failure but a missing binary is an I/O error, not a missing tool.
        compiler = tmp_path / "iverilog"
        make(compiler)
        tools = ToolchainConfig(compiler=str(compiler))
        with pytest.raises(ToolIoError):
            compile_design("module m(); endmodule", "module tb(); endmodule", tmp_path / "work", "m", tools)

    def test_fake_simulate_missing_artifact(self, tmp_path):
        with pytest.raises(ToolIoError, match="simulation artifact missing"):
            fake_simulate(tmp_path / "missing.vvp", 1.0)

    def test_tool_version_none_for_missing_binary(self, monkeypatch):
        monkeypatch.setattr(edatools, "DEFAULT_TOOLS", ToolchainConfig(compiler="definitely-not-a-real-compiler-xyz"))
        assert tool_version() is None


class TestEvaluateOffline:
    """Pipeline classification driven by the scripted toolchain."""

    def run(self, task, reply, tmp_path, timeout=60.0):
        return evaluate(
            reply, task, tmp_path / "response0", timeout,
            compile_fn=fake_compile, simulate_fn=fake_simulate,
        )

    def test_refusal_is_no_module(self, task, tmp_path):
        outcome = self.run(task, "I cannot help with that.", tmp_path)
        assert outcome.kind is OutcomeKind.NO_MODULE

    def test_mismatch_summary_is_simulated(self, task, tmp_path):
        outcome = self.run(task, reply_with_module("mismatches=6220 samples=6283"), tmp_path)
        assert outcome.kind is OutcomeKind.SIMULATED
        assert (outcome.mismatches, outcome.samples) == (6220, 6283)

    @pytest.mark.parametrize("reply, log", [
        ("I cannot help with that.", "Extraction: none\nOutcome: no_module\n"),
        (
            reply_with_module("compile-error"),
            "Extraction: fenced_block\nCompile status: error\n"
            "error: top_module.sv:1: error: scripted compile failure\nOutcome: compile_error\n",
        ),
        (
            reply_with_module("warning"),
            "Extraction: fenced_block\nCompile status: ok_with_warnings\n"
            "warning: top_module.sv:1: warning: scripted warning\n"
            "Simulation exit_ok: True\nSimulation timed_out: False\n--- simulation stdout ---\n"
            "Hint: Output 'out' has 50 mismatches. First mismatch occurred at time 130.\n"
            "Hint: Total mismatched samples is 50 out of 100 samples\n\n"
            "Simulation finished at 1000 ps\nMismatches: 50 in 100 samples\n"
            "Outcome: simulated\nMismatches: 50\nSamples: 100\n",
        ),
        (
            reply_with_module("mismatches=6220 samples=6283"),
            "Extraction: fenced_block\nCompile status: ok\n"
            "Simulation exit_ok: True\nSimulation timed_out: False\n--- simulation stdout ---\n"
            "Hint: Output 'out' has 6220 mismatches. First mismatch occurred at time 130.\n"
            "Hint: Total mismatched samples is 6220 out of 6283 samples\n\n"
            "Simulation finished at 62830 ps\nMismatches: 6220 in 6283 samples\n"
            "Outcome: simulated\nMismatches: 6220\nSamples: 6283\n",
        ),
        (
            reply_with_module("pass"),
            "Extraction: fenced_block\nCompile status: ok\n"
            "Simulation exit_ok: True\nSimulation timed_out: False\n--- simulation stdout ---\n"
            "Simulation finished at 1000 ps\nMismatches: 0 in 100 samples\n"
            "Outcome: simulated\nMismatches: 0\nSamples: 100\n",
        ),
        (
            reply_with_module("hang"),
            "Extraction: fenced_block\nCompile status: ok\n"
            "Simulation exit_ok: False\nSimulation timed_out: True\n"
            "Outcome: sim_crash_or_timeout\nSimulation timed out after 60 seconds and was killed.\n",
        ),
        (
            reply_with_module("crash"),
            "Extraction: fenced_block\nCompile status: ok\n"
            "Simulation exit_ok: False\nSimulation timed_out: False\n"
            "--- simulation stderr ---\nscripted simulator crash\n"
            "Outcome: sim_crash_or_timeout\n"
            "Simulation crashed before printing a testbench summary.\n",
        ),
        (
            reply_with_module("silent"),
            "Extraction: fenced_block\nCompile status: ok\n"
            "Simulation exit_ok: True\nSimulation timed_out: False\n"
            "--- simulation stdout ---\nsimulation ran quietly\n"
            "Outcome: sim_crash_or_timeout\n"
            "Simulation finished without printing a testbench summary.\n",
        ),
        (
            "```verilog\nmodule top_module();\n  // eda: warning\n  // eda: silent\nendmodule\n```",
            "Extraction: fenced_block\nCompile status: ok_with_warnings\n"
            "warning: top_module.sv:1: warning: scripted warning\n"
            "Simulation exit_ok: True\nSimulation timed_out: False\n"
            "--- simulation stdout ---\nsimulation ran quietly\nOutcome: compile_warned_no_sim\n",
        ),
        (
            reply_with_module("pass", fenced=False),
            "Extraction: module_span\nCompile status: ok\n"
            "Simulation exit_ok: True\nSimulation timed_out: False\n--- simulation stdout ---\n"
            "Simulation finished at 1000 ps\nMismatches: 0 in 100 samples\n"
            "Outcome: simulated\nMismatches: 0\nSamples: 100\n",
        ),
    ])
    def test_candidate_log_bytes(self, task, tmp_path, reply, log):
        # Every offline reply kind, plus a warned compile with no summary and
        # an unfenced module: the per-candidate log is pinned byte for byte.
        self.run(task, reply, tmp_path)
        assert (tmp_path / "response0" / "log.txt").read_bytes() == f"Task: top_module\n{log}".encode()

    def test_compile_error(self, task, tmp_path):
        outcome = self.run(task, reply_with_module("compile-error"), tmp_path)
        assert outcome.kind is OutcomeKind.COMPILE_ERROR
        assert outcome.feedback == "top_module.sv:1: error: scripted compile failure"

    def test_warning_without_summary(self, task, tmp_path):
        reply = (
            "```verilog\nmodule top_module();\n  // eda: warning\n  // eda: silent\nendmodule\n```"
        )
        outcome = self.run(task, reply, tmp_path)
        assert outcome.kind is OutcomeKind.COMPILE_WARNED_NO_SIM

    def test_warning_with_summary_still_simulates(self, task, tmp_path):
        # A parsed summary outranks the warning classification.
        reply = (
            "```verilog\nmodule top_module();\n"
            "  // eda: warning\n  // eda: mismatches=1 samples=4\nendmodule\n```"
        )
        outcome = self.run(task, reply, tmp_path)
        assert outcome.kind is OutcomeKind.SIMULATED
        assert outcome.mismatches == 1

    def test_hang_is_crash_or_timeout_with_limit_in_diagnosis(self, task, tmp_path):
        outcome = self.run(task, reply_with_module("hang"), tmp_path, timeout=60.0)
        assert outcome.kind is OutcomeKind.SIM_CRASH_OR_TIMEOUT
        assert "60" in outcome.diagnosis
        assert "60" in outcome.feedback

    def test_silent_clean_sim_is_crash_or_timeout(self, task, tmp_path):
        outcome = self.run(task, reply_with_module("silent"), tmp_path)
        assert outcome.kind is OutcomeKind.SIM_CRASH_OR_TIMEOUT
        assert "without printing a testbench summary" in outcome.diagnosis

    def test_crash_diagnosis(self, task, tmp_path):
        outcome = self.run(task, reply_with_module("crash"), tmp_path)
        assert outcome.kind is OutcomeKind.SIM_CRASH_OR_TIMEOUT
        assert "crashed" in outcome.diagnosis

    def test_workdir_layout_after_simulated_run(self, task, tmp_path):
        self.run(task, reply_with_module("pass"), tmp_path)
        names = sorted(p.name for p in (tmp_path / "response0").iterdir())
        assert names == [
            "log.txt",
            "top_module.sv",
            "top_module.vvp",
            "top_module_tb.sv",
        ]

    def test_workdir_layout_after_compile_error(self, task, tmp_path):
        self.run(task, reply_with_module("compile-error"), tmp_path)
        names = sorted(p.name for p in (tmp_path / "response0").iterdir())
        assert names == ["log.txt", "top_module.sv", "top_module_tb.sv"]

    def test_workdir_layout_for_no_module(self, task, tmp_path):
        self.run(task, "nothing to extract", tmp_path)
        names = sorted(p.name for p in (tmp_path / "response0").iterdir())
        assert names == ["log.txt"]

    def test_offline_evaluate_wrapper(self, task, tmp_path):
        outcome = offline_evaluate(reply_with_module("pass"), task, tmp_path / "r0", 60.0)
        assert outcome.kind is OutcomeKind.SIMULATED
        assert outcome.mismatches == 0


def write_fake_binaries(tmp_path: Path) -> ToolchainConfig:
    """Stand-in compiler/runtime executables that honor the real call shapes."""
    compiler = tmp_path / "fake_iverilog"
    compiler.write_text(
        "#!/bin/sh\n"
        'if [ "$1" = "-V" ]; then echo "Fake Verilog Compiler 99.0"; exit 0; fi\n'
        'out=""\nprev=""\n'
        'for a in "$@"; do if [ "$prev" = "-o" ]; then out="$a"; fi; prev="$a"; done\n'
        'echo "compiled" > "$out"\n'
        'echo "input.sv:1: warning: fake warning" >&2\n'
        "exit 0\n"
    )
    runtime = tmp_path / "fake_vvp"
    runtime.write_text(
        "#!/bin/sh\n"
        "echo \"Hint: Output 'out' has 2 mismatches. First mismatch occurred at time 10.\"\n"
        'echo "Mismatches: 2 in 8 samples"\n'
        "exit 0\n"
    )
    for binary in (compiler, runtime):
        binary.chmod(0o755)
    return ToolchainConfig(compiler=str(compiler), runtime=str(runtime))


class TestRealDriverWithFakeBinaries:
    """End-to-end through compile_design/simulate using stub executables."""

    def test_full_pipeline_classifies_simulated_despite_warning(self, task, tmp_path):
        tools = write_fake_binaries(tmp_path)
        outcome = evaluate(
            "```verilog\nmodule top_module(); endmodule\n```",
            task, tmp_path / "r0", timeout=10.0, tools=tools,
        )
        assert outcome.kind is OutcomeKind.SIMULATED
        assert (outcome.mismatches, outcome.samples) == (2, 8)
        log = (tmp_path / "r0" / "log.txt").read_text(encoding="utf-8")
        assert "warning: input.sv:1: warning: fake warning\n" in log
        names = sorted(p.name for p in (tmp_path / "r0").iterdir())
        assert names == ["log.txt", "top_module.sv", "top_module.vvp", "top_module_tb.sv"]

    def test_version_banner(self, tmp_path, monkeypatch):
        monkeypatch.setattr(edatools, "DEFAULT_TOOLS", write_fake_binaries(tmp_path))
        assert tool_version() == "Fake Verilog Compiler 99.0"

    def test_hanging_compiler_is_killed_at_compile_timeout(self, task, tmp_path, monkeypatch):
        compiler = tmp_path / "slow_iverilog"
        # exec, so the kill reaches the sleeping process that holds the pipes.
        compiler.write_text("#!/bin/sh\nexec sleep 30\n")
        compiler.chmod(0o755)
        tools = ToolchainConfig(compiler=str(compiler), runtime=str(compiler))
        monkeypatch.setattr(edatools, "COMPILE_TIMEOUT", 0.2)
        start = time.monotonic()
        result = compile_design("module top_module(); endmodule", "module tb(); endmodule",
                                tmp_path / "c0", "top_module", tools)
        assert time.monotonic() - start < 10
        assert result.status is CompileStatus.ERROR
        assert result.messages == (("error", "error: compile timed out after 0.2 seconds and was killed"),)
        outcome = evaluate("module top_module(); endmodule", task, tmp_path / "r0",
                           timeout=10.0, tools=tools)
        assert outcome.kind is OutcomeKind.COMPILE_ERROR
        assert outcome.feedback == "error: compile timed out after 0.2 seconds and was killed"

    def test_failed_compile_keeps_classified_lines(self, task, tmp_path):
        compiler = tmp_path / "failing_iverilog"
        compiler.write_text(
            "#!/bin/sh\n"
            "cat >&2 <<'EOF'\n"
            "top_module.sv:2: error: Unable to bind wire/reg/memory `nosuch'\n"
            "\n"
            "top_module.sv:1: note: in module top_module\n"
            "EOF\n"
            "exit 1\n"
        )
        compiler.chmod(0o755)
        tools = ToolchainConfig(compiler=str(compiler), runtime=str(compiler))
        result = compile_design("module top_module(); endmodule", "module tb(); endmodule",
                                tmp_path / "c0", "top_module", tools)
        assert result.status is CompileStatus.ERROR
        assert result.artifact_path is None
        assert result.messages == (
            ("error", "top_module.sv:2: error: Unable to bind wire/reg/memory `nosuch'"),
            ("info", "top_module.sv:1: note: in module top_module"),
        )
        outcome = evaluate("module top_module(); endmodule", task, tmp_path / "r0",
                           timeout=10.0, tools=tools)
        assert outcome.kind is OutcomeKind.COMPILE_ERROR
        assert outcome.feedback == "\n".join(text for _, text in result.messages)

    def test_hanging_simulation_is_killed_and_keeps_its_output(self, task, tmp_path):
        compiler, runtime = tmp_path / "quiet_iverilog", tmp_path / "hanging_vvp"
        compiler.write_text(
            '#!/bin/sh\nfor a in "$@"; do [ "$prev" = "-o" ] && echo compiled > "$a"; prev="$a"; done\n'
        )
        # exec, so the kill reaches the sleeping process that holds the pipes.
        runtime.write_text("#!/bin/sh\necho 'partial line'\nexec sleep 30\n")
        for binary in (compiler, runtime):
            binary.chmod(0o755)
        tools = ToolchainConfig(compiler=str(compiler), runtime=str(runtime))
        start = time.monotonic()
        outcome = evaluate("module top_module(); endmodule", task, tmp_path / "r0",
                           timeout=0.2, tools=tools)
        assert time.monotonic() - start < 10
        sim = simulate(tmp_path / "r0" / "top_module.vvp", timeout=0.2, tools=tools)
        assert sim.timed_out and not sim.exit_ok
        assert sim.stdout == "partial line\n"
        assert outcome.kind is OutcomeKind.SIM_CRASH_OR_TIMEOUT
        assert outcome.diagnosis == "Simulation timed out after 0.2 seconds and was killed."
        assert outcome.feedback == f"{outcome.diagnosis}\npartial line"


def write_tools(tmp_path: Path, runtime_body: str) -> ToolchainConfig:
    """A stand-in compiler that writes its artifact, and a runtime running
    the shell ``runtime_body``."""
    compiler, runtime = tmp_path / "quiet_iverilog", tmp_path / "script_vvp"
    compiler.write_text(
        '#!/bin/sh\nfor a in "$@"; do [ "$prev" = "-o" ] && echo compiled > "$a"; prev="$a"; done\n'
    )
    runtime.write_text(f"#!/bin/sh\n{runtime_body}\n")
    for binary in (compiler, runtime):
        binary.chmod(0o755)
    return ToolchainConfig(compiler=str(compiler), runtime=str(runtime))


class TestOutputDecoding:
    """Tool output is read as bytes and decoded once, by ``run_process``."""

    def evaluate(self, task, tmp_path, tools, timeout=10.0):
        outcome = evaluate("module top_module(); endmodule", task, tmp_path / "r0", timeout, tools=tools)
        return outcome, (tmp_path / "r0" / "log.txt").read_text(encoding="utf-8")

    def test_compiler_bytes_that_are_not_utf8_become_replacement_characters(self, task, tmp_path):
        compiler = tmp_path / "binary_iverilog"
        compiler.write_text("#!/bin/sh\nprintf 'top_module.sv:1: error: bad \\377 byte\\n' >&2\nexit 1\n")
        compiler.chmod(0o755)
        tools = ToolchainConfig(compiler=str(compiler), runtime=str(compiler))
        outcome, log = self.evaluate(task, tmp_path, tools)
        assert outcome.kind is OutcomeKind.COMPILE_ERROR
        assert outcome.feedback == "top_module.sv:1: error: bad \ufffd byte"
        assert "error: top_module.sv:1: error: bad \ufffd byte\n" in log

    def test_simulator_bytes_that_are_not_utf8_still_simulate(self, task, tmp_path):
        tools = write_tools(tmp_path, "printf 'Mismatches: 0 in 8 samples\\n\\377\\n'")
        outcome, log = self.evaluate(task, tmp_path, tools)
        assert outcome.kind is OutcomeKind.SIMULATED
        assert (outcome.mismatches, outcome.samples) == (0, 8)
        assert outcome.feedback == "Mismatches: 0 in 8 samples"
        assert "--- simulation stdout ---\nMismatches: 0 in 8 samples\n\ufffd\n" in log

    def test_killed_simulation_keeps_its_undecodable_output(self, task, tmp_path):
        # exec, so the kill reaches the sleeping process that holds the pipes.
        tools = write_tools(tmp_path, "printf 'partial \\377\\r\\n'\nexec sleep 30")
        start = time.monotonic()
        outcome, _ = self.evaluate(task, tmp_path, tools, timeout=0.2)
        sim = simulate(tmp_path / "r0" / "top_module.vvp", timeout=0.2, tools=tools)
        assert time.monotonic() - start < 10
        assert sim.timed_out and not sim.exit_ok
        # Output read before the kill follows text mode's newline rule too.
        assert sim.stdout == "partial \ufffd\n"
        assert outcome.kind is OutcomeKind.SIM_CRASH_OR_TIMEOUT
        assert outcome.feedback == f"{outcome.diagnosis}\npartial \ufffd"

    def test_newlines_read_as_in_text_mode(self, task, tmp_path):
        tools = write_tools(tmp_path, "printf 'a\\r\\nb\\rc\\n'; printf 'x\\r\\n' >&2")
        self.evaluate(task, tmp_path, tools)
        sim = simulate(tmp_path / "r0" / "top_module.vvp", timeout=10.0, tools=tools)
        assert (sim.stdout, sim.stderr) == ("a\nb\nc\n", "x\n")

    def test_run_process_reports_exit_code_and_passes_input_as_utf8(self, tmp_path):
        run = edatools.run_process(["/bin/sh", "-c", "cat; echo oops >&2; exit 4"], 10.0, input="h\u00e9llo\n")
        assert run == edatools.ProcessRun(4, "h\u00e9llo\n", "oops\n")
        assert edatools.run_process(["pwd"], 10.0, cwd=tmp_path).stdout == f"{tmp_path}\n"

    def test_run_process_timeout_has_no_exit_code(self):
        run = edatools.run_process(["/bin/sh", "-c", "echo started; exec sleep 30"], 0.2)
        assert run == edatools.ProcessRun(None, "started\n", "")

    def test_run_process_waits_past_what_epoll_takes_in_one_call(self):
        # Epoll takes int milliseconds: one wait for the whole timeout would overflow.
        run = edatools.run_process([sys.executable, "-c", "print(1)"], 1e300)
        assert run == edatools.ProcessRun(0, "1\n", "")

    def test_run_process_start_failure_propagates(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            edatools.run_process([str(tmp_path / "missing")], 1.0)
        with pytest.raises(PermissionError):
            edatools.run_process([str(tmp_path)], 1.0)


def assert_exited(pid_file: Path) -> None:
    # The stand-in wrote its pid and exec'd the flood, so that pid is the
    # flooding process; once it is killed and reaped the pid is gone.
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


@pytest.mark.usefixtures("no_thread_leak")
class TestOutputCap:
    """A process may keep at most ``OUTPUT_CAP`` bytes per stream."""

    CAP = edatools.OUTPUT_CAP

    def evaluate(self, task, tmp_path, tools):
        start = time.monotonic()
        outcome = evaluate("module top_module(); endmodule", task, tmp_path / "r0", 0.2, tools=tools)
        assert time.monotonic() - start < 1
        log = tmp_path / "r0" / "log.txt"
        assert log.stat().st_size < 2 * self.CAP
        return outcome, log.read_text(encoding="utf-8")

    def test_flooding_simulation_is_killed_at_the_cap(self, task, tmp_path):
        pid = tmp_path / "pid"
        tools = write_tools(tmp_path, f"echo $$ > {pid}; exec yes flood")
        outcome, log = self.evaluate(task, tmp_path, tools)
        assert_exited(pid)
        assert outcome.kind is OutcomeKind.SIM_CRASH_OR_TIMEOUT
        assert outcome.diagnosis == f"Simulation printed more than {self.CAP} bytes and was killed."
        # Exactly the cap of "flood\n" lines was kept, so the last one is cut.
        assert outcome.feedback == "\n".join([outcome.diagnosis] + ["flood"] * 19 + ["flood"[: self.CAP % 6]])
        assert "Simulation timed_out: False\nSimulation output dropped: " in log
        assert f"bytes past the {self.CAP}-byte cap\n--- simulation stdout ---\nflood\n" in log
        assert log.endswith(f"Outcome: sim_crash_or_timeout\n{outcome.diagnosis}\n")

    def test_summary_printed_before_the_flood_still_counts(self, task, tmp_path):
        tools = write_tools(tmp_path, "echo 'Mismatches: 1 in 4 samples'; exec yes flood >&2")
        outcome, log = self.evaluate(task, tmp_path, tools)
        assert outcome.kind is OutcomeKind.SIMULATED
        assert (outcome.mismatches, outcome.samples) == (1, 4)
        assert "Simulation output dropped: " in log

    def test_flooding_compiler_is_a_compile_error(self, task, tmp_path):
        pid = tmp_path / "pid"
        compiler = tmp_path / "flood_iverilog"
        compiler.write_text(f"#!/bin/sh\necho $$ > {pid}\nexec yes 'warning: flood' >&2\n")
        compiler.chmod(0o755)
        tools = ToolchainConfig(compiler=str(compiler), runtime=str(compiler))
        outcome, log = self.evaluate(task, tmp_path, tools)
        assert_exited(pid)
        message = f"error: compiler printed more than {self.CAP} bytes and was killed"
        assert outcome.kind is OutcomeKind.COMPILE_ERROR
        assert outcome.feedback == message
        assert f"Compile status: error\nerror: {message}\nCompile output dropped: " in log

    @pytest.mark.parametrize("section", ["stdout", "stderr", "compile"])
    def test_log_keeps_at_most_the_cap_of_each_section(self, task, tmp_path, section):
        # Each kept 0xFF byte decodes to U+FFFD, three bytes in UTF-8.
        flood = "exec yes \"$(printf '\\377\\377\\377')\""
        tools = write_tools(tmp_path, {"stdout": flood, "stderr": f"{flood} >&2", "compile": "true"}[section])
        if section == "compile":
            # Under the cap, so nothing is dropped and the compile succeeds.
            under = f"head -c {self.CAP - 1} /dev/zero | tr '\\0' '\\377' >&2"
            Path(tools.compiler).write_text(Path(tools.compiler).read_text() + under + "\n")
        outcome, log = self.evaluate(task, tmp_path, tools)
        assert (tmp_path / "r0" / "log.txt").stat().st_size < self.CAP + 4096
        assert "\ufffd" * 3 in log
        assert log.endswith(f"Outcome: sim_crash_or_timeout\n{outcome.diagnosis}\n")

    def test_output_up_to_the_cap_is_kept_whole(self):
        run = edatools.run_process(["head", "-c", str(self.CAP), "/dev/zero"], 10.0)
        assert run == edatools.ProcessRun(0, "\0" * self.CAP, "", 0)
        run = edatools.run_process(["head", "-c", str(self.CAP + 1), "/dev/zero"], 10.0)
        assert (run.returncode, len(run.stdout), run.dropped) == (None, self.CAP, 1)

    def test_input_larger_than_a_pipe_is_written_whole(self):
        text = "x" * (4 * 65536) + "\u00e9"
        assert edatools.run_process(["cat"], 10.0, input=text) == edatools.ProcessRun(0, text, "", 0)
        # A process that stops reading its input still gives its exit and output.
        run = edatools.run_process(["/bin/sh", "-c", "head -c 1 > /dev/null; echo read"], 10.0, input=text)
        assert run == edatools.ProcessRun(0, "read\n", "", 0)


def evaluate_with(task, workdir, messages=(), sim=None, reply=None, timeout=0.5):
    """Evaluate ``reply`` with a stand-in compiler that reports ``messages``
    and builds an artifact only when a stand-in simulation ``sim`` is given."""

    def compile_fn(module_src, testbench_src, workdir, top_name):
        return CompileResult(messages, None if sim is None else workdir / f"{top_name}.vvp")

    return evaluate(
        reply_with_module() if reply is None else reply, task, workdir, timeout,
        compile_fn=compile_fn, simulate_fn=lambda artifact_path, timeout: sim,
    )


class TestFeedback:
    """``evaluate`` builds the repair prompt; these strings are its exact bytes."""

    CHARS = edatools.FEEDBACK_CHARS

    @pytest.mark.parametrize("messages, sim, reply, kind, feedback", [
        pytest.param(
            (), None, "I cannot help with that.", OutcomeKind.NO_MODULE,
            "No Verilog module was found in the previous response. Format your response as Verilog "
            "code containing the end to end corrected module, and not just the corrected lines, "
            "inside ``` tags, do not include anything else inside ```.",
            id="no_module",
        ),
        pytest.param(
            (("error", "a.sv:1: error: x"), ("info", "a.sv:1: context"), ("error", "a.sv:2: error: y")),
            None, None, OutcomeKind.COMPILE_ERROR, "a.sv:1: error: x\na.sv:1: context\na.sv:2: error: y",
            id="compile_errors_in_order",
        ),
        pytest.param(
            (), None, None, OutcomeKind.COMPILE_ERROR, "Compilation produced no diagnostic output.",
            id="compile_error_without_diagnostics",
        ),
        pytest.param(
            (("warning", "a.sv:3: warning: w"),), ProcessRun(0, "ran\n", ""), None,
            OutcomeKind.COMPILE_WARNED_NO_SIM, "a.sv:3: warning: w",
            id="warned_without_summary",
        ),
        pytest.param(
            (), ProcessRun(0, SAMPLE_SUMMARY_OUTPUT, ""), None, OutcomeKind.SIMULATED,
            "Hint: Output 'count' has 218816 mismatches. First mismatch occurred at time 130.\n"
            "Hint: Output 'counting' has 233794 mismatches. First mismatch occurred at time 130.\n"
            "Hint: Output 'done' has 524 mismatches. First mismatch occurred at time 20130.\n"
            "Hint: Total mismatched samples is 234318 out of 235447 samples\n"
            "Mismatches: 234318 in 235447 samples",
            id="summary_with_hints",
        ),
        pytest.param(
            (), ProcessRun(0, "Simulation finished at 90 ps\nMismatches: 0 in 9 samples  \n", ""), None,
            OutcomeKind.SIMULATED, "Mismatches: 0 in 9 samples  ",
            id="summary_without_hints",
        ),
        pytest.param(
            (), ProcessRun(1, "\n".join(f"line {n}" for n in range(25)) + "\n\n", "boom\n"), None,
            OutcomeKind.SIM_CRASH_OR_TIMEOUT,
            "Simulation crashed before printing a testbench summary.\n"
            + "\n".join(f"line {n}" for n in range(5, 25)),
            id="crash_keeps_the_last_20_lines",
        ),
        pytest.param(
            (), ProcessRun(139, "", ""), None, OutcomeKind.SIM_CRASH_OR_TIMEOUT,
            "Simulation crashed before printing a testbench summary.",
            id="crash_without_output",
        ),
        pytest.param(
            (), ProcessRun(None, "partial line\n  \n", ""), None, OutcomeKind.SIM_CRASH_OR_TIMEOUT,
            "Simulation timed out after 0.5 seconds and was killed.\npartial line",
            id="hang",
        ),
        pytest.param(
            (), ProcessRun(0, "simulation ran quietly\n", ""), None, OutcomeKind.SIM_CRASH_OR_TIMEOUT,
            "Simulation finished without printing a testbench summary.\nsimulation ran quietly",
            id="silent",
        ),
        pytest.param(
            (), ProcessRun(None, "y\n" * 3, "", 7), None, OutcomeKind.SIM_CRASH_OR_TIMEOUT,
            "Simulation printed more than 1048576 bytes and was killed.\ny\ny\ny",
            id="flood",
        ),
    ])
    def test_feedback_bytes(self, task, tmp_path, messages, sim, reply, kind, feedback):
        outcome = evaluate_with(task, tmp_path, messages, sim, reply)
        assert (outcome.kind, outcome.feedback) == (kind, feedback)

    def test_compile_diagnostics_keep_their_first_characters(self, task, tmp_path):
        lines = [f"top_module.sv:1: error: {'e' * 100} {n}" for n in range(8000)]
        outcome = evaluate_with(task, tmp_path, tuple(("error", line) for line in lines))
        text = "\n".join(lines)
        assert len(text) < edatools.OUTPUT_CAP
        assert outcome.feedback == text[: self.CHARS]

    def test_hint_lines_keep_their_first_characters_then_the_summary(self, task, tmp_path):
        hints = "".join(f"Hint: Output 'out' has {n} mismatches. {'h' * 100}\n" for n in range(8000))
        outcome = evaluate_with(task, tmp_path, sim=ProcessRun(0, hints + "Mismatches: 8000 in 9000 samples\n", ""))
        assert outcome.kind is OutcomeKind.SIMULATED
        assert outcome.feedback == hints[: self.CHARS] + "\nMismatches: 8000 in 9000 samples"

    def test_crash_tail_is_bounded_in_characters(self, task, tmp_path):
        stdout = "".join(chr(0x41 + n % 26) for n in range(edatools.OUTPUT_CAP))  # one line, no newline
        outcome = evaluate_with(task, tmp_path, sim=ProcessRun(None, stdout, "", 1))
        assert outcome.feedback == f"{outcome.diagnosis}\n{stdout[-self.CHARS:]}"

    @given(
        severity=st.sampled_from(["error", "warning", "info"]),
        lines=st.lists(
            st.sampled_from([
                "top_module.sv:1: error: eee", "Hint: Output 'out' has 3 mismatches.",
                "Mismatches: 3 in 9 samples", "Mismatches: 9 in 9 samples \t", "", " ",
            ]) | st.text(max_size=30),
            min_size=1, max_size=8,
        ),
        repeat=st.integers(min_value=1, max_value=40_000),
        returncode=st.sampled_from([0, 1, None]),
        dropped=st.sampled_from([0, 5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_feedback_is_bounded(self, severity, lines, repeat, returncode, dropped):
        # Compile messages and stdout up to OUTPUT_CAP give at most
        # FEEDBACK_CHARS, one line (the diagnosis or the summary) and a newline.
        output = ("\n".join(lines) + "\n") * repeat
        output = output[: edatools.OUTPUT_CAP]
        messages = tuple((severity, line) for line in output.splitlines() if line.strip())
        sim = None if severity == "error" else ProcessRun(returncode, output, "", dropped)
        task = DesignTask("top_module", "p", "module tb(); endmodule")
        with tempfile.TemporaryDirectory() as workdir:
            outcome = evaluate_with(task, Path(workdir), messages, sim)
        line = ""
        if outcome.kind is OutcomeKind.SIMULATED:
            line = outcome.feedback.rsplit("\n", 1)[-1]
            assert edatools.MISMATCH_LINE_RE.match(line)
        elif outcome.kind is OutcomeKind.SIM_CRASH_OR_TIMEOUT:
            line = outcome.diagnosis
        assert len(outcome.feedback) <= self.CHARS + len(line) + 1


def _mux_task(module_fixture: str) -> tuple[DesignTask, str]:
    task = DesignTask(
        name="mux2to1",
        prompt_text="Build a 2-to-1 multiplexer.",
        testbench_src=(FIXTURES / "mux2to1_tb.sv").read_text(),
    )
    return task, (FIXTURES / module_fixture).read_text()


@needs_icarus
class TestIcarusLive:
    """Against the real toolchain; version-anchored, skipped when absent."""

    def test_good_mux_compiles_and_passes(self, tmp_path):
        task, module_src = _mux_task("mux2to1_good.sv")
        compiled = compile_design(module_src, task.testbench_src, tmp_path, task.name)
        assert compiled.status is CompileStatus.OK
        assert compiled.artifact_path.exists()
        sim = simulate(compiled.artifact_path, timeout=30.0)
        assert sim.exit_ok
        assert "Mismatches: 0 in" in sim.stdout

    def test_undeclared_signal_is_compile_error(self, tmp_path):
        task, _ = _mux_task("mux2to1_good.sv")
        bad = "module mux2to1(input a, input b, input sel, output out);\n  assign out = nosuch;\nendmodule"
        compiled = compile_design(bad, task.testbench_src, tmp_path, task.name)
        assert compiled.status is CompileStatus.ERROR
        assert len(compiled.messages) >= 1

    def test_oversized_constant_warns(self, tmp_path):
        task, _ = _mux_task("mux2to1_good.sv")
        noisy = (
            "module mux2to1(input a, input b, input sel, output out);\n"
            "  wire [3:0] w = 4'b11111;\n"
            "  assign out = sel ? b : a;\n"
            "endmodule"
        )
        compiled = compile_design(noisy, task.testbench_src, tmp_path, task.name)
        assert compiled.status is CompileStatus.OK_WITH_WARNINGS

    def test_combinational_loop_times_out(self, tmp_path):
        task, _ = _mux_task("mux2to1_good.sv")
        looping = (
            "module mux2to1(input a, input b, input sel, output out);\n"
            "  wire w;\n"
            "  assign w = ~w;\n"
            "  assign out = a & w;\n"
            "endmodule"
        )
        outcome = evaluate(
            f"```verilog\n{looping}\n```", task, tmp_path / "r0", timeout=5.0
        )
        assert outcome.kind is OutcomeKind.SIM_CRASH_OR_TIMEOUT
        assert "timed out" in outcome.diagnosis

    def test_swapped_mux_ranks_between_zero_and_one(self, tmp_path):
        task, module_src = _mux_task("mux2to1_swapped.sv")
        outcome = evaluate(f"```verilog\n{module_src}\n```", task, tmp_path / "r0", timeout=30.0)
        assert outcome.kind is OutcomeKind.SIMULATED
        assert 0 < outcome.mismatches < outcome.samples
