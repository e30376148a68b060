"""Config parsing, run orchestration, output layout, run log grammar, CLI."""

from __future__ import annotations

import io
import json
import shlex
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest

from conftest import make_candidate, run_fresh
from hdlsmith import cli
from hdlsmith.backends import CommandBackend, MockBackend, lookup_model
from hdlsmith.bench import ReportFormat, load_report, render_report
from hdlsmith.cli import main as cli_main
from hdlsmith.core import (
    DepthNode,
    DesignTask,
    EvalOutcome,
    OutcomeKind,
    SearchTrace,
    Termination,
    TokenUsage,
    compute_cost,
)
from hdlsmith.edatools import ToolNotFoundError
from hdlsmith.faketools import offline_evaluate, passing_reply, reply_with_module
from hdlsmith.prompts import FeedbackMode
from hdlsmith.search import ModelSchedule
from hdlsmith.runcfg import (
    ConfigError,
    execute_run,
    load_config,
    write_run_log,
)

EXAMPLE_CONFIG = {
    "general": {
        "prompt": "./design_prompt.sv",
        "name": "top_module",
        "testbench": "./testbench.sv",
        "model_family": "ChatGPT",
        "model_id": "gpt-4o-mini",
        "num_candidates": 5,
        "iterations": 5,
        "outdir": "output_dir",
        "log": "log.txt",
        "mixed-model": False,
    },
    "mixed-model": {
        "model1": {
            "start_iteration": 0,
            "model_family": "ChatGPT",
            "model_id": "gpt-4o-mini",
        },
        "model2": {
            "start_iteration": -1,
            "model_family": "ChatGPT",
            "model_id": "gpt-4o",
        },
    },
}


def write_config(tmp_path: Path, document: dict | None = None) -> Path:
    (tmp_path / "design_prompt.sv").write_text("// design prompt\nmodule top_module();")
    (tmp_path / "testbench.sv").write_text("module tb(); endmodule")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document if document is not None else EXAMPLE_CONFIG))
    return path


def edited_config(edit):
    """A preparer that writes the example config after ``edit(document)``."""
    def prepare(tmp_path: Path) -> Path:
        document = json.loads(json.dumps(EXAMPLE_CONFIG))
        edit(document)
        return write_config(tmp_path, document)
    return prepare


def config_with_bytes(name: str, content: bytes):
    """A preparer that writes the example config, then ``content`` to ``name``."""
    def prepare(tmp_path: Path) -> Path:
        path = write_config(tmp_path)
        (tmp_path / name).write_bytes(content)
        return path
    return prepare


def deleted(*keys):
    return edited_config(lambda document: [document["general"].pop(key) for key in keys])


def without_prompt_file(tmp_path: Path) -> Path:
    path = write_config(tmp_path)
    (tmp_path / "design_prompt.sv").unlink()
    return path


def timeout_id(text: str) -> str:
    return text if len(text) < 20 else f"1e{len(text) - 1} as an integer"


# Every config-failure input of this file's tests, with the key path and the
# message its ConfigError carries; "{tmp}" stands for the config's directory.
NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
NOT_POSITIVE = "general.sim_timeout: expected a positive finite number"
# JSON texts of bad timeouts; the last is an integer too large for a float.
BAD_SIM_TIMEOUTS = ("0", "-1", "true", '"x"', "NaN", "Infinity", "1" + "0" * 309)
CONFIG_FAILURES = [
    ("missing config", lambda tmp_path: tmp_path / "missing.json", [], "{tmp}/missing.json",
     "{tmp}/missing.json: [Errno 2] No such file or directory: '{tmp}/missing.json'"),
    ("invalid json", config_with_bytes("config.json", b"{not json"), [], "{tmp}/config.json",
     "{tmp}/config.json: not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("config not utf8", config_with_bytes("config.json", b"\xff" + json.dumps(EXAMPLE_CONFIG).encode()), [],
     "{tmp}/config.json", f"{{tmp}}/config.json: not valid JSON: {NOT_UTF8}"),
    ("root", lambda tmp_path: write_config(tmp_path, []), [], "<root>", "<root>: expected a JSON object"),
    ("general", write_config, ["general=[]"], "general", "general: expected a JSON object"),
    ("missing testbench key", deleted("testbench"), [], "general.testbench",
     "general.testbench: required key is missing"),
    ("missing prompt file", without_prompt_file, [], "general.prompt",
     "general.prompt: file not found: {tmp}/design_prompt.sv"),
    ("empty prompt", config_with_bytes("design_prompt.sv", b""), [], "general.prompt",
     "general.prompt: file is empty: {tmp}/design_prompt.sv"),
    ("empty testbench", config_with_bytes("testbench.sv", b""), [], "general.testbench",
     "general.testbench: file is empty: {tmp}/testbench.sv"),
    ("undecodable prompt", config_with_bytes("design_prompt.sv", b"// caf\xe9"), [], "general.prompt",
     "general.prompt: {tmp}/design_prompt.sv is not UTF-8 text: "
     "'utf-8' codec can't decode byte 0xe9 in position 6: unexpected end of data"),
    ("undecodable testbench", config_with_bytes("testbench.sv", b"\xff"), [], "general.testbench",
     f"general.testbench: {{tmp}}/testbench.sv is not UTF-8 text: {NOT_UTF8}"),
    *((f"name {name}", write_config, [f"general.name={name}"], "general.name",
       f"general.name: task name {name!r} is not a legal HDL identifier")
      for name in ("bad-name", "9lives", "two words")),
    ("negative iterations", edited_config(lambda document: document["general"].update(iterations=-3)), [],
     "general.iterations", "general.iterations: must be at least 0"),
    ("zero candidates", edited_config(lambda document: document["general"].update(num_candidates=0)), [],
     "general.num_candidates", "general.num_candidates: must be at least 1"),
    ("non-integer candidates", write_config, ["general.num_candidates=two"], "general.num_candidates",
     "general.num_candidates: expected an integer"),
    ("override without =", write_config, ["general.num_candidates"], "general.num_candidates",
     "general.num_candidates: override must look like key.path=value"),
    ("override below a string", write_config, ["general.name.first=x"], "general.name",
     "general.name: expected a JSON object"),
    ("non-string", write_config, ["general.model_id=3"], "general.model_id",
     "general.model_id: expected a non-empty string"),
    ("empty string", write_config, ['general.outdir=""'], "general.outdir",
     "general.outdir: expected a non-empty string"),
    ("mode", write_config, ["general.feedback_mode=verbose"], "general.feedback_mode",
     "general.feedback_mode: expected 'succinct' or 'full_context'"),
    ("mixed-model flag", write_config, ["general.mixed-model=1"], "general.mixed-model",
     "general.mixed-model: expected a boolean"),
    ("mixed-model section", write_config, ["mixed-model=[]"], "mixed-model",
     "mixed-model: expected a JSON object of entries"),
    ("mixed-model entry", write_config, ["mixed-model.model1=3"], "mixed-model.model1",
     "mixed-model.model1: expected a JSON object"),
    ("start_iteration type", write_config, ["mixed-model.model2.start_iteration=1.5"],
     "mixed-model.model2.start_iteration", "mixed-model.model2.start_iteration: expected an integer"),
    ("start_iteration below -1", write_config, ["mixed-model.model2.start_iteration=-2"],
     "mixed-model.model2.start_iteration",
     "mixed-model.model2.start_iteration: must be >= 0, or -1 for the final iteration"),
    ("no 0 entry", write_config, ["general.mixed-model=true", "mixed-model.model1.start_iteration=1"],
     "mixed-model", "mixed-model: a schedule needs an entry starting at iteration 0"),
    ("duplicate 0", write_config, ["general.mixed-model=true", "mixed-model.model2.start_iteration=0"],
     "mixed-model", "mixed-model: start iterations must be distinct"),
    ("second sentinel", write_config,
     ["general.mixed-model=true",
      'mixed-model.model3={"start_iteration": -1, "model_family": "ChatGPT", "model_id": "x"}'],
     "mixed-model", "mixed-model: at most one final-iteration entry is allowed"),
    ("first fault: name", deleted("name"), ["general.mixed-model=true", "mixed-model.model1.start_iteration=1"],
     "general.name", "general.name: required key is missing"),
    ("first fault: sim_timeout", deleted("model_id"), ["general.sim_timeout=0"], "general.sim_timeout",
     NOT_POSITIVE),
    ("first fault: model_family", deleted("model_family", "model_id"), [], "general.model_family",
     "general.model_family: required key is missing"),
    *((f"sim_timeout override {timeout_id(text)}", write_config, [f"general.sim_timeout={text}"], "general.sim_timeout",
       NOT_POSITIVE) for text in BAD_SIM_TIMEOUTS),
    *((f"sim_timeout {timeout_id(text)}", edited_config(lambda document, text=text: document["general"].update(
        sim_timeout=json.loads(text))), [], "general.sim_timeout", NOT_POSITIVE)
      for text in BAD_SIM_TIMEOUTS),
]


class TestLoadConfig:
    def test_published_shape_parses(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.num_candidates == 5
        assert cfg.iterations == 5
        assert cfg.mixed_model is False
        assert cfg.schedule == ModelSchedule.single(lookup_model("gpt-4o-mini", "ChatGPT"))

    def test_inactive_schedule_entries_are_checked_but_unused(self, tmp_path):
        path = write_config(tmp_path)
        assert [e.model.model_id for e in load_config(path).schedule.entries] == ["gpt-4o-mini"]
        schedule = load_config(path, ["general.mixed-model=true"]).schedule
        assert [(e.start_iteration, e.model.model_id) for e in schedule.entries] == [(0, "gpt-4o-mini")]
        assert schedule.final.model_id == "gpt-4o"
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, ["mixed-model.model2.start_iteration=-2"])
        assert excinfo.value.key_path == "mixed-model.model2.start_iteration"

    def test_active_mixed_model_schedule(self, tmp_path):
        document = json.loads(json.dumps(EXAMPLE_CONFIG))
        document["general"]["mixed-model"] = True
        cfg = load_config(write_config(tmp_path, document))
        assert cfg.schedule.final.model_id == "gpt-4o"

    def test_missing_testbench_key(self, tmp_path):
        document = json.loads(json.dumps(EXAMPLE_CONFIG))
        del document["general"]["testbench"]
        with pytest.raises(ConfigError) as excinfo:
            load_config(write_config(tmp_path, document))
        assert excinfo.value.key_path == "general.testbench"

    def test_negative_iterations(self, tmp_path):
        document = json.loads(json.dumps(EXAMPLE_CONFIG))
        document["general"]["iterations"] = -3
        with pytest.raises(ConfigError) as excinfo:
            load_config(write_config(tmp_path, document))
        assert excinfo.value.key_path == "general.iterations"

    def test_zero_candidates(self, tmp_path):
        document = json.loads(json.dumps(EXAMPLE_CONFIG))
        document["general"]["num_candidates"] = 0
        with pytest.raises(ConfigError) as excinfo:
            load_config(write_config(tmp_path, document))
        assert excinfo.value.key_path == "general.num_candidates"

    def test_missing_prompt_file(self, tmp_path):
        path = write_config(tmp_path)
        (tmp_path / "design_prompt.sv").unlink()
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert excinfo.value.key_path == "general.prompt"

    def test_task_is_read_once_when_parsed(self, tmp_path):
        cfg = load_config(write_config(tmp_path), ["general.model_family=mock", "general.model_id=mock",
                                                   "general.num_candidates=1", "general.iterations=0"])
        assert cfg.task == DesignTask("top_module", "// design prompt\nmodule top_module();",
                                      "module tb(); endmodule")
        assert cfg.name == "top_module"
        (tmp_path / "design_prompt.sv").unlink()
        (tmp_path / "testbench.sv").unlink()
        trace = execute_run(cfg, {"mock": MockBackend({("top_module", 0, 0): passing_reply()})},
                            evaluator=offline_evaluate)
        assert trace.termination is Termination.ALL_TESTS_PASSED

    @pytest.mark.parametrize("key, content", [
        ("prompt", b""), ("testbench", b""), ("prompt", b"// caf\xe9"), ("testbench", b"\xff"),
    ])
    def test_empty_or_undecodable_task_file_names_its_key(self, tmp_path, key, content):
        path = write_config(tmp_path)
        (tmp_path / EXAMPLE_CONFIG["general"][key]).write_bytes(content)
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert excinfo.value.key_path == f"general.{key}"

    @pytest.mark.parametrize("name", ["bad-name", "9lives", "two words"])
    def test_name_must_be_an_hdl_identifier(self, tmp_path, name):
        with pytest.raises(ConfigError) as excinfo:
            load_config(write_config(tmp_path), [f"general.name={name}"])
        assert excinfo.value.key_path == "general.name"
        assert str(excinfo.value) == f"general.name: task name {name!r} is not a legal HDL identifier"

    def test_config_file_that_is_not_utf8_is_config_error(self, tmp_path):
        path = write_config(tmp_path)
        path.write_bytes(b"\xff" + path.read_bytes())
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert excinfo.value.key_path == str(path)

    def test_unknown_keys_warn(self, tmp_path):
        document = json.loads(json.dumps(EXAMPLE_CONFIG))
        document["general"]["unknown_knob"] = 1
        with pytest.warns(UserWarning, match="unknown configuration key"):
            load_config(write_config(tmp_path, document))

    def test_unknown_top_level_key_warns(self, tmp_path):
        document = {**EXAMPLE_CONFIG, "extras": {}}
        with pytest.warns(UserWarning, match="^unknown configuration key: extras$"):
            load_config(write_config(tmp_path, document))

    @pytest.mark.parametrize(
        "document, overrides, key_path",
        [
            ([], [], "<root>"),
            (None, ["general=[]"], "general"),
            (None, ["general.model_id=3"], "general.model_id"),
            (None, ['general.outdir=""'], "general.outdir"),
            (None, ["general.feedback_mode=verbose"], "general.feedback_mode"),
            (None, ["general.mixed-model=1"], "general.mixed-model"),
            (None, ["mixed-model=[]"], "mixed-model"),
            (None, ["mixed-model.model1=3"], "mixed-model.model1"),
            (None, ["mixed-model.model2.start_iteration=1.5"], "mixed-model.model2.start_iteration"),
        ],
        ids=["root", "general", "non-string", "empty string", "mode", "mixed-model flag",
             "mixed-model section", "mixed-model entry", "start_iteration"],
    )
    def test_wrong_type_names_its_key(self, tmp_path, document, overrides, key_path):
        with pytest.raises(ConfigError) as excinfo:
            load_config(write_config(tmp_path, document), overrides)
        assert excinfo.value.key_path == key_path

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda entries: entries["model1"].update(start_iteration=1),  # no 0 entry
            lambda entries: entries["model2"].update(start_iteration=0),  # duplicate 0
            lambda entries: entries.update(
                model3={"start_iteration": -1, "model_family": "ChatGPT", "model_id": "x"}
            ),  # second sentinel
        ],
    )
    def test_invalid_schedules(self, tmp_path, mutate):
        document = json.loads(json.dumps(EXAMPLE_CONFIG))
        document["general"]["mixed-model"] = True
        mutate(document["mixed-model"])
        with pytest.raises(ConfigError) as excinfo:
            load_config(write_config(tmp_path, document))
        assert excinfo.value.key_path == "mixed-model"

    @pytest.mark.parametrize(
        "overrides, faults, key_path",
        [
            (["general.mixed-model=true", "mixed-model.model1.start_iteration=1"], ["name"],
             "general.name"),
            (["general.sim_timeout=0"], ["model_id"], "general.sim_timeout"),
            ([], ["model_family", "model_id"], "general.model_family"),
        ],
    )
    def test_first_fault_in_document_order_is_reported(self, tmp_path, overrides, faults, key_path):
        # Keys are checked in a fixed order and the schedule rules last.
        document = json.loads(json.dumps(EXAMPLE_CONFIG))
        for key in faults:
            del document["general"][key]
        with pytest.raises(ConfigError) as excinfo:
            load_config(write_config(tmp_path, document), overrides)
        assert excinfo.value.key_path == key_path

    def test_feedback_mode_parsing(self, tmp_path):
        document = json.loads(json.dumps(EXAMPLE_CONFIG))
        document["general"]["feedback_mode"] = "full"
        cfg = load_config(write_config(tmp_path, document))
        assert cfg.feedback_mode is FeedbackMode.FULL_CONTEXT

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert excinfo.value.key_path == str(path)

    @pytest.mark.parametrize("text", BAD_SIM_TIMEOUTS, ids=timeout_id)
    def test_sim_timeout_must_be_a_positive_finite_number(self, tmp_path, text):
        # Python's json reads NaN and Infinity, in the file and in an override.
        document = json.loads(json.dumps(EXAMPLE_CONFIG))
        document["general"]["sim_timeout"] = json.loads(text)
        with pytest.raises(ConfigError) as excinfo:
            load_config(write_config(tmp_path, document))
        assert excinfo.value.key_path == "general.sim_timeout"
        with pytest.raises(ConfigError) as excinfo:
            load_config(write_config(tmp_path), [f"general.sim_timeout={text}"])
        assert excinfo.value.key_path == "general.sim_timeout"

    def test_overrides_apply_before_validation(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path, ["general.num_candidates=2", "general.model_id=mock"])
        assert cfg.num_candidates == 2
        assert cfg.schedule.entries[0].model.model_id == "mock"
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, ["general.num_candidates=two"])
        assert excinfo.value.key_path == "general.num_candidates"

    def test_malformed_override_is_config_error(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, ["general.num_candidates"])
        assert excinfo.value.key_path == "general.num_candidates"
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, ["general.name.first=x"])
        assert excinfo.value.key_path == "general.name"

    @pytest.mark.parametrize("prepare, overrides, key_path, message",
                             [case[1:] for case in CONFIG_FAILURES], ids=[case[0] for case in CONFIG_FAILURES])
    def test_config_error_key_path_and_message(self, tmp_path, capsys, prepare, overrides, key_path, message):
        # load_config and `hdlsmith run` report the same key path and message.
        path = prepare(tmp_path)
        key_path, message = (text.replace("{tmp}", str(tmp_path)) for text in (key_path, message))
        with pytest.raises(ConfigError) as excinfo:
            load_config(path, overrides)
        assert (excinfo.value.key_path, str(excinfo.value)) == (key_path, message)
        flags = [arg for override in overrides for arg in ("--override", override)]
        assert cli_main(["run", "--config", str(path), *flags]) == 2
        assert capsys.readouterr() == ("", f"hdlsmith: configuration error: {message}\n")


class TestCliInputBytes:
    """No byte from a reply, a tool, a local model or an input file crashes a run."""

    @staticmethod
    def run(tmp_path, *extra):
        return cli_main(["run", "--config", str(tmp_path / "config.json"), "--override", "general.num_candidates=1",
                         "--override", "general.iterations=0", *extra])

    @staticmethod
    def mock_backend(tmp_path, reply=None):
        script = tmp_path / "script.json"
        # json.dumps escapes non-ASCII, so a lone surrogate is written as "\ud800".
        script.write_text(json.dumps({"replies": {"top_module/0/0": reply or passing_reply()}}))
        return ["--override", "general.model_family=mock", "--override", "general.model_id=mock",
                "--backend", f"mock:{script}"]

    @staticmethod
    def assert_passed(capsys):
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "Termination: all_tests_passed" in captured.out

    def test_reply_with_a_lone_surrogate_is_ranked(self, tmp_path, capsys):
        write_config(tmp_path)
        reply = passing_reply().replace("endmodule", "// \ud800\nendmodule")
        assert self.run(tmp_path, *self.mock_backend(tmp_path, reply), "--offline-tools") == 0
        self.assert_passed(capsys)
        module = tmp_path / "output_dir" / "iter0" / "response0" / "top_module.sv"
        assert "// \ufffd\nendmodule" in module.read_text(encoding="utf-8")

    def test_tool_output_that_is_not_utf8_is_ranked(self, tmp_path, capsys, monkeypatch):
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        (bin_dir / "iverilog").write_text(
            '#!/bin/sh\nfor a in "$@"; do [ "$prev" = "-o" ] && echo compiled > "$a"; prev="$a"; done\n'
            "printf 'Icarus \\377\\n'; printf 'note: \\377\\n' >&2\n"
        )
        (bin_dir / "vvp").write_text("#!/bin/sh\nprintf 'Mismatches: 0 in 8 samples\\n\\377\\n'\n")
        for name in ("iverilog", "vvp"):
            (bin_dir / name).chmod(0o755)
        monkeypatch.setenv("PATH", str(bin_dir))
        write_config(tmp_path)
        assert self.run(tmp_path, *self.mock_backend(tmp_path)) == 0
        self.assert_passed(capsys)
        assert (tmp_path / "output_dir" / "log.txt").read_text(encoding="utf-8").startswith(
            "Tool version: Icarus \ufffd\n"
        )
        log = (tmp_path / "output_dir" / "iter0" / "response0" / "log.txt").read_text(encoding="utf-8")
        assert "info: note: \ufffd\n" in log
        assert "Mismatches: 0 in 8 samples\n\ufffd\n" in log

    def test_local_model_output_that_is_not_utf8_is_ranked(self, tmp_path, capsys, monkeypatch):
        reply = tmp_path / "reply.txt"
        reply.write_text(passing_reply())
        local = CommandBackend(("/bin/sh", "-c", f"cat > /dev/null; cat {shlex.quote(str(reply))}; printf '\\377'"))
        monkeypatch.setattr(cli, "default_registry", lambda **extra: {"local": local, **extra})
        write_config(tmp_path)
        overrides = ["--override", "general.model_family=local", "--override", "general.model_id=local-model"]
        assert self.run(tmp_path, *overrides, "--offline-tools") == 0
        self.assert_passed(capsys)

    def test_sweep_under_an_ascii_locale_reads_and_writes_utf8(self, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "alpha_prompt.sv").write_text("// y ≤ a + b\nmodule alpha();", encoding="utf-8")
        (suite / "alpha_tb.sv").write_text("module tb(); endmodule")
        (suite / "manifest.json").write_text(json.dumps({"alpha": {"category": "arithmétique"}}))
        reply = passing_reply(name="alpha").replace("endmodule", "// y ≤ a + b\nendmodule")
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"replies": {"alpha/0/0": reply}}, ensure_ascii=False), encoding="utf-8")
        run_fresh("""
import codecs, locale, sys
from pathlib import Path
from hdlsmith.bench import ReportFormat, export_report, load_report
from hdlsmith.cli import main

assert codecs.lookup(locale.getpreferredencoding(False)).name == "ascii"
tmp = Path(sys.argv[1])
report, copy = tmp / "report.csv", tmp / "copy.csv"
argv = ["bench", "--suite", str(tmp / "suite"), "--grid", "k=1;d=0,1", "--out", str(report),
        "--backend", "mock:" + str(tmp / "script.json"), "--offline-tools", "--workdir", str(tmp / "work")]
assert main(argv) == 0
results = load_report(report)
rows = [(row.category, row.success) for result in results for row in result.per_task]
# The command line is decoded as ASCII too, so the category is escaped here.
assert rows == [("arithm\\u00e9tique", True)] * 2
export_report(results, ReportFormat.CSV, copy)
assert load_report(copy) == results and copy.read_bytes() == report.read_bytes()
""", str(tmp_path), LC_ALL="C", PYTHONUTF8="0")
        module = tmp_path / "work" / "k1_d1_succinct" / "alpha" / "iter0" / "response0" / "alpha.sv"
        assert "// y ≤ a + b" in module.read_text(encoding="utf-8")

    UNDECODABLE = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"

    @pytest.mark.parametrize("fault, line", [
        ("config", "{config}: not valid JSON: " + UNDECODABLE),
        ("prompt", "general.prompt: {prompt} is not UTF-8 text: " + UNDECODABLE),
        ("testbench", "general.testbench: {testbench} is not UTF-8 text: " + UNDECODABLE),
        ("empty prompt", "general.prompt: file is empty: {prompt}"),
        ("empty testbench", "general.testbench: file is empty: {testbench}"),
        ("name", "general.name: task name 'bad-name' is not a legal HDL identifier"),
    ], ids=["config", "prompt", "testbench", "empty prompt", "empty testbench", "name"])
    def test_bad_input_file_or_name_is_config_error(self, tmp_path, capsys, fault, line):
        files = {"config": write_config(tmp_path), "prompt": tmp_path / "design_prompt.sv",
                 "testbench": tmp_path / "testbench.sv"}
        extra = []
        if fault == "name":
            extra = ["--override", "general.name=bad-name"]
        elif fault.startswith("empty "):
            files[fault[len("empty "):]].write_bytes(b"")
        else:
            files[fault].write_bytes(b"\xff" + files[fault].read_bytes())
        assert self.run(tmp_path, *self.mock_backend(tmp_path), "--offline-tools", *extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hdlsmith: configuration error: {line.format(**files)}\n"
        assert not (tmp_path / "output_dir").exists()


class TestRunLogGrammar:
    def make_trace(self):
        model = lookup_model("gpt-4o-mini")
        outcome = EvalOutcome(
            OutcomeKind.SIMULATED, mismatches=6220, samples=6283, feedback="..."
        )
        candidates = []
        for index, (out_tokens, length) in enumerate([(241, 627), (373, 1036)]):
            usage = TokenUsage(396, out_tokens)
            candidates.append(
                make_candidate(
                    outcome=outcome,
                    usage=usage,
                    cost=compute_cost(usage, model),
                    module_src="x" * length,
                    depth=0,
                    index=index,
                )
            )
        node = DepthNode(0, "ChatGPT", "gpt-4o-mini", tuple(candidates))
        return SearchTrace((node,))

    def test_log_lines(self):
        trace = self.make_trace()
        sink = io.StringIO()
        write_run_log(trace, sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "Iteration: 0"
        assert lines[1] == "Model type: ChatGPT"
        assert lines[2] == "Model ID: gpt-4o-mini"
        assert lines[3] == "Number of responses: 2"
        assert "Simulation error" in lines
        assert "Mismatches: 6220" in lines
        assert "Samples: 6283" in lines
        assert "Cost for response 0: $0.0002040000" in lines
        assert "Cost for response 1: $0.0002832000" in lines
        assert "Response ranks: [0.010027057138309725, 0.010027057138309725]" in lines
        assert "Response lengths: [627, 1036]" in lines
        # The ledger bills the candidates the log prints.
        assert trace.ledger.totals.cost_usd == Decimal("0.0004872")

    def test_passing_candidate_label(self):
        outcome = EvalOutcome(OutcomeKind.SIMULATED, mismatches=0, samples=8)
        node = DepthNode(0, "mock", "mock", (make_candidate(outcome=outcome),))
        trace = SearchTrace((node,))
        sink = io.StringIO()
        write_run_log(trace, sink)
        assert "Simulation passed" in sink.getvalue()
        assert "Mismatches: 0" in sink.getvalue()

    def test_crash_line_uses_diagnosis(self):
        outcome = EvalOutcome(
            OutcomeKind.SIM_CRASH_OR_TIMEOUT,
            diagnosis="Simulation timed out after 60 seconds and was killed.",
        )
        node = DepthNode(0, "mock", "mock", (make_candidate(outcome=outcome),))
        trace = SearchTrace((node,))
        sink = io.StringIO()
        write_run_log(trace, sink)
        assert "Simulation timed out after 60 seconds" in sink.getvalue()


class TestExecuteRun:
    def run_config(self, tmp_path, *, k=2, d=1, overrides=()):
        document = json.loads(json.dumps(EXAMPLE_CONFIG))
        document["general"].update(
            model_family="mock", model_id="mock", num_candidates=k, iterations=d
        )
        return load_config(write_config(tmp_path, document), overrides)

    def listing(self, root: Path) -> list[str]:
        return sorted(
            str(p.relative_to(root)) for p in root.rglob("*") if not p.is_dir()
        )

    def test_never_passing_layout(self, tmp_path):
        cfg = self.run_config(tmp_path)
        script = {
            ("top_module", d, i): reply_with_module("mismatches=3 samples=9")
            for d in range(2)
            for i in range(2)
        }
        trace = execute_run(cfg, {"mock": MockBackend(script)}, evaluator=offline_evaluate)
        assert trace.termination is Termination.MAX_DEPTH_REACHED
        expected = ["log.txt"]
        for d in range(2):
            for i in range(2):
                base = f"iter{d}/response{i}"
                expected += [
                    f"{base}/log.txt",
                    f"{base}/top_module.sv",
                    f"{base}/top_module.vvp",
                    f"{base}/top_module_tb.sv",
                ]
        assert self.listing(cfg.outdir) == sorted(expected)

    def test_early_exit_leaves_only_iter0(self, tmp_path):
        cfg = self.run_config(tmp_path)
        script = {("top_module", 0, 0): passing_reply()}
        trace = execute_run(cfg, {"mock": MockBackend(script)}, evaluator=offline_evaluate)
        assert trace.termination is Termination.ALL_TESTS_PASSED
        dirs = {p.name for p in cfg.outdir.iterdir() if p.is_dir()}
        assert dirs == {"iter0"}

    def test_no_module_candidate_gets_log_only(self, tmp_path):
        cfg = self.run_config(tmp_path, k=1, d=0)
        trace = execute_run(cfg, {"mock": MockBackend({})}, evaluator=offline_evaluate)
        assert trace.best().outcome.kind is OutcomeKind.NO_MODULE
        response_dir = cfg.outdir / "iter0" / "response0"
        assert [p.name for p in response_dir.iterdir()] == ["log.txt"]

    def test_top_level_log_written(self, tmp_path):
        cfg = self.run_config(tmp_path, k=1, d=0)
        execute_run(cfg, {"mock": MockBackend({})}, evaluator=offline_evaluate)
        text = (cfg.outdir / "log.txt").read_text()
        assert text.startswith("Iteration: 0\n")
        assert "Model type: mock" in text

    def test_layout_round_trips_to_trace_shape(self, tmp_path):
        from hdlsmith.runcfg import scan_output_tree, trace_shape

        cfg = self.run_config(tmp_path, k=2, d=2)
        script = {
            ("top_module", 0, 0): reply_with_module("compile-error"),
            ("top_module", 0, 1): reply_with_module("mismatches=4 samples=8"),
            ("top_module", 1, 0): "no module at all",
            ("top_module", 1, 1): reply_with_module("hang"),
            ("top_module", 2, 0): reply_with_module("mismatches=1 samples=8"),
            ("top_module", 2, 1): reply_with_module("warning\n  // eda: silent"),
        }
        trace = execute_run(cfg, {"mock": MockBackend(script)}, evaluator=offline_evaluate)
        assert scan_output_tree(cfg.outdir) == trace_shape(trace)

    def test_ledger_total_equals_sum_of_logged_costs(self, tmp_path):
        document = json.loads(json.dumps(EXAMPLE_CONFIG))
        document["general"].update(num_candidates=2, iterations=1)
        cfg = load_config(write_config(tmp_path, document))
        backend = MockBackend(
            {
                ("top_module", d, i): reply_with_module("mismatches=3 samples=9")
                for d in range(2)
                for i in range(2)
            },
            tokens_per_reply=TokenUsage(396, 241),
        )
        # The configured model is gpt-4o-mini under the ChatGPT family.
        trace = execute_run(cfg, {"ChatGPT": backend}, evaluator=offline_evaluate)
        logged = [
            Decimal(line.split("$")[1])
            for line in (cfg.outdir / "log.txt").read_text().splitlines()
            if line.startswith("Cost for response")
        ]
        assert len(logged) == 4
        assert sum(logged, Decimal(0)) == trace.ledger.totals.cost_usd

    DEFAULT_TOOL_NAMES = {"compiler": "iverilog", "runtime": "vvp"}

    def put_fake_tools_on_path(self, tmp_path, monkeypatch, missing=None):
        # The default toolchain is found on PATH: the fake binaries, but the missing one.
        from test_edatools import write_fake_binaries

        tools = write_fake_binaries(tmp_path)
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        for role, name in self.DEFAULT_TOOL_NAMES.items():
            if role != missing:
                (bin_dir / name).symlink_to(getattr(tools, role))
        monkeypatch.setenv("PATH", str(bin_dir))

    def test_tool_version_header_with_real_toolchain(self, tmp_path, monkeypatch):
        self.put_fake_tools_on_path(tmp_path, monkeypatch)
        cfg = self.run_config(tmp_path, k=1, d=0)
        script = {("top_module", 0, 0): reply_with_module()}
        trace = execute_run(cfg, {"mock": MockBackend(script)})
        text = (cfg.outdir / "log.txt").read_text()
        assert text.startswith("Tool version: Fake Verilog Compiler 99.0\n")
        assert trace.best().outcome.kind is OutcomeKind.SIMULATED

    @pytest.mark.parametrize(
        "missing, message",
        [("compiler", "compiler not found: {tool}"), ("runtime", "simulation runtime not found: {tool}")],
    )
    def test_missing_tool_raises_before_any_request(self, tmp_path, monkeypatch, missing, message):
        self.put_fake_tools_on_path(tmp_path, monkeypatch, missing)
        cfg = self.run_config(tmp_path)
        backend = MockBackend({})
        with pytest.raises(ToolNotFoundError) as info:
            execute_run(cfg, {"mock": backend})
        assert str(info.value) == message.format(tool=self.DEFAULT_TOOL_NAMES[missing])
        assert backend.calls == []
        assert not cfg.outdir.exists()


    def test_unopenable_log_raises_before_any_request(self, tmp_path):
        cfg = replace(self.run_config(tmp_path), log=Path("nodir") / "log.txt")
        backend = MockBackend({})
        with pytest.raises(FileNotFoundError):
            execute_run(cfg, {"mock": backend}, evaluator=offline_evaluate)
        assert backend.calls == []
        assert list(cfg.outdir.iterdir()) == []

    def test_any_registered_family_is_served(self, tmp_path):
        cfg = self.run_config(tmp_path, k=1, d=0, overrides=["general.model_family=mylocal"])
        backend = MockBackend({("top_module", 0, 0): passing_reply()})
        trace = execute_run(cfg, {"mylocal": backend}, evaluator=offline_evaluate)
        assert trace.termination is Termination.ALL_TESTS_PASSED
        assert "Model type: mylocal\n" in (cfg.outdir / "log.txt").read_text()

    @pytest.mark.parametrize(
        "mixed_model, key_path, family",
        # The mixed-model entries name the ChatGPT family.
        [(False, "general.model_family", "local"), (True, "mixed-model", "ChatGPT")],
    )
    def test_family_without_backend_raises_before_the_outdir(self, tmp_path, mixed_model, key_path, family):
        family_override = "general.model_family=local"
        flag_override = f"general.mixed-model={json.dumps(mixed_model)}"
        cfg = self.run_config(tmp_path, overrides=[family_override, flag_override])
        backend = MockBackend({})
        with pytest.raises(ConfigError) as info:
            execute_run(cfg, {"mock": backend}, evaluator=offline_evaluate)
        assert info.value.key_path == key_path
        assert str(info.value) == f"{key_path}: no backend registered for model family {family!r}"
        assert backend.calls == []
        assert not cfg.outdir.exists()


class TestCli:
    def write_mock_script(self, tmp_path, replies: dict[str, str]) -> Path:
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"replies": replies}))
        return path

    def test_run_exit_codes(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        script = self.write_mock_script(
            tmp_path, {"top_module/0/0": passing_reply()}
        )
        code = cli_main(
            [
                "run",
                "--config", str(config_path),
                "--override", "general.model_family=mock",
                "--override", "general.model_id=mock",
                "--override", "general.num_candidates=1",
                "--override", "general.iterations=0",
                "--backend", f"mock:{script}",
                "--offline-tools",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Termination: all_tests_passed" in out

    def test_run_failure_exit_code(self, tmp_path):
        config_path = write_config(tmp_path)
        script = self.write_mock_script(tmp_path, {})
        code = cli_main(
            [
                "run",
                "--config", str(config_path),
                "--override", "general.model_family=mock",
                "--override", "general.model_id=mock",
                "--override", "general.iterations=0",
                "--backend", f"mock:{script}",
                "--offline-tools",
            ]
        )
        assert code == 1

    def test_run_without_toolchain_is_tool_error(self, tmp_path, capsys, monkeypatch):
        config_path = write_config(tmp_path)
        script = self.write_mock_script(tmp_path, {})
        monkeypatch.setenv("PATH", str(tmp_path / "empty-bin"))
        code = cli_main(
            [
                "run",
                "--config", str(config_path),
                "--override", "general.model_family=mock",
                "--override", "general.model_id=mock",
                "--backend", f"mock:{script}",
            ]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hdlsmith: tool error: compiler not found: iverilog\n"
        assert not (tmp_path / "output_dir").exists()

    def test_run_family_without_backend_is_config_error(self, tmp_path, capsys):
        # No backend serves the local family unless a program registers one.
        config_path = write_config(tmp_path)
        code = cli_main(["run", "--config", str(config_path),
                         "--override", "general.model_family=local", "--offline-tools"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "hdlsmith: configuration error: general.model_family: "
            "no backend registered for model family 'local'\n"
        )
        assert not (tmp_path / "output_dir").exists()

    def test_run_backend_error_names_its_cause(self, tmp_path, capsys, monkeypatch):
        # The configured ChatGPT family needs an API key before any request.
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        config_path = write_config(tmp_path)
        code = cli_main(["run", "--config", str(config_path), "--override", "general.iterations=0",
                         "--offline-tools"])
        assert code == 1
        captured = capsys.readouterr()
        assert "Termination: backend_error" in captured.out
        assert captured.err == "hdlsmith: backend error: environment variable OPENAI_API_KEY is not set\n"

    def test_bench_backend_error_names_its_row_and_task(self, tmp_path, capsys, monkeypatch):
        # The error goes to stderr once per row and task it ended; the
        # report and the exit code count the task as failed, as before.
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        argv = self.bench_argv(tmp_path, "--grid", "k=1,2;d=0,1", "--model", "ChatGPT:gpt-4o-mini")
        (tmp_path / "suite" / "beta_prompt.sv").write_text("// build beta")
        (tmp_path / "suite" / "beta_tb.sv").write_text("module tb(); endmodule")
        assert cli_main(argv) == 0
        captured = capsys.readouterr()
        rows = [f"k={k} d={d} succinct" for k in (1, 2) for d in (0, 1)]
        assert captured.out == "".join(f"{row}: 0.0% (0/2)\n" for row in rows) + (
            f"Report written to {tmp_path / 'report.json'}\n"
        )
        assert captured.err == "".join(
            f"hdlsmith: backend error: {row} {task}: environment variable OPENAI_API_KEY is not set\n"
            for row in rows
            for task in ("alpha", "beta")
        )
        payload = json.loads((tmp_path / "report.json").read_text())
        assert {(row["success"], row["queries_used"], row["best_rank"])
                for result in payload["results"] for row in result["per_task"]} == {(False, 0, None)}

    def test_bench_without_toolchain_is_tool_error(self, tmp_path, capsys, monkeypatch):
        argv = [arg for arg in self.bench_argv(tmp_path, "--workdir", str(tmp_path / "work"))
                if arg != "--offline-tools"]
        monkeypatch.setenv("PATH", str(tmp_path / "empty-bin"))
        assert cli_main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hdlsmith: tool error: compiler not found: iverilog\n"
        assert not (tmp_path / "work").exists()
        assert not (tmp_path / "report.json").exists()

    @staticmethod
    def assert_io_error(capsys):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hdlsmith: I/O error: ")
        assert captured.err.count("\n") == 1

    def test_run_outdir_under_a_file_is_tool_error(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        (tmp_path / "blocker").write_text("a regular file")
        script = self.write_mock_script(tmp_path, {"top_module/0/0": passing_reply()})
        code = cli_main(
            [
                "run",
                "--config", str(config_path),
                "--override", "general.model_family=mock",
                "--override", "general.model_id=mock",
                "--override", f"general.outdir={tmp_path / 'blocker' / 'out'}",
                "--backend", f"mock:{script}",
                "--offline-tools",
            ]
        )
        assert code == 3
        self.assert_io_error(capsys)

    def test_run_tool_io_error_keeps_tool_label(self, tmp_path, capsys, monkeypatch):
        # A compiler that exits 0 without writing its artifact leaves the
        # simulator nothing to run.
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        for name in ("iverilog", "vvp"):
            (bin_dir / name).write_text("#!/bin/sh\nexit 0\n")
            (bin_dir / name).chmod(0o755)
        monkeypatch.setenv("PATH", str(bin_dir))
        config_path = write_config(tmp_path)
        script = self.write_mock_script(tmp_path, {"top_module/0/0": passing_reply()})
        code = cli_main(
            [
                "run",
                "--config", str(config_path),
                "--override", "general.model_family=mock",
                "--override", "general.model_id=mock",
                "--backend", f"mock:{script}",
            ]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        artifact = tmp_path / "output_dir" / "iter0" / "response0" / "top_module.vvp"
        assert captured.err == f"hdlsmith: tool error: simulation artifact missing: {artifact}\n"

    def test_run_source_write_fault_is_io_error(self, tmp_path, capsys):
        # A directory where the candidate's source file goes fails its write.
        config_path = write_config(tmp_path)
        (tmp_path / "output_dir" / "iter0" / "response0" / "top_module.sv").mkdir(parents=True)
        script = self.write_mock_script(tmp_path, {"top_module/0/0": passing_reply()})
        code = cli_main(
            [
                "run",
                "--config", str(config_path),
                "--override", "general.model_family=mock",
                "--override", "general.model_id=mock",
                "--backend", f"mock:{script}",
                "--offline-tools",
            ]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hdlsmith: I/O error: [Errno 21] Is a directory: ")
        assert captured.err.count("\n") == 1

    def test_run_infinite_sim_timeout_is_config_error(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        script = self.write_mock_script(tmp_path, {"top_module/0/0": passing_reply()})
        code = cli_main(
            [
                "run",
                "--config", str(config_path),
                "--override", "general.model_family=mock",
                "--override", "general.model_id=mock",
                "--override", "general.sim_timeout=Infinity",
                "--backend", f"mock:{script}",
                "--offline-tools",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "hdlsmith: configuration error: general.sim_timeout: expected a positive finite number\n"
        )
        assert not (tmp_path / "output_dir").exists()

    def test_bench_workdir_under_a_file_is_tool_error(self, tmp_path, capsys):
        (tmp_path / "blocker").write_text("a regular file")
        assert cli_main(self.bench_argv(tmp_path, "--workdir", str(tmp_path / "blocker" / "work"))) == 3
        self.assert_io_error(capsys)
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "out_name, make_out, detail",
        [
            ("missing/report.json", lambda path: None, "no such directory: {out.parent}"),
            ("report", lambda path: path.mkdir(), "is a directory: {out}"),
        ],
        ids=["missing directory", "directory"],
    )
    def test_bench_unusable_out_is_config_error(self, tmp_path, capsys, out_name, make_out, detail):
        script = self.write_mock_script(tmp_path, {"alpha/0/0": passing_reply(name="alpha")})
        out = tmp_path / out_name
        make_out(out)
        argv = self.bench_argv(tmp_path, "--backend", f"mock:{script}", "--workdir", str(tmp_path / "work"))
        argv[argv.index("--out") + 1] = str(out)
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hdlsmith: configuration error: --out: {detail.format(out=out)}\n"
        assert not (tmp_path / "work").exists()

    def test_run_missing_config_is_config_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli_main(["run", "--config", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"hdlsmith: configuration error: {missing}: ")
        assert captured.err.count("\n") == 1

    def test_run_malformed_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli_main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"hdlsmith: configuration error: {path}: ")
        assert err.count("\n") == 1

    def test_run_bad_override_names_key_path(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        code = cli_main(["run", "--config", str(config_path),
                         "--override", "general.num_candidates=many"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hdlsmith: configuration error: general.num_candidates")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "grid, points", [("k=1;", [(1, 0)]), (" ; k=1,2 ;; d=3 ;", [(1, 3), (2, 3)]), ("", [(1, 0)])],
        ids=["trailing", "blank and repeated", "empty"],
    )
    def test_grid_skips_empty_clauses(self, grid, points):
        assert cli._parse_grid(grid) == points

    @pytest.mark.parametrize(
        "grid, detail",
        [
            ("k=a", "'k=a': k values must be integers"),
            ("k=1,;d=0", "'k=1,': k values must be integers"),
            ("k=0", "'k=0': k must be at least 1"),
            ("k=1;d=0,-1", "'d=0,-1': d must be at least 0"),
            ("n=3", "bad clause 'n=3'"),
            ("k=1;d=0;k=2", "'k=2': k is given twice"),
        ],
    )
    def test_bench_bad_grid_is_usage_error(self, tmp_path, capsys, grid, detail):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "alpha_prompt.sv").write_text("// build alpha")
        (suite / "alpha_tb.sv").write_text("module tb(); endmodule")
        out = tmp_path / "report.json"
        code = cli_main(["bench", "--suite", str(suite), "--grid", grid, "--out", str(out), "--offline-tools"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"hdlsmith: configuration error: --grid: {detail}")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "make_suite, detail",
        [
            (lambda path: None, "no such directory: {suite}"),
            (lambda path: path.write_text("not a directory"), "no such directory: {suite}"),
            (lambda path: path.mkdir(), "no usable tasks in {suite}"),
        ],
        ids=["missing", "file", "empty"],
    )
    def test_bench_unusable_suite_is_config_error(self, tmp_path, capsys, make_suite, detail):
        suite = tmp_path / "suite"
        make_suite(suite)
        out = tmp_path / "report.json"
        code = cli_main(["bench", "--suite", str(suite), "--out", str(out), "--offline-tools"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"hdlsmith: configuration error: --suite: {detail.format(suite=suite)}\n"
        assert not out.exists()

    @staticmethod
    def bench_argv(tmp_path, *extra):
        suite = tmp_path / "suite"
        suite.mkdir(exist_ok=True)
        (suite / "alpha_prompt.sv").write_text("// build alpha")
        (suite / "alpha_tb.sv").write_text("module tb(); endmodule")
        return ["bench", "--suite", str(suite), "--out", str(tmp_path / "report.json"), "--offline-tools", *extra]

    @staticmethod
    def assert_config_error(capsys, tmp_path, message):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"hdlsmith: configuration error: {message}")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize(
        "make_script, detail",
        [
            (lambda path: None, "cannot read {path}: No such file or directory"),
            (lambda path: path.mkdir(), "cannot read {path}: Is a directory"),
            (lambda path: path.write_text("{not json"), "{path}: not a JSON file"),
            (lambda path: path.write_text("[]"), "{path}: a mock script must be a JSON object"),
            (
                lambda path: path.write_text(json.dumps({"replies": {"a/0": "x"}})),
                "{path}: reply key 'a/0' is not <task>/<depth>/<index>",
            ),
        ],
        ids=["missing", "directory", "not json", "not an object", "bad key"],
    )
    def test_bad_mock_script_is_config_error(self, tmp_path, capsys, command, make_script, detail):
        script = tmp_path / "script.json"
        make_script(script)
        if command == "run":
            argv = ["run", "--config", str(write_config(tmp_path)), "--backend", f"mock:{script}"]
        else:
            argv = self.bench_argv(tmp_path, "--backend", f"mock:{script}")
        assert cli_main(argv) == 2
        self.assert_config_error(capsys, tmp_path, f"--backend: {detail.format(path=script)}")

    @pytest.mark.parametrize(
        "flag, spec, detail",
        [
            ("--model", "nocolon", "bad spec 'nocolon'; expected FAMILY:ID"),
            ("--final-model", "x", "bad spec 'x'; expected FAMILY:ID"),
            ("--backend", "foo", "bad spec 'foo'; expected mock:<script.json>"),
            ("--backend", "mock", "bad spec 'mock'; expected mock:<script.json>"),
            ("--backend", "mock:", "bad spec 'mock:'; expected mock:<script.json>"),
            ("--mode", "bogus", "expected 'succinct' or 'full_context'\n"),
        ],
    )
    def test_bench_bad_spec_is_config_error(self, tmp_path, capsys, monkeypatch, flag, spec, detail):
        mock = MockBackend({})
        monkeypatch.setattr(cli, "default_registry", lambda **extra: {"mock": mock, **extra})
        assert cli_main(self.bench_argv(tmp_path, flag, spec)) == 2
        self.assert_config_error(capsys, tmp_path, f"{flag}: {detail}")
        assert mock.calls == []

    def test_bench_mode_spellings_write_one_report(self, tmp_path, capsys):
        # The spellings a config's feedback_mode accepts, in any case.
        script = self.write_mock_script(tmp_path, {"alpha/1/0": passing_reply(name="alpha")})
        outputs = set()
        for spelling in ("full", "full_context", "full-context", "FULL"):
            argv = self.bench_argv(tmp_path, "--grid", "k=1,2;d=0,1", "--mode", spelling,
                                   "--backend", f"mock:{script}")
            assert cli_main(argv) == 0
            outputs.add((capsys.readouterr().out, (tmp_path / "report.json").read_bytes()))
        [(out, _)] = outputs  # one stdout and one report for every spelling
        assert "k=1 d=1 full_context: 100.0% (1/1)\n" in out
        assert {result.params.mode for result in load_report(tmp_path / "report.json")} == {
            FeedbackMode.FULL_CONTEXT}

    def test_run_bad_backend_spec_is_config_error(self, tmp_path, capsys):
        assert cli_main(["run", "--config", str(write_config(tmp_path)), "--backend", "foo"]) == 2
        self.assert_config_error(capsys, tmp_path, "--backend: bad spec 'foo'; expected mock:<script.json>")

    @pytest.mark.parametrize(
        "specs, flag",
        [
            (["--model", "foo:bar"], "--model"),
            (["--final-model", "foo:bar"], "--final-model"),
            (["--model", "foo:x", "--final-model", "foo:x"], "--model"),  # the first model checked
        ],
        ids=["--model", "--final-model", "both"],
    )
    def test_bench_model_family_without_backend_is_config_error(self, tmp_path, capsys, specs, flag):
        assert cli_main(self.bench_argv(tmp_path, *specs, "--workdir", str(tmp_path / "work"))) == 2
        self.assert_config_error(capsys, tmp_path, f"{flag}: no backend registered for model family 'foo'\n")
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bench_parallel_below_one_is_config_error(self, tmp_path, capsys, value):
        assert cli_main(self.bench_argv(tmp_path, "--parallel", value, "--workdir", str(tmp_path / "work"))) == 2
        self.assert_config_error(capsys, tmp_path, f"--parallel: {value}: must be at least 1\n")
        assert not (tmp_path / "work").exists()

    def test_bench_out_suffix_picks_the_format(self, tmp_path):
        # CSV for a .csv suffix in any case, JSON for any other suffix.
        script = self.write_mock_script(tmp_path, {"alpha/1/0": passing_reply(name="alpha")})
        formats = {"r.json": ReportFormat.JSON, "r.csv": ReportFormat.CSV,
                   "r.CSV": ReportFormat.CSV, "r.txt": ReportFormat.JSON}
        reports = {}
        for name, format in formats.items():
            argv = self.bench_argv(tmp_path, "--grid", "k=1,2;d=0,1", "--backend", f"mock:{script}")
            argv[argv.index("--out") + 1] = str(tmp_path / name)
            assert cli_main(argv) == 0
            reports[name] = load_report(tmp_path / name)
            assert (tmp_path / name).read_text(encoding="utf-8") == render_report(reports[name], format)
        assert len(reports["r.json"]) == 4
        assert all(results == reports["r.json"] for results in reports.values())

    def test_bench_cli_writes_report(self, tmp_path, capsys):
        suite = tmp_path / "suite"
        suite.mkdir()
        for stem in ("alpha", "beta"):
            (suite / f"{stem}_prompt.sv").write_text(f"// build {stem}")
            (suite / f"{stem}_tb.sv").write_text("module tb(); endmodule")
        out = tmp_path / "report.json"
        code = cli_main(
            [
                "bench",
                "--suite", str(suite),
                "--grid", "k=1;d=0,1",
                "--out", str(out),
                "--offline-tools",
                "--workdir", str(tmp_path / "work"),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["results"]) == 2
        assert {row["task"] for row in payload["results"][0]["per_task"]} == {"alpha", "beta"}
        # Default mock backend means the tasks actually ran (and failed).
        assert all(row["queries_used"] == 1 for row in payload["results"][0]["per_task"])
