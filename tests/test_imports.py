"""Cold start: what importing hdlsmith, and each entry point, loads."""

from __future__ import annotations

import ast
import importlib
import json
from pathlib import Path

import pytest

import hdlsmith
from conftest import run_fresh
from hdlsmith.faketools import passing_reply

# Prefix of every snippet run by ``run_fresh``.
GUARD = """
import sys

def assert_not_loaded(*names):
    loaded = [name for name in names if name in sys.modules]
    assert not loaded, f"loaded: {loaded}"
"""


def write_run_inputs(tmp_path):
    """A k=1, d=0 mock run config whose scripted reply passes, and its script."""
    (tmp_path / "prompt.sv").write_text("// build it\nmodule top_module();")
    (tmp_path / "tb.sv").write_text("module tb(); endmodule")
    general = {
        "prompt": "prompt.sv", "name": "top_module", "testbench": "tb.sv",
        "model_family": "mock", "model_id": "mock", "num_candidates": 1, "iterations": 0,
        "outdir": "out", "log": "log.txt",
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"general": general}))
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"replies": {"top_module/0/0": passing_reply()}}))
    return config, script


def test_importing_the_package_runs_no_submodule():
    run_fresh(GUARD + """
import hdlsmith

submodules = sorted(name for name in sys.modules if name.startswith("hdlsmith."))
assert not submodules, f"loaded: {submodules}"
assert hdlsmith.run_search is hdlsmith.search.run_search
assert_not_loaded("hdlsmith.bench", "hdlsmith.runcfg")
""")


def test_loading_a_run_config_loads_no_sweep_code(tmp_path):
    config, _ = write_run_inputs(tmp_path)
    run_fresh(GUARD + """
import hdlsmith.runcfg

hdlsmith.runcfg.load_config(sys.argv[1])
assert_not_loaded("hdlsmith.bench", "csv", "subprocess", "concurrent.futures")
""", str(config))


def test_loading_a_suite_loads_no_run_code(tmp_path):
    (tmp_path / "alpha_prompt.sv").write_text("// build alpha")
    (tmp_path / "alpha_tb.sv").write_text("module tb(); endmodule")
    run_fresh(GUARD + """
import hdlsmith.bench
from hdlsmith.backends import default_registry

hdlsmith.bench.load_suite(sys.argv[1])
default_registry()
assert_not_loaded("hdlsmith.runcfg", "subprocess", "concurrent.futures")
""", str(tmp_path))


def test_cli_run_loads_no_sweep_code_and_starts_no_process(tmp_path):
    config, script = write_run_inputs(tmp_path)
    run_fresh(GUARD + """
from hdlsmith.cli import main

code = main(["run", "--config", sys.argv[1], "--backend", "mock:" + sys.argv[2], "--offline-tools"])
assert code == 0, code
assert_not_loaded("hdlsmith.bench", "subprocess")
""", str(config), str(script))


def test_fan_out_and_sweep_load_no_thread_pool(tmp_path):
    for stem in ("alpha", "beta"):
        (tmp_path / f"{stem}_prompt.sv").write_text(f"// build {stem}")
        (tmp_path / f"{stem}_tb.sv").write_text("module tb(); endmodule")
    run_fresh(GUARD + """
from hdlsmith.backends import ChatCompletionsBackend, GenerationRequest, MockBackend, lookup_model
from hdlsmith.bench import GridPoint, load_suite, run_suite
from hdlsmith.faketools import offline_evaluate
from hdlsmith.prompts import initial_conversation
from hdlsmith.search import ModelSchedule

def transport(url, headers, body):
    return 200, {"choices": [{"message": {"content": "no module"}}], "usage": {}}

tasks = load_suite(sys.argv[1])
req = GenerationRequest(initial_conversation(tasks[0]), lookup_model("gpt-4o-mini"), 3)
assert len(ChatCompletionsBackend(transport=transport).generate(req)) == 3
results = run_suite(
    tasks, [GridPoint(3, 1)], ModelSchedule.single(lookup_model("mock")),
    {"mock": MockBackend({})}, evaluator=offline_evaluate, parallelism=2,
)
assert len(results[0].per_task) == 2
assert_not_loaded("concurrent.futures", "logging")
""", str(tmp_path), OPENAI_API_KEY="test-key")


def test_every_export_is_its_submodules_object():
    for name in hdlsmith.__all__:
        export = getattr(hdlsmith, name)
        assert getattr(importlib.import_module(export.__module__), name) is export, name
    assert set(hdlsmith.__all__) <= set(dir(hdlsmith))


def test_unknown_attribute_and_star_import():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hdlsmith.no_such_name
    namespace: dict = {}
    exec("from hdlsmith import *", namespace)
    assert all(namespace[name] is getattr(hdlsmith, name) for name in hdlsmith.__all__)


def test_only_run_process_imports_subprocess():
    # Every external process starts in edatools.run_process, so how a process
    # is run, decoded or capped is one function's business.
    sites = []
    for path in sorted(Path(hdlsmith.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(name.split(".")[0] == "subprocess" for name in names):
                scope = [f.name for f in functions if node in ast.walk(f)]
                sites.append((path.name, scope))
    assert sites == [("edatools.py", ["run_process"])]


def test_no_module_imports_concurrent():
    # The fan-out and the sweep run on threads they start themselves; a
    # thread pool would load logging, traceback and queue into every run.
    sites = []
    for path in sorted(Path(hdlsmith.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(name.split(".")[0] == "concurrent" for name in names):
                sites.append(f"{path.name}:{node.lineno}")
    assert sites == []


def test_every_text_file_is_opened_as_utf8():
    # Without encoding= a file is read and written in the locale's encoding,
    # so under an ASCII locale a non-ASCII reply or tag fails the run.
    sites = []
    for path in sorted(Path(hdlsmith.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("open", "read_text", "write_text") and all(k.arg != "encoding" for k in node.keywords):
                sites.append(f"{path.name}:{node.lineno}")
    assert sites == []
