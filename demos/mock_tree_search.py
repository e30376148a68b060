# A complete greedy tree search run, fully offline.
#
# A scripted backend plays the LLM and the scripted toolchain plays the
# compiler/simulator, so the whole search (candidates, ranking, feedback,
# early exit, mixed-model scheduling) runs deterministically on any machine.

import sys
import tempfile
from pathlib import Path

from hdlsmith import MockBackend
from hdlsmith.backends import lookup_model
from hdlsmith.core import DesignTask
from hdlsmith.faketools import offline_evaluate, reply_with_module
from hdlsmith.runcfg import write_run_log
from hdlsmith.search import (
    ModelSchedule,
    ScheduleEntry,
    SearchConfig,
    pass_at_budget,
    run_search,
)

task = DesignTask(
    name="top_module",
    prompt_text="// Build a rule-110 cellular automaton step.\nmodule top_module(...);",
    testbench_src="module tb(); endmodule",
)

# The script improves each iteration and finally passes at depth 3.
script = {
    ("top_module", 0, 0): "Sorry, I would rather explain the theory.",  # no module: rank -2
    ("top_module", 0, 1): reply_with_module("compile-error"),
    ("top_module", 1, 0): reply_with_module("mismatches=5000 samples=6283"),
    ("top_module", 1, 1): reply_with_module("mismatches=6220 samples=6283"),
    ("top_module", 2, 0): reply_with_module("mismatches=63 samples=6283"),
    ("top_module", 2, 1): reply_with_module("hang"),
    ("top_module", 3, 0): reply_with_module("pass"),
}

# A cheap model does the tree search; a big one is reserved for the final
# iteration (it never fires here because the search exits early).
schedule = ModelSchedule((ScheduleEntry(0, lookup_model("gpt-4o-mini")),), final=lookup_model("gpt-4o"))

outdir = Path(tempfile.mkdtemp(prefix="tree_search_")) / "output_dir"
cfg = SearchConfig(num_candidates=2, max_depth=10, outdir=outdir)
backend = MockBackend(script, default_reply=reply_with_module("mismatches=6000 samples=6283"))

trace = run_search(task, cfg, schedule, {"ChatGPT": backend, "mock": backend},
                   evaluator=offline_evaluate)

print("Tree:")
for node in trace.nodes:
    ranks = [c.rank.value for c in node.candidates]
    print(f"  iter {node.depth} [{node.model_id}] ranks={ranks} chose index {node.chosen_index}")

queries, success = pass_at_budget(trace)
print(f"\nTermination: {trace.termination.value}")
print(f"Queries used: {queries} of a possible {cfg.num_candidates * (cfg.max_depth + 1)}")
print(f"Best overall: depth/index {trace.best_overall}, rank {trace.best().rank.value!r}")
print(f"Output tree on disk: {outdir}")

print("\nRun log:")
write_run_log(trace, sys.stdout)
