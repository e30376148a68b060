# Benchmark a small suite across a (k, d) grid and report on it.
#
# Builds a throwaway three-task suite on disk, sweeps two grid points with a
# scripted backend and toolchain, then prints success percentages and Pareto
# points, and writes a JSON report.

import json
import tempfile
from pathlib import Path

from hdlsmith import MockBackend
from hdlsmith.backends import lookup_model
from hdlsmith.bench import (
    GridPoint,
    ReportFormat,
    export_report,
    load_suite,
    pareto_front,
    run_suite,
    success_percent,
    suite_pareto_point,
)
from hdlsmith.faketools import offline_evaluate, passing_reply
from hdlsmith.search import ModelSchedule

root = Path(tempfile.mkdtemp(prefix="suite_demo_"))
suite_dir = root / "suite"
suite_dir.mkdir()

for stem, category in [("adder", "combinational"), ("counter", "sequential"), ("fsm", "sequential")]:
    (suite_dir / f"{stem}_prompt.sv").write_text(f"// implement {stem}\nmodule {stem}();")
    (suite_dir / f"{stem}_tb.sv").write_text("module tb(); endmodule")
(suite_dir / "manifest.json").write_text(json.dumps({
    "adder": {"category": "combinational", "subcategory": "arithmetic"},
    "counter": {"category": "sequential", "subcategory": "counters"},
    "fsm": {"category": "sequential", "subcategory": "state machines"},
}))

tasks = load_suite(suite_dir)
print(f"Loaded {len(tasks)} tasks: {[t.name for t in tasks]}")

# adder passes immediately; counter needs one repair round; fsm never passes.
script = {
    ("adder", 0, 0): passing_reply(name="adder"),
    ("counter", 1, 0): passing_reply(name="counter"),
}
backend = MockBackend(script)
grid = [GridPoint(1, 0), GridPoint(1, 5)]

results = run_suite(
    tasks, grid, ModelSchedule.single(lookup_model("mock")), {"mock": backend},
    evaluator=offline_evaluate, workdir=root / "work",
)

print("\nSuccess by grid point:")
for result in results:
    print(f"  k={result.params.num_candidates} d={result.params.max_depth}: "
          f"{success_percent(result)}%")

points = [p for p in (suite_pareto_point(r, metric="tokens") for r in results) if p]
print("\nPareto front over (avg tokens, success %):")
for p in pareto_front(points):
    print(f"  {p.x:8.1f} tokens -> {p.y}%")

report = export_report(results, ReportFormat.JSON, root / "report.json")
print(f"\nReport written to {report}")
