"""Seeded inputs for the benchmark workloads and the oracle that predicts them.

Everything here is a pure function of the seed. The seed chooses names, prose,
module bodies and testbenches; the shape of the work (the reply classes at
each task, depth and slot, every text length and the order of the tasks) is
fixed, so counts such as queries, tokens and cost, and the timing structure,
are the same for every seed.

The oracle replays the greedy search on the reply classes: which candidate
each depth chooses, when a search passes, the conversation every request
carries and what the modelled provider bills for it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

# Shared with the modelled provider: its token count is the four-characters
# estimate plus this many tokens per message.
MESSAGE_OVERHEAD_TOKENS = 4

GRID_K = (1, 5)
GRID_D = (0, 1, 5, 10)
GRID_MODEL = "gpt-4o-mini"
GRID_SAMPLES = 200
GRID_SIM_TIMEOUT = 0.25

REPAIR_MODEL = "gpt-3.5-turbo-16k"
REPAIR_RUNS = 8
REPAIR_K = 5
REPAIR_D = 10
REPAIR_SAMPLES = 1000
REPAIR_WINDOW = 16_000

# Reply classes. An int is a partial pass with that many mismatches.
PASS, CERR, WARN, HANG, PROSE, UNICODE, EMPTY = "P", "C", "W", "H", "N", "U", "E"
RANK_OF = {PASS: 1.0, CERR: -1.0, WARN: -0.5, HANG: -0.5, PROSE: -2.0, UNICODE: -2.0, EMPTY: -2.0}
RANK_CLASS = {1.0: "pass", -1.0: "compile_error", -0.5: "unusable", -2.0: "no_module"}

# grid_sweep archetypes: one row of five slot classes per depth 0..10. A k=1
# search only sees slot 0. Rows a search can never reach are left out.
# Rules the generator checks: classes of equal rank never share a row (so
# replies of equal rank at one depth are byte-identical), and an empty reply
# sits only beside a slot 0 that outranks it, so it is never chosen (a chosen
# empty reply crashes the search, see ROADMAP item 3).
_ARCHETYPES = {
    # k=5 passes at depth 0, k=1 at depth 1.
    "easy": [
        [CERR, 40, EMPTY, PASS, EMPTY],
        [PASS, 75, CERR, 40, UNICODE],
    ],
    # k=5 passes at depth 4, k=1 at depth 6.
    "medium": [
        [PROSE, CERR, 130, WARN, CERR],
        [CERR, 75, CERR, PROSE, 40],
        [WARN, 40, 75, UNICODE, 130],
        [75, HANG, 40, 12, CERR],
        [40, CERR, PASS, EMPTY, 75],
        [CERR, 40, 12, WARN, PROSE],
        [PASS, CERR, 40, 75, 12],
    ],
    # k=5 passes at depth 9, k=1 never passes.
    "hard": [
        [UNICODE, CERR, UNICODE, 130, CERR],
        [CERR, CERR, 130, PROSE, 75],
        [130, WARN, 75, CERR, EMPTY],
        [PROSE, 130, CERR, 75, 40],
        [WARN, 75, 40, CERR, PROSE],
        [CERR, 40, 75, UNICODE, 130],
        [75, CERR, 40, 12, WARN],
        [40, 12, CERR, HANG, 75],
        [CERR, 40, 12, 75, UNICODE],
        [12, PASS, 40, CERR, 75],
        [75, 40, CERR, 12, PROSE],
    ],
}
_CATEGORIES = {
    "easy": ("combinational", "arithmetic"),
    "medium": ("sequential", "counters"),
    "hard": ("sequential", "state machines"),
}

_WORDS = (
    "clock reset signal output input register counter state edge rising falling "
    "enable value width bits shift carry overflow latch wire assign always case "
    "default select vector index parity sample cycle pulse hold latency pipeline"
).split()
_UNICODE_WORDS = ("Voilà", "naïve", "über", "señal", "✓", "—", "¿reloj?", "设计", "回路", "Ωhm", "µs")


def _rng(seed: int, *key: object) -> random.Random:
    digest = hashlib.sha256(repr((seed,) + key).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _fit(text: str, n: int) -> str:
    """Cut or pad ``text`` to exactly ``n`` characters."""
    return text[:n] if len(text) >= n else text + " " * (n - len(text))


def _prose(rng: random.Random, n: int, words=_WORDS) -> str:
    out: list[str] = []
    size = 0
    while size < n:
        out.append(rng.choice(words))
        size += len(out[-1]) + 1
    return _fit(" ".join(out), n)


def _filler(rng: random.Random, n: int) -> str:
    """Verilog-looking body lines, exactly ``n`` characters, ending in a newline."""
    lines: list[str] = []
    size = 0
    while size < n:
        a, b, c = rng.randrange(64), rng.randrange(64), rng.randrange(64)
        lines.append(f"  assign w{a} = r{b} ^ (s{c} & {rng.randrange(256)});\n")
        size += len(lines[-1])
    return "".join(lines)[: n - 1] + "\n"


def _module(rng: random.Random, name: str, directives: list[str], size: int, note: str = "") -> str:
    """A module of exactly ``size`` characters carrying ``// eda:`` directives."""
    head = f"module {name}(input clk, input reset, input [7:0] in, output reg [7:0] out);\n"
    head += "".join(f"  // eda: {d}\n" for d in directives)
    if note:
        head += f"  // {note}\n"
    return head + _filler(rng, size - len(head) - len("endmodule")) + "endmodule"


def _directives(cls, samples: int) -> list[str]:
    if isinstance(cls, int):
        return [f"mismatches={cls} samples={samples}"]
    return {
        PASS: ["pass"],
        CERR: ["compile-error"],
        WARN: ["warning", "silent"],
        HANG: ["hang"],
    }[cls]


def rank_of(cls, samples: int) -> float:
    if isinstance(cls, int):
        return (samples - cls) / samples
    return RANK_OF[cls]


def rank_class(rank: float) -> str:
    return RANK_CLASS.get(rank, "partial")


def summary_feedback(mismatches: int, samples: int) -> str:
    """Feedback for a simulated candidate: the testbench's Hint and total lines."""
    lines = []
    if mismatches > 0:
        lines.append(
            f"Hint: Output 'out' has {mismatches} mismatches. First mismatch occurred at time 130."
        )
        lines.append(f"Hint: Total mismatched samples is {mismatches} out of {samples} samples")
    lines.append(f"Mismatches: {mismatches} in {samples} samples")
    return "\n".join(lines)


def provider_tokens(messages: list[str]) -> int:
    """Prompt tokens the modelled provider bills for a list of message texts."""
    return math.ceil(sum(len(m) for m in messages) / 4) + MESSAGE_OVERHEAD_TOKENS * len(messages)


def reply_tokens(text: str) -> int:
    return math.ceil(len(text) / 4)


def cost(input_tokens: int, output_tokens: int, price_in: Decimal, price_out: Decimal) -> Decimal:
    return (input_tokens * price_in + output_tokens * price_out) / Decimal(1_000_000)


@dataclass(frozen=True)
class PredictedRow:
    """What the oracle expects one search to report."""

    success: bool
    queries_used: int
    input_tokens: int
    output_tokens: int
    best_rank: float | None
    ranks: tuple[float, ...]  # every candidate's rank, in generation order


# ---------------------------------------------------------------- grid_sweep


@dataclass(frozen=True)
class GridTask:
    name: str
    archetype: str
    prompt: str
    testbench: str
    category: str
    subcategory: str


class GridInputs:
    """The grid_sweep suite: tasks, reply script and oracle for one seed."""

    def __init__(self, seed: int, *, system_prompt: str, no_module_feedback: str):
        self.seed = seed
        self._system = system_prompt
        self._no_module = no_module_feedback
        rng = _rng(seed, "grid", "names")
        self.tasks: dict[str, GridTask] = {}
        for index, archetype in enumerate(_ARCHETYPES):
            # The index keeps the suite's (sorted) task order, and so the
            # order of the provider's calls, the same for every seed.
            name = f"t{index}" + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6))
            self._check_archetype(archetype)
            text_rng = _rng(seed, "grid", "task", archetype)
            prompt = (
                "// " + _prose(text_rng, 600) + "\n"
                f"module {name}(input clk, input reset, input [7:0] in, output reg [7:0] out);"
            )
            testbench = "module tb();\n" + _filler(text_rng, 1500) + "endmodule\n"
            category, subcategory = _CATEGORIES[archetype]
            self.tasks[name] = GridTask(name, archetype, prompt, testbench, category, subcategory)
        self._replies: dict[tuple[str, int, object], str] = {}

    @staticmethod
    def _check_archetype(archetype: str) -> None:
        for depth, row in enumerate(_ARCHETYPES[archetype]):
            by_rank: dict[float, set] = {}
            for cls in row:
                by_rank.setdefault(rank_of(cls, GRID_SAMPLES), set()).add(cls)
            if any(len(classes) > 1 for classes in by_rank.values()):
                raise ValueError(f"{archetype} depth {depth}: two classes share a rank")
            if EMPTY in row and rank_of(row[0], GRID_SAMPLES) <= RANK_OF[EMPTY]:
                raise ValueError(f"{archetype} depth {depth}: an empty reply could be chosen")

    def write_suite(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {}
        for task in self.tasks.values():
            (directory / f"{task.name}_prompt.sv").write_text(task.prompt)
            (directory / f"{task.name}_tb.sv").write_text(task.testbench)
            manifest[task.name] = {"category": task.category, "subcategory": task.subcategory}
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))

    def reply_class(self, task: str, depth: int, slot: int):
        return _ARCHETYPES[self.tasks[task].archetype][depth][slot]

    def reply(self, task: str, depth: int, slot: int) -> str:
        """The modelled model's reply; a pure function of (task, depth, slot)."""
        cls = self.reply_class(task, depth, slot)
        key = (task, depth, cls)
        text = self._replies.get(key)
        if text is None:
            text = self._make_reply(task, depth, cls)
            self._replies[key] = text
        return text

    def _make_reply(self, task: str, depth: int, cls) -> str:
        rng = _rng(self.seed, "grid", "reply", task, depth, cls)
        if cls == EMPTY:
            return ""
        if cls == PROSE:
            return _prose(rng, 400)
        if cls == UNICODE:
            return _prose(rng, 400, _WORDS[:8] + list(_UNICODE_WORDS))
        # Modules recur: the body depends on the depth only in blocks of
        # three, while the prose around it changes every depth.
        body_rng = _rng(self.seed, "grid", "module", task, depth // 3, cls)
        note = "señal — ✓" if depth % 4 == 3 else ""
        module = _module(body_rng, task, _directives(cls, GRID_SAMPLES), 700, note)
        intro = _prose(rng, 120)
        if depth % 2:
            return f"{intro}\n{module}\nThis version should behave."
        return f"{intro}\n```verilog\n{module}\n```\n"

    def _feedback(self, task: str, cls) -> str:
        """The repair prompt hdlsmith builds from a chosen candidate of class ``cls``,
        given the output of the modelled tools in ``tools/``."""
        if cls in (PROSE, UNICODE, EMPTY):
            return self._no_module
        if cls == CERR:
            return f"{task}.sv:1: error: scripted compile failure\n{task}.sv:1: syntax error\nI give up."
        if cls == WARN:
            return f"{task}.sv:1: warning: scripted warning\n{task}.sv:1:      : implicit net declaration"
        if cls == HANG:
            return f"Simulation timed out after {GRID_SIM_TIMEOUT:g} seconds and was killed."
        return summary_feedback(cls, GRID_SAMPLES)

    def predict(self, task: str, k: int, d: int) -> PredictedRow:
        """Replay one succinct-mode search of depth ``d`` with ``k`` candidates."""
        design = self.tasks[task].prompt
        messages = [self._system, design]
        input_tokens = output_tokens = 0
        ranks: list[float] = []
        for depth in range(d + 1):
            billed = provider_tokens(messages)
            row = [self.reply_class(task, depth, slot) for slot in range(k)]
            depth_ranks = [rank_of(cls, GRID_SAMPLES) for cls in row]
            ranks.extend(depth_ranks)
            input_tokens += billed * k
            output_tokens += sum(reply_tokens(self.reply(task, depth, s)) for s in range(k))
            chosen = max(range(k), key=lambda s: (depth_ranks[s], -s))
            if depth_ranks[chosen] == 1.0:
                return PredictedRow(True, k * (depth + 1), input_tokens, output_tokens, 1.0, tuple(ranks))
            if row[chosen] == EMPTY and depth < d:
                raise AssertionError("an empty reply would be chosen")
            messages = [
                self._system, design, self.reply(task, depth, chosen), self._feedback(task, row[chosen])
            ]
        return PredictedRow(False, k * (d + 1), input_tokens, output_tokens, max(ranks), tuple(ranks))


# ------------------------------------------------------------ offline_repair


@dataclass(frozen=True)
class RepairRun:
    name: str
    prompt: str
    testbench: str
    passes: bool  # passes at the last depth, after all candidates were generated
    replies: dict[tuple[int, int], str]
    mismatches: dict[tuple[int, int], int]


def _repair_mismatches(depth: int, slot: int) -> int:
    base = 300 - 20 * depth
    return base + 37 * ((slot + depth) % REPAIR_K)


class RepairInputs:
    """The offline_repair batch: one full_context run per config, k=5, d=10.

    Replies are distinct multi-KB modules. Every fourth run passes with the
    last candidate of the last depth, so every run generates all 55
    candidates. The chosen replies grow the full-context history past the
    16k-token window at depth 9, where the search fails over to the succinct
    window; in every fifth run the depth-9 history is sized to pass the
    search's own estimate but not the provider's count, so the provider
    rejects it with ``context_length_exceeded`` first.
    """

    chosen_chars = 7000

    def __init__(self, seed: int, *, system_prompt: str):
        self.seed = seed
        self._system = system_prompt
        rng = _rng(seed, "repair", "names")
        names: list[str] = []
        while len(names) < REPAIR_RUNS:
            name = "r" + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(7))
            if name not in names:
                names.append(name)
        self.runs = [self._make_run(i, name) for i, name in enumerate(names)]
        self.by_name = {run.name: run for run in self.runs}

    def _make_run(self, index: int, name: str) -> RepairRun:
        rng = _rng(self.seed, "repair", "run", index)
        prompt = (
            "// " + _prose(rng, 900) + "\n"
            f"module {name}(input clk, input reset, input [7:0] in, output reg [7:0] out);"
        )
        testbench = "module tb();\n" + _filler(rng, 800) + "endmodule\n"
        passes = index % 4 == 3
        overflow = index % 5 == 2
        replies: dict[tuple[int, int], str] = {}
        mismatches: dict[tuple[int, int], int] = {}
        history = len(self._system) + len(prompt)
        for depth in range(REPAIR_D + 1):
            counts = [_repair_mismatches(depth, s) for s in range(REPAIR_K)]
            if passes and depth == REPAIR_D:
                counts[REPAIR_K - 1] = 0
            chosen = min(range(REPAIR_K), key=lambda s: (counts[s], s))
            feedback = summary_feedback(counts[chosen], REPAIR_SAMPLES)
            for slot in range(REPAIR_K):
                size = 3000 + 300 * slot + 37 * depth
                if slot == chosen:
                    size = self.chosen_chars
                    if overflow and depth == 8:
                        # History at depth 9 = 2 + 18 messages, estimated at
                        # exactly 15990 tokens: within the 16000 window for
                        # the search, 80 overhead tokens over it for the
                        # provider.
                        size = 15990 * 4 - history - len(feedback) - 20
                reply_rng = _rng(self.seed, "repair", "reply", index, depth, slot)
                replies[(depth, slot)] = self._reply(reply_rng, name, counts[slot], size, slot)
                mismatches[(depth, slot)] = counts[slot]
            history += len(replies[(depth, chosen)]) + len(feedback)
        return RepairRun(name, prompt, testbench, passes, replies, mismatches)

    @staticmethod
    def _reply(rng: random.Random, name: str, mismatches: int, size: int, slot: int) -> str:
        directive = ["pass"] if mismatches == 0 else [f"mismatches={mismatches} samples={REPAIR_SAMPLES}"]
        intro = _prose(rng, 100) + "\n"
        if slot == REPAIR_K - 1:  # extracted from the module span, not a fence
            head, tail = "", "\nThat is the whole design."
        else:
            head, tail = "```verilog\n", "\n```\n"
        module = _module(rng, name, directive, size - len(intro) - len(head) - len(tail))
        return intro + head + module + tail

    def write_configs(self, directory: Path) -> None:
        for run in self.runs:
            run_dir = directory / run.name
            run_dir.mkdir(parents=True, exist_ok=True)
            (run_dir / "prompt.sv").write_text(run.prompt)
            (run_dir / "tb.sv").write_text(run.testbench)
            config = {
                "general": {
                    "prompt": "prompt.sv",
                    "name": run.name,
                    "testbench": "tb.sv",
                    "model_family": "ChatGPT",
                    "model_id": REPAIR_MODEL,
                    "num_candidates": REPAIR_K,
                    "iterations": REPAIR_D,
                    "outdir": "out",
                    "log": "log.txt",
                    "mixed-model": False,
                    "feedback_mode": "full_context",
                }
            }
            (run_dir / "config.json").write_text(json.dumps(config, indent=2))

    def reply(self, task: str, depth: int, slot: int) -> str:
        return self.by_name[task].replies[(depth, slot)]

    def predict(self, name: str):
        """Expected trace of one run: per depth the ranks, chosen slot and
        fallback flag, plus billed tokens and the provider's overflow rejects."""
        run = self.by_name[name]
        history = [self._system, run.prompt]
        input_tokens = output_tokens = 0
        ranks: list[float] = []
        depths = []
        for depth in range(REPAIR_D + 1):
            counts = [run.mismatches[(depth, s)] for s in range(REPAIR_K)]
            depth_ranks = [rank_of(m, REPAIR_SAMPLES) for m in counts]
            estimate = math.ceil(sum(len(m) for m in history) / 4)
            fallback = len(history) > 4 and estimate > REPAIR_WINDOW
            window = history[:2] + history[-2:] if fallback else history
            rejected = not fallback and provider_tokens(window) > REPAIR_WINDOW
            if rejected:
                fallback, window = True, history[:2] + history[-2:]
            input_tokens += provider_tokens(window) * REPAIR_K
            output_tokens += sum(reply_tokens(run.replies[(depth, s)]) for s in range(REPAIR_K))
            ranks.extend(depth_ranks)
            chosen = max(range(REPAIR_K), key=lambda s: (depth_ranks[s], -s))
            depths.append((tuple(depth_ranks), chosen, fallback, rejected))
            history += [run.replies[(depth, chosen)], summary_feedback(counts[chosen], REPAIR_SAMPLES)]
        row = PredictedRow(
            run.passes, REPAIR_K * (REPAIR_D + 1), input_tokens, output_tokens, max(ranks), tuple(ranks)
        )
        return row, depths
