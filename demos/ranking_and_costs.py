# Candidate ranking and exact cost accounting.
#
# Shows how toolchain outcomes map onto the ordering scale and how token
# usage turns into exact, 10-decimal dollar figures.

from decimal import Decimal

from hdlsmith import (
    EvalOutcome,
    ModelSpec,
    OutcomeKind,
    TokenUsage,
    compute_cost,
    format_usd,
    rank_outcome,
)
from hdlsmith.core import CostLedger, LedgerEntry

# The four failure levels, from worst to best.
outcomes = [
    ("no module in reply", EvalOutcome(OutcomeKind.NO_MODULE)),
    ("compile error", EvalOutcome(OutcomeKind.COMPILE_ERROR, feedback="x.sv:3: error: ...")),
    ("warned, no summary", EvalOutcome(OutcomeKind.COMPILE_WARNED_NO_SIM)),
    ("sim hang", EvalOutcome(OutcomeKind.SIM_CRASH_OR_TIMEOUT, diagnosis="Simulation timed out after 60 seconds and was killed.")),
    ("6220 of 6283 wrong", EvalOutcome(OutcomeKind.SIMULATED, mismatches=6220, samples=6283)),
    ("all samples match", EvalOutcome(OutcomeKind.SIMULATED, mismatches=0, samples=6283)),
]

print("Ranking scale:")
for label, outcome in outcomes:
    print(f"  {label:24s} -> {rank_outcome(outcome).value!r}")

# Pricing is exact decimal; costs never see binary float rounding.
mini = ModelSpec("ChatGPT", "gpt-4o-mini", Decimal("0.15"), Decimal("0.60"), 128_000)

print("\nPer-reply costs on a $0.15/$0.60 per-million model:")
ledger_entries = []
for index, usage in enumerate([TokenUsage(396, 241), TokenUsage(396, 373)]):
    cost = compute_cost(usage, mini)
    ledger_entries.append(LedgerEntry(0, index, mini.model_id, usage, cost))
    print(f"  response {index}: {usage.input_tokens} in / {usage.output_tokens} out -> {format_usd(cost)}")

totals = CostLedger(tuple(ledger_entries)).totals
print(f"\nLedger totals: {totals.input_tokens} in, {totals.output_tokens} out, {format_usd(totals.cost_usd)}")
