"""Core type invariants, ranking oracle values, ordering, cost arithmetic."""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hdlsmith.core import (
    CandidateResponse,
    CostLedger,
    DepthNode,
    DesignTask,
    EvalOutcome,
    LedgerEntry,
    ModelSpec,
    OutcomeKind,
    Rank,
    SearchTrace,
    Termination,
    TokenUsage,
    best_candidate,
    candidate_order_key,
    compute_cost,
    format_usd,
    rank_outcome,
)

from conftest import make_candidate, make_outcome


def simulated(mismatches: int, samples: int) -> EvalOutcome:
    return EvalOutcome(OutcomeKind.SIMULATED, mismatches=mismatches, samples=samples)


class TestRankOutcome:
    def test_printed_log_value(self):
        assert rank_outcome(simulated(6220, 6283)).value == pytest.approx(
            0.010027057138309725, abs=1e-18
        )

    def test_zero_mismatches_is_exactly_one(self):
        assert rank_outcome(simulated(0, 6283)).value == 1.0

    def test_no_module_is_minus_two(self):
        assert rank_outcome(EvalOutcome(OutcomeKind.NO_MODULE)).value == -2

    def test_big_counts_match_rational_oracle(self):
        # Independent oracle: exact big-rational division of the counts.
        oracle = Fraction(235447 - 234318, 235447)
        value = rank_outcome(simulated(234318, 235447)).value
        assert abs(value - float(oracle)) <= math.ulp(float(oracle))

    def test_compile_error_and_unusable_levels(self):
        assert rank_outcome(EvalOutcome(OutcomeKind.COMPILE_ERROR)).value == -1
        assert rank_outcome(EvalOutcome(OutcomeKind.COMPILE_WARNED_NO_SIM)).value == -0.5
        assert rank_outcome(EvalOutcome(OutcomeKind.SIM_CRASH_OR_TIMEOUT)).value == -0.5

    def test_severity_ordering(self):
        no_module = rank_outcome(EvalOutcome(OutcomeKind.NO_MODULE)).value
        compile_error = rank_outcome(EvalOutcome(OutcomeKind.COMPILE_ERROR)).value
        warned = rank_outcome(EvalOutcome(OutcomeKind.COMPILE_WARNED_NO_SIM)).value
        worst_simulated = rank_outcome(simulated(10, 10)).value
        assert no_module < compile_error < warned <= worst_simulated

    def test_is_pure(self):
        outcome = simulated(3, 7)
        assert rank_outcome(outcome) == rank_outcome(outcome)

    @given(st.integers(min_value=1, max_value=10**18).flatmap(
        lambda s: st.tuples(st.integers(min_value=0, max_value=s), st.just(s))
    ))
    def test_simulated_rank_bounds_and_accuracy(self, counts):
        mismatches, samples = counts
        value = rank_outcome(simulated(mismatches, samples)).value
        assert 0.0 <= value <= 1.0
        exact = Fraction(samples - mismatches, samples)
        assert abs(value - float(exact)) <= math.ulp(float(exact))

    @given(st.integers(min_value=1, max_value=10**18).flatmap(
        lambda s: st.tuples(st.integers(min_value=0, max_value=s), st.just(s))
    ))
    def test_rank_one_iff_zero_mismatches(self, counts):
        mismatches, samples = counts
        value = rank_outcome(simulated(mismatches, samples)).value
        assert (value == 1.0) == (mismatches == 0)

    def test_huge_sample_count_cannot_round_to_one(self):
        value = rank_outcome(simulated(1, 10**17)).value
        assert value < 1.0


class TestCandidateOrder:
    """``best_candidate`` is the minimum under ``candidate_order_key``."""

    @staticmethod
    def assert_better(a, b):
        assert candidate_order_key(a) < candidate_order_key(b)
        assert best_candidate([a, b]) is a
        assert best_candidate([b, a]) is a

    def test_sign_ordering(self):
        self.assert_better(make_candidate(0.5), make_candidate(-1))

    def test_index_tie_break(self):
        a = make_candidate(0.3, depth=2, index=1)
        b = make_candidate(0.3, depth=2, index=0)
        self.assert_better(b, a)

    def test_close_ranks(self):
        self.assert_better(make_candidate(1.0), make_candidate(0.99))

    def test_depth_tie_break_before_index(self):
        a = make_candidate(0.3, depth=1, index=5)
        b = make_candidate(0.3, depth=2, index=0)
        self.assert_better(a, b)

    candidate_strategy = st.tuples(
        st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0]),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    )

    @given(candidate_strategy, candidate_strategy)
    def test_antisymmetry(self, va, vb):
        # The choice does not depend on the order the candidates come in.
        a = make_candidate(va[0], depth=va[1], index=va[2])
        b = make_candidate(vb[0], depth=vb[1], index=vb[2])
        assert candidate_order_key(best_candidate([a, b])) == candidate_order_key(best_candidate([b, a]))

    @given(candidate_strategy, candidate_strategy, candidate_strategy)
    def test_transitivity(self, va, vb, vc):
        a = make_candidate(va[0], depth=va[1], index=va[2])
        b = make_candidate(vb[0], depth=vb[1], index=vb[2])
        c = make_candidate(vc[0], depth=vc[1], index=vc[2])
        best = candidate_order_key(best_candidate([a, b, c]))
        assert best == candidate_order_key(best_candidate([best_candidate([a, b]), c]))
        assert all(best <= candidate_order_key(x) for x in (a, b, c))


class TestDerivedChoice:
    """A depth's chosen candidate and a trace's best are derived, not stored."""

    ranks = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0])

    @given(st.lists(st.lists(ranks, min_size=1, max_size=5), min_size=1, max_size=4))
    def test_chosen_and_best_are_best_candidate(self, ranks_per_depth):
        nodes = [
            DepthNode(
                depth, "mock", "mock",
                tuple(make_candidate(rank, depth=depth, index=index) for index, rank in enumerate(ranks)),
            )
            for depth, ranks in enumerate(ranks_per_depth)
        ]
        trace = SearchTrace(nodes, Termination.MAX_DEPTH_REACHED, CostLedger())
        for node in trace.nodes:
            assert node.chosen is best_candidate(node.candidates)
            assert node.chosen_index == node.chosen.index
        chosen = [node.chosen for node in trace.nodes]
        assert trace.best() is best_candidate(chosen)
        for depth in range(len(nodes)):
            best = best_candidate(chosen[: depth + 1])
            assert trace.upto(depth).best_overall == (best.depth, best.index)

    def test_depth_needs_a_candidate(self):
        with pytest.raises(ValueError, match="at least one candidate"):
            DepthNode(0, "mock", "mock", ())

    def test_empty_trace_has_no_best(self):
        trace = SearchTrace((), Termination.BACKEND_ERROR, CostLedger())
        assert trace.best() is None
        assert trace.best_overall is None


class TestTypeInvariants:
    def test_task_rejects_bad_identifier(self):
        with pytest.raises(ValueError):
            DesignTask("2bad", "prompt", "tb")
        with pytest.raises(ValueError):
            DesignTask("has space", "prompt", "tb")

    def test_task_rejects_empty_fields(self):
        with pytest.raises(ValueError):
            DesignTask("ok", "", "tb")
        with pytest.raises(ValueError):
            DesignTask("ok", "prompt", "")

    def test_token_usage_rejects_negative(self):
        with pytest.raises(ValueError):
            TokenUsage(-1, 0)

    def test_token_usage_sums(self):
        assert TokenUsage(1, 2) + TokenUsage(3, 4) == TokenUsage(4, 6)

    def test_model_spec_rejects_float_price(self):
        with pytest.raises(TypeError):
            ModelSpec("fam", "m", 0.15, Decimal("0.6"), 1000)

    def test_model_spec_coerces_strings(self):
        spec = ModelSpec("fam", "m", "0.15", "0.60", 1000)
        assert spec.price_in == Decimal("0.15")

    def test_simulated_outcome_requires_counts(self):
        with pytest.raises(ValueError):
            EvalOutcome(OutcomeKind.SIMULATED)
        with pytest.raises(ValueError):
            EvalOutcome(OutcomeKind.SIMULATED, mismatches=5, samples=4)

    def test_failure_outcomes_reject_counts(self):
        with pytest.raises(ValueError):
            EvalOutcome(OutcomeKind.NO_MODULE, mismatches=0, samples=1)
        with pytest.raises(ValueError):
            EvalOutcome(OutcomeKind.COMPILE_ERROR, samples=1)

    def test_rank_scale(self):
        for ok in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0):
            Rank(ok)
        for bad in (-3.0, -0.75, 1.5, 2.0):
            with pytest.raises(ValueError):
                Rank(bad)

    @staticmethod
    def candidate(kind, span):
        outcome = make_outcome(kind, module_span=span)
        return CandidateResponse(
            raw_text="text",
            usage=TokenUsage(1, 1),
            cost_usd=Decimal(0),
            outcome=outcome,
            depth=0,
            index=0,
        )

    def test_candidate_links_module_outcome_rank(self):
        with pytest.raises(ValueError, match="module_span"):
            self.candidate(OutcomeKind.NO_MODULE, (0, 4))
        with pytest.raises(ValueError, match="module_span"):
            self.candidate(OutcomeKind.COMPILE_ERROR, None)

    @pytest.mark.parametrize("span", [(0, 5), (5, 6)], ids=["past the end", "empty, past the end"])
    def test_candidate_rejects_a_span_outside_its_reply(self, span):
        with pytest.raises(ValueError, match="lies outside a reply of 4 characters"):
            self.candidate(OutcomeKind.COMPILE_ERROR, span)
        assert self.candidate(OutcomeKind.COMPILE_ERROR, (0, 4)).module_src == "text"

    @pytest.mark.parametrize("span", [(-1, 2), (3, 2)])
    def test_outcome_rejects_unordered_offsets(self, span):
        with pytest.raises(ValueError, match="module_span"):
            make_outcome(OutcomeKind.COMPILE_ERROR, module_span=span)

    def test_char_length(self):
        candidate = make_candidate(0.5, raw_text="Fixed:\nmodule top_module(); endmodule\nDone.")
        assert candidate.outcome.module_span == (7, 37)
        assert candidate.module_src == "module top_module(); endmodule"
        assert candidate.char_length == 30
        assert make_candidate(-2).module_src is None
        assert make_candidate(-2).char_length == 0


class TestCostAccounting:
    def test_log_cost_values(self):
        model = ModelSpec("fam", "m", Decimal("0.15"), Decimal("0.60"), 128_000)
        assert compute_cost(TokenUsage(396, 241), model) == Decimal("0.000204")
        assert compute_cost(TokenUsage(396, 373), model) == Decimal("0.0002832")

    def test_zero_usage_costs_nothing(self):
        model = ModelSpec("fam", "m", Decimal("5"), Decimal("15"), 1000)
        assert compute_cost(TokenUsage(0, 0), model) == 0

    def test_million_token_oracle(self):
        # Integer-arithmetic oracle: 1M tokens at $5/M plus 1M at $15/M.
        model = ModelSpec("fam", "m", Decimal("5.00"), Decimal("15.00"), 1000)
        cost = compute_cost(TokenUsage(1_000_000, 1_000_000), model)
        assert cost == Decimal(1_000_000 * 5 + 1_000_000 * 15) / Decimal(1_000_000)
        assert cost == Decimal("20.00")

    def test_format_usd_ten_decimals(self):
        assert format_usd(Decimal("0.000204")) == "$0.0002040000"
        assert format_usd(Decimal("20")) == "$20.0000000000"

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=0, max_value=10**6),
            ),
            max_size=20,
        )
    )
    def test_ledger_totals_are_componentwise_sums(self, usages):
        model = ModelSpec("fam", "m", Decimal("0.15"), Decimal("0.60"), 128_000)
        entries = [
            LedgerEntry(0, i, "m", TokenUsage(a, b), compute_cost(TokenUsage(a, b), model))
            for i, (a, b) in enumerate(usages)
        ]
        totals = CostLedger(tuple(entries)).totals
        assert totals.input_tokens == sum(a for a, _ in usages)
        assert totals.output_tokens == sum(b for _, b in usages)
        assert totals.cost_usd == sum((e.cost_usd for e in entries), Decimal(0))
