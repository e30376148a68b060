"""hdlsmith: LLM-driven Verilog generation and repair with EDA tool feedback.

A greedy tree search asks a model for k candidate modules per iteration,
compiles and simulates each one, ranks them on compiler diagnostics and
testbench mismatch counts, and feeds the best candidate's tool output back
for up to d repair iterations — with exact token/cost accounting and a
benchmark harness on top.

Importing the package runs none of its submodules: each exported name, and
each submodule, is loaded on first access (PEP 562), so a process loads
only what it uses.
"""

import importlib

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "backends": (
            "AuthError", "BackendError", "ChatCompletionsBackend", "CommandBackend",
            "ContextOverflowError", "GenerationRequest", "MessagesBackend", "MockBackend",
            "RateLimitedError", "TransportError", "default_registry", "load_mock_script",
            "lookup_model",
        ),
        "bench": (
            "EmptySuiteError", "GridPoint", "ParetoPoint", "ReportFormat", "SuiteResult",
            "TaskRow", "export_report", "load_report", "load_suite", "pareto_front", "run_suite",
            "success_percent",
        ),
        "core": (
            "CandidateResponse", "CostLedger", "DesignTask", "EvalOutcome", "ModelSpec",
            "OutcomeKind", "Rank", "SearchTrace", "Termination", "TokenUsage", "compute_cost",
            "format_usd", "rank_outcome",
        ),
        "edatools": (
            "CompileResult", "CompileStatus", "ProcessRun", "TestbenchSummary", "ToolchainConfig",
            "ToolIoError", "ToolNotFoundError", "compile_design", "evaluate", "parse_summary",
            "simulate",
        ),
        "extract": ("ExtractionResult", "ExtractionSource", "extract_module"),
        "prompts": (
            "Conversation", "FeedbackMode", "Message", "Role", "flatten_for_backend",
            "initial_conversation", "next_conversation", "system_prompt",
        ),
        "runcfg": ("ConfigError", "RunConfig", "execute_run", "load_config", "write_run_log"),
        "search": (
            "ModelSchedule", "NoBackendError", "ScheduleEntry", "SearchConfig", "pass_at_budget",
            "run_search",
        ),
    }.items()
    for name in names
}
_SUBMODULES = set(_EXPORTS.values())

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # Not cached in the package namespace: ``hdlsmith.X`` stays the
    # submodule's current ``X``, also while a test or tracer patches it.
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
