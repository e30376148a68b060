"""hdlsmith: LLM-driven Verilog generation and repair with EDA tool feedback.

A greedy tree search asks a model for k candidate modules per iteration,
compiles and simulates each one, ranks them on compiler diagnostics and
testbench mismatch counts, and feeds the best candidate's tool output back
for up to d repair iterations — with exact token/cost accounting and a
benchmark harness on top.
"""

from .backends import (
    AuthError,
    BackendError,
    ChatCompletionsBackend,
    CommandBackend,
    ContextOverflowError,
    GenerationBatch,
    GenerationRequest,
    MessagesBackend,
    MockBackend,
    RateLimitedError,
    TransportError,
    default_registry,
    load_mock_script,
    lookup_model,
)
from .bench import (
    EmptySuiteError,
    GridPoint,
    ParetoPoint,
    ReportFormat,
    RollupLevel,
    SuiteResult,
    TaskRow,
    category_rollup,
    export_report,
    load_report,
    load_suite,
    pareto_front,
    run_suite,
    success_percent,
)
from .core import (
    CandidateResponse,
    CostLedger,
    DesignTask,
    EvalOutcome,
    ModelSpec,
    OutcomeKind,
    Rank,
    SearchTrace,
    Termination,
    TokenUsage,
    compare_candidates,
    compute_cost,
    format_usd,
    rank_outcome,
)
from .edatools import (
    CompileResult,
    CompileStatus,
    SimResult,
    TestbenchSummary,
    ToolchainConfig,
    ToolIoError,
    ToolNotFoundError,
    compile_design,
    evaluate,
    parse_summary,
    simulate,
)
from .extract import ExtractionResult, ExtractionSource, extract_module
from .prompts import (
    Conversation,
    FeedbackMode,
    Message,
    Role,
    feedback_text,
    flatten_for_backend,
    initial_conversation,
    next_conversation,
    system_prompt,
)
from .runcfg import (
    ConfigError,
    RunConfig,
    execute_run,
    load_config,
    write_run_log,
)
from .search import (
    ModelSchedule,
    ScheduleEntry,
    SearchConfig,
    model_for_iteration,
    pass_at_budget,
    run_search,
)

__version__ = "0.1.0"
