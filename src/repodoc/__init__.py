"""repodoc: repository-level documentation generation.

Parses a Python repository into a project tree plus a caller/callee
reference graph, generates structured docs for every class and function
bottom-to-top through an LLM gateway, publishes a GitBook-style Markdown
tree, and keeps everything current from Git staged changes via a
pre-commit hook.
"""

from .change_tracker import (
    ChangeSet,
    StagedChanges,
    UpdatePlan,
    UpdateReport,
    diff_objects,
    install_hook,
    plan_updates,
    run_update,
    staged_changes,
)
from .config import Config, ProviderConfig, build_gateway, build_provider, load_config
from .doc_pipeline import (
    DocRecord,
    DocStore,
    RunReport,
    generate_all,
    load_store,
    parse_doc,
    save_store,
)
from .errors import (
    ConfigError,
    CorruptStoreError,
    NotAGitRepoError,
    OverBudgetError,
    ProviderError,
    RepodocError,
    UsageError,
)
from .eval_harness import (
    EvalReport,
    FormatCheck,
    check_format,
    evaluate_docs,
    extract_params,
    param_accuracy,
    reference_recall,
    reference_sets,
)
from .llm_gateway import (
    CompletionRequest,
    CompletionResponse,
    Gateway,
    HttpChatProvider,
    MockProvider,
)
from .markdown_publisher import compile_file_doc, compile_summary, write_site
from .project_graph import (
    ReferenceEdge,
    RepoGraph,
    build_graph,
    prune_cycles,
    topological_order,
)
from .prompt_engine import ModelTier, estimate_tokens, fit_to_budget, render_prompt
from .source_model import CodeObject, parse_file, parse_repository, scan_repository

__version__ = "0.1.0"

__all__ = [
    "ChangeSet",
    "CompletionRequest",
    "CompletionResponse",
    "Config",
    "ConfigError",
    "CorruptStoreError",
    "CodeObject",
    "DocRecord",
    "DocStore",
    "EvalReport",
    "FormatCheck",
    "Gateway",
    "HttpChatProvider",
    "MockProvider",
    "ModelTier",
    "NotAGitRepoError",
    "OverBudgetError",
    "ProviderConfig",
    "ProviderError",
    "ReferenceEdge",
    "RepoGraph",
    "RepodocError",
    "RunReport",
    "StagedChanges",
    "UpdatePlan",
    "UpdateReport",
    "UsageError",
    "build_gateway",
    "build_graph",
    "build_provider",
    "check_format",
    "compile_file_doc",
    "compile_summary",
    "diff_objects",
    "estimate_tokens",
    "evaluate_docs",
    "extract_params",
    "fit_to_budget",
    "generate_all",
    "install_hook",
    "load_config",
    "load_store",
    "param_accuracy",
    "parse_doc",
    "parse_file",
    "parse_repository",
    "plan_updates",
    "prune_cycles",
    "reference_recall",
    "reference_sets",
    "render_prompt",
    "run_update",
    "save_store",
    "scan_repository",
    "staged_changes",
    "topological_order",
    "write_site",
    "__version__",
]
