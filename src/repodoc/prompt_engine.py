"""Prompt assembly for per-object documentation generation.

A prompt carries, in order: a role preamble, the project hierarchy around the
target (target line marked with "*"), the document path, the object kind and
name, the target code, callee blocks, caller blocks, optional child docs, the
standard output format, and formatting rules. Token budgets are enforced by a
fixed sequence of content reductions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .errors import OverBudgetError, SchedulingError
from .project_graph import RepoGraph
from .source_model import CLASS, CodeObject

logger = logging.getLogger(__name__)

DEFAULT_COMPLETION_RESERVE = 1024

ROLE_PREAMBLE = (
    "You are an AI documentation assistant, and your task is to generate documentation based "
    "on the given code of an object. The purpose of the documentation is to help developers "
    "and beginners understand the function and specific usage of the code."
)
HIERARCHY_INTRO = (
    "Currently, you are in a project, and the related hierarchical structure of this project "
    "is as follows (The current object is marked with an *):"
)
DOC_PATH_INTRO = "The path of the document you need to generate in this project is:"
CODE_INTRO = "The content of the code is as follows:"
CALLEE_INTRO = (
    "As you can see, the code calls the following objects, their code and docs are as following:"
)
CALLER_INTRO = (
    "Also, the code has been called by the following objects, their code and docs are as following:"
)
CHILD_DOCS_INTRO = (
    "As auxiliary information, the documentation of the child objects of the current object "
    "is as follows:"
)
FORMAT_INTRO = "The standard format is as follows:"
OUTPUT_EXAMPLE_INSTRUCTION = (
    "**Output Example**: Mock up a possible appearance of the code's return value."
)
NOTE_RULES = (
    "Please note:\n"
    "- Any part of the content you generate SHOULD NOT CONTAIN Markdown hierarchical heading "
    "and divider syntax.\n"
    "- Write mainly in the desired language. If necessary, you can write with some English "
    "words in the analysis and description to enhance the document's readability because you "
    "do not need to translate the function name or variable name into the target language."
)


@dataclass(frozen=True)
class ModelTier:
    """One model size option; tiers are configured smallest first."""

    name: str
    context_window: int


@dataclass(frozen=True)
class RefBlock:
    """A referenced object shown to the model: id, doc text and code."""

    id: str
    doc: str  # rendered doc text, or "None" when unavailable
    snippet: str | None  # None once dropped by budget reduction

    @property
    def name(self) -> str:
        return self.id.rsplit("/", 1)[-1]


@dataclass(frozen=True)
class PromptContext:
    """Everything render_prompt needs for one target object."""

    target: CodeObject
    hierarchy_render: str
    callee_blocks: tuple[RefBlock, ...]
    caller_blocks: tuple[RefBlock, ...]
    child_docs: tuple[tuple[str, str], ...] | None  # None when disabled
    doc_language: str = "English"
    hierarchy_compact: str = ""  # ancestor chain only; budget fallback


def render_hierarchy(graph: RepoGraph, object_id: str, *, include_children: bool = True) -> str:
    """Indented ancestor chain down to the target, plus its direct children
    sorted by id.

    Four spaces per level; the target line is prefixed with "*".
    """
    obj = graph.objects[object_id]
    chain: list[str] = []
    current = obj.parent_id
    while current in graph.objects:
        chain.append(graph.objects[current].name)
        current = graph.objects[current].parent_id
    labels = current.split("/") + chain[::-1]  # the chain ends at the file

    lines = [("    " * depth) + name for depth, name in enumerate(labels)]
    target_depth = len(labels)
    lines.append(("    " * target_depth) + "*" + obj.name)
    if include_children:
        for child in graph.object_children(object_id):
            lines.append(("    " * (target_depth + 1)) + graph.objects[child].name)
    return "\n".join(lines)


def assemble_context(
    graph: RepoGraph,
    store: "object",
    object_id: str,
    *,
    child_docs_enabled: bool = False,
    doc_language: str = "English",
    allow_missing: frozenset[str] | set[str] = frozenset(),
) -> PromptContext:
    """Collect hierarchy, callee/caller blocks and optional child docs.

    All callees (and children when enabled) must already have doc records in
    the store, except ids listed in ``allow_missing`` whose docs render as
    "None". Caller docs are optional and render as "None" when absent. Blocks
    are ordered lexicographically by id.
    """
    obj = graph.objects.get(object_id)
    if obj is None:
        raise SchedulingError(f"unknown object: {object_id}")

    records = getattr(store, "records", {})

    def _required_doc(ref_id: str) -> str:
        if ref_id in allow_missing:
            return "None"
        record = records.get(ref_id)
        if record is None:
            raise SchedulingError(
                f"{object_id} assembled before its prerequisite {ref_id} was generated"
            )
        return record.text

    def _optional_doc(ref_id: str) -> str:
        record = records.get(ref_id)
        if record is None or ref_id in allow_missing:
            return "None"
        return record.text

    callee_blocks = tuple(
        RefBlock(id=cid, doc=_required_doc(cid), snippet=graph.objects[cid].snippet)
        for cid in graph.callees(object_id)
    )
    caller_blocks = tuple(
        RefBlock(id=cid, doc=_optional_doc(cid), snippet=graph.objects[cid].snippet)
        for cid in graph.callers(object_id)
    )
    child_docs: tuple[tuple[str, str], ...] | None = None
    if child_docs_enabled:
        child_docs = tuple(
            (cid, _required_doc(cid)) for cid in graph.object_children(object_id)
        )
    return PromptContext(
        target=obj,
        hierarchy_render=render_hierarchy(graph, object_id, include_children=True),
        callee_blocks=callee_blocks,
        caller_blocks=caller_blocks,
        child_docs=child_docs,
        doc_language=doc_language,
        hierarchy_compact=render_hierarchy(graph, object_id, include_children=False),
    )


def _render_block(block: RefBlock) -> str:
    lines = [
        f"OBJ_NAME: {block.name}",
        f"OBJ_PATH: {block.id}",
        "Document: ",
        block.doc,
    ]
    if block.snippet is not None:
        lines.extend(
            [
                f"[Code begin of {block.name}]",
                "```",
                block.snippet,
                "```==========",
                f"[Code end of {block.name}]",
            ]
        )
    return "\n".join(lines)


def _render_format_block(target: CodeObject) -> str:
    kind = target.kind
    lines = [f"**{target.name}**: The function of {target.name} is XXX"]
    if kind == CLASS:
        lines.append(f"**Attributes**: The attributes of this {kind}.")
    else:
        lines.append(f"**parameters**: The parameters of this {kind}.")
    for param in target.params:
        lines.append(f"- {param}: XXX")
    lines.append(f"**Code Description**: The description of this {kind}.")
    lines.append("(Detailed and CERTAIN code analysis and description...None)")
    lines.append("**Note**: Points to note about the use of the code")
    if target.has_return:
        lines.append(OUTPUT_EXAMPLE_INSTRUCTION)
    return "\n".join(lines)


def render_prompt(ctx: PromptContext) -> str:
    """Deterministic prompt text for one target object."""
    target = ctx.target
    parts = [
        ROLE_PREAMBLE,
        HIERARCHY_INTRO + "\n" + ctx.hierarchy_render,
        DOC_PATH_INTRO + "\n" + target.id + ".",
        f'Now you need to generate a document for a {target.kind}, whose name is "{target.name}".',
        CODE_INTRO + "\n\n" + target.snippet,
    ]
    if ctx.callee_blocks:
        parts.append(CALLEE_INTRO + "\n\n" + "\n\n".join(_render_block(b) for b in ctx.callee_blocks))
    if ctx.caller_blocks:
        parts.append(CALLER_INTRO + "\n\n" + "\n\n".join(_render_block(b) for b in ctx.caller_blocks))
    if ctx.child_docs:
        child_parts = [
            f"OBJ_NAME: {cid.rsplit('/', 1)[-1]}\nOBJ_PATH: {cid}\nDocument: \n{doc}"
            for cid, doc in ctx.child_docs
        ]
        parts.append(CHILD_DOCS_INTRO + "\n\n" + "\n\n".join(child_parts))
    parts.append(
        "Please generate a detailed explanation document for this object based on the code of "
        "the target object itself and combine it with its calling situation in the project."
    )
    parts.append(
        f"Please write out the function of this {target.kind} in bold plain text, followed by "
        "a detailed analysis in plain text (including all details), in language "
        f"{ctx.doc_language} to serve as the documentation for this part of the code."
    )
    parts.append(FORMAT_INTRO + "\n\n" + _render_format_block(target))
    parts.append(NOTE_RULES)
    parts.append(
        "Keep in mind that your audience is document readers, so use a deterministic tone to "
        "generate precise content and don't let them know you're provided with code snippet "
        "and documents. AVOID ANY SPECULATION and inaccurate descriptions! Now, provide the "
        f"documentation for the target object in {ctx.doc_language} in a professional way."
    )
    return "\n\n".join(parts)


def estimate_tokens(text: str) -> int:
    """Budget estimate: ceil(UTF-8 byte length / 4)."""
    return math.ceil(len(text.encode("utf-8")) / 4)


def choose_tier(
    estimate: int, tiers: Sequence[ModelTier], reserve: int = DEFAULT_COMPLETION_RESERVE
) -> ModelTier | None:
    """Smallest tier whose window fits the prompt plus the completion reserve."""
    for tier in tiers:
        if tier.context_window >= estimate + reserve:
            return tier
    return None


def _drop_caller_snippets(ctx: PromptContext) -> PromptContext:
    return replace(
        ctx, caller_blocks=tuple(replace(b, snippet=None) for b in ctx.caller_blocks)
    )


def _drop_callers(ctx: PromptContext) -> PromptContext:
    return replace(ctx, caller_blocks=())


def _drop_callee_snippets(ctx: PromptContext) -> PromptContext:
    return replace(
        ctx, callee_blocks=tuple(replace(b, snippet=None) for b in ctx.callee_blocks)
    )


def _compact_hierarchy(ctx: PromptContext) -> PromptContext:
    if not ctx.hierarchy_compact:
        return ctx
    return replace(ctx, hierarchy_render=ctx.hierarchy_compact)


def _drop_child_docs(ctx: PromptContext) -> PromptContext:
    if not ctx.child_docs:
        return ctx
    return replace(ctx, child_docs=())


REDUCTION_STEPS: tuple[tuple[str, object], ...] = (
    ("drop caller snippets", _drop_caller_snippets),
    ("drop caller blocks", _drop_callers),
    ("drop callee snippets", _drop_callee_snippets),
    ("compact hierarchy", _compact_hierarchy),
    ("drop child docs", _drop_child_docs),
)


def fit_to_budget(
    ctx: PromptContext,
    tiers: Sequence[ModelTier],
    reserve: int = DEFAULT_COMPLETION_RESERVE,
) -> tuple[PromptContext, ModelTier]:
    """Pick a tier, applying fixed reductions only when none fits.

    Reductions are all-or-nothing, applied in order, and never touch the
    target snippet or format block. Once any reduction was needed the largest
    tier is used.
    """
    if not tiers:
        raise OverBudgetError("no model tiers configured")
    estimate = estimate_tokens(render_prompt(ctx))
    tier = choose_tier(estimate, tiers, reserve)
    if tier is not None:
        return ctx, tier

    largest = tiers[-1]
    for name, step in REDUCTION_STEPS:
        reduced = step(ctx)
        if reduced == ctx:
            continue
        ctx = reduced
        estimate = estimate_tokens(render_prompt(ctx))
        logger.info("budget reduction applied to %s: %s (now ~%d tokens)", ctx.target.id, name, estimate)
        if estimate + reserve <= largest.context_window:
            return ctx, largest
    raise OverBudgetError(
        f"{ctx.target.id}: prompt needs ~{estimate} tokens plus {reserve} reserve; "
        f"largest tier {largest.name} holds {largest.context_window}"
    )
