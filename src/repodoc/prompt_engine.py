"""Prompt assembly for per-object documentation generation.

A prompt carries, in order: a role preamble, the project hierarchy around the
target (target line marked with "*"), the document path, the object kind and
name, the target code, callee blocks, caller blocks, optional child docs, the
standard output format, and formatting rules. Token budgets are enforced by a
fixed sequence of content reductions.

A class in a callee or caller block is quoted as its skeleton
(``quoted_code``): each of its methods is an object with a doc of its own.
RepoAgent quotes it whole.
"""

from __future__ import annotations

import logging
import math
import tokenize
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .config import ModelTier
from .errors import OverBudgetError, SchedulingError
from .project_graph import RepoGraph
from .source_model import CLASS, CodeObject

if TYPE_CHECKING:
    from .doc_pipeline import DocStore

logger = logging.getLogger(__name__)

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


class RefBlock(NamedTuple):
    """A referenced object shown to the model: id, doc text and code."""

    id: str
    doc: str  # rendered doc text, or "None" when unavailable
    snippet: str | None  # None once dropped by budget reduction

    @property
    def name(self) -> str:
        return self.id.rsplit("/", 1)[-1]


class PromptContext(NamedTuple):
    """Everything render_prompt needs for one target object."""

    target: CodeObject
    hierarchy_render: str
    callee_blocks: tuple[RefBlock, ...]
    caller_blocks: tuple[RefBlock, ...]
    child_docs: tuple[tuple[str, str], ...] | None  # None when disabled
    doc_language: str
    graph: RepoGraph | None = None  # where the last reduction finds a class's skeleton
    target_code: str | None = None  # the target's code as quoted; None quotes its snippet


def render_hierarchy(graph: RepoGraph, object_id: str, *, include_children: bool = True) -> str:
    """Indented ancestor chain down to the target, plus its direct children
    sorted by id.

    Four spaces per level; the target line is prefixed with "*". An object's
    id is its file's path and then the names of the objects enclosing it
    and its own, so the chain is read off the ids.
    """
    labels = object_id.split("/")
    depth = len(labels) - 1
    lines = [("    " * level) + name for level, name in enumerate(labels[:-1])]
    lines.append(("    " * depth) + "*" + labels[-1])
    if include_children:
        indent = "    " * (depth + 1)
        lines += [indent + child.rpartition("/")[2] for child in graph.object_children(object_id)]
    return "\n".join(lines)


def assemble_context(
    graph: RepoGraph,
    store: DocStore,
    object_id: str,
    *,
    child_docs_enabled: bool,
    doc_language: str,
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

    records = store.records

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
        RefBlock(cid, _required_doc(cid), quoted_code(graph, cid)) for cid in graph.callees(object_id)
    )
    caller_blocks = tuple(
        RefBlock(cid, _optional_doc(cid), quoted_code(graph, cid)) for cid in graph.callers(object_id)
    )
    child_docs: tuple[tuple[str, str], ...] | None = None
    if child_docs_enabled:
        child_docs = tuple(
            (cid, _required_doc(cid)) for cid in graph.object_children(object_id)
        )
    hierarchy = render_hierarchy(graph, object_id)
    return PromptContext(
        obj, hierarchy, callee_blocks, caller_blocks, child_docs, doc_language, graph
    )


def quoted_code(graph: RepoGraph, object_id: str) -> str:
    """The code a prompt quotes for an object in a callee or caller block.

    A function is quoted whole. A class is quoted as its skeleton: its own
    lines (header, docstring, attributes, comments) stay, and each direct
    child definition is cut to its header, decorators and signature through
    the closing ":", followed by " ..."; its body goes, nested definitions
    included. A child whose body starts on the colon's line is kept whole, so
    the skeleton is still Python. The cuts come from the children's spans in
    the text that the class shares with them, so no parse is added.
    """
    obj = graph.objects[object_id]
    children = graph.nodes[object_id].children if obj.kind == CLASS else ()
    if not children:
        return obj.snippet
    text, objects = obj.text, graph.objects
    (at, end), out = obj.span, []
    for start, stop in sorted(objects[cid].span for cid in children):
        cut = _header_end(text, start, stop)
        if cut is not None:
            out += (text[at:cut], " ...")
            at = stop
    out.append(text[at:end])
    return "".join(out)


def _simple_line(line: str) -> bool:
    """Whether ``line`` holds no comment, continuation or triple quote and
    balances its brackets, so that it ends where its statement or decorator
    does."""
    return (
        "#" not in line
        and not line.endswith("\\")
        and '"""' not in line
        and "'''" not in line
        and line.count("(") == line.count(")")
        and line.count("[") == line.count("]")
        and line.count("{") == line.count("}")
    )


def _header_end(text: str, start: int, stop: int) -> int | None:
    """The offset just past the ":" that closes the header of the definition
    at ``text[start:stop]``, or None when its body starts on that line.

    A header of one-line decorators and one line that ends in ":" is found
    by string search; any other is tokenized, a line at a time, only as far
    as the token after its colon.
    """
    at = start
    while True:
        newline = text.find("\n", at, stop)
        if newline < 0:
            return None  # the header and the body end on one line
        line = text[at:newline].rstrip()
        head = line.lstrip()
        if not _simple_line(line):
            break
        if head.startswith("@"):
            at = newline + 1
        elif head.endswith(":") and head.startswith(("def ", "async def ", "class ")):
            return at + len(line)
        else:
            break

    starts: list[int] = []  # the offset of each line tokenized

    def lines():
        at = start
        while at <= stop:
            starts.append(at)
            newline = text.find("\n", at, stop)
            end = stop if newline < 0 else newline
            yield text[at:end] + "\n"
            at = end + 1

    depth, header = 0, False
    tokens = tokenize.generate_tokens(lines().__next__)
    try:
        for token in tokens:
            kind, string = token.type, token.string
            if kind == tokenize.OP and string in ("(", "[", "{"):
                depth += 1
            elif kind == tokenize.OP and string in (")", "]", "}"):
                depth -= 1
            elif kind == tokenize.NAME and not depth and string in ("def", "class"):
                header = True
            elif kind == tokenize.OP and string == ":" and header and not depth:
                break
        else:
            return None
        row, col = token.end
        after = next(tokens)
        if after.type == tokenize.COMMENT:
            after = next(tokens)
    except (tokenize.TokenError, SyntaxError):
        return None
    if after.type != tokenize.NEWLINE:
        return None  # the body starts on the colon's line
    return starts[row - 1] + col


def _block_pieces(block: RefBlock) -> tuple[str, ...]:
    """The pieces of one reference block's text."""
    name = block.name
    head = ("OBJ_NAME: ", name, "\nOBJ_PATH: ", block.id, "\nDocument: \n", block.doc)
    if block.snippet is None:
        return head
    return (
        *head, "\n[Code begin of ", name, "]\n```\n", block.snippet,
        "\n```==========\n[Code end of ", name, "]",
    )


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
    """Deterministic prompt text for one target object: its sections, one
    blank line apart. The pieces are joined once, so that no doc or snippet
    is copied more than once."""
    target, language = ctx.target, ctx.doc_language
    out = [
        ROLE_PREAMBLE, "\n\n", HIERARCHY_INTRO, "\n", ctx.hierarchy_render, "\n\n",
        DOC_PATH_INTRO, "\n", target.id, ".\n\n",
        f'Now you need to generate a document for a {target.kind}, whose name is "{target.name}".',
        "\n\n", CODE_INTRO, "\n\n", target.snippet if ctx.target_code is None else ctx.target_code,
    ]
    for intro, blocks in ((CALLEE_INTRO, ctx.callee_blocks), (CALLER_INTRO, ctx.caller_blocks)):
        if blocks:
            out += ("\n\n", intro)
            for block in blocks:
                out.append("\n\n")
                out += _block_pieces(block)
    if ctx.child_docs:
        out += ("\n\n", CHILD_DOCS_INTRO)
        for cid, doc in ctx.child_docs:
            out.append("\n\n")
            out += _block_pieces(RefBlock(cid, doc, None))
    out += (
        "\n\nPlease generate a detailed explanation document for this object based on the code "
        "of the target object itself and combine it with its calling situation in the project.",
        f"\n\nPlease write out the function of this {target.kind} in bold plain text, followed "
        "by a detailed analysis in plain text (including all details), in language "
        f"{language} to serve as the documentation for this part of the code.",
        "\n\n", FORMAT_INTRO, "\n\n", _render_format_block(target), "\n\n", NOTE_RULES,
        "\n\nKeep in mind that your audience is document readers, so use a deterministic tone "
        "to generate precise content and don't let them know you're provided with code snippet "
        "and documents. AVOID ANY SPECULATION and inaccurate descriptions! Now, provide the "
        f"documentation for the target object in {language} in a professional way.",
    )
    return "".join(out)


def estimate_tokens(text: str) -> int:
    """Budget estimate: ceil(UTF-8 byte length / 4)."""
    # an ASCII string has as many UTF-8 bytes as characters
    return math.ceil((len(text) if text.isascii() else len(text.encode("utf-8"))) / 4)


def choose_tier(estimate: int, tiers: Sequence[ModelTier], reserve: int) -> ModelTier | None:
    """Smallest tier whose window fits the prompt plus the completion reserve."""
    for tier in tiers:
        if tier.context_window >= estimate + reserve:
            return tier
    return None


def _drop_caller_snippets(ctx: PromptContext) -> PromptContext:
    return ctx._replace(caller_blocks=tuple(b._replace(snippet=None) for b in ctx.caller_blocks))


def _drop_callers(ctx: PromptContext) -> PromptContext:
    return ctx._replace(caller_blocks=())


def _drop_callee_snippets(ctx: PromptContext) -> PromptContext:
    return ctx._replace(callee_blocks=tuple(b._replace(snippet=None) for b in ctx.callee_blocks))


def _compact_hierarchy(ctx: PromptContext) -> PromptContext:
    # the render without the target's children, which follow the "*" line;
    # no object name holds a "*", so the last one is the target's
    render = ctx.hierarchy_render
    end = render.find("\n", render.rfind("*"))
    return ctx if end < 0 else ctx._replace(hierarchy_render=render[:end])


def _drop_child_docs(ctx: PromptContext) -> PromptContext:
    if not ctx.child_docs:
        return ctx
    return ctx._replace(child_docs=())


def _quote_target_skeleton(ctx: PromptContext) -> PromptContext:
    if ctx.graph is None:
        return ctx
    code = quoted_code(ctx.graph, ctx.target.id)  # a function's is its snippet
    return ctx if code == ctx.target.snippet else ctx._replace(target_code=code)


REDUCTION_STEPS: tuple[tuple[str, object], ...] = (
    ("drop caller snippets", _drop_caller_snippets),
    ("drop caller blocks", _drop_callers),
    ("drop callee snippets", _drop_callee_snippets),
    ("compact hierarchy", _compact_hierarchy),
    ("drop child docs", _drop_child_docs),
    ("quote target class as skeleton", _quote_target_skeleton),
)


def fit_to_budget(
    ctx: PromptContext,
    tiers: Sequence[ModelTier],
    reserve: int,
) -> tuple[PromptContext, ModelTier, str]:
    """Pick a tier, applying fixed reductions only when none fits. Returns
    the context, reduced or not, its tier and its rendered prompt.

    Reductions are all-or-nothing and applied in order. Only the last one
    touches the target's code: it quotes a class target as its skeleton
    (``quoted_code``), so a class that no tier holds whole can still be
    documented. None touches the format block. Once any reduction was needed
    the largest tier is used.
    """
    if not tiers:
        raise OverBudgetError("no model tiers configured")
    prompt = render_prompt(ctx)
    estimate = estimate_tokens(prompt)
    tier = choose_tier(estimate, tiers, reserve)
    if tier is not None:
        return ctx, tier, prompt

    largest = tiers[-1]
    for name, step in REDUCTION_STEPS:
        reduced = step(ctx)
        if reduced == ctx:
            continue
        ctx = reduced
        prompt = render_prompt(ctx)
        estimate = estimate_tokens(prompt)
        logger.info("budget reduction applied to %s: %s (now ~%d tokens)", ctx.target.id, name, estimate)
        if estimate + reserve <= largest.context_window:
            return ctx, largest, prompt
    raise OverBudgetError(
        f"{ctx.target.id}: prompt needs ~{estimate} tokens plus {reserve} reserve; "
        f"largest tier {largest.name} holds {largest.context_window}"
    )
