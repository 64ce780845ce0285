"""Prompt assembly for per-object documentation generation.

A prompt carries, in order: a role preamble, the project hierarchy around the
target (target line marked with "*"), the document path, the object kind and
name, the target code, callee blocks, caller blocks, optional child docs, the
standard output format, and formatting rules. Token budgets are enforced by a
fixed sequence of content reductions.

A class is quoted as its skeleton (``quoted_code``), since each of its
methods is an object with a doc of its own: in a callee or caller block with
every method cut to its header, and as the target with its ``__init__`` kept
whole, the body that assigns the attributes its doc lists. A function callee
with a doc is quoted as its header, decorators and signature through the
":", followed by " ...", since the doc beside it was generated from its
body; one with no doc ("None") is quoted whole. A function caller is quoted
as its call sites of the target (``quoted_caller``): its header and the body
lines that call the target, its docstring and other lines left out.
RepoAgent quotes every class, every callee and every caller whole.
"""

from __future__ import annotations

import logging
import math
import re
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
    target_code: str  # the target's code as quoted (``quoted_code``)
    hierarchy_render: str
    callee_blocks: tuple[RefBlock, ...]
    caller_blocks: tuple[RefBlock, ...]
    child_docs: tuple[tuple[str, str], ...] | None  # None when disabled
    doc_language: str
    graph: RepoGraph  # where the last reduction finds a class's skeleton


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
    are ordered lexicographically by id. A class target is quoted as its
    skeleton with its ``__init__`` whole, a function as its snippet. A class
    callee is quoted as its skeleton; a function callee as its header and
    " ..." when its doc is not "None", else whole (``quoted_code``). Each
    caller is quoted by its calls of the target (``quoted_caller``).
    RepoAgent quotes every callee and caller whole. Each quote depends on
    the graph and the records of prerequisites alone, so not on ``--jobs``.
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

    def _callee_block(cid: str) -> RefBlock:
        doc = _required_doc(cid)
        return RefBlock(cid, doc, quoted_code(graph, cid, header=doc != "None"))

    callee_blocks = tuple(map(_callee_block, graph.callees(object_id)))
    caller_blocks = tuple(
        RefBlock(cid, _optional_doc(cid), quoted_caller(graph, cid, obj.name))
        for cid in graph.callers(object_id)
    )
    child_docs: tuple[tuple[str, str], ...] | None = None
    if child_docs_enabled:
        child_docs = tuple(
            (cid, _required_doc(cid)) for cid in graph.object_children(object_id)
        )
    code = quoted_code(graph, object_id, keep="__init__")
    hierarchy = render_hierarchy(graph, object_id)
    return PromptContext(
        obj, code, hierarchy, callee_blocks, caller_blocks, child_docs, doc_language, graph
    )


def quoted_code(
    graph: RepoGraph, object_id: str, keep: str | None = None, *, header: bool = False
) -> str:
    """The code a prompt quotes for an object.

    A definition is cut to its header, decorators and signature through the
    closing ":" (``span[0]:span[1]``), followed by " ..."; its body goes,
    nested definitions included. One whose body starts on the colon's line
    is kept whole, so the quote is still Python. A function is quoted whole,
    or cut when ``header`` is set. A class is quoted as its skeleton: its
    own lines (header, docstring, attributes, comments) stay, and each
    direct child definition but the one named ``keep`` is cut. The cuts are
    spans in the text that the class shares with its children, which the
    parse records. A callee or caller keeps no child whole; a target keeps
    its ``__init__`` (``assemble_context``).
    """
    obj = graph.objects[object_id]
    if obj.kind == CLASS:
        objects = graph.objects
        kept = None if keep is None else f"{object_id}/{keep}"
        cuts = sorted(objects[cid].span for cid in graph.nodes[object_id].children if cid != kept)
    else:
        cuts = [obj.span] if header else ()
    if not cuts:
        return obj.snippet
    text, (at, _, end), out = obj.text, obj.span, []
    for _, cut, stop in cuts:
        if cut < stop:  # the body starts below the header
            out += (text[at:cut], " ...")
            at = stop
    out.append(text[at:end])
    return "".join(out)


# a string literal on one line, or a comment: no bracket in one is code
_NOT_CODE = re.compile(r"#.*|'(?:[^'\\\n]|\\.)*'|" r'"(?:[^"\\\n]|\\.)*"')
_OPENS_CALL = re.compile(r"[ \t]*\(")
_NAME_CHAR = re.compile(r"\w")
# the indentation of the first non-blank line
_INDENT = re.compile(r"^([^\S\n]*)\S", re.MULTILINE)


def _bracket_balance(line: str) -> int:
    code = _NOT_CODE.sub("", line)
    return sum(map(code.count, "([{")) - sum(map(code.count, ")]}"))


def quoted_caller(graph: RepoGraph, caller_id: str, name: str) -> str:
    """The code a prompt quotes for a caller of an object named ``name``.

    A class is quoted as its skeleton (``quoted_code``), a function as its
    call sites: its header through the ":" (``span[0]:span[1]``), then each
    body line where ``name``, not part of a longer name, is followed by
    "(", continued until the brackets opened on that line close; a bracket
    in a one-line string or a comment does not count. Each run of lines
    left out becomes one "..." line, indented as its first non-blank line,
    or one blank line when it has none. A function with no such line, or
    whose body starts on the header's line, is quoted whole. The quote
    depends on the caller's text, its span and ``name`` alone, so a caller
    taken from the snapshot is quoted as a parsed one is.
    """
    obj = graph.objects[caller_id]
    if obj.kind == CLASS:
        return quoted_code(graph, caller_id)
    text, (start, head_end, end) = obj.text, obj.span
    body = text.find("\n", head_end, end) + 1
    if not body:  # the body starts on the header's line, where the header ends at ``end``
        return obj.snippet
    out, at = [text[start:head_end]], body  # at: the first line not yet quoted or left out
    hit = text.find(name, body, end)
    while hit >= 0:
        if _OPENS_CALL.match(text, hit + len(name), end) and not _NAME_CHAR.match(text, hit - 1):
            line = text.rfind("\n", at, hit) + 1 or at
            if line > at:
                out.append(_elision(text[at:line]))
            at, depth = line, 0
            while True:
                stop = text.find("\n", at, end)
                stop = end if stop < 0 else stop
                depth += _bracket_balance(text[at:stop])
                at = stop + 1
                if depth <= 0 or at > end:
                    break
            out.append(text[line : at - 1])
        hit = text.find(name, max(hit + 1, at), end)
    if len(out) == 1:
        return obj.snippet
    if at <= end:
        out.append(_elision(text[at:end]))
    return "\n".join(out)


def _elision(run: str) -> str:
    """The line that stands for a run of left-out lines."""
    first = _INDENT.search(run)
    return first[1] + "..." if first else ""


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
        "\n\n", CODE_INTRO, "\n\n", ctx.target_code,
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
    code = quoted_code(ctx.graph, ctx.target.id)  # its __init__ cut too
    return ctx if code == ctx.target_code else ctx._replace(target_code=code)


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

    Reductions are all-or-nothing and applied in order. A class target comes
    quoted as its skeleton with its ``__init__`` whole (``quoted_code``).
    Only the last reduction touches the target's code: it cuts that
    ``__init__`` too, so a class whose ``__init__`` no tier holds can still
    be documented. None touches the format block. Once any reduction was
    needed the largest tier is used.
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
