"""Documentation generation pipeline and the persisted doc store.

Objects are generated bottom-to-top in topological order so every prompt can
embed the already-written docs of its callees and children. The store is one
JSON file holding all doc records plus the graph snapshot they were generated
against; it is the unit of persistence, diffing and Git tracking.
"""

from __future__ import annotations

import datetime as _dt
import heapq
import itertools
import json
import logging
import re
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import CorruptStoreError, OverBudgetError, ProviderError, StoreWriteError
from .llm_gateway import CompletionRequest, Gateway
from .project_graph import DIR, REPO, RepoGraph, topological_order
from .prompt_engine import assemble_context, fit_to_budget, render_prompt
from .source_model import CLASS, CodeObject, write_atomically

if TYPE_CHECKING:
    from .config import Config

logger = logging.getLogger(__name__)

STORE_VERSION = 3

PARAM_LABEL = "parameters"
ATTRIBUTE_LABEL = "Attributes"
_FIXED_LABELS = {
    "parameters": PARAM_LABEL,
    "attributes": ATTRIBUTE_LABEL,
    "code description": "Code Description",
    "note": "Note",
    "output example": "Output Example",
}

_HEADER_RE = re.compile(r"^\*\*(.+?)\*\*[ \t]*:[ \t]*(.*)$", re.MULTILINE)
_BULLET_RE = re.compile(r"^-[ \t]*`([^`]+)`[ \t]*:[ \t]*(.*)$")


@dataclass
class ParsedDoc:
    """Structured view of one generated doc plus a partial-parse report."""

    name_header: str = ""
    param_label: str | None = None
    params: list[tuple[str, str]] = field(default_factory=list)
    param_tail: str = ""
    code_description: str = ""
    note: str = ""
    output_example: str | None = None
    missing: list[str] = field(default_factory=list)
    extra: list[str] = field(default_factory=list)


def parse_doc(text: str, kind: str, has_return: bool) -> ParsedDoc:
    """Split a generated doc into its bold-labelled sections.

    The first bold header whose label is not one of the fixed section labels
    is taken as the name header. Fixed labels match case-insensitively.
    Non-compliance is reported, never raised.
    """
    parsed = ParsedDoc()
    matches = list(_HEADER_RE.finditer(text))
    sections: list[tuple[str, str, str]] = []  # (label, inline rest, full text)
    for index, match in enumerate(matches):
        end = matches[index + 1].start() if index + 1 < len(matches) else len(text)
        sections.append((match.group(1).strip(), match.group(2), text[match.start() : end].rstrip()))

    seen: set[str] = set()
    for index, (label, inline, full) in enumerate(sections):
        canonical = _FIXED_LABELS.get(label.lower())
        if index == 0 and canonical is None:
            parsed.name_header = full
            seen.add("name")
            continue
        if canonical is None or canonical in seen:
            parsed.extra.append(label)
            continue
        if canonical in (PARAM_LABEL, ATTRIBUTE_LABEL):
            if PARAM_LABEL in seen or ATTRIBUTE_LABEL in seen:
                parsed.extra.append(label)
                continue
            parsed.param_label = canonical
            parsed.param_tail, parsed.params = _parse_param_section(inline, full)
            seen.add(canonical)
            continue
        seen.add(canonical)
        content = _section_content(inline, full)
        if canonical == "Code Description":
            parsed.code_description = content
        elif canonical == "Note":
            parsed.note = content
        elif canonical == "Output Example":
            parsed.output_example = content

    expected_param = ATTRIBUTE_LABEL if kind == CLASS else PARAM_LABEL
    if "name" not in seen:
        parsed.missing.append("name")
    if expected_param not in seen:
        parsed.missing.append(expected_param)
        # the wrong-kind label is an extra, found under the other key
        other = PARAM_LABEL if expected_param == ATTRIBUTE_LABEL else ATTRIBUTE_LABEL
        if other in seen:
            parsed.extra.append(other)
    if "Code Description" not in seen:
        parsed.missing.append("Code Description")
    if "Note" not in seen:
        parsed.missing.append("Note")
    if has_return and "Output Example" not in seen:
        parsed.missing.append("Output Example")
    return parsed


def _section_content(inline: str, full: str) -> str:
    lines = full.split("\n")
    rest = [inline.strip()] if inline.strip() else []
    rest.extend(line for line in lines[1:])
    return "\n".join(rest).strip()


def _parse_param_section(inline: str, full: str) -> tuple[str, list[tuple[str, str]]]:
    tail_parts = [inline.strip()] if inline.strip() else []
    params: list[tuple[str, str]] = []
    for line in full.split("\n")[1:]:
        bullet = _BULLET_RE.match(line.strip())
        if bullet:
            params.append((bullet.group(1).strip(), bullet.group(2).strip()))
        elif params and line.strip():
            name, desc = params[-1]
            params[-1] = (name, f"{desc} {line.strip()}".strip())
        elif line.strip():
            tail_parts.append(line.strip())
    return " ".join(tail_parts), params


@dataclass
class DocRecord:
    """One object's generated documentation: the text pages and prompts show."""

    text: str
    source_hash: str
    model: str
    generated_at: str


def render_doc(doc: ParsedDoc) -> str:
    """Doc text with bold section labels, one blank line between sections."""
    parts: list[str] = []
    if doc.name_header:
        parts.append(doc.name_header)
    header = f"**{doc.param_label}**:"
    if doc.param_tail:
        header += f" {doc.param_tail}"
    bullets = [f"- `{name}`: {desc}" for name, desc in doc.params]
    parts.append("\n".join([header, *bullets]))
    if doc.code_description:
        parts.append(f"**Code Description**: {doc.code_description}")
    if doc.note:
        parts.append(f"**Note**: {doc.note}")
    if doc.output_example:
        parts.append(f"**Output Example**: {doc.output_example}")
    return "\n\n".join(parts)


def record_from_parsed(obj: CodeObject, parsed: ParsedDoc, model: str) -> DocRecord:
    """Build the stored record: parameters deduplicated first-wins, the kind's
    label when the doc gave none, and an Output Example only when the object
    returns."""
    params: dict[str, str] = {}
    for name, desc in parsed.params:
        params.setdefault(name, desc)
    doc = replace(
        parsed,
        param_label=parsed.param_label or (ATTRIBUTE_LABEL if obj.kind == CLASS else PARAM_LABEL),
        params=list(params.items()),
        output_example=parsed.output_example if obj.has_return else None,
    )
    return DocRecord(
        text=render_doc(doc),
        source_hash=obj.source_hash,
        model=model,
        generated_at=_dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
    )


def _record_from_v1(data: dict) -> DocRecord:
    # version 1 stored each doc as its sections, rules already applied
    doc = ParsedDoc(
        name_header=data["name_header"],
        param_label=data["param_label"],
        params=[(name, desc) for name, desc in data["param_section"]],
        param_tail=data.get("param_tail", ""),
        code_description=data["code_description"],
        note=data["note"],
        output_example=data.get("output_example"),
    )
    return DocRecord(
        text=render_doc(doc),
        source_hash=data["source_hash"],
        model=data["model"],
        generated_at=data["generated_at"],
    )


def _children_in_source_order(graph_data: dict) -> None:
    # versions 1 and 2 sorted every child list by id and kept each object's
    # line span; a stable sort by start line gives the order of the source
    nodes = graph_data["nodes"]
    for entry in nodes.values():
        if entry["node_kind"] not in (REPO, DIR):
            entry["children"].sort(key=lambda oid: nodes[oid]["meta"]["line_span"][0])


@dataclass
class DocStore:
    """All doc records plus the graph snapshot of the last completed run."""

    records: dict[str, DocRecord] = field(default_factory=dict)
    graph_snapshot: RepoGraph | None = None
    changed: bool = False  # set once it differs from the file it was loaded from

    def to_dict(self) -> dict:
        return {
            "version": STORE_VERSION,
            "records": {oid: vars(self.records[oid]) for oid in sorted(self.records)},
            "graph": self.graph_snapshot.to_dict() if self.graph_snapshot else None,
        }


def save_store(store: DocStore, path: str | Path) -> None:
    """Serialize atomically with ``write_atomically``: the bytes of
    ``json.dumps(store.to_dict(), indent=2, sort_keys=True)`` and a newline,
    encoded piece by piece so that the text is never held whole."""
    path = Path(path)
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(store.to_dict())
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomically(path, itertools.chain(chunks, ["\n"]))
    except OSError as exc:
        raise StoreWriteError(f"cannot write doc store {path}: {exc}") from exc


def load_store(path: str | Path) -> DocStore:
    """Load the store; a missing file is an empty store, a broken one an error.

    Version-1 and version-2 stores are migrated in memory; the next save
    writes the current version.
    """
    path = Path(path)
    if not path.exists():
        return DocStore()
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        version = data.get("version")
        if version not in (1, 2, STORE_VERSION):
            raise CorruptStoreError(
                f"doc store {path} has version {version}, expected {STORE_VERSION}; "
                "delete it and rerun generate to rebuild"
            )
        records = {
            oid: _record_from_v1(rec) if version == 1 else DocRecord(**rec)
            for oid, rec in data.get("records", {}).items()
        }
        graph_data = data.get("graph")
        if graph_data and version != STORE_VERSION:
            _children_in_source_order(graph_data)
        graph = RepoGraph.from_dict(graph_data) if graph_data else None
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CorruptStoreError(
            f"doc store {path} is unreadable ({exc}); delete it and rerun generate to rebuild"
        ) from exc
    return DocStore(records=records, graph_snapshot=graph, changed=version != STORE_VERSION)


@dataclass
class RunReport:
    """Outcome of one generate/update run."""

    generated: list[str] = field(default_factory=list)  # completion order
    skipped: list[str] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)
    prompt_tokens: int = 0
    completion_tokens: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "generated": list(self.generated),
            "skipped": list(self.skipped),
            "failures": dict(sorted(self.failures.items())),
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
        }


def _reference_sets_unchanged(graph: RepoGraph, snapshot: RepoGraph | None, object_id: str) -> bool:
    if snapshot is None:
        return False
    return (
        set(graph.callers(object_id)) == set(snapshot.callers(object_id))
        and set(graph.callees(object_id)) == set(snapshot.callees(object_id))
    )


def _up_to_date(graph: RepoGraph, store: DocStore, object_id: str) -> bool:
    record = store.records.get(object_id)
    if record is None:
        return False
    if record.source_hash != graph.objects[object_id].source_hash:
        return False
    return _reference_sets_unchanged(graph, store.graph_snapshot, object_id)


def _stale_prerequisites(graph: RepoGraph, store: DocStore, pending: set[str]) -> frozenset[str]:
    # Ids whose docs are absent yet will never be produced this run (a past
    # run failed on them). Their docs render as "None" instead of wedging
    # every dependent forever.
    stale = {
        oid
        for oid in graph.objects
        if oid not in pending and oid not in store.records
    }
    for oid in sorted(stale):
        logger.warning("doc for %s is missing and not scheduled; rendering None", oid)
    return frozenset(stale)


def _generate_one(
    graph: RepoGraph,
    gateway: Gateway,
    store: DocStore,
    object_id: str,
    config: Config,
    allow_missing: frozenset[str],
) -> tuple[DocRecord, int, int] | OverBudgetError | ProviderError:
    """One object's record and token counts, or the error that failed it."""
    obj = graph.objects[object_id]
    ctx = assemble_context(
        graph,
        store,
        object_id,
        child_docs_enabled=config.child_docs_enabled,
        doc_language=config.doc_language,
        allow_missing=allow_missing,
    )
    reserve = config.completion_reserve_tokens
    try:
        ctx, tier = fit_to_budget(ctx, config.provider.tiers, reserve)
        request = CompletionRequest(
            model=tier.name,
            prompt=render_prompt(ctx),
            max_completion_tokens=reserve,
            temperature=config.provider.temperature,
        )
        response = gateway.complete(request, context_id=object_id)
    except (OverBudgetError, ProviderError) as exc:
        return exc
    parsed = parse_doc(response.text, obj.kind, obj.has_return)
    if parsed.missing or parsed.extra:
        logger.warning(
            "%s: non-compliant doc (missing=%s extra=%s)", object_id, parsed.missing, parsed.extra
        )
    record = record_from_parsed(obj, parsed, response.model)
    return record, response.prompt_tokens, response.completion_tokens


def generate_all(
    graph: RepoGraph,
    gateway: Gateway,
    store: DocStore,
    config: Config,
    jobs: int,
    *,
    only: set[str] | None = None,
) -> RunReport:
    """Generate docs for every stale object, bottom-to-top.

    Up-to-date objects (same source hash, same reference sets as the stored
    snapshot) are skipped without any gateway call. Failures are recorded and
    do not stop the run; dependents see "None" for a failed prerequisite.
    ``only`` restricts generation to the given ids (used by updates).

    An object is dispatched once all of its pending callees and children have
    finished, lowest topological rank first, to at most ``jobs`` workers, so
    at most that many provider requests are in flight. With one job it runs
    on the calling thread, so ``generated`` is the topological order filtered
    to the pending objects. Workers only generate; this thread records every
    outcome. The settings of each request are read from ``config``.

    The graph then becomes the store's snapshot, and the records of objects
    it no longer holds are dropped. The store is marked changed when a doc
    was recorded or dropped, or when the graph differs from the old snapshot.
    """
    order = topological_order(graph)
    report = RunReport()
    pending: list[str] = []
    for oid in order:
        if only is not None and oid not in only:
            report.skipped.append(oid)
        elif _up_to_date(graph, store, oid):
            report.skipped.append(oid)
        else:
            pending.append(oid)

    rank = {oid: index for index, oid in enumerate(pending)}
    blockers = dict.fromkeys(pending, 0)
    dependents: dict[str, list[str]] = {oid: [] for oid in pending}
    # (prerequisite, dependent) pairs; a pair listed twice also unblocks twice
    links = [(edge.callee, edge.caller) for edge in graph.edges]
    links += [(oid, graph.objects[oid].parent_id) for oid in pending]
    for need, oid in links:
        if need in rank and oid in rank:
            blockers[oid] += 1
            dependents[need].append(oid)
    ready = [rank[oid] for oid in pending if not blockers[oid]]
    heapq.heapify(ready)
    allow_missing = _stale_prerequisites(graph, store, set(pending))

    def finish(oid: str, outcome) -> None:
        nonlocal allow_missing
        if isinstance(outcome, Exception):
            allow_missing = allow_missing | {oid}
            report.failures[oid] = str(outcome)
            logger.error("generation failed for %s: %s", oid, outcome)
        else:
            record, ptok, ctok = outcome
            store.records[oid] = record
            report.generated.append(oid)
            report.prompt_tokens += ptok
            report.completion_tokens += ctok
        for dep in dependents[oid]:
            blockers[dep] -= 1
            if not blockers[dep]:
                heapq.heappush(ready, rank[dep])

    jobs = max(1, jobs)
    pool = ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else None
    running: dict[Future, str] = {}
    try:
        while ready or running:
            while ready and len(running) < jobs:
                oid = pending[heapq.heappop(ready)]
                args = (graph, gateway, store, oid, config, allow_missing)
                if pool is None:
                    finish(oid, _generate_one(*args))
                else:
                    running[pool.submit(_generate_one, *args)] = oid
            if running:
                finished, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in sorted(finished, key=lambda f: rank[running[f]]):
                    finish(running.pop(future), future.result())
    finally:
        if pool is not None:
            pool.shutdown()

    kept = {oid: rec for oid, rec in store.records.items() if oid in graph.objects}
    old = store.graph_snapshot
    store.changed = (
        store.changed
        or bool(report.generated)
        or len(kept) != len(store.records)
        or old is None
        or old.to_dict() != graph.to_dict()
    )
    store.graph_snapshot, store.records = graph, kept
    return report
