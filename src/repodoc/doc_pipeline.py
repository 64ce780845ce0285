"""Documentation generation pipeline and the persisted doc store.

Objects are generated bottom-to-top in topological order so every prompt can
embed the already-written docs of its callees and children. The store is one
JSON file holding all doc records plus the graph snapshot they were generated
against; it is the unit of persistence, diffing and Git tracking.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import itertools
import json
import logging
import re
from collections.abc import Mapping, MutableMapping
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .errors import CorruptStoreError, InternalError, OverBudgetError, ProviderError, StoreWriteError
from .project_graph import (
    DIR,
    FILE,
    REPO,
    ROOT_ID,
    ChangeSet,
    Overlay,
    ReferenceEdge,
    RepoGraph,
    TreeNode,
    diff_objects,
    kahn,
    tree_node,
)
from .source_model import CLASS, CodeObject, parser_identity, write_atomically

if TYPE_CHECKING:
    from concurrent.futures import Future

    from .config import Config
    from .llm_gateway import Gateway

logger = logging.getLogger(__name__)

# Bump whenever the layout changes, the resolver may give other edges for
# the same parses, or pruning may keep other edges of the same edge set: an
# older store is migrated on load, and since the digest of its bytes is
# taken under the older version, no run reuses a file of it.
STORE_VERSION = 5

PARAM_LABEL = "parameters"
ATTRIBUTE_LABEL = "Attributes"
_FIXED_LABELS = {
    "parameters": PARAM_LABEL,
    "attributes": ATTRIBUTE_LABEL,
    "code description": "Code Description",
    "note": "Note",
    "output example": "Output Example",
}

# the header and bullet patterns, compiled on first use, by generation or eval
_patterns: tuple[re.Pattern, re.Pattern] | None = None


def _compiled() -> tuple[re.Pattern, re.Pattern]:
    global _patterns
    if _patterns is None:
        _patterns = (
            # a header line, whole, with its label and inline text
            re.compile(r"^(\*\*(.+?)\*\*[ \t]*:[ \t]*(.*))$", re.MULTILINE),
            re.compile(r"-[ \t]*`([^`]+)`[ \t]*:[ \t]*(.*)$"),
        )
    return _patterns


class ParsedDoc:
    """Structured view of one generated doc plus a partial-parse report."""

    def __init__(self) -> None:
        self.name_header = ""
        self.param_label: str | None = None
        self.params: list[tuple[str, str]] = []
        self.param_tail = ""
        self.code_description = ""
        self.note = ""
        self.output_example: str | None = None
        self.missing: list[str] = []
        self.extra: list[str] = []


def parse_doc(text: str, kind: str, has_return: bool, name: str = "") -> ParsedDoc:
    """Split a generated doc into its bold-labelled sections.

    The first bold header is taken as the name header when its label is the
    object's ``name`` or is not one of the fixed section labels, so that the
    doc of an object named ``parameters`` or ``note`` is read alike. Fixed
    labels match case-insensitively. Non-compliance is reported, never raised.
    """
    header, bullet = _compiled()
    parsed = ParsedDoc()
    # the text before the first header, then per header its line, label, inline
    # text and the text below up to the next header, empty or opening with "\n"
    pieces = header.split(text)
    seen: set[str] = set()
    for index in range(len(pieces) // 4):
        line, label, inline, below = pieces[4 * index + 1 : 4 * index + 5]
        label = label.strip()
        canonical = _FIXED_LABELS.get(label.lower())
        if index == 0 and (canonical is None or label == name):
            parsed.name_header = (line + below).rstrip()
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
            parsed.param_tail, parsed.params = _parse_param_section(bullet, inline, below)
            seen.add(canonical)
            continue
        seen.add(canonical)
        inline, body = inline.strip(), below.rstrip()[1:]
        content = f"{inline}\n{body}".strip() if inline else body.strip()
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


def _parse_param_section(
    bullet: re.Pattern, inline: str, below: str
) -> tuple[str, list[tuple[str, str]]]:
    tail_parts = [inline.strip()] if inline.strip() else []
    params: list[tuple[str, str]] = []
    for line in below.split("\n")[1:]:
        line = line.strip()
        if not line:
            continue
        match = bullet.match(line)
        if match:
            params.append((match.group(1).strip(), match.group(2).strip()))
        elif params:
            name, desc = params[-1]
            params[-1] = (name, f"{desc} {line}".strip())
        else:
            tail_parts.append(line)
    return " ".join(tail_parts), params


class DocRecord(NamedTuple):
    """One object's generated documentation: the text pages and prompts show."""

    text: str
    source_hash: str  # that of the source the text was generated from


def render_doc(
    name_header: str,
    param_label: str,
    param_tail: str,
    params: Iterable[tuple[str, str]],
    code_description: str,
    note: str,
    output_example: str | None,
) -> str:
    """Doc text with bold section labels, one blank line between sections."""
    parts: list[str] = []
    if name_header:
        parts.append(name_header)
    header = f"**{param_label}**:"
    if param_tail:
        header += f" {param_tail}"
    bullets = [f"- `{name}`: {desc}" for name, desc in params]
    parts.append("\n".join([header, *bullets]))
    if code_description:
        parts.append(f"**Code Description**: {code_description}")
    if note:
        parts.append(f"**Note**: {note}")
    if output_example:
        parts.append(f"**Output Example**: {output_example}")
    return "\n\n".join(parts)


def record_from_parsed(obj: CodeObject, parsed: ParsedDoc) -> DocRecord:
    """Build the stored record: parameters deduplicated first-wins, the kind's
    label when the doc gave none, and an Output Example only when the object
    returns."""
    params: dict[str, str] = {}
    for name, desc in parsed.params:
        params.setdefault(name, desc)
    text = render_doc(
        parsed.name_header,
        parsed.param_label or (ATTRIBUTE_LABEL if obj.kind == CLASS else PARAM_LABEL),
        parsed.param_tail,
        params.items(),
        parsed.code_description,
        parsed.note,
        parsed.output_example if obj.has_return else None,
    )
    return DocRecord(text, obj.source_hash)


def _record_of(version: int, data: dict) -> DocRecord:
    """The record a store of ``version`` holds as ``data``, less the model
    and time of generation that versions 1 to 4 held and nothing read. A
    missing key raises, and from version 2 on so does a key it does not hold."""
    if version < 5 and {type(data.pop("model")), type(data.pop("generated_at"))} != {str}:
        raise TypeError("a doc record holds a value that is not a string")
    if version > 1:
        return DocRecord(**data)
    # version 1 stored each doc as its sections, rules already applied
    text = render_doc(
        data["name_header"],
        data["param_label"],
        data.get("param_tail", ""),
        data["param_section"],
        data["code_description"],
        data["note"],
        data.get("output_example"),
    )
    return DocRecord(text, data["source_hash"])


def _children_in_source_order(graph_data: dict) -> None:
    # versions 1 and 2 sorted every child list by id and kept each object's
    # line span; a stable sort by start line gives the order of the source
    nodes = graph_data["nodes"]
    for entry in nodes.values():
        if entry["node_kind"] not in (REPO, DIR):
            entry["children"].sort(key=lambda oid: nodes[oid]["meta"]["line_span"][0])


# the file in a repository's git directory that holds the digest of the
# store last saved there; it never reaches a commit
SNAPSHOT_DIGEST_NAME = "repodoc-snapshot-digest"

# member lines of the store file joined into one block before it is written
_BLOCK_LINES = 128

# what json.dumps gives a string: each store line is a template of its bytes
_escape = encode_basestring_ascii


def _new_digest():
    """A SHA-256 fed the ``parser_identity`` and the store version; the
    store's bytes follow."""
    return hashlib.sha256(f"{parser_identity()} {STORE_VERSION}\n".encode("utf-8"))


class DocStore:
    """All doc records plus the graph snapshot of the last completed run.

    A store that ``load_store`` decoded lazily holds each node and record
    that the run has neither decoded nor set as its store line;
    ``save_store`` writes such a line as it is, unless a graph overlaid on
    the snapshot gives the node a value of its own."""

    def __init__(self, records=None, graph_snapshot=None, changed=False, digest=None):
        self.records: MutableMapping[str, DocRecord] = {} if records is None else records
        self.graph_snapshot: RepoGraph | None = graph_snapshot
        self.changed = changed  # set once it differs from the file it was loaded from
        # the SHA-256 over the parser_identity, the store version and the bytes
        # of the file it was loaded from or last saved to
        self.digest: str | None = digest
        # the ids of the records and graph nodes that generate_all changed
        self.edited: set[str] = set()
        # set by load_store when the git directory recorded the digest of the
        # file: this repository's repodoc saved it under the same parser and
        # Python, then wrote its pages, and nothing changed it since. Only
        # then may its snapshot lend files, and are the pages on disk its own.
        self.recorded = False

    def to_dict(self) -> dict:
        return {
            "version": STORE_VERSION,
            "records": {oid: self.records[oid]._asdict() for oid in sorted(self.records)},
            "graph": self.graph_snapshot.to_dict() if self.graph_snapshot else None,
        }


def _section(opener: bytes, chunks: Iterator[bytes], closer: bytes) -> Iterator[bytes]:
    """A JSON array or object with one member per line. Each chunk holds
    whole member lines, each ending in ``,\n``; the last comma goes."""
    previous = opener + b"\n"
    for chunk in chunks:
        yield previous
        previous = chunk
    if previous.endswith(b",\n"):
        previous = previous[:-2] + b"\n"
    yield previous + closer


def _chunks(keys: Iterable, line: Callable[..., str]) -> Iterator[bytes]:
    """The member lines ``line`` gives for ``keys``, each ending in a comma,
    in chunks."""
    keys = iter(keys)
    while batch := list(itertools.islice(keys, _BLOCK_LINES)):
        yield ("\n".join(map(line, batch)) + "\n").encode("ascii")


def _held_line(entries: Mapping, key: str) -> str | None:
    """The store line, ending in a comma, that ``entries`` still hold for
    ``key`` as loaded: None once the entry was decoded or set, or when an
    ``Overlay`` over them gives it a value of its own."""
    while type(entries) is Overlay:
        if key in entries.changes:
            return None
        entries = entries.base
    line = entries.held.get(key) if type(entries) is LazyEntries else None
    if type(line) is not str:
        return None
    return line if line.endswith(",") else line + ","


def _edge_line(edge: ReferenceEdge) -> str:
    # the fields in sorted order
    return f'{{"callee":{_escape(edge.callee)},"caller":{_escape(edge.caller)}}},'


def _node_line(graph: RepoGraph, node_id: str) -> str:
    # graph.node_entry(node_id), its keys and those of its meta in sorted order
    node = graph.nodes[node_id]
    fields = [] if node.blob is None else [f'"blob":{_escape(node.blob)}']
    fields.append(f'"children":[{",".join(map(_escape, node.children))}]')
    obj = graph.objects.get(node_id)
    if obj is not None:
        fields.append(
            f'"meta":{{"has_return":{"true" if obj.has_return else "false"},'
            f'"params":[{",".join(map(_escape, obj.params))}],'
            f'"parent_id":{_escape(obj.parent_id)},"source_hash":{_escape(obj.source_hash)}}}'
        )
    fields.append(f'"node_kind":{_escape(node.node_kind)}')
    if node.parse_error is not None:
        fields.append(f'"parse_error":{_escape(node.parse_error)}')
    return f'{_escape(node_id)}:{{{",".join(fields)}}},'


def _store_blocks(store: DocStore) -> Iterator[bytes]:
    """The bytes of ``store.to_dict()``: compact JSON with sorted keys, one
    line per record, node and edge, and a final newline, in blocks of lines.
    Neither the text nor the dict is held whole. A node or record still held
    as its store line is written as that line, the bytes its encode gives."""
    graph = store.graph_snapshot

    def node_line(node_id: str) -> str:
        # A node's line holds its object too, which changes only with it:
        # build_graph overlays both for each rebuilt id, and add_snippets
        # gives objects only the snippets that the store leaves out.
        line = _held_line(graph.nodes, node_id)
        return _node_line(graph, node_id) if line is None else line

    def record_line(oid: str) -> str:
        line = _held_line(store.records, oid)
        if line is None:
            text, source_hash = store.records[oid]
            return f'{_escape(oid)}:{{"source_hash":{_escape(source_hash)},"text":{_escape(text)}}},'
        return line

    if graph is None:
        yield b'{"graph":null'
    else:
        yield b'{"graph":{"edges":'
        yield from _section(b"[", _chunks(graph.edges, _edge_line), b"]")
        yield b',"nodes":'
        yield from _section(b"{", _chunks(sorted(graph.nodes), node_line), b"}")
        yield b',"removed_edges":'
        yield from _section(b"[", _chunks(graph.removed_edges, _edge_line), b"]}")
    yield b',"records":'
    yield from _section(b"{", _chunks(sorted(store.records), record_line), b"}")
    yield b',"version":%d}\n' % STORE_VERSION


def save_store(store: DocStore, path: str | Path, git_dir: Path | None = None) -> None:
    """Write the store atomically with ``write_atomically``, one line per
    record, node and edge (``_store_blocks``), and note the digest of the
    new file in ``store.digest``. Given the repository's ``git_dir``, first
    remove the digest recorded there, so that no run trusts the store until
    ``record_snapshot`` records it again, once the pages are written too.
    No file is read: the lines of the entries the run left are held."""
    path = Path(path)
    forget_snapshot(git_dir)
    digest = _new_digest()

    def blocks() -> Iterator[bytes]:
        for block in _store_blocks(store):
            digest.update(block)
            yield block

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomically(path, blocks())
    except OSError as exc:
        raise StoreWriteError(f"cannot write doc store {path}: {exc}") from exc
    store.digest = digest.hexdigest()


def forget_snapshot(git_dir: Path | None) -> None:
    """Remove the digest recorded in ``git_dir``, if any, before the store
    or a page changes."""
    if git_dir is not None:
        with contextlib.suppress(FileNotFoundError):
            (git_dir / SNAPSHOT_DIGEST_NAME).unlink()


def record_snapshot(store: DocStore, git_dir: Path | None) -> None:
    """Record in ``git_dir`` the digest of the file the store was last saved
    to, so that the next ``load_store`` of it is ``recorded``. Call it once
    the pages are written as well. A digest that cannot be written is
    logged."""
    if git_dir is None or store.digest is None or store.graph_snapshot is None:
        return
    digest_path = git_dir / SNAPSHOT_DIGEST_NAME
    try:
        write_atomically(digest_path, [store.digest.encode("ascii") + b"\n"])
    except OSError as exc:
        logger.info("snapshot digest %s not written: %s", digest_path, exc)


class LazyEntries(MutableMapping):
    """Entries by key, in the order given. ``held`` maps each key to its
    entry or, until the entry is first read, to its store line, a ``str``.
    ``decode(key, line)`` then stores the entry with ``settle``, in this
    mapping and in any other that holds the same line, so that a line is
    decoded once. Two threads that read a line first may both decode it,
    to equal entries."""

    def __init__(self, held: dict, decode: Callable[[str, str], None]) -> None:
        self.held = held
        self._decode = decode

    def __getitem__(self, key):
        value = self.held[key]
        if type(value) is str:
            self._decode(key, value)
            value = self.held[key]
        return value

    def settle(self, key: str, value) -> None:
        """Hold the decoded entry of ``key``, unless it was decoded or set."""
        if type(self.held.get(key)) is str:
            self.held[key] = value

    def __setitem__(self, key: str, value) -> None:
        self.held[key] = value

    def __delitem__(self, key: str) -> None:
        del self.held[key]

    def __contains__(self, key) -> bool:
        return key in self.held

    def __iter__(self) -> Iterator[str]:
        return iter(self.held)

    def __len__(self) -> int:
        return len(self.held)


_raw_decode = json.JSONDecoder().raw_decode


def _decode_entry(line: str) -> dict:
    """The value of one node or record line of the store, ``"<key>":<value>``
    with a comma after all but a section's last."""
    _, end = scanstring(line, 1)
    return _raw_decode(line, end + 1)[0]


def _indexed(lines: list[str]) -> dict[str, str]:
    """Node or record lines by key."""
    return {scanstring(line, 1)[0]: line for line in lines}


def _edges(lines: list[str]) -> list[ReferenceEdge]:
    return [ReferenceEdge(e["caller"], e["callee"]) for e in json.loads(f"[{''.join(lines)}]")]


# the lines that open and close the sections of a store with a graph
_SECTION_LINES = (
    '{"graph":{"edges":[',
    '],"nodes":{',
    '},"removed_edges":[',
    ']},"records":{',
    '},"version":%d}' % STORE_VERSION,
)


def _lazy_store(raw: bytes) -> DocStore | None:
    """The store of ``raw``, bytes that ``save_store`` wrote, or None when
    it holds no graph. Only the edges and the root, directory and file
    nodes are decoded; every other node and every record is held as its
    line and decoded on first read, so a run decodes the entries it reads,
    and a save writes each line the run did not set as it is."""
    lines = raw.decode("utf-8").split("\n")
    if lines[0] != _SECTION_LINES[0]:
        return None
    sections, start = [], 1
    for closer in _SECTION_LINES[1:]:
        end = lines.index(closer, start)
        sections.append(lines[start:end])
        start = end + 1
    edge_lines, node_lines, removed_lines, record_lines = sections
    del lines, sections
    node_items = _indexed(node_lines)
    tree: dict[str, TreeNode] = {}
    todo = [ROOT_ID]
    while todo:
        node_id = todo.pop()
        node = tree[node_id] = tree_node(node_id, _decode_entry(node_items[node_id]))
        if node.node_kind in (REPO, DIR):
            todo.extend(node.children)
    object_items = {oid: line for oid, line in node_items.items() if oid not in tree}
    node_items.update(tree)

    def decode_object(oid: str, line: str) -> None:
        entry = _decode_entry(line)
        nodes.settle(oid, tree_node(oid, entry))
        objects.settle(oid, CodeObject.from_dict(oid, entry["node_kind"], entry["meta"]))

    def decode_record(oid: str, line: str) -> None:
        records.settle(oid, DocRecord(**_decode_entry(line)))

    nodes = LazyEntries(node_items, decode_object)
    objects = LazyEntries(object_items, decode_object)
    records = LazyEntries(_indexed(record_lines), decode_record)
    edges, removed = _edges(edge_lines), _edges(removed_lines)
    graph = RepoGraph(
        nodes=nodes,
        objects=objects,
        edges=edges,
        removed_edges=removed,
        files=sorted(oid for oid, node in tree.items() if node.node_kind == FILE),
    )
    return DocStore(records=records, graph_snapshot=graph)


def load_store(path: str | Path, git_dir: Path | None = None) -> DocStore:
    """Load the store; a missing file is an empty store, and one that cannot
    be read or decoded a ``CorruptStoreError``.

    Stores of versions 1 to 4 are migrated in memory; the next save writes
    the current version. The digest of the file's bytes is taken as they
    are read. When ``git_dir`` records that digest, ``save_store`` wrote
    the bytes, each entry on a line of its own, and a store with a graph is
    decoded lazily (``_lazy_store``) and ``recorded``; otherwise it is
    decoded whole, and a broken entry raises here.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return DocStore()
    except OSError as exc:
        raise CorruptStoreError(f"cannot read doc store {path}: {exc}") from exc
    digest = _new_digest()
    digest.update(raw)
    recorded = None
    if git_dir is not None:
        with contextlib.suppress(OSError, ValueError):
            recorded = (git_dir / SNAPSHOT_DIGEST_NAME).read_text(encoding="utf-8")
    if recorded == digest.hexdigest() + "\n":
        try:
            store = _lazy_store(raw)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise CorruptStoreError(
                f"doc store {path} is unreadable ({exc}); delete it and rerun generate to rebuild"
            ) from exc
        if store is not None:
            store.digest, store.recorded = digest.hexdigest(), True
            return store
    try:
        text = raw.decode("utf-8")
        del raw
        data = json.loads(text)
        del text
        version = data.get("version")
        if version not in range(1, STORE_VERSION + 1):
            raise CorruptStoreError(
                f"doc store {path} has version {version}, expected {STORE_VERSION}; "
                "delete it and rerun generate to rebuild"
            )
        records = {oid: _record_of(version, rec) for oid, rec in data.get("records", {}).items()}
        if not all(type(value) is str for record in records.values() for value in record):
            raise TypeError("a doc record holds a value that is not a string")
        graph_data = data.get("graph")
        if graph_data and version < 3:
            _children_in_source_order(graph_data)
        graph = RepoGraph.from_dict(graph_data) if graph_data else None
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CorruptStoreError(
            f"doc store {path} is unreadable ({exc}); delete it and rerun generate to rebuild"
        ) from exc
    return DocStore(
        records=records,
        graph_snapshot=graph,
        changed=version != STORE_VERSION,
        digest=digest.hexdigest(),
    )


class RunReport:
    """Outcome of one generate/update run."""

    def __init__(self, skipped: list[str] | None = None) -> None:
        self.generated: list[str] = []  # completion order
        self.skipped: list[str] = [] if skipped is None else skipped
        self.failures: dict[str, str] = {}
        self.prompt_tokens = 0
        self.completion_tokens = 0

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


_HASH_KEY = '"source_hash":"'
_HASH_SPAN = len(_HASH_KEY) + 65  # the key, a SHA-256 hex digest and its closing quote


def _unmatched(
    objects: MutableMapping[str, CodeObject], records: MutableMapping[str, DocRecord]
) -> list[str]:
    """The ids of ``objects`` whose record is missing or may carry another
    source hash. Where both entries are still store lines, the lines are
    compared from the hash's key to the quote after a SHA-256 hex digest,
    with nothing decoded: a quote inside a string is escaped, so a line's
    one ``"source_hash":"`` opens its hash, and equal spans hold equal
    hashes."""
    lines = objects.held if isinstance(objects, LazyEntries) else {}
    record_lines = records.held if isinstance(records, LazyEntries) else {}
    unmatched = []
    for oid in objects:
        line, record_line = lines.get(oid), record_lines.get(oid)
        if type(line) is str and type(record_line) is str:
            start, record_start = line.find(_HASH_KEY), record_line.find(_HASH_KEY)
            if line[start : start + _HASH_SPAN] == record_line[record_start : record_start + _HASH_SPAN]:
                continue
        elif oid in records and records[oid].source_hash == objects[oid].source_hash:
            continue
        unmatched.append(oid)
    return unmatched


def stale_objects(
    graph: RepoGraph, store: DocStore, changes: ChangeSet, only: Iterable[str] | None = None
) -> set[str]:
    """The pending objects of ``graph`` among ``only``, by default among
    those that can be pending: the added and modified ones, the ends of the
    kept edges that changed, and the snapshot's objects whose record is
    missing or may carry another source hash, which ``_unmatched`` finds
    without decoding either entry. ``changes`` is ``diff_objects`` of the
    store's snapshot and ``graph``.

    An object is pending when there is no snapshot, it has no record, its
    record carries another source hash, or it is an end of a kept edge that
    changed: its doc is made from its source, callers and callees."""
    old, records, objects = store.graph_snapshot, store.records, graph.objects
    touched = changes.touched
    if only is None:
        only = {*changes.added, *changes.modified, *touched}
        if old is not None:
            only.update(_unmatched(old.objects, records))
    return {
        oid
        for oid in only
        if oid in objects
        and (
            old is None
            or oid in touched
            or oid not in records
            or records[oid].source_hash != objects[oid].source_hash
        )
    }


def _stale_prerequisites(graph: RepoGraph, store: DocStore, pending: set[str]) -> frozenset[str]:
    # The callees and children of pending objects whose docs are absent yet
    # will never be produced this run (a past run failed on them). Their
    # docs render as "None" instead of wedging every dependent forever.
    stale = {
        need
        for oid in pending
        for need in (*graph.callees(oid), *graph.nodes[oid].children)
        if need not in pending and need not in store.records
    }
    for oid in sorted(stale):
        logger.warning("doc for %s is missing and not scheduled; rendering None", oid)
    return frozenset(stale)


def _generator(
    graph: RepoGraph, gateway: Gateway, store: DocStore, config: Config
) -> Callable[[str, frozenset[str]], tuple[DocRecord, int, int] | OverBudgetError | ProviderError]:
    """The function that gives one object's record and token counts, or the
    error that failed it, given the ids whose docs render as "None".
    Generation's modules are imported here, once per run that has an object
    pending."""
    from .llm_gateway import CompletionRequest
    from .prompt_engine import assemble_context, fit_to_budget

    tiers, temperature = config.provider.tiers, config.provider.temperature
    reserve = config.completion_reserve_tokens

    def generate_one(object_id: str, allow_missing: frozenset[str]):
        obj = graph.objects[object_id]
        ctx = assemble_context(
            graph,
            store,
            object_id,
            child_docs_enabled=config.child_docs_enabled,
            doc_language=config.doc_language,
            allow_missing=allow_missing,
        )
        try:
            _, tier, prompt = fit_to_budget(ctx, tiers, reserve)
            request = CompletionRequest(tier.name, prompt, reserve, temperature)
            response = gateway.complete(request, context_id=object_id)
        except (OverBudgetError, ProviderError) as exc:
            return exc
        parsed = parse_doc(response.text, obj.kind, obj.has_return, obj.name)
        if parsed.missing or parsed.extra:
            logger.warning(
                "%s: non-compliant doc (missing=%s extra=%s)", object_id, parsed.missing, parsed.extra
            )
        record = record_from_parsed(obj, parsed)
        return record, response.prompt_tokens, response.completion_tokens

    return generate_one


def generate_all(
    graph: RepoGraph,
    gateway: Gateway | None,
    store: DocStore,
    config: Config,
    jobs: int,
    *,
    only: set[str] | None = None,
    changes: ChangeSet | None = None,
) -> RunReport:
    """Generate docs for every pending object (``stale_objects``), bottom-to-top.

    ``changes`` is ``diff_objects`` of the store's snapshot and ``graph``:
    ``generate`` and ``update`` compute it once per run and pass it here,
    and it is computed here when not given. ``only`` restricts generation to
    the pending objects among the given ids: ``generate`` passes its stale
    set, ``update`` the ids its plan regenerates. The other objects are
    skipped without any gateway call, and listed sorted by id. Failures are
    recorded and do not stop the run; dependents see "None" for a failed
    prerequisite.

    An object is dispatched once all of its pending callees and children
    have finished, the smallest id of those ready first (``kahn``), to at
    most ``jobs`` workers, so at most that many provider requests are in
    flight. With one job, or one object pending, it runs on the calling
    thread, so ``generated`` is ``topological_order`` of the pending ids;
    that function is not a step of the run, but the order the tests check
    it against, and the name the benchmark's tracer times as
    ``project_graph.topo``. A cycle left among the pending ids is an
    ``InternalError``. Workers only generate; this thread records every
    outcome. The settings of each request are read from ``config``, and
    ``gateway`` may be None when no object is pending.

    The records of objects the graph no longer holds are dropped. The store
    is marked changed when a doc was recorded or dropped, or when the graph
    is not the same as the old snapshot (``ChangeSet.same``); the graph then
    becomes the store's snapshot, and the ids of the records written and of
    the nodes that changed (``ChangeSet.nodes``) join ``store.edited``. An
    unchanged store keeps the snapshot it was loaded with, so it still
    matches its file.
    """
    objects = graph.objects
    if changes is None:
        changes = diff_objects(store.graph_snapshot, graph)
    pending = stale_objects(graph, store, changes, only)
    report = RunReport(skipped=sorted(oid for oid in objects if oid not in pending))
    ready, done = kahn(graph, pending)
    allow_missing = _stale_prerequisites(graph, store, pending)

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
        done(oid)

    jobs = max(1, min(jobs, len(pending)))
    generate_one = _generator(graph, gateway, store, config) if pending else None
    pool = None
    if jobs > 1:
        from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

        pool = ThreadPoolExecutor(max_workers=jobs)
    running: dict[Future, str] = {}
    try:
        while ready or running:
            while ready and len(running) < jobs:
                oid = heapq.heappop(ready)
                if pool is None:
                    finish(oid, generate_one(oid, allow_missing))
                else:
                    running[pool.submit(generate_one, oid, allow_missing)] = oid
            if running:
                finished, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in sorted(finished, key=running.__getitem__):
                    finish(running.pop(future), future.result())
    finally:
        if pool is not None:
            pool.shutdown()
    if len(report.generated) + len(report.failures) < len(pending):
        raise InternalError("cycle survived pruning; generation order undefined")

    gone = [oid for oid in store.records if oid not in objects]
    for oid in gone:
        del store.records[oid]
    store.changed = store.changed or bool(report.generated) or bool(gone) or not changes.same
    if not store.changed:
        return report
    store.edited.update(report.generated)
    store.edited |= changes.nodes
    store.graph_snapshot = graph
    return report
