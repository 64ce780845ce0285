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
import signal
from collections.abc import Mapping, MutableMapping
from json.decoder import scanstring
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .errors import CorruptStoreError, OverBudgetError, ProviderError, StoreWriteError
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
    child_name,
    kahn,
    topological_order,
)
from .source_model import CLASS, FUNCTION, CodeObject, base64url, parser_identity, write_atomically

if TYPE_CHECKING:
    from concurrent.futures import Future

    from .config import Config
    from .llm_gateway import Gateway

logger = logging.getLogger(__name__)

# Bump whenever the layout changes, the resolver may give other edges for
# the same parses, or pruning may keep other edges of the same edge set: an
# older store is migrated on load, and since the digest of its bytes is
# taken under the older version, no run reuses a file of it.
STORE_VERSION = 7

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


def _upgrade(version: int, data: dict) -> None:
    """Give the decoded ``data`` of a store of ``version``, 1 to 6, the form
    of version 7, which ``load_store`` reads, in place: each record the list
    of its text and source hash, less the model and time of generation that
    versions 1 to 4 held and nothing read, each child list in source order
    and by name, and each source hash, of a record or an object, the
    base64url of the bytes its hex digest spells, so that the same sources
    match it again. A record that lacks a value raises, and from version 2
    on so does one that holds another."""
    records = data.get("records", {})
    for oid, record in records.items():
        if version < 5 and {type(record.pop("model")), type(record.pop("generated_at"))} != {str}:
            raise TypeError("a doc record holds a value that is not a string")
        if version == 1:
            # version 1 stored each doc as its sections, rules already applied
            text = render_doc(
                record["name_header"],
                record["param_label"],
                record.get("param_tail", ""),
                record["param_section"],
                record["code_description"],
                record["note"],
                record.get("output_example"),
            )
            record = {"text": text, "source_hash": record["source_hash"]}
        text, source_hash = DocRecord(**record)
        if version < 6:
            source_hash = base64url(bytes.fromhex(source_hash))
        records[oid] = [text, source_hash]
    if version > 5:
        return  # a node of version 6 reads as one of version 7
    nodes = (data.get("graph") or {}).get("nodes", {})
    for entry in nodes.values():
        children = entry["children"]
        if version < 3 and entry["node_kind"] not in (REPO, DIR):
            # versions 1 and 2 sorted every child list by id and kept each
            # object's line span; a stable sort by start line gives the
            # order of the source
            children.sort(key=lambda oid: nodes[oid]["meta"]["line_span"][0])
        entry["children"] = [child_name(child) for child in children]
        if "meta" in entry:
            entry["meta"]["source_hash"] = base64url(bytes.fromhex(entry["meta"]["source_hash"]))


# the file in a repository's git directory that holds the digest of the
# store last saved there; it never reaches a commit
SNAPSHOT_DIGEST_NAME = "repodoc-snapshot-digest"

# member lines of the store file joined into one block before it is written
_BLOCK_LINES = 128

# the lines that open and close the sections of a store with a graph, and
# the first line of one without
_SECTION_LINES = (
    '{"graph":{"edges":[',
    '],"nodes":{',
    '},"removed_edges":[',
    ']},"records":{',
    '},"version":%d}' % STORE_VERSION,
)
_NULL_GRAPH_LINE = '{"graph":null,"records":{'

# what json.dumps gives a string with ensure_ascii off: each store line is a
# template of its text, written in UTF-8 (``_chunks``)
_escape = encode_basestring


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


def _chunks(keys: Iterable, line: Callable[..., str]) -> Iterator[bytes]:
    """The member lines ``line`` gives for ``keys``, each ending in a comma,
    in chunks of UTF-8. A lone surrogate, which UTF-8 cannot encode, is
    written as the JSON escape of its code point, which reads it back."""
    keys = iter(keys)
    while batch := list(itertools.islice(keys, _BLOCK_LINES)):
        yield ("\n".join(map(line, batch)) + "\n").encode("utf-8", "backslashreplace")


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


def _node_line(graph: RepoGraph, node_id: str, record_hash: str | None) -> str:
    """A node's store line, the one encoding of a node: ``"<id>":`` and
    its compact JSON with sorted keys, ending in a comma. It states the
    node's kind, left out for a function, which has an object, and, as it
    has them, its children by name, its object's ``meta``, its blob id and
    its parse error. The meta holds what the node does not state of the
    object, its source hash standing in for the snippet, and leaves out
    empty params, a false ``has_return`` and a source hash that is
    ``record_hash``, the one its doc record states. ``_node_of`` reads it,
    and ``graph_dict`` decodes it."""
    node = graph.nodes[node_id]
    fields = [] if node.blob is None else [f'"blob":{_escape(node.blob)}']
    if node.children:
        names = ",".join([_escape(child_name(child)) for child in node.children])
        fields.append(f'"children":[{names}]')
    obj = graph.objects.get(node_id)
    if obj is not None:
        meta = '"meta":{"has_return":true,' if obj.has_return else '"meta":{'
        if obj.params:
            meta += f'"params":[{",".join(map(_escape, obj.params))}],'
        meta += f'"parent_id":{_escape(obj.parent_id)}'
        if obj.source_hash != record_hash:
            meta += f',"source_hash":{_escape(obj.source_hash)}'
        fields.append(meta + "}")
    if obj is None or node.node_kind != FUNCTION:
        fields.append(f'"node_kind":{_escape(node.node_kind)}')
    if node.parse_error is not None:
        fields.append(f'"parse_error":{_escape(node.parse_error)}')
    return f'{_escape(node_id)}:{{{",".join(fields)}}},'


def graph_dict(graph: RepoGraph) -> dict:
    """The graph as plain data, as ``repodoc graph`` prints it: each node
    its store line decoded, every source hash stated. ``graph_of`` reads it
    back."""
    return {
        "nodes": {nid: _decode_entry(_node_line(graph, nid, None)) for nid in sorted(graph.nodes)},
        "edges": [edge._asdict() for edge in graph.edges],
        "removed_edges": [edge._asdict() for edge in graph.removed_edges],
    }


def _store_blocks(store: DocStore) -> Iterator[bytes]:
    """The bytes of the store: compact JSON with sorted keys, one line per
    record (the list of its text and source hash), node (``_node_line``,
    less the source hash its record states) and edge, each section opened
    and closed by the lines of ``_SECTION_LINES``, and a final newline, in
    blocks of lines. The text is never held whole. A node or record still
    held as its store line is written as that line, the bytes its encode
    gives, but for the node of a record set or dropped since the load."""
    graph, records = store.graph_snapshot, store.records
    records_edited = records.edited if type(records) is LazyEntries else ()

    def node_line(node_id: str) -> str:
        # A node's line holds its object too, which changes only with it:
        # build_graph overlays both for each rebuilt id, and add_snippets
        # gives objects only the snippets that the store leaves out. It
        # also states the object's source hash unless its record does, so
        # the node of a record that the run set or dropped is encoded.
        line = _held_line(graph.nodes, node_id)
        if line is None or node_id in records_edited:
            record = records.get(node_id)
            return _node_line(graph, node_id, None if record is None else record.source_hash)
        return line

    def record_line(oid: str) -> str:
        line = _held_line(records, oid)
        if line is None:
            text, source_hash = records[oid]
            return f"{_escape(oid)}:[{_escape(text)},{_escape(source_hash)}],"
        return line

    record_chunks = _chunks(sorted(records), record_line)
    if graph is None:
        lines, sections = (_NULL_GRAPH_LINE, _SECTION_LINES[-1]), [record_chunks]
    else:
        lines, sections = _SECTION_LINES, [
            _chunks(graph.edges, _edge_line),
            _chunks(sorted(graph.nodes), node_line),
            _chunks(graph.removed_edges, _edge_line),
            record_chunks,
        ]
    # each chunk holds whole member lines, each ending in ",\n": the last
    # one's comma goes before the line that closes its section
    previous = lines[0].encode("ascii") + b"\n"
    for chunks, closer in zip(sections, lines[1:]):
        for chunk in chunks:
            yield previous
            previous = chunk
        if previous.endswith(b",\n"):
            previous = previous[:-2] + b"\n"
        previous += closer.encode("ascii") + b"\n"
    yield previous


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
    to equal entries. ``edited`` names the keys set or deleted."""

    def __init__(self, held: dict, decode: Callable[[str, str], None]) -> None:
        self.held = held
        self._decode = decode
        self.edited: set[str] = set()

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
        self.edited.add(key)

    def __delitem__(self, key: str) -> None:
        del self.held[key]
        self.edited.add(key)

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


def _edges(items: Iterable[dict]) -> list[ReferenceEdge]:
    return [ReferenceEdge(edge["caller"], edge["callee"]) for edge in items]


def _node_of(
    node_id: str, entry: dict, record_hash: str | None
) -> tuple[TreeNode, CodeObject | None]:
    """The tree node of a decoded ``_node_line``, its children by id, and
    its object, or None when it has no meta. The object's source hash is
    ``record_hash`` unless the meta states one; it has no text, so no
    snippet."""
    meta = entry.get("meta")
    kind = entry["node_kind"] if meta is None else entry.get("node_kind", FUNCTION)
    prefix = "" if node_id == ROOT_ID else node_id + "/"
    children = [prefix + name for name in entry.get("children", ())]
    node = TreeNode(node_id, kind, children, entry.get("blob"), entry.get("parse_error"))
    if meta is None:
        return node, None
    source_hash = meta.get("source_hash", record_hash)
    if type(source_hash) is not str:
        raise TypeError(f"{node_id} states no source hash")
    params, has_return = tuple(meta.get("params", ())), bool(meta.get("has_return", False))
    name, parent_id = child_name(node_id), meta["parent_id"]
    return node, CodeObject(node_id, kind, name, (0, 0, 0), "", params, has_return, parent_id, source_hash)


def graph_of(data: dict, record_hashes: Mapping[str, str] | None = None) -> RepoGraph:
    """The graph of a store's decoded ``graph`` section, or of
    ``graph_dict``: each object's source hash is that of its node, or else
    the one ``record_hashes`` states for its id."""
    hashes = record_hashes or {}
    nodes: dict[str, TreeNode] = {}
    objects: dict[str, CodeObject] = {}
    for node_id, entry in data.get("nodes", {}).items():
        nodes[node_id], obj = _node_of(node_id, entry, hashes.get(node_id))
        if obj is not None:
            objects[node_id] = obj
    edges, removed = _edges(data.get("edges", [])), _edges(data.get("removed_edges", []))
    return RepoGraph(nodes=nodes, objects=objects, edges=edges, removed_edges=removed)


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
        node = tree[node_id] = _node_of(node_id, _decode_entry(node_items[node_id]), None)[0]
        if node.node_kind in (REPO, DIR):
            todo.extend(node.children)
    object_items = {oid: line for oid, line in node_items.items() if oid not in tree}
    node_items.update(tree)
    # the record lines as loaded, whatever records the run sets
    record_items = _indexed(record_lines)

    def decode_object(oid: str, line: str) -> None:
        entry, record_hash = _decode_entry(line), None
        if "source_hash" not in entry["meta"]:
            # the hash that the line of its record states
            record = DocRecord(*_decode_entry(record_items[oid]))
            records.settle(oid, record)
            record_hash = record.source_hash
        node, obj = _node_of(oid, entry, record_hash)
        nodes.settle(oid, node)
        objects.settle(oid, obj)

    def decode_record(oid: str, line: str) -> None:
        records.settle(oid, DocRecord(*_decode_entry(line)))

    nodes = LazyEntries(node_items, decode_object)
    objects = LazyEntries(object_items, decode_object)
    records = LazyEntries(dict(record_items), decode_record)
    edges = _edges(json.loads(f"[{''.join(edge_lines)}]"))
    removed = _edges(json.loads(f"[{''.join(removed_lines)}]"))
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

    Stores of versions 1 to 6 are migrated in memory (``_upgrade``); the
    next save writes the current version. The digest of the file's bytes is
    taken as they are read. When ``git_dir`` records that digest,
    ``save_store`` wrote the bytes, each entry on a line of its own, and a
    store with a graph is decoded lazily (``_lazy_store``) and
    ``recorded``; otherwise it is decoded whole, and a broken entry raises
    here.
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
    try:
        if recorded == digest.hexdigest() + "\n":
            store = _lazy_store(raw)
            if store is not None:
                store.digest, store.recorded = digest.hexdigest(), True
                return store
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
        if version < STORE_VERSION:
            _upgrade(version, data)
        records = {}
        for oid, record in data.get("records", {}).items():
            if type(record) is not list or not all(type(value) is str for value in record):
                raise TypeError("a doc record is not a list of strings")
            records[oid] = DocRecord(*record)
        graph_data = data.get("graph")
        hashes = {oid: record.source_hash for oid, record in records.items()}
        graph = graph_of(graph_data, hashes) if graph_data else None
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


_HASH_KEY = '"source_hash":'


def _unmatched(
    objects: MutableMapping[str, CodeObject], records: MutableMapping[str, DocRecord]
) -> list[str]:
    """The ids of ``objects`` whose record is missing or may carry another
    source hash. An object still held as its store line, with no
    ``"source_hash":`` in it, has a record that states its hash
    (``save_store``), so it is matched with nothing decoded: a quote inside
    a string is escaped, so only the key can spell it."""
    lines = objects.held if isinstance(objects, LazyEntries) else {}
    unmatched = []
    for oid in objects:
        if oid not in records:
            unmatched.append(oid)
            continue
        line = lines.get(oid)
        if type(line) is str and _HASH_KEY not in line:
            continue
        if records[oid].source_hash != objects[oid].source_hash:
            unmatched.append(oid)
    return unmatched


def stale_objects(graph: RepoGraph, store: DocStore, changes: ChangeSet) -> set[str]:
    """The objects of ``graph`` whose doc the run regenerates: the one
    regeneration rule of ``generate`` and ``update``. ``changes`` is
    ``diff_objects`` of the store's snapshot and ``graph``.

    Without a snapshot every object is pending. Otherwise an object is
    pending when its record is missing or was made from another source, as
    a failed run leaves it, and so is each kept callee of an edge added or
    removed, whose doc names its callers. Only the records of the modified
    and added objects are compared here; every other object has the
    snapshot's source hash, matched by ``_unmatched`` without decoding a
    line that shows the match."""
    old, records, objects = store.graph_snapshot, store.records, graph.objects
    if old is None:
        return set(objects)
    modified = set(changes.modified)
    pending = {
        oid for oid in _unmatched(old.objects, records) if oid in objects and oid not in modified
    }
    pending.update(
        oid
        for oid in (*changes.modified, *changes.added)
        if oid not in records or records[oid].source_hash != objects[oid].source_hash
    )
    pending.update(
        callee
        for _, callee in (*changes.edge_added, *changes.edge_removed)
        if callee in objects
    )
    return pending


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
    pending: set[str],
    changes: ChangeSet,
) -> RunReport:
    """Generate docs for the ``pending`` objects, bottom-to-top.

    The caller decides the run's work: ``changes`` is ``diff_objects`` of
    the store's snapshot and ``graph``, and ``pending`` is ``stale_objects``
    of both (``change_tracker.document``, for ``generate`` and ``update``
    alike), so every object without a record is pending. The other objects
    are skipped without any gateway call, and listed sorted by id. Failures
    are recorded and do not stop the run; dependents see "None" for a
    failed prerequisite. A failed object whose record states its source
    was pending for a caller added or removed alone: its record keeps the
    text under no source hash, so the next run finds it pending again.

    The pending ids are put in ``topological_order`` first, which raises
    ``InternalError`` for a cycle left among them before any request. With
    one job, or one object pending, they run in that order on the calling
    thread. Otherwise an object is dispatched once all of its pending
    callees and children have finished, the smallest id of those ready
    first (``kahn``), to at most ``jobs`` workers, so at most that many
    provider requests are in flight. Workers only generate;
    this thread records every outcome. The settings of each request are
    read from ``config``, and ``gateway`` may be None when no object is
    pending.

    Ctrl-C and SIGTERM are held, by this thread and so by the workers it
    starts, from before the first dispatch until the requests in flight
    have finished, the pool's shutdown included. One rule stops the run:
    once either is pending, before a dispatch or before the outcomes of a
    request or of a ``wait`` are recorded, a ``KeyboardInterrupt``
    propagates, those outcomes unrecorded and the store untouched on disk.

    The records of objects the graph no longer holds are dropped. The store
    is marked changed when a doc was recorded or dropped, or when the graph
    is not the same as the old snapshot (``ChangeSet.same``); the graph then
    becomes the store's snapshot, and the ids of the records written and of
    the nodes that changed (``ChangeSet.nodes``) join ``store.edited``. An
    unchanged store keeps the snapshot it was loaded with, so it still
    matches its file.
    """
    objects = graph.objects
    report = RunReport(skipped=sorted(oid for oid in objects if oid not in pending))
    allow_missing = frozenset()

    def finish(oid: str, outcome) -> None:
        nonlocal allow_missing
        if isinstance(outcome, Exception):
            allow_missing = allow_missing | {oid}
            report.failures[oid] = str(outcome)
            logger.error("generation failed for %s: %s", oid, outcome)
            record = store.records.get(oid)
            if record is not None and record.source_hash == objects[oid].source_hash:
                # pending only for a caller added or removed, which the
                # snapshot saved with it holds: a record of no source keeps
                # the text and leaves the object pending on the next run
                store.records[oid] = DocRecord(record.text, "")
                store.edited.add(oid)
                store.changed = True
        else:
            record, ptok, ctok = outcome
            store.records[oid] = record
            report.generated.append(oid)
            report.prompt_tokens += ptok
            report.completion_tokens += ctok

    interrupts = {signal.SIGINT, signal.SIGTERM}

    def stop_if_interrupted() -> None:
        # raised even if the handler, run when the mask is restored, raises nothing
        if interrupts & signal.sigpending():
            raise KeyboardInterrupt

    order = topological_order(graph, pending)
    jobs = max(1, min(jobs, len(pending)))
    generate_one = _generator(graph, gateway, store, config) if pending else None
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, interrupts)
    try:
        if jobs == 1:
            for oid in order:
                stop_if_interrupted()
                outcome = generate_one(oid, allow_missing)
                stop_if_interrupted()
                finish(oid, outcome)
        else:
            from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

            ready, done = kahn(graph, pending)
            running: dict[Future, str] = {}
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                while ready or running:
                    while ready and len(running) < jobs:
                        stop_if_interrupted()
                        oid = heapq.heappop(ready)
                        running[pool.submit(generate_one, oid, allow_missing)] = oid
                    finished, _ = wait(running, return_when=FIRST_COMPLETED)
                    stop_if_interrupted()
                    for future in sorted(finished, key=running.__getitem__):
                        oid = running.pop(future)
                        finish(oid, future.result())
                        done(oid)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)

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
