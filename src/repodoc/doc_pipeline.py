"""Documentation generation pipeline and the persisted doc store.

Objects are generated bottom-to-top in topological order so every prompt can
embed the already-written docs of its callees and children. The store is one
JSON file holding all doc records plus the graph snapshot they were generated
against; it is the unit of persistence, diffing and Git tracking.
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import hashlib
import heapq
import itertools
import json
import logging
import os
import re
from collections.abc import MutableMapping
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from json.decoder import scanstring
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator

from .errors import CorruptStoreError, OverBudgetError, ProviderError, StoreWriteError
from .llm_gateway import CompletionRequest, Gateway
from .project_graph import (
    DIR,
    FILE,
    REPO,
    ROOT_ID,
    ReferenceEdge,
    RepoGraph,
    TreeNode,
    prerequisites,
    topological_order,
    tree_node,
)
from .prompt_engine import assemble_context, fit_to_budget
from .source_model import CLASS, CodeObject, parser_identity, write_atomically

if TYPE_CHECKING:
    from .config import Config

logger = logging.getLogger(__name__)

# Bump whenever the layout changes, the resolver may give other edges for
# the same parses, or pruning may keep other edges of the same edge set: an
# older store is migrated on load, and since the digest of its bytes is
# taken under the older version, no run reuses a file of it.
STORE_VERSION = 4

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


def parse_doc(text: str, kind: str, has_return: bool, name: str = "") -> ParsedDoc:
    """Split a generated doc into its bold-labelled sections.

    The first bold header is taken as the name header when its label is the
    object's ``name`` or is not one of the fixed section labels, so that the
    doc of an object named ``parameters`` or ``note`` is read alike. Fixed
    labels match case-insensitively. Non-compliance is reported, never raised.
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
        if index == 0 and (canonical is None or label == name):
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


# the file in a repository's git directory that holds the digest of the
# store last saved there; it never reaches a commit
SNAPSHOT_DIGEST_NAME = "repodoc-snapshot-digest"

# member lines of the store file joined into one block before it is written
_BLOCK_LINES = 128

_encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def _new_digest():
    """A SHA-256 fed the ``parser_identity`` and the store version; the
    store's bytes follow."""
    return hashlib.sha256(f"{parser_identity()} {STORE_VERSION}\n".encode("utf-8"))


@dataclass
class StoreFile:
    """The file a store was loaded from or last saved to, as ``save_store``
    copies lines from it: its (device, inode, size, mtime), the keys of its
    node and record lines in order, its numbers of kept and removed edge
    lines, and what in memory no longer matches it. ``generate_all`` notes
    the records it writes, the graph nodes whose entry changes, and whether
    the kept or removed edges change."""

    stat: tuple[int, int, int, int]
    node_ids: list[str]
    record_ids: list[str]
    edge_counts: tuple[int, int]
    edited_records: set[str] = field(default_factory=set)
    edited_nodes: set[str] = field(default_factory=set)
    edited_edges: bool = False

    def edited(self) -> set[str]:
        """The ids of the records and nodes that no longer match the file."""
        return self.edited_records | self.edited_nodes


@dataclass
class DocStore:
    """All doc records plus the graph snapshot of the last completed run."""

    records: MutableMapping[str, DocRecord] = field(default_factory=dict)
    graph_snapshot: RepoGraph | None = None
    changed: bool = False  # set once it differs from the file it was loaded from
    # the SHA-256 over the parser_identity, the store version and the bytes
    # of the file it was loaded from or last saved to
    digest: str | None = None
    # that file, when it holds a graph and the current version
    file: StoreFile | None = None

    def matches_file(self) -> bool:
        """Whether the store is exactly the file it was loaded from or last
        saved to: no record written or dropped, and no node or edge that
        differs, blob ids and parse errors included."""
        file = self.file
        return file is not None and not self.changed and not file.edited() and not file.edited_edges

    def to_dict(self) -> dict:
        return {
            "version": STORE_VERSION,
            "records": {oid: vars(self.records[oid]) for oid in sorted(self.records)},
            "graph": self.graph_snapshot.to_dict() if self.graph_snapshot else None,
        }


class _StaleFile(Exception):
    """The file to copy store lines from is not laid out as noted."""


def _file_stat(st: os.stat_result) -> tuple[int, int, int, int]:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


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


def _encoded(keys: Iterable, encode: Callable[..., bytes]) -> Iterator[bytes]:
    """The encoded member lines of ``keys``, in chunks."""
    keys = iter(keys)
    while batch := list(itertools.islice(keys, _BLOCK_LINES)):
        yield b",\n".join(map(encode, batch)) + b",\n"


def _copied(lines: Iterator[bytes], count: int) -> Iterator[bytes]:
    """The next ``count`` member lines of ``lines``, in chunks; a section's
    last line gets the comma the others have."""
    while count > 0:
        chunk = b"".join(itertools.islice(lines, min(count, _BLOCK_LINES)))
        count -= _BLOCK_LINES
        yield chunk if chunk.endswith(b",\n") else chunk[:-1] + b",\n"


def _skip(lines: Iterator[bytes], count: int) -> None:
    for _ in itertools.islice(lines, count):
        pass


def _keyed(
    lines: Iterator[bytes],
    old_keys: list[str],
    keys: list[str],
    edited: set[str],
    encode: Callable[[str], bytes],
) -> Iterator[bytes]:
    """The member lines of sorted ``keys``, in chunks. Each key's line is
    copied from ``lines``, the sorted section whose keys are ``old_keys``,
    unless the key is ``edited`` or not there; then it is encoded."""
    old = iter(old_keys)
    old_key = next(old, None)
    run = 0  # old lines to copy next
    fresh: list[str] = []  # keys to encode next
    for key in keys:
        while old_key is not None and old_key < key:  # an entry dropped since
            if run:
                yield from _copied(lines, run)
                run = 0
            _skip(lines, 1)
            old_key = next(old, None)
        if old_key == key and key not in edited:
            if fresh:
                yield from _encoded(fresh, encode)
                fresh = []
            run += 1
        else:
            if run:
                yield from _copied(lines, run)
                run = 0
            fresh.append(key)
            if old_key == key:
                _skip(lines, 1)
        if old_key == key:
            old_key = next(old, None)
    yield from _copied(lines, run)
    yield from _encoded(fresh, encode)
    if old_key is not None:
        _skip(lines, 1 + sum(1 for _ in old))


def _store_blocks(
    store: DocStore,
    node_ids: list[str],
    record_ids: list[str],
    old: BinaryIO | None = None,
) -> Iterator[bytes]:
    """The bytes of ``store.to_dict()``: compact JSON with sorted keys, one
    line per record, node and edge, and a final newline, in blocks of lines.
    ``node_ids`` and ``record_ids`` are the sorted keys. Neither the text
    nor the dict is held whole.

    ``old``, open at its start, is the file ``store.file`` notes, as this
    function wrote it. Each record and node line that ``store.file`` does
    not name as edited, and each edge line when the edges are unchanged, is
    then copied from it instead of encoded. Raises ``_StaleFile`` when the
    file is not laid out as noted."""
    graph = store.graph_snapshot
    carry = old is not None and graph is not None and store.file is not None
    lines: Iterator[bytes] = iter(old) if carry else iter(())
    # without a file to carry lines from, as if from an empty one
    base = store.file if carry else StoreFile((0, 0, 0, 0), [], [], (0, 0), edited_edges=True)

    def expect(line: bytes) -> None:
        if carry and next(lines, None) != line:
            raise _StaleFile(line)

    def edge_chunks(edges: list[ReferenceEdge], count: int) -> Iterator[bytes]:
        if not base.edited_edges:
            return _copied(lines, count)
        _skip(lines, count)
        return _encoded(edges, lambda e: _encode(vars(e)).encode("ascii"))

    def node_line(node_id: str) -> bytes:
        return f"{_encode(node_id)}:{_encode(graph.node_entry(node_id))}".encode("ascii")

    def record_line(oid: str) -> bytes:
        return f"{_encode(oid)}:{_encode(vars(store.records[oid]))}".encode("ascii")

    if graph is None:
        yield b'{"graph":null'
    else:
        kept_lines, removed_lines = base.edge_counts
        expect(b'{"graph":{"edges":[\n')
        yield b'{"graph":{"edges":'
        yield from _section(b"[", edge_chunks(graph.edges, kept_lines), b"]")
        expect(b'],"nodes":{\n')
        yield b',"nodes":'
        nodes = _keyed(lines, base.node_ids, node_ids, base.edited_nodes, node_line)
        yield from _section(b"{", nodes, b"}")
        expect(b'},"removed_edges":[\n')
        yield b',"removed_edges":'
        yield from _section(b"[", edge_chunks(graph.removed_edges, removed_lines), b"]}")
        expect(b']},"records":{\n')
    yield b',"records":'
    records = _keyed(lines, base.record_ids, record_ids, base.edited_records, record_line)
    yield from _section(b"{", records, b"}")
    expect(b'},"version":%d}\n' % STORE_VERSION)
    yield b',"version":%d}\n' % STORE_VERSION


def save_store(store: DocStore, path: str | Path, git_dir: Path | None = None) -> None:
    """Write the store atomically with ``write_atomically``, one line per
    record, node and edge (``_store_blocks``), and note the new file in
    ``store.digest`` and ``store.file``.

    Given the repository's ``git_dir``, first remove the digest recorded
    there, so that no run trusts the store until ``record_snapshot``
    records it again, once the pages are written too. When that digest was
    the one of the file being replaced, and the file is still the one
    ``store.file`` notes, the lines of the entries that did not change are
    copied from it. The bytes are those of a full encode either way."""
    path = Path(path)
    graph = store.graph_snapshot
    node_ids = sorted(graph.nodes) if graph is not None else []
    record_ids = sorted(store.records)
    with contextlib.ExitStack() as stack:
        old = None
        if store.file is not None and snapshot_is_recorded(store, git_dir):
            with contextlib.suppress(OSError):
                old = stack.enter_context(path.open("rb"))
                if _file_stat(os.fstat(old.fileno())) != store.file.stat:
                    old = None
        forget_snapshot(git_dir)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                digest = _write_store(store, path, node_ids, record_ids, old)
            except _StaleFile:
                logger.info("doc store %s changed since it was read; encoding it whole", path)
                digest = _write_store(store, path, node_ids, record_ids, None)
            stat = _file_stat(path.stat())
        except OSError as exc:
            raise StoreWriteError(f"cannot write doc store {path}: {exc}") from exc
    store.digest = digest
    store.file = None
    if graph is not None:
        edge_counts = (len(graph.edges), len(graph.removed_edges))
        store.file = StoreFile(stat, node_ids, record_ids, edge_counts)


def _write_store(
    store: DocStore,
    path: Path,
    node_ids: list[str],
    record_ids: list[str],
    old: BinaryIO | None,
) -> str:
    """Write the store's blocks to ``path``; returns their digest."""
    digest = _new_digest()

    def blocks() -> Iterator[bytes]:
        for block in _store_blocks(store, node_ids, record_ids, old):
            digest.update(block)
            yield block

    write_atomically(path, blocks())
    return digest.hexdigest()


def forget_snapshot(git_dir: Path | None) -> None:
    """Remove the digest recorded in ``git_dir``, if any, before the store
    or a page changes."""
    if git_dir is not None:
        with contextlib.suppress(FileNotFoundError):
            (git_dir / SNAPSHOT_DIGEST_NAME).unlink()


def record_snapshot(store: DocStore, git_dir: Path | None) -> None:
    """Record in ``git_dir`` the digest of the file the store was last saved
    to, so that ``snapshot_is_recorded`` holds. Call it once the pages are
    written as well. A digest that cannot be written is logged."""
    if git_dir is None or store.digest is None or store.graph_snapshot is None:
        return
    digest_path = git_dir / SNAPSHOT_DIGEST_NAME
    try:
        write_atomically(digest_path, [store.digest.encode("ascii") + b"\n"])
    except OSError as exc:
        logger.info("snapshot digest %s not written: %s", digest_path, exc)


def snapshot_is_recorded(store: DocStore, git_dir: Path | None) -> bool:
    """Whether ``git_dir`` records the digest of the file the store was
    loaded from: a SHA-256 over the ``parser_identity``, the store version
    and the file's bytes.

    Only such a snapshot may lend ``generate`` and the hook its files'
    objects and edges, and only then are the pages on disk those of the
    store: this repository's repodoc saved it under the same parser and
    Python and then wrote its pages, and it was not merged, checked out or
    edited since. Outside a Git repository no snapshot is recorded.
    """
    return store.graph_snapshot is not None and _digest_recorded(store.digest, git_dir)


def _digest_recorded(digest: str | None, git_dir: Path | None) -> bool:
    if digest is None or git_dir is None:
        return False
    try:
        recorded = (git_dir / SNAPSHOT_DIGEST_NAME).read_text(encoding="utf-8")
    except (OSError, ValueError):
        return False
    return recorded == digest + "\n"


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
    """Node or record lines by key. A key is read up to the first quote,
    unless it holds an escape: then the quote may be escaped as well."""
    items = {line[1 : line.index('"', 1)]: line for line in lines}
    if "\\" in "".join(items):
        items = {scanstring(line, 1)[0]: line for line in lines}
    return items


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


def _lazy_store(raw: bytes, stat: tuple[int, int, int, int]) -> DocStore | None:
    """The store of ``raw``, bytes that ``save_store`` wrote, or None when
    it holds no graph. Only the edges and the root, directory and file
    nodes are decoded; every other node and every record is held as its
    line and decoded on first read, so a run decodes the entries it reads."""
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
    file = StoreFile(stat, list(node_items), list(records), (len(edges), len(removed)))
    return DocStore(records=records, graph_snapshot=graph, file=file)


def load_store(path: str | Path, git_dir: Path | None = None) -> DocStore:
    """Load the store; a missing file is an empty store, a broken one an error.

    Stores of versions 1 to 3 are migrated in memory; the next save writes
    the current version. The digest of the file's bytes is taken as they
    are read. When ``git_dir`` records that digest, ``save_store`` wrote
    the bytes, each entry on a line of its own, and the store is decoded
    lazily (``_lazy_store``); otherwise it is decoded whole, and a broken
    entry raises here.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            stat = _file_stat(os.fstat(handle.fileno()))
            raw = handle.read()
    except FileNotFoundError:
        return DocStore()
    digest = _new_digest()
    digest.update(raw)
    if _digest_recorded(digest.hexdigest(), git_dir):
        try:
            store = _lazy_store(raw, stat)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise CorruptStoreError(
                f"doc store {path} is unreadable ({exc}); delete it and rerun generate to rebuild"
            ) from exc
        if store is not None:
            store.digest = digest.hexdigest()
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
        records = {
            oid: _record_from_v1(rec) if version == 1 else DocRecord(**rec)
            for oid, rec in data.get("records", {}).items()
        }
        graph_data = data.get("graph")
        if graph_data and version < 3:
            _children_in_source_order(graph_data)
        graph = RepoGraph.from_dict(graph_data) if graph_data else None
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CorruptStoreError(
            f"doc store {path} is unreadable ({exc}); delete it and rerun generate to rebuild"
        ) from exc
    file = None
    if version == STORE_VERSION and graph is not None:
        edge_counts = (len(graph.edges), len(graph.removed_edges))
        file = StoreFile(stat, list(graph_data["nodes"]), list(records), edge_counts)
    return DocStore(
        records=records,
        graph_snapshot=graph,
        changed=version != STORE_VERSION,
        digest=digest.hexdigest(),
        file=file,
    )


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


def up_to_date(graph: RepoGraph, store: DocStore, object_id: str) -> bool:
    """Whether ``generate_all`` skips the object: its record has its source
    hash, and its callers and callees are those of the stored snapshot."""
    record = store.records.get(object_id)
    if record is None:
        return False
    if record.source_hash != graph.objects[object_id].source_hash:
        return False
    return _reference_sets_unchanged(graph, store.graph_snapshot, object_id)


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


def stale_objects(graph: RepoGraph, store: DocStore) -> set[str]:
    """The objects of ``graph`` that are not ``up_to_date``.

    When the graph overlays the store's snapshot, only three kinds of
    object can be stale, and only these are checked: the rebuilt ones, the
    ends of the kept edges that changed, and the snapshot's objects whose
    record is missing or carries another source hash, which ``_unmatched``
    finds without decoding either entry."""
    old = store.graph_snapshot
    if old is None or graph.base is not old:
        candidates: Iterable[str] = graph.objects
    else:
        candidates = {oid for oid in graph.rebuilt if oid in graph.objects}
        if graph.edges != old.edges:
            for edge in set(graph.edges).symmetric_difference(old.edges):
                candidates.update((edge.caller, edge.callee))
        candidates.update(_unmatched(old.objects, store.records))
    return {oid for oid in candidates if not up_to_date(graph, store, oid)}


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
        _, tier, prompt = fit_to_budget(ctx, config.provider.tiers, reserve)
        request = CompletionRequest(
            model=tier.name,
            prompt=prompt,
            max_completion_tokens=reserve,
            temperature=config.provider.temperature,
        )
        response = gateway.complete(request, context_id=object_id)
    except (OverBudgetError, ProviderError) as exc:
        return exc
    parsed = parse_doc(response.text, obj.kind, obj.has_return, obj.name)
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
    snapshot) are skipped without any gateway call, and listed sorted by id.
    Failures are recorded and do not stop the run; dependents see "None" for
    a failed prerequisite. ``only`` restricts generation to the given ids
    (used by updates).

    The pending objects are ordered by ``topological_order`` over their own
    edges and containment. An object is dispatched once all of its pending
    callees and children have finished, earliest in that order first, to at
    most ``jobs`` workers, so at most that many provider requests are in
    flight. With one job it runs on the calling thread, so ``generated`` is
    that order. Workers only generate; this thread records every outcome.
    The settings of each request are read from ``config``.

    The graph then becomes the store's snapshot, and the records of objects
    it no longer holds are dropped. The store is marked changed when a doc
    was recorded or dropped, or when the graph differs from the old snapshot
    in more than its files' blob ids and parse errors.
    """
    objects = graph.objects
    pending = {
        oid
        for oid in (objects if only is None else only)
        if oid in objects and not up_to_date(graph, store, oid)
    }
    order = topological_order(graph, pending)
    report = RunReport(skipped=sorted(oid for oid in objects if oid not in pending))
    rank = {oid: index for index, oid in enumerate(order)}
    blockers = dict.fromkeys(order, 0)
    dependents: dict[str, list[str]] = {oid: [] for oid in order}
    for need, oid in prerequisites(graph, rank):
        blockers[oid] += 1
        dependents[need].append(oid)
    ready = [rank[oid] for oid in order if not blockers[oid]]
    heapq.heapify(ready)
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
                oid = order[heapq.heappop(ready)]
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

    old = store.graph_snapshot
    gone = [oid for oid in store.records if oid not in objects]
    for oid in gone:
        del store.records[oid]
    changed_nodes = set(graph.nodes) if old is None else graph.changed_nodes(old)
    store.changed = (
        store.changed
        or bool(report.generated)
        or bool(gone)
        or old is None
        or not graph.same_as(old, changed_nodes)
    )
    if store.file is not None:
        store.file.edited_records.update(report.generated)
        store.file.edited_nodes |= changed_nodes
        store.file.edited_edges = (
            store.file.edited_edges
            or old is None
            or graph.edges != old.edges
            or graph.removed_edges != old.removed_edges
        )
    store.graph_snapshot = graph
    return report
