"""Project tree plus caller/callee reference graph.

The tree mirrors the directory layout (Repo -> Dir -> File -> Class/Function).
Reference edges connect caller objects to callee objects and are pruned to a
DAG so that a bottom-to-top generation order always exists.
"""

from __future__ import annotations

import heapq
from collections.abc import MutableMapping
from functools import cached_property
from pathlib import PurePosixPath
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import InternalError
from .source_model import (
    CLASS,
    FUNCTION,
    CallSite,
    CodeObject,
    FileParse,
    ParseCache,
    Sources,
    module_name_for,
    parse_repository,
)

REPO = "Repo"
DIR = "Dir"
FILE = "File"

ROOT_ID = "."

_RECEIVERS = ("self", "cls")


class TreeNode:
    """One node of the project tree: the root, a directory, a file or an object."""

    __slots__ = ("id", "node_kind", "children", "blob", "parse_error")

    def __init__(
        self,
        id: str,
        node_kind: str,
        children: list[str] | None = None,
        blob: str | None = None,
        parse_error: str | None = None,
    ) -> None:
        self.id = id
        self.node_kind = node_kind  # REPO, DIR, FILE, CLASS or FUNCTION
        self.children: list[str] = [] if children is None else children
        # a file's Git blob id, when known, and its parse error, if any
        self.blob = blob
        self.parse_error = parse_error


class ReferenceEdge(NamedTuple):
    caller: str
    callee: str


class Unresolved(NamedTuple):
    """A call site of ``file`` that resolves to no object of the repository:
    a small record until a report writes it as ``str`` gives it."""

    file: str
    call: CallSite

    def __str__(self) -> str:
        file, (caller, chain, line) = self
        return f"{file}:{line}: unresolved call {'.'.join(chain)} (caller {caller})"


def build_tree(files: Sequence[str], parses: Sequence[FileParse]) -> dict[str, TreeNode]:
    """Tree nodes for the repo root, directories, files and parsed objects.

    The root and each directory list their children sorted; a file and an
    object list theirs in source order, the order of ``parse.objects``. A
    file's node takes its blob id and parse error from its parse.
    """
    nodes: dict[str, TreeNode] = {ROOT_ID: TreeNode(id=ROOT_ID, node_kind=REPO)}

    def _ensure_dir(path: PurePosixPath) -> str:
        node_id = path.as_posix()
        if node_id in nodes:
            return node_id
        parent = ROOT_ID if len(path.parts) == 1 else _ensure_dir(path.parent)
        nodes[node_id] = TreeNode(id=node_id, node_kind=DIR)
        nodes[parent].children.append(node_id)
        return node_id

    for rel in files:
        path = PurePosixPath(rel)
        parent = ROOT_ID if len(path.parts) == 1 else _ensure_dir(path.parent)
        if rel in nodes:
            raise InternalError(f"duplicate file node: {rel}")
        nodes[rel] = TreeNode(id=rel, node_kind=FILE)
        nodes[parent].children.append(rel)

    for parse in parses:
        file_node = nodes[parse.file]
        file_node.blob, file_node.parse_error = parse.blob, parse.parse_error
        for obj in parse.objects:
            if obj.id in nodes:
                raise InternalError(f"duplicate object id: {obj.id}")
            if obj.parent_id not in nodes:
                raise InternalError(f"missing parent for {obj.id}")
            nodes[obj.id] = TreeNode(id=obj.id, node_kind=obj.kind)
            nodes[obj.parent_id].children.append(obj.id)

    for node in nodes.values():
        if node.node_kind in (REPO, DIR):
            node.children.sort()
    return nodes


def resolve_references(
    nodes: Mapping[str, TreeNode],
    parses: Sequence[FileParse],
    objects: Mapping[str, CodeObject] | None = None,
) -> tuple[list[ReferenceEdge], list[Unresolved]]:
    """Resolve the call sites of ``parses`` to in-repo objects.

    ``nodes`` gives the repository's files, by their file nodes, and
    ``objects`` its objects by id, by default those of ``parses``. A call
    resolves from its own file's scopes, these files and these ids. Returns
    deduplicated edges sorted by (caller, callee), plus one ``Unresolved``
    for each call that could not be resolved, in file order. Self edges are
    dropped.
    """
    if objects is None:
        objects = {obj.id: obj for parse in parses for obj in parse.objects}
    module_map = {
        module_name_for(node.id): node.id
        for node in nodes.values()
        if node.node_kind == FILE
    }

    pairs: set[tuple[str, str]] = set()
    diagnostics: list[Unresolved] = []

    for parse in sorted(parses, key=lambda p: p.file):
        for call in parse.calls:
            target = _resolve_call(call, parse, objects, module_map)
            if target is None:
                diagnostics.append(Unresolved(parse.file, call))
                continue
            if target != call.caller:
                pairs.add((call.caller, target))
    return [ReferenceEdge(caller, callee) for caller, callee in sorted(pairs)], diagnostics


def _scope_chain(caller_id: str, objects: Mapping[str, CodeObject], file_path: str) -> list[str]:
    # Python name lookup from a nested body: own scope, enclosing function
    # scopes (class scopes are invisible to their methods), then the module.
    chain = [caller_id]
    current = objects.get(caller_id)
    while current is not None:
        parent = objects.get(current.parent_id)
        if parent is None:
            break
        if parent.kind == FUNCTION:
            chain.append(parent.id)
        current = parent
    chain.append(file_path)
    return chain


def _nearest_class(caller_id: str, objects: Mapping[str, CodeObject]) -> str | None:
    current = objects.get(caller_id)
    while current is not None:
        if current.kind == CLASS:
            return current.id
        current = objects.get(current.parent_id)
    return None


def _member(oid: str, attrs: Sequence[str], objects: Mapping[str, CodeObject]) -> str | None:
    """``oid`` extended by the attribute chain ``attrs``, when the
    repository holds that object."""
    if attrs:
        oid = "/".join((oid, *attrs))
    return oid if oid in objects else None


def _resolve_call(
    call: CallSite,
    parse: FileParse,
    objects: Mapping[str, CodeObject],
    module_map: Mapping[str, str],
) -> str | None:
    """The object ``call`` names, from its own file's scopes, the files by
    module name and the object ids alone."""
    base, attrs = call.chain[0], call.chain[1:]

    if base in _RECEIVERS:
        class_id = _nearest_class(call.caller, objects) if len(attrs) == 1 else None
        return None if class_id is None else _member(class_id, attrs, objects)

    for scope_id in _scope_chain(call.caller, objects, parse.file):
        scope = parse.scopes[scope_id]
        if base in scope.defs:
            return _member(scope.defs[base], attrs, objects)
        if base in scope.imports:
            module, member = scope.imports[base]
            if member is not None:
                dotted = f"{module}.{member}" if module else member
                if dotted not in module_map:
                    file_id = module_map.get(module)
                    return None if file_id is None else _member(file_id, (member, *attrs), objects)
                module = dotted
            # The longest dotted prefix that names a file wins; the rest
            # walks down its objects. A file is no object, so a module
            # itself is no call target.
            for split in range(len(attrs), -1, -1):
                file_id = module_map.get(".".join((module, *attrs[:split])))
                if file_id is not None:
                    return _member(file_id, attrs[split:], objects)
            return None
    return None


def parent_of(object_id: str) -> str:
    """An object's ``parent_id``: its id less the last segment, its name."""
    return object_id.rpartition("/")[0]


def object_containment(objects: Collection[str]) -> list[tuple[str, str]]:
    """(parent, child) pairs where both endpoints are objects, from the ids
    of ``objects`` alone."""
    return sorted((parent_of(oid), oid) for oid in objects if parent_of(oid) in objects)


def prune_cycles(
    edges: Sequence[ReferenceEdge],
    containment: Iterable[tuple[str, str]] = (),
) -> tuple[list[ReferenceEdge], list[ReferenceEdge]]:
    """Remove reference back edges until caller->callee plus parent->child is acyclic.

    One depth-first pass visits roots and neighbors in lexicographic id order.
    A reference edge that closes a cycle is removed on the spot and the walk
    goes on. Containment edges are never removed: when one closes a cycle,
    the deepest reference edge on the path inside the cycle is removed
    instead (one always exists, because containment alone forms a tree), the
    nodes found from that edge's target on are forgotten, and the walk resumes
    at the edge's caller. The removals are those of a traversal restarted
    from scratch after each one. Returns (kept sorted by caller and callee,
    removed in removal order).
    """
    kept: dict[tuple[str, str], ReferenceEdge] = {}
    for edge in edges:
        kept.setdefault((edge.caller, edge.callee), edge)
    adjacency: dict[str, list[tuple[str, ReferenceEdge | None]]] = {}
    for (caller, callee), edge in kept.items():
        adjacency.setdefault(caller, []).append((callee, edge))
    for parent, child in containment:
        adjacency.setdefault(parent, []).append((child, None))
    for targets in adjacency.values():
        targets.sort(key=lambda item: (item[0], item[1] is None))

    removed: list[ReferenceEdge] = []
    found: dict[str, int] = {}  # node -> discovery rank, in discovery order
    on_path: dict[str, int] = {}  # node -> index of its frame in path
    for root in sorted(adjacency):
        if root in found:
            continue
        found[root], on_path[root] = len(found), 0
        # each frame is (node, reference edge used to enter it, neighbor iterator)
        path = [(root, None, iter(adjacency[root]))]
        while path:
            node, _, targets = path[-1]
            for target, edge in targets:
                if edge is not None and (node, target) not in kept:
                    continue  # removed earlier in this pass
                if target in on_path:
                    if edge is not None:
                        removed.append(kept.pop((node, target)))
                        continue
                    inside = range(len(path) - 1, on_path[target], -1)
                    cut = next((i for i in inside if path[i][1] is not None), None)
                    if cut is None:
                        raise InternalError("containment-only cycle detected")
                    victim = path[cut][1]
                    removed.append(kept.pop((victim.caller, victim.callee)))
                    rank = found[victim.callee]
                    while len(found) > rank:
                        found.popitem()
                    for gone, _, _ in path[cut:]:
                        del on_path[gone]
                    del path[cut:]
                    break
                if target not in found:
                    found[target], on_path[target] = len(found), len(path)
                    path.append((target, edge, iter(adjacency.get(target, ()))))
                    break
            else:
                del on_path[node]
                path.pop()
    return sorted(kept.values(), key=lambda e: (e.caller, e.callee)), removed


class Overlay(MutableMapping):
    """A mapping that reads as ``base`` but for the keys given new values.
    It keeps the keys of ``base``, so only those may be set."""

    def __init__(self, base: Mapping, changes: dict) -> None:
        self.base = base
        self.changes = changes

    def __getitem__(self, key):
        if key in self.changes:
            return self.changes[key]
        return self.base[key]

    def __setitem__(self, key, value) -> None:
        if key not in self.base:
            raise InternalError(f"{key} is not a key of the mapping overlaid")
        self.changes[key] = value

    def __delitem__(self, key) -> None:
        raise InternalError("an overlay keeps the keys of the mapping overlaid")

    def __contains__(self, key) -> bool:
        return key in self.base

    def __iter__(self) -> Iterator:
        return iter(self.base)

    def __len__(self) -> int:
        return len(self.base)


class RepoGraph:
    """Tree, object table and pruned reference edges for one repository state.

    ``files`` lists the file ids in order. A graph that ``build_graph``
    derived from a snapshot has ``base``, that snapshot: its nodes and
    objects are those of ``base`` but for the ``rebuilt`` ids, the parsed
    files and their objects, and the ids of both are the same."""

    def __init__(
        self, nodes, objects, edges, removed_edges, diagnostics=None, parse_errors=None,
        files=None, base=None, rebuilt=frozenset(),
    ) -> None:
        self.nodes: MutableMapping[str, TreeNode] = nodes
        self.objects: MutableMapping[str, CodeObject] = objects
        self.edges: list[ReferenceEdge] = edges
        self.removed_edges: list[ReferenceEdge] = removed_edges
        self.diagnostics: list[Unresolved] = diagnostics or []
        self.parse_errors: list[str] = parse_errors or []
        if files is None:
            files = [nid for nid, node in nodes.items() if node.node_kind == FILE]
        self.files: list[str] = files
        self.base: RepoGraph | None = base
        self.rebuilt: frozenset[str] = rebuilt

    @cached_property
    def _callee_map(self) -> dict[str, list[str]]:
        return _adjacency((edge.caller, edge.callee) for edge in self.edges)

    @cached_property
    def _caller_map(self) -> dict[str, list[str]]:
        return _adjacency((edge.callee, edge.caller) for edge in self.edges)

    def callees(self, object_id: str) -> list[str]:
        return list(self._callee_map.get(object_id, []))

    def callers(self, object_id: str) -> list[str]:
        return list(self._caller_map.get(object_id, []))

    def object_children(self, object_id: str) -> list[str]:
        """An object's direct children, sorted by id."""
        return sorted(self.nodes[object_id].children)

    def file_objects(self, file_id: str) -> list[tuple[str, int]]:
        """All objects under a file in source order, a preorder walk of its
        subtree, each with its depth below the file (1 at the top level)."""
        out: list[tuple[str, int]] = []
        stack = [(child, 1) for child in reversed(self.nodes[file_id].children)]
        while stack:
            object_id, depth = stack.pop()
            out.append((object_id, depth))
            stack.extend((child, depth + 1) for child in reversed(self.nodes[object_id].children))
        return out

    def file_of(self, node_id: str) -> str:
        """The top of an object's ``parent_id`` chain, its file; any other
        id is its own."""
        while node_id in self.objects:
            node_id = parent_of(node_id)
        return node_id


def _adjacency(pairs: Iterable[tuple[str, str]]) -> dict[str, list[str]]:
    """Each first id of ``pairs`` with its second ids, sorted and distinct."""
    out: dict[str, list[str]] = {}
    for key, value in pairs:
        out.setdefault(key, []).append(value)
    return {k: sorted(set(v)) for k, v in out.items()}


def child_name(child_id: str) -> str:
    """The name a child is stored under: its id less its parent's id and
    the slash after it. The root's children are their own names."""
    return child_id.rpartition("/")[2]


class ChangeSet(NamedTuple):
    """What a graph changed of its snapshot (``diff_objects``)."""

    added: tuple[str, ...]
    removed: tuple[str, ...]
    modified: tuple[str, ...]  # the objects of both whose source hash differs
    edge_added: tuple[tuple[str, str], ...]
    edge_removed: tuple[tuple[str, str], ...]
    # the ids whose node or object differs from the snapshot's in what the
    # store keeps of it, or that the snapshot lacks
    nodes: frozenset[str]
    # whether the two graphs are equal in what the store keeps of them but
    # for the file nodes' blob ids and parse errors, which say what was
    # parsed rather than what is documented
    same: bool


def diff_objects(old: RepoGraph | None, new: RepoGraph) -> ChangeSet:
    """The one comparison of a graph with its snapshot: what ``new`` changed
    of ``old``, or of a graph with no node when ``old`` is None. When ``new``
    overlays ``old`` (``build_graph``), the two hold the same ids and only
    the rebuilt ones may differ, so only those are compared; otherwise every
    node is. The kept edges are compared as sets only when they are not the
    list ``old`` holds."""
    over_base = old is not None and new.base is old
    old_nodes = {} if old is None else old.nodes
    old_objects = {} if old is None else old.objects
    old_edges = [] if old is None else old.edges
    added, modified, nodes = [], [], set()
    # equal lengths, with no id of new missing from old, mean equal id sets
    same = old is not None and len(new.nodes) == len(old_nodes)
    same = same and new.removed_edges == old.removed_edges
    for node_id in new.rebuilt if over_base else new.nodes:
        node, twin = new.nodes[node_id], old_nodes.get(node_id)
        obj, twin_obj = new.objects.get(node_id), old_objects.get(node_id)
        if obj is not None and twin_obj is None:
            added.append(node_id)
        elif obj is not None and obj.source_hash != twin_obj.source_hash:
            modified.append(node_id)
        if twin is None:
            nodes.add(node_id)
            same = False
        elif (
            node.children != twin.children
            or node.node_kind != twin.node_kind
            or node.blob != twin.blob
            or node.parse_error != twin.parse_error
            or obj is not twin_obj
            and (
                obj is None
                or twin_obj is None
                or obj._replace(span=twin_obj.span, text=twin_obj.text) != twin_obj
            )
        ):
            nodes.add(node_id)
            # only a file's blob id or parse error may differ
            same = same and node.node_kind == twin.node_kind == FILE
            same = same and node.children == twin.children
    removed = () if over_base else sorted(oid for oid in old_objects if oid not in new.objects)
    edge_added = edge_removed = ()
    if new.edges != old_edges:
        same = False
        edge_added = tuple(sorted(set(new.edges).difference(old_edges)))
        edge_removed = tuple(sorted(set(old_edges).difference(new.edges)))
    return ChangeSet(
        added=tuple(sorted(added)),
        removed=tuple(removed),
        modified=tuple(sorted(modified)),
        edge_added=edge_added,
        edge_removed=edge_removed,
        nodes=frozenset(nodes),
        same=same,
    )


def snapshot_fits(
    snapshot: RepoGraph, files: Sequence[str], parses: Iterable[FileParse]
) -> bool:
    """Whether ``build_graph`` may take from ``snapshot`` the files that no
    parse of ``parses`` covers: the snapshot holds exactly ``files``, each
    with its blob id, and each parsed file has the object ids that the
    snapshot holds under it. A call resolves from its own file's parse, the
    set of files and the set of object ids alone, so a file whose blob is
    the snapshot's then keeps the snapshot's edges."""
    if set(snapshot.files) != set(files):
        return False
    if any(snapshot.nodes[rel].blob is None for rel in snapshot.files):
        return False
    return all(
        {obj.id for obj in parse.objects}
        == {oid for oid, _ in snapshot.file_objects(parse.file)}
        for parse in parses
    )


def build_graph(
    files: Sequence[str], parses: Sequence[FileParse], snapshot: RepoGraph | None = None
) -> RepoGraph:
    """Tree + resolved references + cycle pruning in one step.

    Given a ``snapshot`` that ``snapshot_fits``, the graph is the snapshot
    with the entries of the parsed files and their objects replaced (its
    ``base`` and ``rebuilt``): each file of ``files`` that no parse covers
    keeps its objects, blob id and parse error, and the reference edges,
    kept or removed, whose caller lies in it. The caller parses each file
    whose text may differ from the snapshot's. Cycles are pruned afresh
    over all edges, since pruning is global, unless the parsed files give
    exactly the edges, kept or removed, that the snapshot holds for their
    callers: the edge set and the object ids are then the snapshot's, and
    ``prune_cycles`` is a function of these alone, so the snapshot's kept
    and removed lists are taken as they are.
    """
    rebuilt: frozenset[str] = frozenset()
    carried: list[ReferenceEdge] = []
    local: set[ReferenceEdge] | None = None  # the snapshot's edges of the parsed files
    if snapshot is None:
        nodes: MutableMapping[str, TreeNode] = build_tree(files, parses)
        objects: MutableMapping[str, CodeObject] = {o.id: o for p in parses for o in p.objects}
    else:
        if not snapshot_fits(snapshot, files, parses):
            raise InternalError("the snapshot does not fit the files and parses given")
        tree = build_tree([p.file for p in parses], parses)
        rebuilt = frozenset(oid for p in parses for oid in (p.file, *(o.id for o in p.objects)))
        nodes = Overlay(snapshot.nodes, {oid: tree[oid] for oid in rebuilt})
        objects = Overlay(snapshot.objects, {o.id: o for p in parses for o in p.objects})
        local = set()
        for edge in (*snapshot.edges, *snapshot.removed_edges):
            if edge.caller in rebuilt:
                local.add(edge)
            else:
                carried.append(edge)
    raw_edges, diagnostics = resolve_references({rel: nodes[rel] for rel in files}, parses, objects)
    if local is not None and local == set(raw_edges):
        kept, removed = snapshot.edges, snapshot.removed_edges
    else:
        kept, removed = prune_cycles(raw_edges + carried, object_containment(objects))
    return RepoGraph(
        nodes=nodes,
        objects=objects,
        edges=kept,
        removed_edges=removed,
        diagnostics=diagnostics,
        parse_errors=[nodes[rel].parse_error for rel in files if nodes[rel].parse_error],
        files=list(files),
        base=snapshot,
        rebuilt=rebuilt,
    )


def source_graph(
    sources: Sources,
    cache: ParseCache,
    snapshot: RepoGraph | None = None,
    *,
    reuse: bool = False,
) -> tuple[RepoGraph, set[str]]:
    """The graph of ``sources``, ``{path: (blob id, text)}`` of the working
    tree or the index, and the files it took from ``snapshot`` unparsed.

    With ``reuse``, which needs a snapshot, only the files whose blob id
    differs from the snapshot's are parsed; the others are taken from it
    when it fits their parses (``snapshot_fits``), and parsed as well when
    it does not: the graph is then the snapshot with the parsed files'
    entries replaced (``build_graph``). Without it, every file is parsed.
    Parses go through the cache, and the taken files' cache lines are kept
    unread, as are their texts when ``sources`` reads them on first use.
    Either way the
    graph's diagnostics are the unresolved calls of the files whose blob id
    differs from the snapshot's, or of every file when there is no snapshot.
    """
    blobs = sources.blobs
    files = list(blobs)
    nodes = snapshot.nodes if snapshot is not None else {}
    unchanged = {rel for rel in files if rel in nodes and nodes[rel].blob == blobs[rel]}
    todo = set(files) - unchanged if reuse else files
    parses = {p.file: p for p in parse_repository(sources, todo, cache)}
    if reuse and not snapshot_fits(snapshot, files, parses.values()):
        reuse = False
        parses.update((p.file, p) for p in parse_repository(sources, unchanged, cache))
    taken = unchanged if reuse else set()
    for rel in taken:
        cache.keep(rel, blobs[rel])
    parsed = [parses[rel] for rel in files if rel in parses]
    graph = build_graph(files, parsed, snapshot if reuse else None)
    graph.diagnostics = [d for d in graph.diagnostics if d.file not in unchanged]
    return graph, taken


def add_snippets(
    graph: RepoGraph,
    sources: Sources,
    cache: ParseCache,
    taken: Collection[str],
    targets: Collection[str],
) -> None:
    """Give the objects that the prompts of ``targets`` quote their file's
    text, and so their snippets, which objects taken from the snapshot lack:
    parse each taken file that holds a target, a caller or a callee of one."""
    if not taken:
        return  # every object was parsed, so none lacks its snippet
    quoted = set(targets)
    for oid in targets:
        quoted.update(graph.callers(oid), graph.callees(oid))
    files = {graph.file_of(oid) for oid in quoted}
    for parse in parse_repository(sources, files.intersection(taken), cache):
        for obj in parse.objects:
            graph.objects[obj.id] = obj


def prerequisites(graph: RepoGraph, ids: Collection[str]) -> list[tuple[str, str]]:
    """(prerequisite, dependent) pairs among ``ids``: each callee before its
    caller, each child before its parent. A parent is read off its child's
    id, so no entry is decoded."""
    pairs = []
    for oid in ids:
        pairs.extend((callee, oid) for callee in graph.callees(oid) if callee in ids)
        if parent_of(oid) in ids:
            pairs.append((oid, parent_of(oid)))
    return pairs


def kahn(graph: RepoGraph, ids: Collection[str]) -> tuple[list[str], Callable[[str], None]]:
    """Kahn's algorithm over the distinct ``ids``, by their ``prerequisites``.
    Returns the ready heap, at first the ids with no prerequisite among
    them, and ``done(oid)``, which pushes the ids that ``oid`` was the last
    prerequisite of. Popping the heap gives the smallest ready id, so an
    order taken from it is a pure function of the graph and ``ids``; a
    cycle leaves ids that never become ready."""
    blockers = dict.fromkeys(ids, 0)
    dependents: dict[str, list[str]] = {oid: [] for oid in blockers}
    for need, oid in prerequisites(graph, blockers):
        blockers[oid] += 1
        dependents[need].append(oid)
    ready = [oid for oid, count in blockers.items() if not count]
    heapq.heapify(ready)

    def done(oid: str) -> None:
        for dependent in dependents[oid]:
            blockers[dependent] -= 1
            if not blockers[dependent]:
                heapq.heappush(ready, dependent)

    return ready, done


def topological_order(graph: RepoGraph, only: Collection[str] | None = None) -> list[str]:
    """Generation order of ``only``, by default every object: callees before
    callers, children before parents, among the ids ordered, the smallest
    ready id first (``kahn``). The order of a subset is by its own edges and
    containment, not the order of every object filtered to it.
    """
    ids = graph.objects if only is None else only
    ready, done = kahn(graph, ids)
    order: list[str] = []
    while ready:
        order.append(heapq.heappop(ready))
        done(order[-1])
    if len(order) != len(ids):
        raise InternalError("cycle survived pruning; generation order undefined")
    return order


def graph_to_dot(graph: RepoGraph) -> str:
    """DOT rendering of the object-level reference graph. Each id is a
    quoted DOT ID, in which '\\"' is the one escape."""

    def quoted(oid: str) -> str:
        return '"' + oid.replace('"', '\\"') + '"'

    lines = ["digraph repodoc {", "    rankdir=LR;"]
    for oid in sorted(graph.objects):
        shape = "box" if graph.objects[oid].kind == CLASS else "ellipse"
        lines.append(f"    {quoted(oid)} [shape={shape}];")
    removed = ' [style=dashed, color=red, label="removed"]'
    for edges, style in ((graph.edges, ""), (graph.removed_edges, removed)):
        lines += (f"    {quoted(e.caller)} -> {quoted(e.callee)}{style};" for e in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
