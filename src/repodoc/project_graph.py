"""Project tree plus caller/callee reference graph.

The tree mirrors the directory layout (Repo -> Dir -> File -> Class/Function).
Reference edges connect caller objects to callee objects and are pruned to a
DAG so that a bottom-to-top generation order always exists.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import PurePosixPath
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InternalError
from .source_model import (
    CLASS,
    FUNCTION,
    CallSite,
    CodeObject,
    FileParse,
    Scope,
    module_name_for,
)

REPO = "Repo"
DIR = "Dir"
FILE = "File"

ROOT_ID = "."

_RECEIVERS = ("self", "cls")


@dataclass
class TreeNode:
    id: str
    node_kind: str  # REPO, DIR, FILE, CLASS or FUNCTION
    children: list[str] = field(default_factory=list)
    # a file's Git blob id, when known, and its parse error, if any
    blob: str | None = None
    parse_error: str | None = None


@dataclass(frozen=True)
class ReferenceEdge:
    caller: str
    callee: str


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
    nodes: Mapping[str, TreeNode], parses: Sequence[FileParse]
) -> tuple[list[ReferenceEdge], list[str]]:
    """Resolve call sites to in-repo objects.

    Returns deduplicated edges sorted by (caller, callee), plus a
    diagnostics list for calls that could not be resolved. Self edges are
    dropped.
    """
    objects: dict[str, CodeObject] = {}
    scopes: dict[str, Scope] = {}
    for parse in parses:
        scopes.update(parse.scopes)
        for obj in parse.objects:
            objects[obj.id] = obj
    module_map = {
        module_name_for(node.id): node.id
        for node in nodes.values()
        if node.node_kind == FILE
    }

    pairs: set[tuple[str, str]] = set()
    diagnostics: list[str] = []

    for parse in sorted(parses, key=lambda p: p.file):
        for call in parse.calls:
            target = _resolve_call(call, parse.file, objects, scopes, module_map)
            dotted = ".".join(call.chain)
            if target is None:
                diagnostics.append(
                    f"{parse.file}:{call.line}: unresolved call {dotted} (caller {call.caller})"
                )
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


def _resolve_call(
    call: CallSite,
    file_path: str,
    objects: Mapping[str, CodeObject],
    scopes: Mapping[str, Scope],
    module_map: Mapping[str, str],
) -> str | None:
    base, attrs = call.chain[0], call.chain[1:]

    if base in _RECEIVERS:
        if len(attrs) != 1:
            return None
        class_id = _nearest_class(call.caller, objects)
        if class_id is None:
            return None
        candidate = f"{class_id}/{attrs[0]}"
        return candidate if candidate in objects else None

    for scope_id in _scope_chain(call.caller, objects, file_path):
        scope = scopes.get(scope_id)
        if scope is None:
            continue
        if base in scope.defs:
            oid = scope.defs[base]
            for attr in attrs:
                oid = f"{oid}/{attr}"
            return oid if oid in objects else None
        if base in scope.imports:
            binding = scope.imports[base]
            if binding.member is None:
                return _resolve_module_chain(binding.module, attrs, objects, module_map)
            dotted = f"{binding.module}.{binding.member}" if binding.module else binding.member
            if dotted in module_map:
                return _resolve_module_chain(dotted, attrs, objects, module_map)
            file_id = module_map.get(binding.module)
            if file_id is None:
                return None
            oid = f"{file_id}/{binding.member}"
            for attr in attrs:
                oid = f"{oid}/{attr}"
            return oid if oid in objects else None
    return None


def _resolve_module_chain(
    module: str,
    attrs: Sequence[str],
    objects: Mapping[str, CodeObject],
    module_map: Mapping[str, str],
) -> str | None:
    # Longest dotted prefix that names a file wins; the remainder must walk
    # down objects within that file.
    for split in range(len(attrs), -1, -1):
        dotted = ".".join([module, *attrs[:split]])
        file_id = module_map.get(dotted)
        if file_id is None:
            continue
        rest = attrs[split:]
        if not rest:
            return None  # a module itself is not a documentable call target
        oid = file_id + "/" + "/".join(rest)
        return oid if oid in objects else None
    return None


def object_containment(objects: Mapping[str, CodeObject]) -> list[tuple[str, str]]:
    """(parent, child) pairs where both endpoints are objects."""
    pairs = [
        (obj.parent_id, obj.id) for obj in objects.values() if obj.parent_id in objects
    ]
    return sorted(pairs)


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


@dataclass
class RepoGraph:
    """Tree, object table and pruned reference edges for one repository state."""

    nodes: dict[str, TreeNode]
    objects: dict[str, CodeObject]
    edges: list[ReferenceEdge]
    removed_edges: list[ReferenceEdge]
    diagnostics: list[str] = field(default_factory=list)
    parse_errors: list[str] = field(default_factory=list)

    @cached_property
    def _callee_map(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for edge in self.edges:
            out.setdefault(edge.caller, []).append(edge.callee)
        return {k: sorted(set(v)) for k, v in out.items()}

    @cached_property
    def _caller_map(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for edge in self.edges:
            out.setdefault(edge.callee, []).append(edge.caller)
        return {k: sorted(set(v)) for k, v in out.items()}

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

    def file_parse(self, file_id: str) -> FileParse:
        """The file's parse as far as the graph keeps it: its objects in
        source order, with no snippets, calls or scopes, its blob id and its
        parse error."""
        node = self.nodes[file_id]
        return FileParse(
            file=file_id,
            objects=[self.objects[oid] for oid, _ in self.file_objects(file_id)],
            parse_error=node.parse_error,
            blob=node.blob,
        )

    def node_entries(self, *, file_state: bool = True) -> Iterator[tuple[str, dict]]:
        """Each node's id and plain data, sorted by id, built one at a time.
        ``file_state=False`` leaves out the file nodes' blob ids and parse
        errors, which say what was parsed rather than what is documented."""
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            entry: dict = {"node_kind": node.node_kind, "children": list(node.children)}
            obj = self.objects.get(node_id)
            if obj is not None:
                entry["meta"] = obj.to_dict()
            if file_state and node.blob is not None:
                entry["blob"] = node.blob
            if file_state and node.parse_error is not None:
                entry["parse_error"] = node.parse_error
            yield node_id, entry

    def to_dict(self, *, file_state: bool = True) -> dict:
        """The graph as plain data; ``file_state`` as for ``node_entries``."""
        return {
            "nodes": dict(self.node_entries(file_state=file_state)),
            "edges": [vars(e) for e in self.edges],
            "removed_edges": [vars(e) for e in self.removed_edges],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RepoGraph":
        """The graph of ``to_dict()``; an object's id and kind are its node's."""
        nodes: dict[str, TreeNode] = {}
        objects: dict[str, CodeObject] = {}
        for node_id, entry in data.get("nodes", {}).items():
            nodes[node_id] = TreeNode(
                id=node_id,
                node_kind=entry["node_kind"],
                children=list(entry.get("children", [])),
                blob=entry.get("blob"),
                parse_error=entry.get("parse_error"),
            )
            meta = entry.get("meta")
            if meta is not None:
                objects[node_id] = CodeObject.from_dict(node_id, entry["node_kind"], meta)
        return cls(
            nodes=nodes,
            objects=objects,
            edges=[ReferenceEdge(e["caller"], e["callee"]) for e in data.get("edges", [])],
            removed_edges=[
                ReferenceEdge(e["caller"], e["callee"]) for e in data.get("removed_edges", [])
            ],
        )


def empty_graph() -> RepoGraph:
    return RepoGraph(
        nodes={ROOT_ID: TreeNode(id=ROOT_ID, node_kind=REPO)},
        objects={},
        edges=[],
        removed_edges=[],
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
    file_nodes = [node for node in snapshot.nodes.values() if node.node_kind == FILE]
    if {node.id for node in file_nodes} != set(files):
        return False
    if any(node.blob is None for node in file_nodes):
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

    Given a ``snapshot`` that ``snapshot_fits``, each file of ``files`` that
    no parse covers is taken from it: its objects, blob id and parse error,
    and the reference edges, kept or removed, whose caller lies in it. The
    caller parses each file whose text may differ from the snapshot's.
    Cycles are pruned afresh over all edges, since pruning is global.
    """
    carried: list[ReferenceEdge] = []
    if snapshot is not None:
        if not snapshot_fits(snapshot, files, parses):
            raise InternalError("the snapshot does not fit the files and parses given")
        parsed = {p.file for p in parses}
        taken = [snapshot.file_parse(rel) for rel in files if rel not in parsed]
        parses = sorted([*parses, *taken], key=lambda p: p.file)
        callers = {obj.id for parse in taken for obj in parse.objects}
        carried = [
            edge for edge in (*snapshot.edges, *snapshot.removed_edges) if edge.caller in callers
        ]
    nodes = build_tree(files, parses)
    raw_edges, diagnostics = resolve_references(nodes, parses)
    objects = {o.id: o for p in parses for o in p.objects}
    kept, removed = prune_cycles(raw_edges + carried, object_containment(objects))
    parse_errors = [p.parse_error for p in parses if p.parse_error]
    return RepoGraph(
        nodes=nodes,
        objects=objects,
        edges=kept,
        removed_edges=removed,
        diagnostics=diagnostics,
        parse_errors=parse_errors,
    )


def topological_order(graph: RepoGraph) -> list[str]:
    """Total generation order: callees before callers, children before parents.

    Kahn's algorithm with a lexicographic ready heap, so the order is a pure
    function of the graph.
    """
    indegree = {oid: 0 for oid in graph.objects}
    dependents: dict[str, list[str]] = {oid: [] for oid in graph.objects}

    def _add(prerequisite: str, dependent: str) -> None:
        dependents[prerequisite].append(dependent)
        indegree[dependent] += 1

    for edge in graph.edges:
        if edge.caller in indegree and edge.callee in indegree:
            _add(edge.callee, edge.caller)
    for parent, child in object_containment(graph.objects):
        _add(child, parent)

    ready = [oid for oid, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        oid = heapq.heappop(ready)
        order.append(oid)
        for dependent in dependents[oid]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                heapq.heappush(ready, dependent)
    if len(order) != len(graph.objects):
        raise InternalError("cycle survived pruning; generation order undefined")
    return order


def graph_to_dot(graph: RepoGraph) -> str:
    """DOT rendering of the object-level reference graph."""
    lines = ["digraph repodoc {", "    rankdir=LR;"]
    for oid in sorted(graph.objects):
        obj = graph.objects[oid]
        shape = "box" if obj.kind == CLASS else "ellipse"
        lines.append(f'    "{oid}" [shape={shape}];')
    for edge in graph.edges:
        lines.append(f'    "{edge.caller}" -> "{edge.callee}";')
    for edge in graph.removed_edges:
        lines.append(f'    "{edge.caller}" -> "{edge.callee}" [style=dashed, color=red, label="removed"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
