"""Reference cycle pruning that restarts its depth-first search per removed edge.

This is the former ``repodoc.project_graph.prune_cycles``, kept as an oracle:
it removes the first back edge that a fresh traversal meets, rebuilds the
adjacency and starts over. ``prune_cycles`` must return exactly what this
returns, in the same order.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repodoc.errors import InternalError
from repodoc.project_graph import ReferenceEdge


def prune_cycles_restarting(
    edges: Sequence[ReferenceEdge],
    containment: Iterable[tuple[str, str]] = (),
) -> tuple[list[ReferenceEdge], list[ReferenceEdge]]:
    kept: dict[tuple[str, str], ReferenceEdge] = {}
    for edge in edges:
        kept.setdefault((edge.caller, edge.callee), edge)
    containment = list(containment)
    removed: list[ReferenceEdge] = []

    while True:
        victim = _find_cycle_edge(kept, containment)
        if victim is None:
            break
        removed.append(kept.pop((victim.caller, victim.callee)))
    return sorted(kept.values(), key=lambda e: (e.caller, e.callee)), removed


_WHITE, _GRAY, _BLACK = 0, 1, 2


def _find_cycle_edge(
    kept: Mapping[tuple[str, str], ReferenceEdge],
    containment: Sequence[tuple[str, str]],
) -> ReferenceEdge | None:
    adjacency: dict[str, list[tuple[str, ReferenceEdge | None]]] = {}
    node_set: set[str] = set()
    for (caller, callee), edge in kept.items():
        adjacency.setdefault(caller, []).append((callee, edge))
        node_set.update((caller, callee))
    for parent, child in containment:
        adjacency.setdefault(parent, []).append((child, None))
        node_set.update((parent, child))
    for targets in adjacency.values():
        targets.sort(key=lambda item: (item[0], item[1] is None))

    color = {node: _WHITE for node in node_set}
    for root in sorted(node_set):
        if color[root] != _WHITE:
            continue
        # Iterative DFS; each stack frame is (node, edge used to enter, iterator).
        path: list[tuple[str, ReferenceEdge | None]] = [(root, None)]
        iters = [iter(adjacency.get(root, ()))]
        color[root] = _GRAY
        while path:
            node, _ = path[-1]
            advanced = False
            for target, edge in iters[-1]:
                if color[target] == _GRAY:
                    if edge is not None:
                        return edge
                    # Containment closed the cycle: drop the deepest reference
                    # edge on the path segment inside the cycle.
                    idx = next(i for i, (n, _) in enumerate(path) if n == target)
                    for _, used in reversed(path[idx + 1 :]):
                        if used is not None:
                            return used
                    raise InternalError("containment-only cycle detected")
                if color[target] == _WHITE:
                    color[target] = _GRAY
                    path.append((target, edge))
                    iters.append(iter(adjacency.get(target, ())))
                    advanced = True
                    break
            if not advanced:
                color[node] = _BLACK
                path.pop()
                iters.pop()
    return None
