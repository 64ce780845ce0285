from __future__ import annotations

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repodoc.project_graph import (
    DIR,
    FILE,
    REPO,
    ROOT_ID,
    ReferenceEdge,
    RepoGraph,
    build_graph,
    build_tree,
    graph_to_dot,
    object_containment,
    prune_cycles,
    resolve_references,
    topological_order,
)
from repodoc.source_model import parse_file, parse_repository, scan_repository

from .helpers import (
    DEMO_EDGES,
    DEMO_TOPO_ORDER,
    LABELED_EDGES,
    LABELED_OBJECT_COUNT,
    LABELED_REMOVED_EDGE,
    ORDER_SOURCE_ORDER,
    build_repo_graph,
)
from .prune_oracle import prune_cycles_restarting


def edge(caller: str, callee: str) -> ReferenceEdge:
    return ReferenceEdge(caller=caller, callee=callee)


def pairs(edges) -> set[tuple[str, str]]:
    return {(e.caller, e.callee) for e in edges}


# -- tree ---------------------------------------------------------------------


def test_demo_tree_shape(demo_repo):
    graph = build_repo_graph(demo_repo)
    root = graph.nodes[ROOT_ID]
    assert root.node_kind == REPO
    assert root.children == ["a.py", "util"]
    assert graph.nodes["util"].node_kind == DIR
    assert graph.nodes["util"].children == ["util/b.py"]
    assert graph.nodes["a.py"].node_kind == FILE
    assert graph.nodes["a.py"].children == ["a.py/C", "a.py/f", "a.py/g"]
    assert graph.nodes["a.py/C"].children == ["a.py/C/m"]
    assert graph.objects["a.py/C/m"].parent_id == "a.py/C"


def test_tree_without_objects_for_unparsed_file():
    parses = [parse_file("bad.py", "def broken(:\n")]
    nodes = build_tree(["bad.py"], parses)
    assert nodes["bad.py"].children == []


# -- reference resolution -------------------------------------------------------


def test_demo_reference_edges(demo_repo):
    graph = build_repo_graph(demo_repo)
    assert pairs(graph.edges) == DEMO_EDGES
    assert graph.removed_edges == []
    assert graph.callers("a.py/g") == ["a.py/C/m", "util/b.py/h"]
    assert graph.callees("a.py/g") == ["a.py/f"]


def test_labeled_repo_resolves_every_hand_labeled_edge(labeled_repo):
    files = scan_repository(labeled_repo)
    parses = parse_repository(labeled_repo, files)
    nodes = build_tree(files, parses)
    raw_edges, diagnostics = resolve_references(nodes, parses)
    assert pairs(raw_edges) == LABELED_EDGES
    # print(...) and wrapper.go(...) cannot resolve to repo objects
    assert any("print" in d for d in diagnostics)
    assert any("wrapper.go" in d for d in diagnostics)


def test_labeled_repo_prunes_exactly_the_ring_edge(labeled_repo):
    graph = build_repo_graph(labeled_repo)
    assert len(graph.objects) == LABELED_OBJECT_COUNT
    assert pairs(graph.removed_edges) == {LABELED_REMOVED_EDGE}
    assert pairs(graph.edges) == LABELED_EDGES - {LABELED_REMOVED_EDGE}


def test_unresolved_call_diagnostic_format():
    text = "def f():\n    return mystery(1)\n"
    parses = [parse_file("a.py", text)]
    nodes = build_tree(["a.py"], parses)
    _, diagnostics = resolve_references(nodes, parses)
    assert diagnostics == ["a.py:2: unresolved call mystery (caller a.py/f)"]


def test_module_level_calls_are_ignored():
    text = "def f():\n    return 1\n\n\nf()\n"
    parses = [parse_file("a.py", text)]
    nodes = build_tree(["a.py"], parses)
    edges, diagnostics = resolve_references(nodes, parses)
    assert edges == [] and diagnostics == []


def test_self_call_resolves_to_nearest_class_method():
    text = (
        "class A:\n"
        "    def top(self):\n"
        "        return self.low()\n"
        "\n"
        "    def low(self):\n"
        "        return 1\n"
    )
    parses = [parse_file("a.py", text)]
    nodes = build_tree(["a.py"], parses)
    edges, _ = resolve_references(nodes, parses)
    assert pairs(edges) == {("a.py/A/top", "a.py/A/low")}


def test_recursive_self_edge_dropped():
    text = "def f(n):\n    return f(n - 1)\n"
    parses = [parse_file("a.py", text)]
    nodes = build_tree(["a.py"], parses)
    edges, diagnostics = resolve_references(nodes, parses)
    assert edges == [] and diagnostics == []


def test_import_alias_and_package_init_resolution(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text(
        "def boot():\n    return 1\n", encoding="utf-8"
    )
    (tmp_path / "main.py").write_text(
        "import pkg\nfrom pkg import boot as b\n\n\ndef run():\n"
        "    return pkg.boot() + b()\n",
        encoding="utf-8",
    )
    graph = build_repo_graph(tmp_path)
    assert pairs(graph.edges) == {("main.py/run", "pkg/__init__.py/boot")}


def test_first_call_site_wins_for_duplicate_edges():
    text = "def f():\n    return 1\n\n\ndef g():\n    f()\n    return f()\n"
    parses = [parse_file("a.py", text)]
    nodes = build_tree(["a.py"], parses)
    edges, _ = resolve_references(nodes, parses)
    assert len(edges) == 1


# -- cycle pruning ----------------------------------------------------------------


def test_prune_two_cycle():
    kept, removed = prune_cycles([edge("p", "q"), edge("q", "p")])
    assert pairs(kept) == {("p", "q")}
    assert pairs(removed) == {("q", "p")}


def test_prune_triangle():
    kept, removed = prune_cycles([edge("a", "b"), edge("b", "c"), edge("c", "a")])
    assert pairs(kept) == {("a", "b"), ("b", "c")}
    assert pairs(removed) == {("c", "a")}


def test_prune_keeps_dag_untouched():
    edges = [edge("a", "b"), edge("b", "c"), edge("a", "c")]
    kept, removed = prune_cycles(edges)
    assert pairs(kept) == pairs(edges)
    assert removed == []


def test_prune_mixed_containment_cycle_removes_reference_edge():
    # method calls a helper which instantiates the class: the cycle runs
    # through a containment edge, which must never be the one removed
    edges = [edge("a.py/K/m", "a.py/helper"), edge("a.py/helper", "a.py/K")]
    containment = [("a.py/K", "a.py/K/m")]
    kept, removed = prune_cycles(edges, containment)
    assert pairs(removed) == {("a.py/helper", "a.py/K")}
    assert pairs(kept) == {("a.py/K/m", "a.py/helper")}


def _has_cycle(edge_pairs: set[tuple[str, str]]) -> bool:
    adjacency: dict[str, set[str]] = {}
    for caller, callee in edge_pairs:
        adjacency.setdefault(caller, set()).add(callee)
    visited: dict[str, int] = {}

    def visit(node: str) -> bool:
        state = visited.get(node, 0)
        if state == 1:
            return True
        if state == 2:
            return False
        visited[node] = 1
        if any(visit(nxt) for nxt in adjacency.get(node, ())):
            return True
        visited[node] = 2
        return False

    return any(visit(n) for n in list(adjacency))


@settings(max_examples=200, deadline=None)
@given(
    st.sets(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda p: p[0] != p[1]),
        max_size=20,
    )
)
def test_prune_always_yields_dag_and_partitions_input(edge_indices):
    edges = [edge(f"n{a}", f"n{b}") for a, b in sorted(edge_indices)]
    kept, removed = prune_cycles(edges)
    assert not _has_cycle(pairs(kept))
    assert pairs(kept) | pairs(removed) == pairs(edges)
    assert pairs(kept) & pairs(removed) == set()
    # determinism: a second pass over the same input picks the same edges
    kept2, removed2 = prune_cycles(edges)
    assert pairs(kept2) == pairs(kept) and pairs(removed2) == pairs(removed)


def test_prune_containment_closing_cycle_removes_deepest_reference_edge():
    # from root "a" the walk goes a -> b -> c by reference, and c's containment
    # edge back to "a" closes the cycle: b -> c is the deepest reference edge
    edges = [edge("a", "b"), edge("b", "c")]
    containment = [("c", "a")]
    kept, removed = prune_cycles(edges, containment)
    assert (kept, removed) == prune_cycles_restarting(edges, containment)
    assert pairs(removed) == {("b", "c")}
    assert pairs(kept) == {("a", "b")}


@st.composite
def _graphs_with_containment(draw):
    """Random reference edges plus a containment forest over shuffled names."""
    size = draw(st.integers(2, 12))
    names = draw(st.permutations([f"n{i:02d}" for i in range(size)]))
    containment = []
    for i in range(1, size):
        parent = draw(st.none() | st.integers(0, i - 1))
        if parent is not None:
            containment.append((names[parent], names[i]))
    # callee = caller shifted by 1..size-1 places, so never the caller itself
    links = st.tuples(st.integers(0, size - 1), st.integers(1, size - 1))
    edges = [
        ReferenceEdge(caller=names[a], callee=names[(a + shift) % size])
        for a, shift in draw(st.lists(links, max_size=3 * size))
    ]
    return edges, containment


@settings(max_examples=400, deadline=None)
@given(_graphs_with_containment())
def test_prune_matches_restarting_oracle(graph):
    edges, containment = graph
    kept, removed = prune_cycles(edges, containment)
    expected_kept, expected_removed = prune_cycles_restarting(edges, containment)
    assert kept == expected_kept
    assert removed == expected_removed


@settings(max_examples=200, deadline=None)
@given(_graphs_with_containment())
def test_prune_leaves_networkx_dag(graph):
    nx = pytest.importorskip("networkx")
    edges, containment = graph
    kept, _ = prune_cycles(edges, containment)
    dag = nx.DiGraph()
    dag.add_edges_from(pairs(kept))
    dag.add_edges_from(containment)
    assert nx.is_directed_acyclic_graph(dag)


# -- topological order ---------------------------------------------------------


def test_demo_topological_order_frozen(demo_repo):
    graph = build_repo_graph(demo_repo)
    assert topological_order(graph) == DEMO_TOPO_ORDER


def test_topological_order_respects_all_prerequisites(labeled_repo):
    graph = build_repo_graph(labeled_repo)
    order = topological_order(graph)
    position = {oid: i for i, oid in enumerate(order)}
    assert sorted(order) == sorted(graph.objects)
    for e in graph.edges:
        assert position[e.callee] < position[e.caller], (e.caller, e.callee)
    for parent, child in object_containment(graph.objects):
        assert position[child] < position[parent], (parent, child)


# -- RepoGraph plumbing ----------------------------------------------------------


def test_graph_dict_roundtrip(demo_repo):
    graph = build_repo_graph(demo_repo)
    clone = RepoGraph.from_dict(graph.to_dict())
    assert clone.to_dict() == graph.to_dict()
    assert sorted(clone.objects) == sorted(graph.objects)
    assert clone.callers("a.py/g") == graph.callers("a.py/g")
    # snippets and spans are intentionally not persisted; the rest is rebuilt
    for oid, obj in graph.objects.items():
        assert clone.objects[oid] == replace(obj, snippet="", line_span=(0, 0))


def test_file_objects_in_source_order(demo_repo):
    graph = build_repo_graph(demo_repo)
    assert graph.file_objects("a.py") == [("a.py/C", 1), ("a.py/C/m", 2), ("a.py/f", 1), ("a.py/g", 1)]


def test_source_order_is_the_tree_child_order(order_repo):
    graph = build_repo_graph(order_repo)
    assert graph.nodes["order.py"].children == [
        "order.py/b", "order.py/a", "order.py/K", "order.py/s", "order.py/r"
    ]
    assert graph.nodes["order.py/K"].children == ["order.py/K/z", "order.py/K/y"]
    assert graph.file_objects("order.py") == ORDER_SOURCE_ORDER
    assert graph.object_children("order.py/K") == ["order.py/K/y", "order.py/K/z"]
    clone = RepoGraph.from_dict(graph.to_dict())
    assert clone.file_objects("order.py") == ORDER_SOURCE_ORDER


def test_graph_to_dot_smoke(demo_repo):
    graph = build_repo_graph(demo_repo)
    dot = graph_to_dot(graph)
    assert dot.startswith("digraph")
    assert '"a.py/g" -> "a.py/f";' in dot
    assert '"a.py/C" [shape=box];' in dot


def test_build_graph_collects_parse_errors(tmp_path):
    (tmp_path / "ok.py").write_text("def f():\n    return 1\n", encoding="utf-8")
    (tmp_path / "bad.py").write_text("def broken(:\n", encoding="utf-8")
    graph = build_repo_graph(tmp_path)
    assert len(graph.parse_errors) == 1
    assert graph.parse_errors[0].startswith("bad.py:1:")
    assert "ok.py/f" in graph.objects
