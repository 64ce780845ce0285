from __future__ import annotations

import hashlib
import itertools
import json
import platform
import re
import shutil
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repodoc.doc_pipeline import graph_dict, graph_of
from repodoc.project_graph import (
    DIR,
    FILE,
    REPO,
    ROOT_ID,
    ReferenceEdge,
    RepoGraph,
    TreeNode,
    build_graph,
    build_tree,
    diff_objects,
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
    write_tree,
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
    sources = scan_repository(labeled_repo)
    parses = parse_repository(sources, sources)
    nodes = build_tree(list(sources), parses)
    raw_edges, diagnostics = resolve_references(nodes, parses)
    assert pairs(raw_edges) == LABELED_EDGES
    # print(...) and wrapper.go(...) cannot resolve to repo objects
    assert any("print" in str(d) for d in diagnostics)
    assert any("wrapper.go" in str(d) for d in diagnostics)


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
    assert list(map(str, diagnostics)) == ["a.py:2: unresolved call mystery (caller a.py/f)"]


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


RESOLVER_FILES = {
    "pkg/__init__.py": "",
    "pkg/mod.py": (
        "class C:\n"
        "    @staticmethod\n"
        "    def smeth():\n"
        "        return 1\n"
        "\n"
        "    def meth(self):\n"
        "        return 2\n"
        "\n"
        "\n"
        "def f():\n"
        "    return 3\n"
    ),
    "main.py": (
        "import pkg.mod\n"
        "import pkg.mod as pm\n"
        "from pkg import mod\n"
        "from pkg.mod import C\n"
        "\n"
        "\n"
        "class K:\n"
        "    def m(self):\n"
        "        return 4\n"
        "\n"
        "    def n(self):\n"
        "        return self.x.y()\n"
        "\n"
        "\n"
        "def outer():\n"
        "    def helper():\n"
        "        return 5\n"
        "\n"
        "    def inner():\n"
        "        return helper()\n"
        "\n"
        "    return inner()\n"
        "\n"
        "\n"
        "def uses():\n"
        "    return K.m(None) + mod.f() + C.smeth() + pm.C.meth(None)\n"
        "\n"
        "\n"
        "def plain():\n"
        "    return self.m()\n"
        "\n"
        "\n"
        "def module_call():\n"
        "    return pkg.mod()\n"
    ),
}


def test_calls_resolve_through_enclosing_functions_classes_and_imported_modules():
    parses = [parse_file(path, text) for path, text in RESOLVER_FILES.items()]
    edges, diagnostics = resolve_references(build_tree(sorted(RESOLVER_FILES), parses), parses)
    assert pairs(edges) == {
        ("main.py/outer", "main.py/outer/inner"),
        # a nested function sees the names of the function around it
        ("main.py/outer/inner", "main.py/outer/helper"),
        # a class in scope, a module imported from a package, a class
        # imported from a module, and a module imported under another name
        ("main.py/uses", "main.py/K/m"),
        ("main.py/uses", "pkg/mod.py/f"),
        ("main.py/uses", "pkg/mod.py/C/smeth"),
        ("main.py/uses", "pkg/mod.py/C/meth"),
    }
    assert list(map(str, diagnostics)) == [
        # an attribute of an attribute of self, self outside a class, and a
        # module, which is no call target
        "main.py:12: unresolved call self.x.y (caller main.py/K/n)",
        "main.py:30: unresolved call self.m (caller main.py/plain)",
        "main.py:34: unresolved call pkg.mod (caller main.py/module_call)",
    ]


def test_first_call_site_wins_for_duplicate_edges():
    text = "def f():\n    return 1\n\n\ndef g():\n    f()\n    return f()\n"
    parses = [parse_file("a.py", text)]
    nodes = build_tree(["a.py"], parses)
    edges, _ = resolve_references(nodes, parses)
    assert len(edges) == 1


TRUTH_DIR = Path(__file__).resolve().parents[1] / "bench" / "data"


def _package_digest(package: Path) -> str:
    """sha256 over (relative path, bytes) of every .py file of ``package``,
    the digest that pins the benchmark's stdlib corpora."""
    digest = hashlib.sha256()
    for path in sorted(p for p in package.rglob("*.py") if "__pycache__" not in p.parts):
        digest.update(path.relative_to(package.parent).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("package, found, agreed", [("idlelib", 1541, 1522), ("email", 541, 521)])
def test_the_resolver_agrees_with_the_jedi_truth_of_a_pinned_stdlib_package(
    tmp_path, package, found, agreed
):
    # the truth is a Jedi goto pass over the package of one interpreter
    truth = json.loads((TRUTH_DIR / f"truth-{package}.json").read_text(encoding="utf-8"))
    source = Path(sysconfig.get_paths()["stdlib"]) / package
    if platform.python_version() != truth["python"] or not source.is_dir():
        pytest.skip(f"the truth of {package} is for the sources of Python {truth['python']}")
    if _package_digest(source) != truth["sha256"]:
        pytest.skip(f"this interpreter's {package} is not the one the truth was made from")
    for path in source.rglob("*.py"):
        target = tmp_path / path.relative_to(source.parent)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, target)
    graph = build_repo_graph(tmp_path)
    edges = pairs(graph.edges) | pairs(graph.removed_edges)
    expected = {tuple(e) for e in truth["edges"]}
    assert (len(edges), len(edges & expected)) == (found, agreed)


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
    clone = graph_of(graph_dict(graph))
    assert graph_dict(clone) == graph_dict(graph)
    assert sorted(clone.objects) == sorted(graph.objects)
    assert clone.callers("a.py/g") == graph.callers("a.py/g")
    # texts and spans are intentionally not persisted; the rest is rebuilt
    for oid, obj in graph.objects.items():
        assert clone.objects[oid] == obj._replace(span=(0, 0, 0), text="")


def test_children_stored_by_name_read_back_as_ids(tmp_path):
    # a file at the root, nested directories, and a def nested in a method
    write_tree(
        tmp_path,
        {
            "top.py": "def z():\n    pass\n\n\ndef a():\n    pass\n",
            "pkg/sub/deep/m.py": (
                "class K:\n"
                "    def run(self):\n"
                "        def inner():\n"
                "            return 1\n"
                "        return inner()\n"
                "\n"
                "    def b(self):\n"
                "        pass\n"
            ),
        },
    )
    graph = build_repo_graph(tmp_path)
    data = graph_dict(graph)
    assert data["nodes"]["."]["children"] == ["pkg", "top.py"]
    assert data["nodes"]["pkg/sub"]["children"] == ["deep"]
    assert data["nodes"]["top.py"]["children"] == ["z", "a"]  # source order
    assert data["nodes"]["pkg/sub/deep/m.py/K"]["children"] == ["run", "b"]
    assert data["nodes"]["pkg/sub/deep/m.py/K/run"]["children"] == ["inner"]
    assert "children" not in data["nodes"]["pkg/sub/deep/m.py/K/run/inner"]
    clone = graph_of(data)
    assert {nid: node.children for nid, node in clone.nodes.items()} == {
        nid: node.children for nid, node in graph.nodes.items()
    }
    assert clone.nodes["pkg/sub/deep/m.py/K/run"].children == ["pkg/sub/deep/m.py/K/run/inner"]
    for file_id in ("top.py", "pkg/sub/deep/m.py"):
        assert clone.file_objects(file_id) == graph.file_objects(file_id)
    assert [oid for oid, _ in clone.file_objects("pkg/sub/deep/m.py")] == [
        "pkg/sub/deep/m.py/K",
        "pkg/sub/deep/m.py/K/run",
        "pkg/sub/deep/m.py/K/run/inner",
        "pkg/sub/deep/m.py/K/b",
    ]


def _documented(graph: RepoGraph) -> dict:
    """``graph_dict`` less the file nodes' blob ids and parse errors."""
    data = graph_dict(graph)
    for entry in data["nodes"].values():
        entry.pop("blob", None)
        entry.pop("parse_error", None)
    return data


def _edit_object(graph: RepoGraph, object_id: str, **changes) -> None:
    graph.objects[object_id] = graph.objects[object_id]._replace(**changes)


_GRAPH_EDITS = {
    "nothing": lambda g: None,
    "blob": lambda g: setattr(g.nodes["a.py"], "blob", "0" * 40),
    "parse-error": lambda g: setattr(g.nodes["a.py"], "parse_error", "SyntaxError"),
    "span-and-snippet": lambda g: _edit_object(g, "a.py/f", span=(1, 1), text=""),
    "node-kind": lambda g: setattr(g.nodes["util"], "node_kind", FILE),
    "child-order": lambda g: g.nodes["a.py"].children.reverse(),
    "new-node": lambda g: g.nodes.update(x=TreeNode("x", g.nodes["util"].node_kind)),
    "params": lambda g: _edit_object(g, "a.py/g", params=("y",)),
    "has-return": lambda g: _edit_object(g, "a.py/f", has_return=False),
    "parent": lambda g: _edit_object(g, "a.py/C/m", parent_id="a.py"),
    "source-hash": lambda g: _edit_object(g, "a.py/f", source_hash="0" * 64),
    "meta-dropped": lambda g: g.objects.pop("a.py/f"),
    "edge": lambda g: g.edges.pop(),
    "edge-order": lambda g: g.edges.reverse(),
    "removed-edge": lambda g: g.removed_edges.append(ReferenceEdge("a.py/f", "a.py/g")),
}


@pytest.mark.parametrize("edit", _GRAPH_EDITS)
def test_same_as_agrees_with_the_stored_form(demo_repo, edit):
    graph = build_repo_graph(demo_repo)
    other = graph_of(graph_dict(graph))
    _GRAPH_EDITS[edit](other)
    expected = _documented(graph) == _documented(other)
    assert expected == (edit in ("nothing", "blob", "parse-error", "span-and-snippet"))
    for old, new in ((graph, other), (other, graph)):
        changes = diff_objects(old, new)
        assert changes.same is expected
        # the nodes whose store line differs, each hash stated
        stored, stored_old = graph_dict(new)["nodes"], graph_dict(old)["nodes"]
        assert changes.nodes == {
            node_id
            for node_id in new.nodes
            if node_id not in old.nodes or stored[node_id] != stored_old[node_id]
        }
        assert changes.added == tuple(sorted(new.objects.keys() - old.objects.keys()))
        assert changes.removed == tuple(sorted(old.objects.keys() - new.objects.keys()))
        assert changes.modified == tuple(
            sorted(
                oid
                for oid in new.objects.keys() & old.objects.keys()
                if new.objects[oid].source_hash != old.objects[oid].source_hash
            )
        )


_FILE_EDITS = {
    "comment": ("class C:", "# one\nclass C:"),
    "body": ("return 1", "return 2"),
    "call": ("return f() + x", "return x"),
}


@pytest.mark.parametrize("edit", _FILE_EDITS)
def test_a_diff_over_the_snapshot_equals_the_full_diff(demo_repo, edit):
    snapshot = build_repo_graph(demo_repo)
    path = demo_repo / "a.py"
    path.write_text(path.read_text(encoding="utf-8").replace(*_FILE_EDITS[edit]), encoding="utf-8")
    sources = scan_repository(demo_repo)
    graph = build_graph(list(sources), parse_repository(sources, ["a.py"]), snapshot)
    assert graph.base is snapshot
    changes = diff_objects(snapshot, graph)
    # a copy of the snapshot is not the graph's base, so every node is compared
    assert changes == diff_objects(graph_of(graph_dict(snapshot)), graph)
    assert changes.same is (edit == "comment")
    assert "a.py" in changes.nodes
    assert bool(changes.modified) is (edit != "comment")
    assert changes.edge_removed == ((("a.py/g", "a.py/f"),) if edit == "call" else ())


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
    clone = graph_of(graph_dict(graph))
    assert clone.file_objects("order.py") == ORDER_SOURCE_ORDER


def test_graph_to_dot_smoke(demo_repo):
    graph = build_repo_graph(demo_repo)
    dot = graph_to_dot(graph)
    assert dot.startswith("digraph")
    assert '"a.py/g" -> "a.py/f";' in dot
    assert '"a.py/C" [shape=box];' in dot


def test_graph_to_dot_escapes_a_quote_in_an_id(tmp_path):
    write_tree(tmp_path, {'a"b.py': "def f():\n    return g()\n\n\ndef g():\n    return 1\n"})
    dot = graph_to_dot(build_repo_graph(tmp_path))
    assert '    "a\\"b.py/f" [shape=ellipse];\n' in dot
    assert '    "a\\"b.py/f" -> "a\\"b.py/g";\n' in dot
    # every statement line is quoted IDs, each closed where it should be
    quoted_id = r'"(?:[^"\\]|\\")*"'
    statement = re.compile(rf"    {quoted_id}(?: -> {quoted_id})?(?: \[[^\]]*\])?;")
    assert all(statement.fullmatch(line) for line in dot.splitlines()[2:-1])


def test_build_graph_collects_parse_errors(tmp_path):
    (tmp_path / "ok.py").write_text("def f():\n    return 1\n", encoding="utf-8")
    (tmp_path / "bad.py").write_text("def broken(:\n", encoding="utf-8")
    graph = build_repo_graph(tmp_path)
    assert len(graph.parse_errors) == 1
    assert graph.parse_errors[0].startswith("bad.py:1:")
    assert "ok.py/f" in graph.objects
