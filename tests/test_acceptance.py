"""Acceptance suite: one test per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v`` to get a one-line verdict per
criterion; each test also prints an ``ACCEPTANCE`` summary line visible with
``-s``. The checks here intentionally re-derive expectations from scratch
(hand-labeled edges, an independently coded trigger oracle, literal doc text)
instead of reusing the implementation's own intermediate results.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repodoc
from repodoc.change_tracker import (
    TRIGGER_NEW_OBJECT,
    TRIGGER_NEW_REFERENCE,
    TRIGGER_REFERRER_REMOVED,
    TRIGGER_SOURCE_MODIFIED,
    diff_objects,
    plan_updates,
    run_update,
)
from repodoc.config import load_config
from repodoc.doc_pipeline import (
    DocStore,
    load_store,
    parse_doc,
    save_store,
)
from repodoc.errors import CorruptStoreError
from repodoc.eval_harness import check_format, param_accuracy, reference_recall
from repodoc.llm_gateway import Gateway
from repodoc.markdown_publisher import write_site
from repodoc.project_graph import build_tree, resolve_references, topological_order
from repodoc.source_model import FUNCTION, parse_repository, scan_repository

from .conftest import git
from .helpers import (
    DEMO_FILES,
    LABELED_EDGES,
    LABELED_OBJECT_COUNT,
    LABELED_REMOVED_EDGE,
    FailingProvider,
    build_repo_graph,
    generate_repo,
    generate_stale,
    make_gateway,
    make_config,
    reference_sets,
    write_tree,
)

STORE_REL = ".project_doc_record/project_hierarchy.json"


def edge_pairs(edges):
    return {(e.caller, e.callee) for e in edges}


# --- criterion 1: reference extraction hits every hand-labeled edge ---------


def test_criterion_1_reference_recall_on_labeled_repo(labeled_repo):
    start = time.monotonic()
    sources = scan_repository(labeled_repo)
    parses = parse_repository(sources, sources)
    nodes = build_tree(list(sources), parses)
    raw_edges, _ = resolve_references(nodes, parses)
    recall = reference_recall(
        reference_sets(edge_pairs(raw_edges)), reference_sets(LABELED_EDGES)
    )
    elapsed = time.monotonic() - start

    graph = build_repo_graph(labeled_repo)
    assert len(graph.objects) == LABELED_OBJECT_COUNT >= 15
    assert len(LABELED_EDGES) >= 8
    assert recall == 1.0
    assert edge_pairs(graph.removed_edges) == {LABELED_REMOVED_EDGE}
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE criterion 1: PASS - recall {recall} over {len(LABELED_EDGES)} "
        f"labeled edges in {elapsed:.3f}s"
    )


# --- criterion 2: generation order is safe and reproducible -----------------


def _random_repo_files(rng: random.Random) -> dict[str, str]:
    """A random acyclic repository: every reference targets a later entity."""
    modules = ["m0.py", "pkg/m1.py", "m2.py"][: rng.randint(1, 3)]
    budget = rng.randint(5, 30)
    entities: list[tuple[str, str, str]] = []
    index = 0
    while budget > 0:
        module = modules[rng.randrange(len(modules))]
        if budget >= 2 and rng.random() < 0.2:
            entities.append(("class", f"Shape{index}", module))
            budget -= 2
        else:
            entities.append(("fn", f"step{index}", module))
            budget -= 1
        index += 1

    per_module_defs: dict[str, list[str]] = {m: [] for m in modules}
    per_module_imports: dict[str, set[tuple[str, str]]] = {m: set() for m in modules}
    for position, (kind, name, module) in enumerate(entities):
        later = entities[position + 1 :]
        exprs = []
        for _ in range(rng.randint(0, 2)):
            if not later:
                break
            _, tname, tmodule = later[rng.randrange(len(later))]
            exprs.append(f"{tname}()")
            if tmodule != module:
                per_module_imports[module].add((tmodule, tname))
        body = " + ".join(exprs) if exprs else "1"
        if kind == "fn":
            per_module_defs[module].append(f"def {name}():\n    return {body}\n")
        else:
            per_module_defs[module].append(
                f"class {name}:\n    def run(self):\n        return {body}\n"
            )

    files: dict[str, str] = {}
    for module in modules:
        imports = [
            f"from {mod[:-3].replace('/', '.')} import {iname}"
            for mod, iname in sorted(per_module_imports[module])
        ]
        header = "\n".join(imports)
        body = "\n\n".join(per_module_defs[module])
        files[module] = (header + "\n\n\n" if header else "") + body
    return files


def test_criterion_2_topological_order_on_random_repos(tmp_path):
    checked_edges = 0
    for seed in range(100):
        rng = random.Random(seed)
        root = tmp_path / f"seed{seed}"
        write_tree(root, _random_repo_files(rng))

        graph, _, report, _ = generate_repo(root)
        assert report.ok and graph.removed_edges == []
        assert report.generated == topological_order(graph), seed
        position = {oid: i for i, oid in enumerate(report.generated)}
        assert set(position) == set(graph.objects)
        for edge in graph.edges:
            assert position[edge.callee] < position[edge.caller], (seed, edge)
            checked_edges += 1
        for oid in graph.objects:
            for child in graph.object_children(oid):
                assert position[child] < position[oid], (seed, oid, child)

        _, _, second, _ = generate_repo(root)
        assert second.generated == report.generated, seed
    print(
        f"ACCEPTANCE criterion 2: PASS - 100 random repos, {checked_edges} edges "
        "generated callee-first, order reproducible"
    )


# --- criterion 3: a second run is free and byte-stable -----------------------


def test_criterion_3_rerun_makes_no_requests_and_no_byte_changes(demo_repo):
    graph, store, _, _ = generate_repo(demo_repo)
    out = demo_repo / "markdown_docs"
    write_site(graph, store, out)
    before = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.md"))}

    gateway = make_gateway()
    report = generate_stale(graph, gateway, store, make_config(demo_repo), 1)
    rewritten = write_site(graph, store, out)
    after = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.md"))}

    assert gateway.provider.prompts == []
    assert report.generated == [] and len(report.skipped) == 5
    assert rewritten == []
    assert after == before
    print(
        "ACCEPTANCE criterion 3: PASS - rerun made 0 provider requests and "
        f"left all {len(before)} pages byte-identical"
    )


# --- criterion 4: staged-change triggers match an independent oracle --------

_PRIORITY = [
    TRIGGER_SOURCE_MODIFIED,
    TRIGGER_NEW_OBJECT,
    TRIGGER_REFERRER_REMOVED,
    TRIGGER_NEW_REFERENCE,
]


def _oracle_plan(old, new):
    """Trigger selection recoded from the rules, straight off two graphs."""
    old_ids, new_ids = set(old.objects), set(new.objects)
    old_edges = edge_pairs(old.edges)
    new_edges = edge_pairs(new.edges)
    regenerate: dict[str, str] = {}
    for oid in new_ids:
        candidates = []
        if oid in old_ids and old.objects[oid].source_hash != new.objects[oid].source_hash:
            candidates.append(TRIGGER_SOURCE_MODIFIED)
        if oid not in old_ids:
            candidates.append(TRIGGER_NEW_OBJECT)
        if any(callee == oid for _, callee in old_edges - new_edges):
            candidates.append(TRIGGER_REFERRER_REMOVED)
        if any(callee == oid for _, callee in new_edges - old_edges):
            candidates.append(TRIGGER_NEW_REFERENCE)
        if candidates:
            regenerate[oid] = min(candidates, key=_PRIORITY.index)
    return tuple(sorted(regenerate.items())), tuple(sorted(old_ids - new_ids))


_MUTATIONS = [
    (
        "edit f's body",
        {"a.py": DEMO_FILES["a.py"].replace("return 1", "return 2")},
        (("a.py/f", TRIGGER_SOURCE_MODIFIED),),
        (),
    ),
    (
        "h starts calling f",
        {"util/b.py": "from a import f, g\n\n\ndef h():\n    return g(3) + f()\n"},
        (("a.py/f", TRIGGER_NEW_REFERENCE), ("util/b.py/h", TRIGGER_SOURCE_MODIFIED)),
        (),
    ),
    (
        "h stops calling g",
        {"util/b.py": "from a import g\n\n\ndef h():\n    return 3\n"},
        (("a.py/g", TRIGGER_REFERRER_REMOVED), ("util/b.py/h", TRIGGER_SOURCE_MODIFIED)),
        (),
    ),
    (
        "new function k calls g",
        {"a.py": DEMO_FILES["a.py"] + "\n\ndef k():\n    return g(5)\n"},
        (("a.py/g", TRIGGER_NEW_REFERENCE), ("a.py/k", TRIGGER_NEW_OBJECT)),
        (),
    ),
    (
        "delete f; g no longer calls it",
        {
            "a.py": (
                "class C:\n"
                "    def m(self):\n"
                "        return g(2)\n"
                "\n"
                "\n"
                "def g(x):\n"
                "    return x\n"
            )
        },
        (("a.py/g", TRIGGER_SOURCE_MODIFIED),),
        ("a.py/f",),
    ),
    (
        "rename util/b.py to util/c.py",
        {"util/b.py": None, "util/c.py": DEMO_FILES["util/b.py"]},
        (("a.py/g", TRIGGER_REFERRER_REMOVED), ("util/c.py/h", TRIGGER_NEW_OBJECT)),
        ("util/b.py/h",),
    ),
]


def test_criterion_4_update_triggers_match_oracle(tmp_path):
    old_root = tmp_path / "old"
    write_tree(old_root, DEMO_FILES)
    old = build_repo_graph(old_root)

    for index, (label, replacements, expect_regen, expect_delete) in enumerate(_MUTATIONS):
        new_files = dict(DEMO_FILES)
        for rel, text in replacements.items():
            if text is None:
                new_files.pop(rel)
            else:
                new_files[rel] = text
        new_root = tmp_path / f"new{index}"
        write_tree(new_root, new_files)
        new = build_repo_graph(new_root)

        plan = plan_updates(diff_objects(old, new))
        oracle_regen, oracle_delete = _oracle_plan(old, new)
        assert plan.regenerate == oracle_regen == expect_regen, label
        assert plan.delete_docs == oracle_delete == expect_delete, label

    # dependency inversion: editing a callee's body never touches its callers
    body_edit_plan = plan_updates(
        diff_objects(old, build_repo_graph(tmp_path / "new0"))
    )
    regenerate_ids = {oid for oid, _ in body_edit_plan.regenerate}
    assert regenerate_ids == {"a.py/f"}
    for caller in old.callers("a.py/f"):
        assert caller not in regenerate_ids
    print(
        f"ACCEPTANCE criterion 4: PASS - {len(_MUTATIONS)} scripted mutations match "
        "the independent trigger oracle, callers of an edited callee untouched"
    )


# --- criterion 5: format checking with zero per-section false negatives -----


def _doc_mutations(obj, doc: str):
    name = obj.id.rsplit("/", 1)[-1]
    parsed = parse_doc(doc, obj.kind, obj.has_return)
    yield "name_ok", doc.split("\n\n", 1)[1]
    if parsed.param_label == "parameters":
        yield "params_ok", doc.replace("**parameters**:", "**Attributes**:")
    else:
        yield "params_ok", doc.replace("**Attributes**:", "**parameters**:")
    yield "code_description_ok", doc.replace(
        f"**Code Description**: Deterministic stub analysis of {name}.",
        "**Code Description**:",
    )
    yield "note_ok", doc.replace("**Note**:", "Note:")
    if parsed.output_example is not None:
        yield "output_example_ok", doc.replace(
            f"\n\n**Output Example**: Deterministic stub output of {name}.", ""
        )
    else:
        yield "output_example_ok", doc + "\n\n**Output Example**: fabricated."
    yield "no_extras", doc + "\n\n**Note**: duplicated."


def test_criterion_5_mock_docs_comply_and_defects_are_caught(labeled_repo):
    graph, store, _, _ = generate_repo(labeled_repo)
    assert len(store.records) == LABELED_OBJECT_COUNT
    seeded = 0
    for oid, record in store.records.items():
        obj = graph.objects[oid]
        doc = record.text
        parsed = parse_doc(doc, obj.kind, obj.has_return)
        assert check_format(parsed, obj.kind, obj.has_return).compliant, oid

        for flag_name, mutated in _doc_mutations(obj, doc):
            assert mutated != doc, (oid, flag_name)
            parsed = parse_doc(mutated, obj.kind, obj.has_return)
            flags = check_format(parsed, obj.kind, obj.has_return)
            assert not getattr(flags, flag_name), (oid, flag_name)
            assert not flags.compliant
            seeded += 1
    print(
        f"ACCEPTANCE criterion 5: PASS - {len(store.records)} mock docs 100% "
        f"compliant; all {seeded} seeded defects caught by their section flag"
    )


# --- criterion 6: parameter extraction and accuracy scoring ------------------

CLEAN_INPUT_DOC = (
    "**clean_input**: The function of clean_input is to strip wrapper text "
    "from a raw completion before parsing.\n"
    "**parameters**:\n"
    "- `config`: run settings that choose which wrappers to remove.\n"
    "- `prompt`: the raw completion text to clean.\n"
    "**Code Description**: Drops any leading role banner and trailing sign-off "
    "lines, then returns the remaining body unchanged.\n"
    "**Note**: Pass the whole completion, not a fragment of it.\n"
    "**Output Example**: \"plain body text\""
)


def _params(doc: str) -> list[str]:
    return [param for param, _ in parse_doc(doc, FUNCTION, False).params]


def test_criterion_6_param_extraction_and_accuracy(labeled_repo):
    assert _params(CLEAN_INPUT_DOC) == ["config", "prompt"]

    graph, store, _, _ = generate_repo(labeled_repo)
    scores = [
        param_accuracy(
            _params(record.text), graph.objects[oid].params
        )
        for oid, record in store.records.items()
    ]
    assert sum(scores) / len(scores) == 1.0

    assert param_accuracy(["x", "phantom"], ["x"]) == 0.5
    print(
        "ACCEPTANCE criterion 6: PASS - literal doc yields ['config', 'prompt'], "
        f"mean accuracy 1.0 over {len(scores)} docs, phantom case scores 0.5"
    )


# --- criterion 7: pre-commit hook keeps docs in the same commit --------------


def _child_env():
    """The environment for child processes that must import the repodoc under test.

    The package may be importable here only through a relative ``PYTHONPATH``
    entry (``PYTHONPATH=src``), which means nothing in a child that runs in a
    temporary repository. So the directory that holds the imported package goes
    first, and every existing entry follows, made absolute.
    """
    package_root = str(Path(repodoc.__file__).resolve().parent.parent)
    inherited = [
        os.path.abspath(entry)
        for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if entry
    ]
    return {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, *inherited])}


def _cli(repo, *args):
    return subprocess.run(
        [sys.executable, "-m", "repodoc", *args],
        cwd=repo,
        capture_output=True,
        text=True,
        env=_child_env(),
    )


def test_criterion_7_hook_updates_docs_within_the_commit(git_demo_repo):
    repo = git_demo_repo
    proc = _cli(repo, "generate")
    assert proc.returncode == 0, proc.stderr
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", "add demo sources and docs")
    proc = _cli(repo, "install-hook")
    assert proc.returncode == 0, proc.stderr

    store_before = load_store(repo / STORE_REL)
    source = (repo / "a.py").read_text(encoding="utf-8")
    (repo / "a.py").write_text(
        source.replace("def f():\n    return 1", "def f(value):\n    return value + 1"),
        encoding="utf-8",
    )
    git(repo, "add", "a.py")
    # The installed hook inherits this environment from git.
    commit = subprocess.run(
        ["git", "-C", str(repo), "commit", "-m", "give f a parameter"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert commit.returncode == 0, commit.stderr
    assert "Passed" in commit.stdout + commit.stderr

    shown = git(repo, "show", "--name-only", "--pretty=format:", "HEAD").split()
    assert "a.py" in shown
    assert "markdown_docs/a.md" in shown
    assert STORE_REL in shown

    store_after = load_store(repo / STORE_REL)
    assert set(store_after.records) == set(store_before.records)
    for oid, record in store_after.records.items():
        if oid == "a.py/f":
            assert record != store_before.records[oid]
            params = parse_doc(record.text, FUNCTION, True).params
            assert ("value", "stub description of value.") in params
        else:
            assert record == store_before.records[oid]
    print(
        "ACCEPTANCE criterion 7: PASS - hook regenerated a.py/f and committed "
        "source, page and store together"
    )


# --- criterion 8: the store survives round trips and failed updates ----------


def test_criterion_8_store_integrity(git_demo_repo, tmp_path):
    repo = git_demo_repo
    git(repo, "add", "-A")
    config = load_config(repo)
    report = run_update(make_gateway(), config, 1)
    assert report.ok
    git(repo, "commit", "-qm", "seed")

    # the store and its pages read back as they were written: each text
    # from its page, saved again to the same bytes
    store_path, doc_dir = repo / STORE_REL, repo / config.doc_dir
    loaded = load_store(store_path, None, doc_dir)
    assert len(loaded.records) == 5 and loaded.pages_at_rest == {"a.py", "util/b.py"}
    copy_path = tmp_path / "copy.json"
    save_store(loaded, copy_path, None, frozenset())
    assert copy_path.read_bytes() == store_path.read_bytes()
    assert loaded.records == load_store(copy_path, None, doc_dir).records

    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text('{"version": 1, "records": "nope"', encoding="utf-8")
    with pytest.raises(CorruptStoreError):
        load_store(corrupt)

    before = store_path.read_bytes()
    (repo / "a.py").write_text(
        DEMO_FILES["a.py"].replace("return 1", "return 2"), encoding="utf-8"
    )
    git(repo, "add", "a.py")
    failing = Gateway(FailingProvider(frozenset({"f"})), retries=0)
    failed_report = run_update(failing, config, 1)
    assert not failed_report.ok
    assert store_path.read_bytes() == before
    print(
        "ACCEPTANCE criterion 8: PASS - byte-stable round trip, corrupt store "
        "rejected, failed update left the store untouched"
    )


# --- criterion 9: the full pipeline is fast on the labeled repo --------------


def test_criterion_9_full_pipeline_under_five_seconds(labeled_repo):
    start = time.monotonic()
    proc = _cli(labeled_repo, "generate")
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    assert (labeled_repo / STORE_REL).exists()
    assert (labeled_repo / "markdown_docs" / "SUMMARY.md").exists()
    assert elapsed < 5.0
    print(
        f"ACCEPTANCE criterion 9: PASS - generate over {LABELED_OBJECT_COUNT} objects "
        f"finished in {elapsed:.2f}s (< 5s)"
    )
