from __future__ import annotations

import builtins
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repodoc.markdown_publisher as publisher
from repodoc.cli import main
from repodoc.doc_pipeline import (
    SNAPSHOT_DIGEST_NAME,
    DocRecord,
    DocStore,
    load_store,
    record_snapshot,
    save_store,
)
from repodoc.markdown_publisher import (
    PLACEHOLDER,
    SUMMARY_NAME,
    compile_file_doc,
    compile_summary,
    page_path_for,
    readable,
    split_file_doc,
    write_site,
)

from .helpers import DEMO_FILES, build_repo_graph, generate_repo, write_tree

DEMO_A, DEMO_B = DEMO_FILES["a.py"], DEMO_FILES["util/b.py"]

ORDER_V2_PAGE = Path(__file__).parent / "data" / "order_store_v2" / "markdown_docs" / "order.md"

EXPECTED_A_MD = """# a.py

## ClassDef C

**C**: The function of C is C stub.

**Attributes**: The attributes of this Class.

**Code Description**: Deterministic stub analysis of C.

**Note**: Deterministic stub note about using C.

**Output Example**: Deterministic stub output of C.

***

### FunctionDef m

**m**: The function of m is m stub.

**parameters**: The parameters of this Function.

**Code Description**: Deterministic stub analysis of m.

**Note**: Deterministic stub note about using m.

**Output Example**: Deterministic stub output of m.

***

## FunctionDef f

**f**: The function of f is f stub.

**parameters**: The parameters of this Function.

**Code Description**: Deterministic stub analysis of f.

**Note**: Deterministic stub note about using f.

**Output Example**: Deterministic stub output of f.

***

## FunctionDef g

**g**: The function of g is g stub.

**parameters**: The parameters of this Function.
- `x`: stub description of x.

**Code Description**: Deterministic stub analysis of g.

**Note**: Deterministic stub note about using g.

**Output Example**: Deterministic stub output of g.
"""

EXPECTED_DEMO_SUMMARY = """# Summary

- [a.py](a.md)
- util/
  - [util/b.py](util/b.md)
"""


def test_page_path_mapping():
    assert page_path_for("a.py") == "a.md"
    assert page_path_for("util/b.py") == "util/b.md"


def test_demo_page_is_frozen(demo_repo):
    graph, store, _, _ = generate_repo(demo_repo)
    assert compile_file_doc(graph, "a.py", store) == EXPECTED_A_MD


def test_demo_summary_is_frozen(demo_repo):
    graph, _, _, _ = generate_repo(demo_repo)
    assert compile_summary(graph) == EXPECTED_DEMO_SUMMARY


def headings(page: str) -> list[str]:
    return [line for line in page.splitlines() if line.startswith("#")]


def test_page_lists_objects_in_source_order(order_repo):
    expected = [
        "# order.py",
        "## FunctionDef b",
        "## FunctionDef a",
        "## ClassDef K",
        "### FunctionDef z",
        "### FunctionDef y",
        "## FunctionDef s",
        "## FunctionDef r",
    ]
    graph, store, _, _ = generate_repo(order_repo)
    assert headings(compile_file_doc(graph, "order.py", store)) == expected

    # again through the command, and byte for byte as the version-2 release wrote it
    assert main(["generate", "--repo", str(order_repo)]) == 0
    page = order_repo / "markdown_docs" / "order.md"
    assert page.read_bytes() == ORDER_V2_PAGE.read_bytes()
    # the page holds the docs that the store leaves to it: publish cannot
    # restore it, and generate regenerates them
    page.unlink()
    assert main(["publish", "--repo", str(order_repo)]) == 1
    assert not page.exists()
    assert main(["generate", "--repo", str(order_repo)]) == 0
    assert headings(page.read_text(encoding="utf-8")) == expected
    assert page.read_bytes() == ORDER_V2_PAGE.read_bytes()


def test_labeled_summary_nests_and_keeps_init(labeled_repo):
    graph = build_repo_graph(labeled_repo)
    assert compile_summary(graph) == (
        "# Summary\n"
        "\n"
        "- [app.py](app.md)\n"
        "- [core.py](core.md)\n"
        "- util/\n"
        "  - [util/__init__.py](util/__init__.md)\n"
        "  - [util/tools.py](util/tools.md)\n"
    )


def test_empty_module_page_is_title_only(labeled_repo):
    graph = build_repo_graph(labeled_repo)
    page = compile_file_doc(graph, "util/__init__.py", DocStore())
    assert page == "# util/__init__.py\n"


def test_missing_record_renders_placeholder(demo_repo):
    graph = build_repo_graph(demo_repo)
    page = compile_file_doc(graph, "util/b.py", DocStore())
    assert PLACEHOLDER in page
    assert page == f"# util/b.py\n\n## FunctionDef h\n\n{PLACEHOLDER}\n"


def test_write_site_roundtrip_and_idempotence(demo_repo, tmp_path):
    graph, store, _, _ = generate_repo(demo_repo)
    out = tmp_path / "site"
    written = write_site(graph, store, out)
    assert written == [SUMMARY_NAME, "a.md", "util/b.md"]
    assert (out / "a.md").read_text(encoding="utf-8") == EXPECTED_A_MD
    assert (out / SUMMARY_NAME).read_text(encoding="utf-8") == EXPECTED_DEMO_SUMMARY
    assert write_site(graph, store, out) == []


def test_write_site_rewrites_a_page_that_is_not_utf8(demo_repo, tmp_path):
    graph, store, _, _ = generate_repo(demo_repo)
    out = tmp_path / "site"
    write_site(graph, store, out)
    (out / "a.md").write_bytes(b"# a.py\n\nhand-edited \xff\xfe\n")
    assert write_site(graph, store, out) == ["a.md"]
    assert (out / "a.md").read_text(encoding="utf-8") == EXPECTED_A_MD
    assert write_site(graph, store, out) == []


def test_write_site_prunes_stale_pages(demo_repo, tmp_path):
    graph, store, _, _ = generate_repo(demo_repo)
    out = tmp_path / "site"
    write_site(graph, store, out)
    (out / "leftover.md").write_text("orphan\n", encoding="utf-8")

    (demo_repo / "util" / "b.py").unlink()
    graph2, store2, _, _ = generate_repo(demo_repo)
    written = write_site(graph2, store2, out)
    assert SUMMARY_NAME in written
    assert not (out / "util").exists()
    assert not (out / "leftover.md").exists()
    assert (out / "a.md").exists()


def _digest_in(tmp_path: Path) -> Path:
    git_dir = tmp_path / "git"
    git_dir.mkdir()
    digest = git_dir / SNAPSHOT_DIGEST_NAME
    digest.write_text("0" * 64 + "\n", encoding="utf-8")
    return digest


def test_a_cold_write_site_forgets_the_digest_once_and_makes_each_directory_once(
    demo_repo, tmp_path, monkeypatch
):
    graph, store, _, _ = generate_repo(demo_repo)
    digest, out = _digest_in(tmp_path), tmp_path / "site"
    events: list[tuple[str, object]] = []
    real_forget, real_open, real_makedirs = publisher.forget_snapshot, builtins.open, os.makedirs

    def forget(git_dir):
        events.append(("forget", git_dir))
        real_forget(git_dir)

    def open_file(file, mode="r", *args, **kwargs):
        if mode == "wb":
            events.append(("write", Path(file).relative_to(out).as_posix()))
        return real_open(file, mode, *args, **kwargs)

    def makedirs(path, *args, **kwargs):
        events.append(("mkdir", Path(path)))
        return real_makedirs(path, *args, **kwargs)

    monkeypatch.setattr(publisher, "forget_snapshot", forget)
    monkeypatch.setattr(builtins, "open", open_file)
    monkeypatch.setattr(os, "makedirs", makedirs)
    assert write_site(graph, store, out, git_dir=digest.parent) == [SUMMARY_NAME, "a.md", "util/b.md"]
    assert events == [
        ("forget", digest.parent),
        ("mkdir", out),
        ("write", SUMMARY_NAME),
        ("write", "a.md"),
        ("mkdir", out / "util"),
        ("write", "util/b.md"),
    ]
    assert not digest.exists()


def test_a_write_site_stopped_after_its_first_page_leaves_no_digest(
    demo_repo, tmp_path, monkeypatch
):
    graph, store, _, _ = generate_repo(demo_repo)
    digest, out = _digest_in(tmp_path), tmp_path / "site"
    real_open = builtins.open

    class Stopped(Exception):
        pass

    def write_one(file, mode="r", *args, **kwargs):
        if mode == "wb" and out.exists() and any(out.iterdir()):
            raise Stopped
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", write_one)
    with pytest.raises(Stopped):
        write_site(graph, store, out, git_dir=digest.parent)
    assert [p.name for p in out.rglob("*.md")] == [SUMMARY_NAME]
    assert not digest.exists()


def test_heading_depth_caps_at_six(tmp_path):
    nested = (
        "class A:\n"
        "    class B:\n"
        "        class C:\n"
        "            class D:\n"
        "                class E:\n"
        "                    def leaf(self):\n"
        "                        return 1\n"
    )
    write_tree(tmp_path, {"deep.py": nested})
    graph = build_repo_graph(tmp_path)
    page = compile_file_doc(graph, "deep.py", DocStore())
    assert "## ClassDef A" in page
    assert "###### ClassDef E" in page
    assert "###### FunctionDef leaf" in page
    assert "#######" not in page


# what a page holds between two objects' texts
SEP = "\n\n***\n\n"
DEMO_IDS = ["a.py/C", "a.py/C/m", "a.py/f", "a.py/g"]


def _demo_page(demo_repo, texts: dict):
    """The graph of the demo repo, and the page of a.py whose objects have
    ``texts``, an object left out having no record."""
    graph = build_repo_graph(demo_repo)
    records = {oid: DocRecord(text, "h") for oid, text in texts.items()}
    return graph, compile_file_doc(graph, "a.py", DocStore(records=records))


@pytest.mark.parametrize(
    "text, read_back",
    [
        ("", True),
        ("\n", True),
        ("\nleading and trailing\n\n", True),
        ("***", True),
        ("a line\n***\nof stars", True),
        ("## FunctionDef f\n\n**f**: a heading line", True),
        ("# a.py", True),
        ("**m**: a doc.", True),
        (f"a separator{SEP}inside", False),
        ("a separator started\n\n***", False),
        ("a separator started\n\n***\n", False),
        (SEP, False),
        (PLACEHOLDER, False),
    ],
)
def test_a_text_is_left_to_its_page_unless_the_page_cannot_give_it_back(demo_repo, text, read_back):
    assert readable(text) is read_back
    # the text of the first and of the last object of a page
    for oid in ("a.py/C", "a.py/g"):
        texts = dict.fromkeys(DEMO_IDS, "**x**: doc.") | {oid: text}
        graph, page = _demo_page(demo_repo, texts)
        held = {key: value for key, value in texts.items() if not readable(value)}
        assert split_file_doc(graph, "a.py", page, held) == {
            key: value for key, value in texts.items() if key not in held
        }


def test_a_held_text_is_matched_verbatim_and_a_missing_record_as_the_placeholder(demo_repo):
    # a held text that holds the separator and the next heading is never
    # searched; an object with no record shows the placeholder
    trap = f"**C**: a doc.{SEP}### FunctionDef m\n\nnot m's doc"
    graph, page = _demo_page(demo_repo, {"a.py/C": trap, "a.py/f": "f doc", "a.py/g": "g doc"})
    held = {"a.py/C": trap, "a.py/C/m": None}
    assert split_file_doc(graph, "a.py", page, held) == {"a.py/f": "f doc", "a.py/g": "g doc"}
    # a held text that the page does not show verbatim splits nothing
    assert split_file_doc(graph, "a.py", page, {**held, "a.py/C": trap + "!"}) is None
    assert split_file_doc(graph, "a.py", page, {**held, "a.py/C/m": "m doc"}) is None
    # a text left to the page that reads as the placeholder is no text
    assert split_file_doc(graph, "a.py", page, {"a.py/C": trap}) is None


@pytest.mark.parametrize(
    "edit",
    [
        lambda page: page.replace("## FunctionDef f", "## FunctionDef ff"),
        lambda page: page.replace("### FunctionDef m", "## FunctionDef m"),
        lambda page: page.replace("## FunctionDef g\n\n", "## FunctionDef g\n"),
        lambda page: page.replace(SEP + "## FunctionDef f", "\n\n## FunctionDef f"),
        lambda page: page.replace("# a.py", "# b.py"),
        lambda page: page[:-1],
        lambda page: page.replace(SEP, SEP + SEP, 1),
    ],
    ids=[
        "heading-renamed", "heading-level", "heading-blank-line", "separator-removed",
        "title", "final-newline-removed", "separator-doubled",
    ],
)
def test_a_page_whose_headings_or_separators_changed_does_not_split(demo_repo, edit):
    texts = {oid: f"**{oid}**: doc." for oid in DEMO_IDS}
    graph, page = _demo_page(demo_repo, texts)
    assert split_file_doc(graph, "a.py", page, {}) == texts
    assert split_file_doc(graph, "a.py", edit(page), {}) is None


# pieces of the texts of the round trip: separator lines, headings, the
# separator itself, the placeholder and newlines
PIECES = ["***", "\n", "\n\n", " ", "x", "## FunctionDef f", "### FunctionDef m", "# a.py", SEP, PLACEHOLDER]


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(
        st.one_of(st.none(), st.lists(st.sampled_from(PIECES), max_size=6).map("".join)),
        min_size=5,
        max_size=5,
    )
)
def test_pages_and_store_give_back_every_text_round_trip(texts):
    # the demo repo's five objects, each with a text of the pieces or no record
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        write_tree(root / "repo", {"a.py": DEMO_A, "util/b.py": DEMO_B})
        graph = build_repo_graph(root / "repo")
        ids = sorted(graph.objects)
        records = {
            oid: DocRecord(text, graph.objects[oid].source_hash)
            for oid, text in zip(ids, texts)
            if text is not None
        }
        store = DocStore(records=dict(records), graph_snapshot=graph)
        doc_dir, path, git_dir = root / "docs", root / "store.json", root / "git"
        git_dir.mkdir()
        write_site(graph, store, doc_dir)
        save_store(store, path, git_dir, frozenset())
        record_snapshot(store, git_dir)
        lines = json.loads(path.read_text(encoding="utf-8"))["records"]
        # only the texts that a page cannot give back are held
        assert {oid for oid, line in lines.items() if type(line) is list} == {
            oid for oid, record in records.items() if not readable(record.text)
        }
        whole, lazy = load_store(path, None, doc_dir), load_store(path, git_dir, doc_dir)
        assert lazy.recorded and whole.pages_at_rest == {graph.file_of(oid) for oid in records}
        assert whole.records == dict(lazy.records) == records
