from __future__ import annotations

from pathlib import Path

import pytest

import repodoc.markdown_publisher as publisher
from repodoc.cli import main
from repodoc.doc_pipeline import SNAPSHOT_DIGEST_NAME, DocStore
from repodoc.markdown_publisher import (
    PLACEHOLDER,
    SUMMARY_NAME,
    compile_file_doc,
    compile_summary,
    page_path_for,
    write_site,
)

from .helpers import build_repo_graph, generate_repo, write_tree

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
    page = compile_file_doc(graph, "a.py", store)
    assert page.output_path == "a.md"
    assert page.body == EXPECTED_A_MD


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
    assert headings(compile_file_doc(graph, "order.py", store).body) == expected

    # again from the saved store, and byte for byte as the version-2 release wrote it
    assert main(["generate", "--repo", str(order_repo)]) == 0
    page = order_repo / "markdown_docs" / "order.md"
    page.unlink()
    assert main(["publish", "--repo", str(order_repo)]) == 0
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
    assert page.body == "# util/__init__.py\n"


def test_missing_record_renders_placeholder(demo_repo):
    graph = build_repo_graph(demo_repo)
    page = compile_file_doc(graph, "util/b.py", DocStore())
    assert PLACEHOLDER in page.body
    assert page.body == f"# util/b.py\n\n## FunctionDef h\n\n{PLACEHOLDER}\n"


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
    real_forget, real_write, real_mkdir = publisher.forget_snapshot, Path.write_bytes, Path.mkdir

    def forget(git_dir):
        events.append(("forget", git_dir))
        real_forget(git_dir)

    def write_bytes(path, data):
        events.append(("write", path.relative_to(out).as_posix()))
        return real_write(path, data)

    def mkdir(path, *args, **kwargs):
        events.append(("mkdir", path))
        return real_mkdir(path, *args, **kwargs)

    monkeypatch.setattr(publisher, "forget_snapshot", forget)
    monkeypatch.setattr(Path, "write_bytes", write_bytes)
    monkeypatch.setattr(Path, "mkdir", mkdir)
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
    real_write = Path.write_bytes

    class Stopped(Exception):
        pass

    def write_one(path, data):
        if out.exists() and any(out.iterdir()):
            raise Stopped
        return real_write(path, data)

    monkeypatch.setattr(Path, "write_bytes", write_one)
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
    assert "## ClassDef A" in page.body
    assert "###### ClassDef E" in page.body
    assert "###### FunctionDef leaf" in page.body
    assert "#######" not in page.body
