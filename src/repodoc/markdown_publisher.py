"""Render doc records into a GitBook-style Markdown tree.

One page per source file, mirroring the repository layout under the output
directory, plus a SUMMARY.md table of contents. Pages are written only when
their bytes change; stale pages from deleted sources are removed.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path, PurePosixPath
from typing import Collection

from .doc_pipeline import DocStore, forget_snapshot
from .project_graph import DIR, FILE, REPO, RepoGraph, ROOT_ID, TreeNode
from .source_model import CLASS, SOURCE_SUFFIX

SUMMARY_NAME = "SUMMARY.md"
PLACEHOLDER = "*(documentation not yet generated)*"

_HEADING_BY_KIND = {CLASS: "ClassDef"}


def page_path_for(source_file: str) -> str:
    """markdown page path for a source file: util/b.py -> util/b.md"""
    return source_file.removesuffix(SOURCE_SUFFIX) + ".md"


def compile_file_doc(graph: RepoGraph, file_id: str, store: DocStore) -> str:
    """One page's text: H1 of the file path, then each object in source
    order."""
    parts = [f"# {file_id}"]
    for object_id, depth in graph.file_objects(file_id):
        obj = graph.objects[object_id]
        level = min(1 + depth, 6)
        label = _HEADING_BY_KIND.get(obj.kind, "FunctionDef")
        parts.append(f"{'#' * level} {label} {obj.name}")
        record = store.records.get(obj.id)
        parts.append(record.text if record else PLACEHOLDER)
        parts.append("***")
    if parts and parts[-1] == "***":
        parts.pop()
    return "\n\n".join(parts) + "\n"


def _summary_lines(node: TreeNode, nodes: dict[str, TreeNode], depth: int) -> list[str]:
    lines: list[str] = []
    for child_id in node.children:
        child = nodes[child_id]
        indent = "  " * depth
        if child.node_kind == FILE:
            lines.append(f"{indent}- [{child_id}]({page_path_for(child_id)})")
        else:
            name = PurePosixPath(child_id).name
            sub = _summary_lines(child, nodes, depth + 1)
            if sub:
                lines.append(f"{indent}- {name}/")
                lines.extend(sub)
    return lines


def compile_summary(graph: RepoGraph) -> str:
    lines = ["# Summary", ""]
    lines.extend(_summary_lines(graph.nodes[ROOT_ID], graph.nodes, 0))
    return "\n".join(lines) + "\n"


def write_site(
    graph: RepoGraph,
    store: DocStore,
    out_dir: str | Path,
    changed: Collection[str] | None = None,
    git_dir: Path | None = None,
) -> list[str]:
    """Write each page and SUMMARY.md whose file does not hold its bytes,
    and remove stale pages. Returns the doc-dir-relative paths (re)written.
    Given the repository's ``git_dir``, the digest recorded there is removed
    before any page changes (``forget_snapshot``), so that no run trusts the
    pages of a run that stopped while writing them.

    Without ``changed``, every page is compiled and compared, and every
    ``.md`` file that is no page is removed. ``changed`` names the records
    and graph nodes that differ from those the pages on disk were compiled
    from. Unless it names the root or a directory, so that the set of files
    is the same, only the pages of the files that hold one of them are
    compiled; any other page, SUMMARY.md included, is written only when a
    stat finds it missing.
    """
    out_dir = Path(out_dir)
    out = os.fspath(out_dir)
    pages = {page_path_for(file_id): file_id for file_id in graph.files}
    files = None if changed is None else {graph.file_of(node_id) for node_id in changed}
    if files is not None and any(
        graph.nodes[top].node_kind in (REPO, DIR) for top in files if top in graph.nodes
    ):
        files = None  # the set of files changed
    compile_rels = [
        rel
        for rel, file_id in [(SUMMARY_NAME, None), *pages.items()]
        if files is None or file_id in files or not os.path.exists(os.path.join(out, rel))
    ]

    written: list[str] = []
    made: set[str] = set()  # the directories made this run
    for rel in sorted(compile_rels):
        if rel == SUMMARY_NAME:
            body = compile_summary(graph).encode("utf-8")
        else:
            body = compile_file_doc(graph, pages[rel], store).encode("utf-8")
        target = os.path.join(out, rel)
        with contextlib.suppress(FileNotFoundError), open(target, "rb") as handle:
            if handle.read() == body:
                continue
        if not written:
            forget_snapshot(git_dir)
        directory = os.path.dirname(target)
        if directory not in made:
            os.makedirs(directory, exist_ok=True)
            made.add(directory)
        with open(target, "wb") as handle:
            handle.write(body)
        written.append(rel)

    if files is None and out_dir.exists():
        for page in sorted(out_dir.rglob("*.md")):
            rel = page.relative_to(out_dir).as_posix()
            if rel != SUMMARY_NAME and rel not in pages:
                forget_snapshot(git_dir)
                page.unlink()
        for directory in sorted(out_dir.rglob("*"), reverse=True):
            if directory.is_dir() and not any(directory.iterdir()):
                directory.rmdir()
    return written
