"""Render doc records into a GitBook-style Markdown tree, and read it back.

One page per source file, mirroring the repository layout under the output
directory, plus a SUMMARY.md table of contents. Pages are written only when
their bytes change; stale pages from deleted sources are removed. A page
gives each text back (``split_file_doc``), so the store may leave out the
texts its pages hold.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path, PurePosixPath
from typing import Collection, Mapping

from .doc_pipeline import DocStore, forget_snapshot
from .project_graph import DIR, FILE, REPO, RepoGraph, ROOT_ID, TreeNode
from .source_model import CLASS, SOURCE_SUFFIX

SUMMARY_NAME = "SUMMARY.md"
PLACEHOLDER = "*(documentation not yet generated)*"
# what a page holds between one object's text and the next object's heading
SEPARATOR = "\n\n***\n\n"

_HEADING_BY_KIND = {CLASS: "ClassDef"}


def page_path_for(source_file: str) -> str:
    """markdown page path for a source file: util/b.py -> util/b.md"""
    return source_file.removesuffix(SOURCE_SUFFIX) + ".md"


def _openers(graph: RepoGraph, file_id: str) -> list[tuple[str, str]]:
    """Each object of a page in source order, with what the page holds
    before its text: a blank line or the separator, its heading (``#`` by
    depth, its kind's label and its name) and a blank line."""
    openers = []
    for object_id, depth in graph.file_objects(file_id):
        obj = graph.objects[object_id]
        label = _HEADING_BY_KIND.get(obj.kind, "FunctionDef")
        heading = f"{'#' * min(1 + depth, 6)} {label} {obj.name}\n\n"
        openers.append((object_id, ("\n\n" if not openers else SEPARATOR) + heading))
    return openers


def compile_file_doc(graph: RepoGraph, file_id: str, store: DocStore) -> str:
    """One page's text: H1 of the file path, then each object in source
    order, under its heading, with the separator between objects."""
    parts = [f"# {file_id}"]
    for object_id, opener in _openers(graph, file_id):
        record = store.records.get(object_id)
        parts += [opener, record.text if record else PLACEHOLDER]
    return "".join(parts) + "\n"


def readable(text: str) -> bool:
    """Whether ``split_file_doc`` reads ``text`` back from its page without
    the store's help: it neither holds the separator, nor starts one that
    the separator after it would complete, nor is the placeholder."""
    return (text + SEPARATOR).find(SEPARATOR) == len(text) and text != PLACEHOLDER


def split_file_doc(
    graph: RepoGraph, file_id: str, page: str, held: Mapping[str, str | None]
) -> dict[str, str] | None:
    """The inverse of ``compile_file_doc``: the text ``page`` holds for
    each object of ``file_id`` under ``graph`` that ``held`` does not name,
    or None when the page is not one that ``compile_file_doc`` gives.

    ``held`` maps each object whose text the store holds to that text, and
    each object with no record to None, whose page shows ``PLACEHOLDER``;
    such a text is matched verbatim, never searched. Any other text runs
    from its heading to the next separator, or for the last object to the
    page's final newline, and is no text when it reads as the placeholder.
    The headings and separators must be those that ``compile_file_doc``
    writes."""
    texts: dict[str, str] = {}
    title = f"# {file_id}"
    if not page.startswith(title):
        return None
    start, openers = len(title), _openers(graph, file_id)
    for index, (object_id, opener) in enumerate(openers):
        if not page.startswith(opener, start):
            return None
        start += len(opener)
        if object_id in held:
            text = PLACEHOLDER if held[object_id] is None else held[object_id]
            if not page.startswith(text, start):
                return None
            end = start + len(text)
        else:
            end = len(page) - 1 if index == len(openers) - 1 else page.find(SEPARATOR, start)
            if end < start or page[start:end] == PLACEHOLDER:
                return None
            texts[object_id] = page[start:end]
        start = end
    return texts if page[start:] == "\n" else None


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


def rewritten_files(graph: RepoGraph, changed: Collection[str] | None) -> set[str] | None:
    """The files whose pages hold one of ``changed``, the records and graph
    nodes that differ from those the pages on disk were compiled from, or
    None, every file, when ``changed`` is None or names the root or a
    directory, so that the set of files changed."""
    if changed is None:
        return None
    files = {graph.file_of(node_id) for node_id in changed}
    if any(graph.nodes[top].node_kind in (REPO, DIR) for top in files if top in graph.nodes):
        return None
    return files


def compiled_pages(
    graph: RepoGraph, out_dir: str | Path, files: Collection[str] | None
) -> dict[str, str | None]:
    """The pages that ``write_site`` compiles, by doc-dir-relative path,
    each with its file, SUMMARY.md with None: those of ``files``, the
    ``rewritten_files``, or of every file when it is None, and any other
    whose file a stat finds missing."""
    out = os.fspath(out_dir)
    return {
        rel: file_id
        for rel, file_id in [(SUMMARY_NAME, None), *((page_path_for(f), f) for f in graph.files)]
        if files is None or file_id in files or not os.path.exists(os.path.join(out, rel))
    }


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
    from; only the pages of ``compiled_pages`` are compiled.
    """
    out_dir = Path(out_dir)
    out = os.fspath(out_dir)
    files = rewritten_files(graph, changed)
    pages = compiled_pages(graph, out_dir, files)

    written: list[str] = []
    made: set[str] = set()  # the directories made this run
    for rel in sorted(pages):
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
            if rel not in pages:
                forget_snapshot(git_dir)
                page.unlink()
        for directory in sorted(out_dir.rglob("*"), reverse=True):
            if directory.is_dir() and not any(directory.iterdir()):
                directory.rmdir()
    return written
