"""Render doc records into a GitBook-style Markdown tree.

One page per source file, mirroring the repository layout under the output
directory, plus a SUMMARY.md table of contents. Pages are written only when
their bytes change; stale pages from deleted sources are removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path, PurePosixPath

from .doc_pipeline import DocStore
from .project_graph import FILE, RepoGraph, ROOT_ID, TreeNode
from .source_model import CLASS

SUMMARY_NAME = "SUMMARY.md"
PLACEHOLDER = "*(documentation not yet generated)*"

_HEADING_BY_KIND = {CLASS: "ClassDef"}


@dataclass(frozen=True)
class DocPage:
    source_file: str
    output_path: str  # posix path relative to the doc dir
    body: str


def page_path_for(source_file: str) -> str:
    """markdown page path for a source file: util/b.py -> util/b.md"""
    path = PurePosixPath(source_file)
    return str(path.with_suffix(".md"))


def compile_file_doc(graph: RepoGraph, file_id: str, store: DocStore) -> DocPage:
    """One page: H1 of the file path, then each object in source order."""
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
    body = "\n\n".join(parts) + "\n"
    return DocPage(source_file=file_id, output_path=page_path_for(file_id), body=body)


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


def write_site(graph: RepoGraph, store: DocStore, out_dir: str | Path) -> list[str]:
    """Write all pages plus SUMMARY.md; prune anything stale. Returns the
    doc-dir-relative paths actually (re)written."""
    out_dir = Path(out_dir)
    expected: dict[str, str] = {SUMMARY_NAME: compile_summary(graph)}
    for node_id, node in graph.nodes.items():
        if node.node_kind == FILE:
            page = compile_file_doc(graph, node_id, store)
            expected[page.output_path] = page.body

    written: list[str] = []
    for rel, body in sorted(expected.items()):
        target = out_dir / PurePosixPath(rel)
        target.parent.mkdir(parents=True, exist_ok=True)
        if target.exists() and target.read_text(encoding="utf-8") == body:
            continue
        target.write_text(body, encoding="utf-8", newline="\n")
        written.append(rel)

    if out_dir.exists():
        keep = set(expected)
        for page in sorted(out_dir.rglob("*.md")):
            rel = page.relative_to(out_dir).as_posix()
            if rel not in keep:
                page.unlink()
        for directory in sorted(out_dir.rglob("*"), reverse=True):
            if directory.is_dir() and not any(directory.iterdir()):
                directory.rmdir()
    return written
