"""Build the reference-recall truth for a stdlib corpus with Jedi.

Usage: python3 bench/make_truth.py idlelib [email ...]

For every call inside a def or class body, Jedi's ``goto`` (following
imports) names the definition the call reaches. Calls that land on a def or
class of the same corpus become (caller id, callee id) truth edges. The pass
is slow (minutes per corpus), so it runs once and the result is stored in
``bench/data/truth-<package>.json`` with the corpus digest it belongs to.
Jedi is not a dependency of the program; only this script needs it.
"""

from __future__ import annotations

import ast
import json
import shutil
import sys
import time
from pathlib import Path

import jedi

from corpora import (
    DATA_DIR,
    DEF_NODES,
    copy_stdlib,
    corpus_digest,
    python_version,
    stdlib_package_dir,
    walk_defs,
)

ROOT = Path(__file__).resolve().parent.parent


def call_sites(rel: str, tree: ast.AST) -> list[tuple[str, int, int]]:
    """(caller id, line, column of the called name) for calls inside bodies.

    Decorators, bases, defaults and annotations run in the enclosing scope,
    so their calls belong to the enclosing object; module-level calls have no
    documentable caller and are skipped.
    """
    out: list[tuple[str, int, int]] = []

    def visit(node: ast.AST, owner: str | None, parent_id: str) -> None:
        if isinstance(node, ast.Call) and owner is not None:
            func = node.func
            if isinstance(func, ast.Name):
                out.append((owner, func.lineno, func.col_offset))
            elif isinstance(func, ast.Attribute) and func.end_lineno is not None:
                out.append((owner, func.end_lineno, func.end_col_offset - len(func.attr)))
        if isinstance(node, DEF_NODES):
            oid = f"{parent_id}/{node.name}"
            outer = [*node.decorator_list]
            if isinstance(node, ast.ClassDef):
                outer += [*node.bases, *node.keywords]
            else:
                outer += [node.args] + ([node.returns] if node.returns else [])
            for expr in outer:
                visit(expr, owner, parent_id)
            for stmt in node.body:
                visit(stmt, oid, oid)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, owner, parent_id)

    visit(tree, None, rel)
    return out


def build_truth(package: str, work: Path) -> dict:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    copy_stdlib(package, work)
    real_root = stdlib_package_dir(package).parent
    files = sorted(p.relative_to(work).as_posix() for p in (work / package).rglob("*.py"))
    trees = {rel: ast.parse((work / rel).read_text(encoding="utf-8")) for rel in files}
    by_name_line = {
        (rel, d.name_line, d.id.rsplit("/", 1)[-1]): d.id
        for rel, tree in trees.items()
        for d in walk_defs(rel, tree)
    }

    def to_rel(path: Path | None) -> str | None:
        if path is None:
            return None
        for base in (work, real_root):
            try:
                rel = Path(path).resolve().relative_to(base.resolve()).as_posix()
            except ValueError:
                continue
            if rel.startswith(package + "/"):
                return rel
        return None

    jedi.settings.cache_directory = str(work.parent / "jedi-cache")
    project = jedi.Project(path=str(work))
    edges: set[tuple[str, str]] = set()
    sites = 0
    for rel in files:
        text = (work / rel).read_text(encoding="utf-8")
        script = jedi.Script(code=text, path=str(work / rel), project=project)
        for caller, line, col in call_sites(rel, trees[rel]):
            sites += 1
            try:
                names = script.goto(line, col, follow_imports=True)
            except Exception as exc:  # Jedi raises assorted internal errors
                print(f"{rel}:{line}:{col}: jedi failed: {exc!r}", file=sys.stderr)
                continue
            for name in names:
                target_rel = to_rel(name.module_path)
                if target_rel is None or name.line is None:
                    continue
                callee = by_name_line.get((target_rel, name.line, name.name))
                if callee is not None and callee != caller:
                    edges.add((caller, callee))
    return {
        "package": package,
        "python": python_version(),
        "sha256": corpus_digest(package),
        "jedi": jedi.__version__,
        "call_sites": sites,
        "edges": sorted([list(e) for e in edges]),
    }


def dump(truth: dict) -> str:
    """JSON with one edge per line, so that a rebuilt truth diffs readably."""
    head = {k: v for k, v in truth.items() if k != "edges"}
    edges = ",\n".join(f"  {json.dumps(edge)}" for edge in truth["edges"])
    return json.dumps(head)[:-1] + ',\n "edges": [\n' + edges + "\n ]}\n"


def main(argv: list[str]) -> int:
    DATA_DIR.mkdir(exist_ok=True)
    for package in argv:
        started = time.perf_counter()
        truth = build_truth(package, ROOT / ".bench_work" / f"truth-{package}")
        shutil.rmtree(ROOT / ".bench_work" / f"truth-{package}")
        out = DATA_DIR / f"truth-{package}.json"
        out.write_text(dump(truth), encoding="utf-8")
        print(
            f"{package}: {len(truth['edges'])} edges from {truth['call_sites']} call sites "
            f"in {time.perf_counter() - started:.1f} s -> {out}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
