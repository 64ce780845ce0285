"""Benchmark inputs: the corpora, their pins, and an independent AST model.

Every corpus is materialised as a package directory inside a fresh Git
repository, so absolute imports of the package resolve inside the repo.
Nothing here imports repodoc: the object ids, spans and call sites below are
computed by the benchmark's own walk and serve as the oracle the program's
output is checked against.
"""

from __future__ import annotations

import ast
import hashlib
import json
import random
import shutil
import sys
import sysconfig
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
PINS_PATH = BENCH_DIR / "corpora.json"
DATA_DIR = BENCH_DIR / "data"

DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def python_version() -> str:
    return ".".join(str(part) for part in sys.version_info[:3])


def stdlib_package_dir(package: str) -> Path:
    return Path(sysconfig.get_paths()["stdlib"]) / package


def stdlib_files(package: str) -> list[Path]:
    root = stdlib_package_dir(package)
    return sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)


def corpus_digest(package: str) -> str:
    """sha256 over (relative path, bytes) of every .py file of the package."""
    root = stdlib_package_dir(package).parent
    digest = hashlib.sha256()
    for path in stdlib_files(package):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def check_pin(package: str) -> None:
    """Refuse to run on another interpreter version or other corpus bytes."""
    pin = load_pins()["stdlib"][package]
    if python_version() != pin["python"]:
        raise SystemExit(
            f"corpus {package} is pinned to Python {pin['python']}, running {python_version()}"
        )
    digest = corpus_digest(package)
    if digest != pin["sha256"]:
        raise SystemExit(f"corpus {package} digest {digest} differs from the pin {pin['sha256']}")


def copy_stdlib(package: str, repo: Path) -> None:
    src_root = stdlib_package_dir(package).parent
    for path in stdlib_files(package):
        target = repo / path.relative_to(src_root)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, target)


# -- synthetic corpus ---------------------------------------------------------

SYNTH_PACKAGE = "synth"
SYNTH_MODULES = 100
SYNTH_FUNCTIONS = 10  # module-level functions per module
SYNTH_METHODS = 2  # methods of the one class per module, besides __init__
SYNTH_CALLS = 2  # calls per function or method


SYNTH_GRAPH_SEED = 0


def write_synth(repo: Path, seed: int) -> set[tuple[str, str]]:
    """Write the seeded synthetic package; return its true call edges.

    Each module holds SYNTH_FUNCTIONS functions and one class with
    SYNTH_METHODS methods besides ``__init__``, 14 objects per module. Every
    function and method makes SYNTH_CALLS calls to uniformly drawn functions
    of any module, so the call graph is dense and full of cycles. Methods
    also call a sibling method through ``self``. Each call is written in a
    form a static resolver can follow, and the returned edges are (caller
    id, callee id) pairs.

    The call graph comes from SYNTH_GRAPH_SEED, not from ``seed``: how long
    cycle pruning takes swings by 15% between random graphs of this size,
    which would drown the changes the workload is there to show. ``seed``
    draws the constants in the bodies (and the benchmark's edits).
    """
    rng = random.Random(SYNTH_GRAPH_SEED)
    consts = random.Random(seed)
    pkg = repo / SYNTH_PACKAGE
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text('"""Synthetic package."""\n', encoding="utf-8")
    edges: set[tuple[str, str]] = set()

    def module_file(index: int) -> str:
        return f"{SYNTH_PACKAGE}/mod_{index:03d}.py"

    def draw_calls(mod: int, caller_id: str, lines: list[str], indent: str) -> None:
        for k in range(SYNTH_CALLS):
            target_mod = rng.randrange(SYNTH_MODULES)
            target_fn = rng.randrange(SYNTH_FUNCTIONS)
            if target_mod == mod:
                expr = f"f{target_fn}(acc + {k})"
            else:
                expr = f"mod_{target_mod:03d}.f{target_fn}(acc + {k})"
            lines.append(f"{indent}acc += {expr} if acc < {consts.randrange(5, 50)} else {k}")
            callee = f"{module_file(target_mod)}/f{target_fn}"
            if callee != caller_id:
                edges.add((caller_id, callee))

    for mod in range(SYNTH_MODULES):
        file_id = module_file(mod)
        imports = sorted({f"mod_{m:03d}" for m in range(SYNTH_MODULES) if m != mod})
        lines = [f'"""Synthetic module {mod}."""', ""]
        lines.append(f"from {SYNTH_PACKAGE} import {', '.join(imports)}")
        lines.append("")
        for fn in range(SYNTH_FUNCTIONS):
            caller_id = f"{file_id}/f{fn}"
            lines += ["", "", f"def f{fn}(value, scale=2):"]
            lines.append(f'    """Function {fn} of module {mod}."""')
            lines.append(f"    acc = value * scale + {consts.randrange(100)}")
            draw_calls(mod, caller_id, lines, "    ")
            lines.append(f"    label = 'synthetic {mod}.{fn}'")
            lines.append("    return acc if label else None")
        class_id = f"{file_id}/Worker"
        lines += ["", "", "class Worker:", f'    """Worker of module {mod}."""', ""]
        lines += ["    def __init__(self, size):", "        self.size = size"]
        for meth in range(SYNTH_METHODS):
            caller_id = f"{class_id}/m{meth}"
            lines += ["", f"    def m{meth}(self, value):"]
            lines.append("        acc = value + self.size")
            draw_calls(mod, caller_id, lines, "        ")
            if meth:
                lines.append(f"        acc += self.m{meth - 1}(acc)")
                edges.add((caller_id, f"{class_id}/m{meth - 1}"))
            lines.append("        return acc")
        (repo / file_id).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return edges


# -- independent model of a Python file ----------------------------------------


@dataclass(frozen=True)
class Def:
    id: str
    kind: str  # "Class" or "Function"
    name_line: int  # line of the def/class keyword
    start: int  # first decorator line, else name_line
    end: int


def walk_defs(rel: str, tree: ast.AST) -> list[Def]:
    """Every def and class at any depth, with path-like ids:
    ``<file>/<outer>/<inner>``; start covers decorators, end is inclusive."""
    out: list[Def] = []

    def visit(node: ast.AST, parent_id: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEF_NODES):
                oid = f"{parent_id}/{child.name}"
                start = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                kind = "Class" if isinstance(child, ast.ClassDef) else "Function"
                out.append(Def(oid, kind, child.lineno, start, child.end_lineno or start))
                visit(child, oid)
            else:
                visit(child, parent_id)

    visit(tree, rel)
    return out


def survey(repo: Path) -> tuple[list[str], list[tuple[str, Def]]]:
    """The repo's .py files (hidden paths excluded, as repodoc excludes
    them) and every def of each, as (file, def) pairs."""
    files = sorted(
        p.relative_to(repo).as_posix()
        for p in repo.rglob("*.py")
        if not any(part.startswith(".") for part in p.relative_to(repo).parts)
    )
    defs = []
    for rel in files:
        tree = ast.parse((repo / rel).read_text(encoding="utf-8"))
        defs += [(rel, d) for d in walk_defs(rel, tree)]
    return files, defs
