"""Output checks against oracles the benchmark computes itself.

Each check returns a list of problems; an empty list means the output is
correct. The program's own code is never used to judge its output: object
ids come from the benchmark's AST walk, acyclicity from networkx, page
format from the regex below, and what an operation wrote from the files it
left, compared with those the operation before it left. The program's JSON
report is checked too, but never trusted alone.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import networkx as nx

STORE_PATH = ".project_doc_record/project_hierarchy.json"
DOC_DIR = "markdown_docs"
PLACEHOLDER = "not yet generated"

# One object entry of a page: heading, name line, parameter section with
# bullets, code description, note, optional output example.
ENTRY_RE = re.compile(
    r"#{2,6} (?P<heading>ClassDef|FunctionDef) (?P<name>\S+)\n\n"
    r"\*\*(?P=name)\*\*: [^\n]+\n\n"
    r"\*\*(?P<label>parameters|Attributes)\*\*: [^\n]+(\n- `[^`\n]+`: [^\n]+)*\n\n"
    r"\*\*Code Description\*\*: [^\n]+\n\n"
    r"\*\*Note\*\*: [^\n]+"
    r"(\n\n\*\*Output Example\*\*: [^\n]+)?"
)
LABEL_FOR = {"ClassDef": "Attributes", "FunctionDef": "parameters"}


class Store:
    """The doc store file as plain data: record ids and the graph snapshot."""

    def __init__(self, repo: Path) -> None:
        raw = (repo / STORE_PATH).read_bytes()
        self.bytes = len(raw)
        self.digest = hashlib.sha256(raw).hexdigest()
        data = json.loads(raw.decode("utf-8"))
        self.records = data["records"]
        self.record_ids = set(self.records)
        graph = data["graph"]
        self.objects = {
            oid: node["meta"]["parent_id"] for oid, node in graph["nodes"].items() if "meta" in node
        }
        self.kept = [(e["caller"], e["callee"]) for e in graph["edges"]]
        self.removed = [(e["caller"], e["callee"]) for e in graph["removed_edges"]]

    def containment(self) -> list[tuple[str, str]]:
        return [(parent, oid) for oid, parent in self.objects.items() if parent in self.objects]


def page_of(rel: str) -> str:
    """The page of a source file, relative to DOC_DIR."""
    return rel[: -len(".py")] + ".md"


@dataclass
class Output:
    """What an operation left on disk: the store, and every page's size,
    modification time and content digest."""

    store: Store
    pages: dict[str, tuple[int, int, str]]

    @classmethod
    def read(cls, repo: Path) -> Output:
        pages = {}
        for page in sorted((repo / DOC_DIR).rglob("*.md")):
            stat = page.stat()
            digest = hashlib.sha256(page.read_bytes()).hexdigest()
            pages[page.relative_to(repo / DOC_DIR).as_posix()] = (
                stat.st_size,
                stat.st_mtime_ns,
                digest,
            )
        return cls(Store(repo), pages)

    def changed_pages(self, before: Output) -> set[str]:
        old, new = before.pages, self.pages
        return {page for page in old.keys() | new.keys() if old.get(page) != new.get(page)}

    def changed_records(self, before: Output) -> set[str]:
        old, new = before.store.records, self.store.records
        return {oid for oid in old.keys() | new.keys() if old.get(oid) != new.get(oid)}


def read_output(repo: Path) -> tuple[list[str], Output | None]:
    try:
        return [], Output.read(repo)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable store: {exc!r}"], None


def check_dag(store: Store) -> list[str]:
    graph = nx.DiGraph()
    graph.add_nodes_from(store.objects)
    graph.add_edges_from(store.kept)
    graph.add_edges_from(store.containment())
    if nx.is_directed_acyclic_graph(graph):
        return []
    cycle = nx.find_cycle(graph)
    return [f"kept edges plus containment have a cycle: {cycle[:4]}"]


def check_order(generated: list[str], store: Store) -> list[str]:
    """Every generated callee and child precedes its generated dependents."""
    pos = {oid: i for i, oid in enumerate(generated)}
    problems = []
    pairs = [(caller, callee) for caller, callee in store.kept]
    pairs += store.containment()  # (parent, child): the child comes first
    for dependent, prerequisite in pairs:
        if dependent in pos and prerequisite in pos and pos[prerequisite] > pos[dependent]:
            problems.append(f"{dependent} generated before its prerequisite {prerequisite}")
    return problems[:5]


def check_pages(repo: Path, files: list[str], ids: dict[str, str]) -> list[str]:
    """Each source file has a page; every entry matches ENTRY_RE and the
    label fits the kind; entries cover exactly the file's objects."""
    problems: list[str] = []
    doc_dir = repo / DOC_DIR
    for rel in files:
        page = doc_dir / page_of(rel)
        if not page.is_file():
            problems.append(f"missing page for {rel}")
            continue
        text = page.read_text(encoding="utf-8")
        if PLACEHOLDER in text:
            problems.append(f"{page.name}: holds the not-yet-generated placeholder")
        chunks = text.rstrip("\n").split("\n\n***\n\n")
        head, _, first = chunks[0].partition("\n\n")
        if head != f"# {rel}":
            problems.append(f"{rel}: page title {head!r}")
        entries = ([first] if first else []) + chunks[1:]
        expected = sum(1 for oid in ids if oid.startswith(rel + "/"))
        if len(entries) != expected:
            problems.append(f"{rel}: {len(entries)} page entries for {expected} objects")
        for entry in entries:
            match = ENTRY_RE.fullmatch(entry)
            if match is None:
                problems.append(f"{rel}: malformed entry {entry[:60]!r}")
            elif LABEL_FOR[match["heading"]] != match["label"]:
                problems.append(f"{rel}: {match['name']} has label {match['label']}")
        if len(problems) > 5:
            break
    return problems[:5]


def check_generate(
    report: dict, rc: int, repo: Path, files: list[str], ids: dict[str, str]
) -> tuple[list[str], Output | None]:
    """A cold generate documents every object once, in dependency order."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if report.get("failures"):
        problems.append(f"failures: {list(report['failures'])[:3]}")
    generated = report.get("generated", [])
    if len(generated) != len(set(generated)) or set(generated) != set(ids):
        missing = sorted(set(ids) - set(generated))[:3]
        extra = sorted(set(generated) - set(ids))[:3]
        problems.append(
            f"generated {len(generated)} of {len(ids)} objects; missing {missing} extra {extra}"
        )
    unreadable, out = read_output(repo)
    if out is None:
        return problems + unreadable, None
    if out.store.record_ids != set(ids):
        problems.append(f"store holds {len(out.store.record_ids)} records for {len(ids)} objects")
    problems += check_dag(out.store)
    problems += check_order(generated, out.store)
    problems += check_pages(repo, files, ids)
    return problems, out


def check_rerun(
    report: dict, rc: int, repo: Path, ids: dict[str, str], before: Output | None
) -> tuple[list[str], Output | None]:
    """A no-op rerun generates nothing and writes no page: every page keeps
    its bytes and modification time, and the store keeps its bytes."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if report.get("generated"):
        problems.append(f"rerun generated {len(report['generated'])} objects")
    if report.get("pages_written"):
        problems.append(f"rerun wrote {len(report['pages_written'])} pages")
    if report.get("failures"):
        problems.append(f"failures: {list(report['failures'])[:3]}")
    if len(report.get("skipped", [])) != len(ids):
        problems.append(f"rerun skipped {len(report.get('skipped', []))} of {len(ids)}")
    unreadable, out = read_output(repo)
    if out is None:
        return problems + unreadable, None
    if before is None:
        return problems + ["the operation before left no output to compare with"], out
    changed = out.changed_pages(before)
    if changed:
        problems.append(f"rerun changed {len(changed)} pages: {sorted(changed)[:3]}")
    if out.store.digest != before.store.digest:
        problems.append("rerun changed the store")
    return problems, out


def check_update(
    report: dict,
    rc: int,
    rel: str,
    expected: set[str],
    repo: Path,
    files: list[str],
    ids: dict[str, str],
    before: Output | None,
) -> tuple[list[str], Output | None]:
    """An update after a comment edit in ``rel`` regenerates exactly the
    defs whose span holds the edited line: only their store records change
    (the comment changes their source hash), no page but ``rel``'s changes,
    and the store and site stay valid."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    planned = {oid for oid, _trigger in report.get("plan", {}).get("regenerate", [])}
    run = report.get("run", {})
    generated = run.get("generated", [])
    if planned != expected:
        problems.append(f"planned {sorted(planned)[:3]}, expected {sorted(expected)[:3]}")
    if set(generated) != expected or len(generated) != len(expected):
        problems.append(f"regenerated {sorted(generated)[:3]}, expected {sorted(expected)[:3]}")
    if run.get("failures"):
        problems.append(f"failures: {list(run['failures'])[:3]}")
    unreadable, out = read_output(repo)
    if out is None:
        return problems + unreadable, None
    if before is None:
        return problems + ["the operation before left no output to compare with"], out
    records = out.changed_records(before)
    if records != expected:
        problems.append(f"records changed {sorted(records)[:3]}, expected {sorted(expected)[:3]}")
    pages = out.changed_pages(before) - {page_of(rel)}
    if pages:
        problems.append(f"update changed pages of unedited files: {sorted(pages)[:3]}")
    problems += check_dag(out.store)
    problems += check_pages(repo, files, ids)
    return problems, out


def recall(truth: set[tuple[str, str]], store: Store) -> float:
    """Share of true call edges found among the kept plus removed edges."""
    found = set(store.kept) | set(store.removed)
    return len(truth & found) / len(truth)
