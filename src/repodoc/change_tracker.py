"""Incremental doc maintenance driven by Git staged changes.

The update flow diffs the staged object inventory against the stored graph
snapshot, regenerates only what a trigger selects, and stages the refreshed
pages and store so they land in the same commit. A pre-commit hook wires the
flow into every commit.
"""

from __future__ import annotations

import contextlib
import logging
import os
import shlex
import stat
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .doc_pipeline import DocStore, RunReport, generate_all, load_store, save_store
from .errors import LockError, NotAGitRepoError, UsageError
from .markdown_publisher import write_site
from .project_graph import RepoGraph, build_graph, empty_graph
from .source_model import ParseCache, is_source, parse_sources, source_text

if TYPE_CHECKING:
    from .config import Config
    from .llm_gateway import Gateway

logger = logging.getLogger(__name__)

TRIGGER_SOURCE_MODIFIED = "SourceModified"
TRIGGER_NEW_OBJECT = "NewObject"
TRIGGER_REFERRER_REMOVED = "ReferrerRemoved"
TRIGGER_NEW_REFERENCE = "NewReference"

HOOK_MARKER = "# repodoc pre-commit hook"
LOCAL_HOOK_NAME = "pre-commit.local"
LOCK_NAME = ".lock"

# index entry modes of regular files; links and submodules are not sources
REGULAR_FILE_MODES = ("100644", "100755")


def _git(
    repo_root: str | Path, *args: str, check: bool = True, input: bytes | None = None
) -> subprocess.CompletedProcess:
    proc = subprocess.run(["git", "-C", str(repo_root), *args], input=input, capture_output=True)
    if check and proc.returncode != 0:
        detail = proc.stderr.decode("utf-8", "replace").strip()
        raise UsageError(f"git {' '.join(args)} failed: {detail}")
    return proc


def git_dir(repo_root: str | Path) -> Path | None:
    """The git directory of the repository holding ``repo_root``, or None
    when there is none (or no git)."""
    try:
        proc = _git(repo_root, "rev-parse", "--git-dir", check=False)
    except FileNotFoundError:
        return None
    if proc.returncode != 0:
        return None
    return Path(repo_root, os.fsdecode(proc.stdout.rstrip(b"\n")))


def require_git_repo(repo_root: str | Path) -> Path:
    """The git directory of the repository holding ``repo_root``."""
    found = git_dir(repo_root)
    if found is None:
        raise NotAGitRepoError(f"{repo_root} is not inside a Git repository")
    return found


@dataclass(frozen=True)
class StagedChanges:
    """Staged Python source paths, bucketed by what the index did to them."""

    added: tuple[str, ...] = ()
    modified: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.added or self.modified or self.removed)


def staged_changes(repo_root: str | Path, ignore: Sequence[str] = ()) -> StagedChanges:
    """Diff the index against HEAD; before the first commit every staged
    file is an addition. A rename shows up as a removal plus an addition."""
    out = _git(
        repo_root, "diff", "--cached", "--name-status", "--no-renames", "-z"
    ).stdout.decode("utf-8", "replace")
    fields = out.split("\0")
    buckets: dict[str, list[str]] = {"A": [], "M": [], "D": []}
    index = 0
    while index + 1 < len(fields):
        status, path = fields[index], fields[index + 1]
        index += 2
        if not status or not path:
            continue
        if not is_source(path, ignore):
            continue
        code = status[0]
        if code == "A":
            buckets["A"].append(path)
        elif code == "D":
            buckets["D"].append(path)
        elif code in ("M", "T", "U"):
            buckets["M"].append(path)
    return StagedChanges(
        added=tuple(sorted(buckets["A"])),
        modified=tuple(sorted(buckets["M"])),
        removed=tuple(sorted(buckets["D"])),
    )


def read_staged_text(
    repo_root: str | Path, ignore: Sequence[str] = ()
) -> dict[str, tuple[str, str]]:
    """Blob id and text of every source file in the index, by path: what the
    pending commit will contain, whatever the working tree holds. One
    ``git ls-files`` and one ``git cat-file --batch`` run, however many files
    there are."""
    listing = _git(repo_root, "ls-files", "--stage", "-z").stdout
    blobs: dict[str, str] = {}
    for entry in filter(None, listing.split(b"\0")):
        meta, raw_path = entry.split(b"\t", 1)
        mode, oid, stage = meta.decode("ascii").split()
        path = os.fsdecode(raw_path)
        if mode in REGULAR_FILE_MODES and is_source(path, ignore):
            if stage != "0":
                raise UsageError(f"{path} has an unresolved merge conflict; resolve and stage it")
            blobs[path] = oid
    paths = sorted(blobs)
    request = "".join(f"{blobs[path]}\n" for path in paths).encode("ascii")
    out = _git(repo_root, "cat-file", "--batch", input=request).stdout
    sources: dict[str, tuple[str, str]] = {}
    pos = 0
    for path in paths:
        eol = out.index(b"\n", pos)
        header = out[pos:eol].decode("ascii", "replace")
        fields = header.split()  # "<oid> blob <size>", or "<oid> missing"
        if fields[1:2] != ["blob"]:
            raise UsageError(f"cannot read the staged blob of {path}: git answered {header!r}")
        start, pos = eol + 1, eol + 2 + int(fields[2])  # a newline follows each blob
        sources[path] = (blobs[path], source_text(out[start : pos - 1]))
    return sources


@dataclass(frozen=True)
class ChangeSet:
    """Object-level difference between two graphs."""

    added: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()
    modified: tuple[str, ...] = ()
    edge_added: tuple[tuple[str, str], ...] = ()
    edge_removed: tuple[tuple[str, str], ...] = ()

    def __bool__(self) -> bool:
        return bool(
            self.added or self.removed or self.modified or self.edge_added or self.edge_removed
        )


def diff_objects(old: RepoGraph, new: RepoGraph) -> ChangeSet:
    """Compare object inventories and kept reference edges."""
    old_hash = {oid: obj.source_hash for oid, obj in old.objects.items()}
    new_hash = {oid: obj.source_hash for oid, obj in new.objects.items()}
    added = sorted(set(new_hash) - set(old_hash))
    removed = sorted(set(old_hash) - set(new_hash))
    modified = sorted(
        oid for oid in set(old_hash) & set(new_hash) if old_hash[oid] != new_hash[oid]
    )
    old_edges = {(e.caller, e.callee) for e in old.edges}
    new_edges = {(e.caller, e.callee) for e in new.edges}
    return ChangeSet(
        added=tuple(added),
        removed=tuple(removed),
        modified=tuple(modified),
        edge_added=tuple(sorted(new_edges - old_edges)),
        edge_removed=tuple(sorted(old_edges - new_edges)),
    )


@dataclass(frozen=True)
class UpdatePlan:
    """What to regenerate (with the winning trigger) and which docs to drop."""

    regenerate: tuple[tuple[str, str], ...] = ()
    delete_docs: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.regenerate or self.delete_docs)

    @property
    def regenerate_ids(self) -> set[str]:
        return {oid for oid, _ in self.regenerate}


def plan_updates(changes: ChangeSet) -> UpdatePlan:
    """Select regeneration targets; the first matching trigger wins.

    A direct source edit beats object addition, which beats losing a caller,
    which beats gaining one. Removed objects are never regenerated. Edits to
    a callee's body deliberately do not touch its callers.
    """
    triggers: dict[str, str] = {}
    for oid in changes.modified:
        triggers.setdefault(oid, TRIGGER_SOURCE_MODIFIED)
    for oid in changes.added:
        triggers.setdefault(oid, TRIGGER_NEW_OBJECT)
    gone = set(changes.removed)
    for _caller, callee in changes.edge_removed:
        if callee not in gone:
            triggers.setdefault(callee, TRIGGER_REFERRER_REMOVED)
    for _caller, callee in changes.edge_added:
        if callee not in gone:
            triggers.setdefault(callee, TRIGGER_NEW_REFERENCE)
    return UpdatePlan(
        regenerate=tuple(sorted(triggers.items())),
        delete_docs=tuple(sorted(gone)),
    )


def _holder_is_gone(lock_path: Path) -> bool:
    """True when the lock names the PID of a process that no longer exists.

    Empty content may be a live holder that has not written its PID yet.
    """
    try:
        pid = int(lock_path.read_text(encoding="ascii"))
        if pid > 0:
            os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, ValueError, OverflowError):
        pass  # unreadable, not a PID, or a live process we may not signal
    return False


@contextlib.contextmanager
def _update_lock(store_dir: Path):
    store_dir.mkdir(parents=True, exist_ok=True)
    lock_path = store_dir / LOCK_NAME
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
    try:
        fd = os.open(lock_path, flags)
    except FileExistsError:
        fd = None
        if _holder_is_gone(lock_path):
            logger.warning("removing stale lock %s left by an exited process", lock_path)
            with contextlib.suppress(FileNotFoundError):
                os.unlink(lock_path)
            with contextlib.suppress(FileExistsError):
                fd = os.open(lock_path, flags)
        if fd is None:
            raise LockError(
                f"another generate or update holds {lock_path}; remove it if none is running"
            ) from None
    try:
        os.write(fd, str(os.getpid()).encode("ascii"))
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(OSError):
            os.unlink(lock_path)


@dataclass
class UpdateReport:
    """Outcome of one staged-changes update."""

    staged: StagedChanges
    plan: UpdatePlan = field(default_factory=UpdatePlan)
    run: RunReport = field(default_factory=RunReport)
    written_pages: list[str] = field(default_factory=list)
    parse_errors: list[str] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)
    parsed_files: int = 0  # files parsed rather than read from the parse cache

    @property
    def ok(self) -> bool:
        return self.run.ok

    def summary_line(self) -> str:
        if not self.staged:
            return "Passed: documentation in sync (no staged Python changes)"
        return (
            "Passed: documentation in sync "
            f"({len(self.run.generated)} regenerated, {len(self.plan.delete_docs)} removed, "
            f"{len(self.written_pages)} pages written)"
        )

    def to_dict(self) -> dict:
        return {
            "staged": {
                "added": list(self.staged.added),
                "modified": list(self.staged.modified),
                "removed": list(self.staged.removed),
            },
            "plan": {
                "regenerate": [[oid, trig] for oid, trig in self.plan.regenerate],
                "delete_docs": list(self.plan.delete_docs),
            },
            "run": self.run.to_dict(),
            "written_pages": list(self.written_pages),
            "parse_errors": list(self.parse_errors),
            "diagnostics": list(self.diagnostics),
            "parsed_files": self.parsed_files,
        }


def _staged_graph(
    repo_root: Path, ignore: Sequence[str], cache: ParseCache
) -> RepoGraph:
    """Graph of the repository as the pending commit will leave it."""
    sources = read_staged_text(repo_root, ignore)
    return build_graph(sorted(sources), parse_sources(sources, cache))


def run_update(gateway: "Gateway", config: "Config", jobs: int) -> UpdateReport:
    """Regenerate docs for staged changes and stage the results.

    Nothing is written to the store or the pages unless every planned object
    regenerates successfully, so a failed update leaves the repository
    exactly as it was and the commit can be retried.
    """
    repo_root = config.repo_root
    cache = ParseCache(require_git_repo(repo_root))
    store_path = repo_root / config.store_path
    with _update_lock(store_path.parent):
        staged = staged_changes(repo_root, config.ignore)
        if not staged:
            return UpdateReport(staged=staged)

        store = load_store(store_path)
        graph = _staged_graph(repo_root, config.ignore, cache)
        old_graph = store.graph_snapshot or empty_graph()
        plan = plan_updates(diff_objects(old_graph, graph))

        run = generate_all(graph, gateway, store, config, jobs, only=plan.regenerate_ids)
        report = UpdateReport(
            staged=staged,
            plan=plan,
            run=run,
            parse_errors=list(graph.parse_errors),
            diagnostics=list(graph.diagnostics),
            parsed_files=cache.parsed,
        )
        if not run.ok:
            # leave store and pages untouched; the commit stays blocked
            return report

        # Store first: if saving fails, no page has changed. If writing the
        # site fails, the next run finds the store current and rewrites pages.
        if store.changed:
            save_store(store, store_path)
        report.written_pages = write_site(graph, store, repo_root / config.doc_dir)
        _git(repo_root, "add", "-A", "--", config.doc_dir, config.store_path)
        return report


HOOK_TEMPLATE = """#!/bin/sh
{marker}
set -e
hook_dir="$(cd "$(dirname "$0")" && pwd)"
if [ -x "$hook_dir/{local_name}" ]; then
    "$hook_dir/{local_name}" "$@"
fi
exec {python} -m repodoc update
"""


def install_hook(repo_root: str | Path) -> Path:
    """Install the pre-commit hook, preserving any existing hook as a chained
    pre-commit.local. Reinstalling over our own hook is a no-op rewrite."""
    repo_root = Path(repo_root)
    require_git_repo(repo_root)
    hooks_rel = _git(repo_root, "rev-parse", "--git-path", "hooks").stdout.decode().strip()
    hooks_dir = Path(repo_root, hooks_rel)
    if not hooks_dir.is_dir():
        raise UsageError(f"hooks directory missing: {hooks_dir}")
    hook_path = hooks_dir / "pre-commit"
    local_path = hooks_dir / LOCAL_HOOK_NAME

    if hook_path.exists():
        existing = hook_path.read_text(encoding="utf-8", errors="replace")
        if HOOK_MARKER not in existing:
            if local_path.exists():
                raise UsageError(
                    f"both {hook_path} and {local_path} exist; move your hook aside manually"
                )
            hook_path.replace(local_path)
            logger.info("moved existing pre-commit hook to %s", local_path)

    script = HOOK_TEMPLATE.format(
        marker=HOOK_MARKER, local_name=LOCAL_HOOK_NAME, python=shlex.quote(sys.executable)
    )
    hook_path.write_text(script, encoding="utf-8", newline="\n")
    mode = hook_path.stat().st_mode
    hook_path.chmod(mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    return hook_path
