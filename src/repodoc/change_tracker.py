"""Incremental doc maintenance driven by Git staged changes.

The update flow diffs the staged object inventory against the stored graph
snapshot, regenerates only what a trigger selects, and stages the refreshed
pages and store so they land in the same commit. A pre-commit hook wires the
flow into every commit.
"""

from __future__ import annotations

import contextlib
import fcntl
import logging
import os
import stat
import subprocess
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .doc_pipeline import (
    DocStore,
    RunReport,
    forget_snapshot,
    generate_all,
    load_store,
    record_snapshot,
    save_store,
    snapshot_is_recorded,
)
from .errors import LockError, NotAGitRepoError, StoreWriteError, UsageError
from .markdown_publisher import write_site
from .project_graph import RepoGraph, add_snippets, empty_graph, source_graph
from .source_model import ParseCache, Sources, is_source, source_text

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
LOCK_NAME = "repodoc-lock"

# index entry modes of regular files; links and submodules are not sources
REGULAR_FILE_MODES = ("100644", "100755")


def _git(
    repo_root: str | Path,
    *args: str,
    check: bool = True,
    input: bytes | None = None,
    stream: bool = False,
):
    """Run git and return its ``CompletedProcess``. With ``stream``, start it
    and return its ``Popen`` instead, with pipes to write its stdin and read
    its stdout; the caller closes them and waits for it."""
    argv = ["git", "-C", str(repo_root), *args]
    if stream:
        return subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
        )
    proc = subprocess.run(argv, input=input, capture_output=True)
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


class StagedChanges(NamedTuple):
    """Staged Python source paths, bucketed by what the index did to them."""

    added: tuple[str, ...] = ()
    modified: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.added or self.modified or self.removed)


def staged_changes(repo_root: str | Path, ignore: Sequence[str] = ()) -> StagedChanges:
    """Diff the index against HEAD; before the first commit every staged
    file is an addition. A rename shows up as a removal plus an addition."""
    out = os.fsdecode(
        _git(repo_root, "diff", "--cached", "--name-status", "--no-renames", "-z").stdout
    )
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


class _BlobReader:
    """Texts of index blobs from one ``git cat-file --batch`` process,
    started on the first read and ended by ``close``."""

    # requests written before their answers are read: their bytes stay far
    # below a pipe's capacity, so git never waits on a full pipe both ways
    CHUNK = 64

    def __init__(self, repo_root: str | Path, blobs: Mapping[str, str]) -> None:
        self._repo_root = repo_root
        self._blobs = blobs
        self._proc: subprocess.Popen | None = None

    def read(self, paths: list[str]) -> list[str]:
        if self._proc is None:
            self._proc = _git(self._repo_root, "cat-file", "--batch", stream=True)
        stdin, stdout = self._proc.stdin, self._proc.stdout
        texts = []
        for start in range(0, len(paths), self.CHUNK):
            chunk = paths[start : start + self.CHUNK]
            try:
                stdin.write("".join(f"{self._blobs[path]}\n" for path in chunk).encode("ascii"))
                stdin.flush()
            except BrokenPipeError:
                pass  # git ended; the empty answer below names the file
            for path in chunk:
                header = stdout.readline().decode("ascii", "replace").rstrip("\n")
                fields = header.split()  # "<oid> blob <size>", or "<oid> missing"
                if fields[1:2] != ["blob"]:
                    raise UsageError(
                        f"cannot read the staged blob of {path}: git answered {header!r}"
                    )
                data = stdout.read(int(fields[2]) + 1)  # a newline follows each blob
                texts.append(source_text(data[:-1]))
        return texts

    def close(self) -> None:
        if self._proc is not None:
            with contextlib.suppress(BrokenPipeError):  # git already ended
                self._proc.stdin.close()
            self._proc.stdout.close()
            self._proc.wait()
            self._proc = None


def read_staged_text(
    repo_root: str | Path, ignore: Sequence[str] = (), snapshot: RepoGraph | None = None
) -> Sources:
    """Blob id and text of every source file in the index, by path: what the
    pending commit will contain, whatever the working tree holds. One
    ``git ls-files`` gives every blob id, and one ``git cat-file --batch``
    process reads texts, however many files there are.

    The texts of the files whose blob id is not the one ``snapshot`` holds
    are read now, and the others on first use, so a run reads only what it
    parses. Given a snapshot, the caller closes the result, which ends the
    reader."""
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
    blobs = dict(sorted(blobs.items()))
    known = snapshot.nodes if snapshot is not None else {}
    reader = _BlobReader(repo_root, blobs)
    sources = Sources(blobs, {}, reader.read, reader.close)
    try:
        sources.read(rel for rel, oid in blobs.items() if rel not in known or known[rel].blob != oid)
    except BaseException:
        sources.close()
        raise
    if snapshot is None:
        sources.close()  # every text is read
    return sources


class ChangeSet(NamedTuple):
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
    """Compare object inventories and kept reference edges. When ``new``
    overlays ``old``, the two hold the same objects, and only the rebuilt
    ones may differ."""
    if new.base is old:
        rebuilt = [oid for oid in new.rebuilt if oid in new.objects]
        added: list[str] = []
        removed: list[str] = []
        modified = sorted(
            oid for oid in rebuilt if old.objects[oid].source_hash != new.objects[oid].source_hash
        )
    else:
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


class UpdatePlan(NamedTuple):
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


@contextlib.contextmanager
def _update_lock(directory: Path):
    """Hold an exclusive ``flock`` on ``directory``/repodoc-lock while the block
    runs. The kernel releases it when the holder exits, however it exits, so
    no lock outlives its run. The file is never written, read or deleted."""
    lock_path = directory / LOCK_NAME
    with contextlib.ExitStack() as stack:
        try:
            directory.mkdir(parents=True, exist_ok=True)
            fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o666)
            stack.callback(os.close, fd)
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise LockError(f"another generate, update or publish holds {lock_path}") from None
        except OSError as exc:
            raise LockError(f"cannot lock {lock_path}: {exc.strerror or exc}") from None
        yield


class UpdateReport:
    """Outcome of one staged-changes update."""

    def __init__(self, staged: StagedChanges, plan=UpdatePlan(), run=None) -> None:
        self.staged = staged
        self.plan: UpdatePlan = plan
        self.run: RunReport = RunReport() if run is None else run
        self.written_pages: list[str] = []
        self.parse_errors: list[str] = []
        # unresolved calls of the files whose blob is not the stored snapshot's
        self.diagnostics: list[str] = []
        self.parsed_files = 0  # files parsed rather than read from the parse cache
        self.reused_files = 0  # files whose objects and edges came from the snapshot

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
            "reused_files": self.reused_files,
        }


def run_update(gateway: "Gateway", config: "Config", jobs: int) -> UpdateReport:
    """Regenerate docs for staged changes and stage the results.

    The graph of the index is built by ``source_graph``, which takes the
    files whose staged blob is the recorded snapshot's from that snapshot.
    Nothing is written to the store or the pages unless every planned object
    regenerates successfully, so a failed update leaves the repository
    exactly as it was and the commit can be retried.
    """
    repo_root = config.repo_root
    repo_git = require_git_repo(repo_root)
    store_path = repo_root / config.store_path
    with _update_lock(repo_git):
        staged = staged_changes(repo_root, config.ignore)
        if not staged:
            return UpdateReport(staged=staged)
        cache = ParseCache(repo_git)

        store = load_store(store_path, repo_git)
        reuse = snapshot_is_recorded(store, repo_git)
        sources = read_staged_text(
            repo_root, config.ignore, store.graph_snapshot if reuse else None
        )
        try:
            graph, taken = source_graph(sources, cache, store.graph_snapshot, reuse=reuse)
            plan = plan_updates(diff_objects(store.graph_snapshot or empty_graph(), graph))
            add_snippets(graph, sources, cache, taken, plan.regenerate_ids)
        finally:
            sources.close()
        cache.save()

        run = generate_all(graph, gateway, store, config, jobs, only=plan.regenerate_ids)
        report = UpdateReport(staged, plan, run)
        report.parse_errors = list(graph.parse_errors)
        report.diagnostics = list(graph.diagnostics)
        report.parsed_files, report.reused_files = cache.parsed, len(taken)
        if not run.ok:
            # leave store and pages untouched; the commit stays blocked
            return report

        report.written_pages = persist(
            graph, store, store_path, repo_root / config.doc_dir, repo_git, reuse
        )
        _stage(repo_root, config.doc_dir, config.store_path)
        return report


def persist(
    graph: RepoGraph,
    store: DocStore,
    store_path: Path | None,
    doc_dir: Path,
    repo_git: Path | None,
    reuse: bool,
) -> list[str]:
    """Save the store to ``store_path`` when it changed, write its pages to
    ``doc_dir``, and only then record the store's digest in ``repo_git``, so
    that a recorded digest also vouches for the pages. Returns the pages
    written. A page that cannot be written is a ``StoreWriteError``, and
    leaves no digest recorded.

    Store first: if saving fails, no page has changed. The save and the
    first page written remove the digest, so a run that stops between
    leaves none and the next one rewrites every stale page. ``reuse`` tells
    that the digest recorded before the run was the loaded store's; then
    only the pages of what the run changed (``DocStore.edited``) are
    compiled. Without it, every page is compiled, and when the store is
    still the file loaded (unchanged, with the digest of that file), it is
    saved anyway in a Git repository, so that the digest recorded there is
    of bytes ``save_store`` wrote. That holds also when the graph this run
    built differs from the snapshot only in blob ids and parse errors: the
    store keeps the snapshot as loaded, and the next run parses each file
    whose blob is not the snapshot's, as after a fast-path run with such a
    change. Without ``store_path``, as for ``publish``, the store is not
    saved, no graph was built, and every page is compiled.
    """
    current = (
        repo_git is not None and not reuse and not store.changed and store.digest is not None
    )
    saved = store_path is not None and (store.changed or current)
    if saved:
        save_store(store, store_path, repo_git)
    changed = store.edited if store_path is not None and reuse else None
    try:
        pages = write_site(graph, store, doc_dir, changed, repo_git)
    except OSError as exc:
        forget_snapshot(repo_git)
        raise StoreWriteError(f"cannot write pages to {doc_dir}: {exc}") from exc
    if saved or (reuse and pages):
        record_snapshot(store, repo_git)
    return pages


def _stage(repo_root: Path, *paths: str) -> None:
    """``git add -A`` the paths; those that Git ignores are left out, and are
    looked for only once an add has failed."""
    proc = _git(repo_root, "add", "-A", "--", *paths, check=False)
    if proc.returncode == 0:
        return
    request = "".join(f"{path}\0" for path in paths).encode()
    listed = _git(
        repo_root, "check-ignore", "--no-index", "-z", "--stdin", check=False, input=request
    ).stdout
    ignored = set(os.fsdecode(listed).split("\0"))
    rest = [path for path in paths if path not in ignored]
    if len(rest) == len(paths):
        detail = proc.stderr.decode("utf-8", "replace").strip()
        raise UsageError(f"git add -A -- {' '.join(paths)} failed: {detail}")
    if rest:
        _git(repo_root, "add", "-A", "--", *rest)


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
    import shlex

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
