"""Incremental doc maintenance driven by Git staged changes.

One pipeline, ``document``, serves ``generate`` on the working tree and
``update`` on the index: it diffs the object inventory against the stored
graph snapshot and regenerates only what a trigger selects. ``update`` then
stages the refreshed pages and store so they land in the same commit. A
pre-commit hook wires the flow into every commit.
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
from typing import TYPE_CHECKING, Collection, Mapping, NamedTuple, Sequence

from .config import build_gateway
from .doc_pipeline import (
    DocStore,
    RunReport,
    forget_snapshot,
    generate_all,
    load_store,
    record_snapshot,
    save_store,
    stale_objects,
)
from .errors import LockError, NotAGitRepoError, StoreWriteError, UsageError
from .markdown_publisher import SUMMARY_NAME, page_path_for, write_site
from .project_graph import ChangeSet, RepoGraph, add_snippets, diff_objects, source_graph
from .source_model import ParseCache, Sources, is_source, source_text

if TYPE_CHECKING:
    from .config import Config
    from .llm_gateway import Gateway
    from .project_graph import Unresolved

logger = logging.getLogger(__name__)

TRIGGER_SOURCE_MODIFIED = "SourceModified"
TRIGGER_NEW_OBJECT = "NewObject"
TRIGGER_REFERRER_REMOVED = "ReferrerRemoved"
TRIGGER_NEW_REFERENCE = "NewReference"
TRIGGER_DOC_OUTDATED = "DocOutdated"

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


def read_staged_text(repo_root: str | Path, ignore: Sequence[str] = ()) -> Sources:
    """Blob id and text of every source file in the index, by path: what the
    pending commit will contain, whatever the working tree holds. One
    ``git ls-files`` gives every blob id; no text is read here. The texts
    are read on first use, ``Sources.read`` reads many in one batch, and one
    ``git cat-file --batch`` process serves every batch, so a run reads only
    what it parses or quotes. The caller closes the result, which ends the
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
    reader = _BlobReader(repo_root, blobs)
    return Sources(blobs, {}, reader.read, reader.close)


class UpdatePlan(NamedTuple):
    """What to regenerate (with the winning trigger) and which docs to drop."""

    regenerate: tuple[tuple[str, str], ...] = ()
    delete_docs: tuple[str, ...] = ()


def plan_updates(changes: ChangeSet, pending: Collection[str] = ()) -> UpdatePlan:
    """The trigger of each id that ``changes`` names and of each id of
    ``pending``, the run's ``stale_objects``; the first matching trigger
    wins. The plan decides nothing: ``pending`` alone is generated.

    A direct source edit beats object addition, which beats losing a caller,
    which beats gaining one, which beats none: a pending id that no change
    names has a doc that is missing or was made from another source, as an
    earlier run that failed leaves it. Removed objects are never named.
    Edits to a callee's body deliberately do not name its callers.
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
    for oid in pending:
        triggers.setdefault(oid, TRIGGER_DOC_OUTDATED)
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
    """Outcome of one ``document`` run: of a staged-changes update, or of a
    ``generate``, which stages nothing."""

    def __init__(self, staged=StagedChanges(), plan=UpdatePlan(), run=None) -> None:
        self.staged = staged
        self.plan: UpdatePlan = plan
        self.run: RunReport = RunReport() if run is None else run
        self.written_pages: list[str] = []
        self.parse_errors: list[str] = []
        # unresolved calls of the files whose blob is not the stored snapshot's
        self.diagnostics: list[Unresolved] = []
        self.parsed_files = 0  # files parsed rather than read from the parse cache
        self.reused_files = 0  # files whose objects and edges came from the snapshot

    @property
    def ok(self) -> bool:
        # an object pending only as DocOutdated failed before and may fail
        # on every run, say over every budget: it refuses no commit
        outdated = {oid for oid, trig in self.plan.regenerate if trig == TRIGGER_DOC_OUTDATED}
        return self.run.failures.keys() <= outdated

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
            "diagnostics": [str(d) for d in self.diagnostics],
            "parsed_files": self.parsed_files,
            "reused_files": self.reused_files,
        }


def document(
    config: "Config", sources: Sources, repo_git: Path | None, jobs: int,
    gateway: "Gateway | None" = None, *, refuse_parse_errors: bool = False,
) -> tuple[RepoGraph, DocStore, UpdateReport]:
    """The one pipeline of ``generate`` and ``update``: document ``sources``,
    of the working tree or the index, and close them; the caller saves the
    graph and store returned. ``source_graph`` takes the files whose blob is
    the recorded snapshot's from it, and ``diff_objects`` compares the graph
    with it once. The pending objects are its ``stale_objects``, and the
    plan only names the trigger of each; they alone are quoted, requested
    and generated. With ``refuse_parse_errors``, a file that fails to parse
    leaves nothing pending, so a refused commit sends no request.
    Without ``gateway``, one is built once an object is pending, so a run
    that regenerates nothing needs no API key. A top-level ``SUMMARY.py`` is
    refused first: its page would be the table of contents."""
    try:
        clash = [path for path in sources.blobs if page_path_for(path) == SUMMARY_NAME]
        if clash:
            raise UsageError(
                f"{clash[0]} would be published as {SUMMARY_NAME}, the table of contents; "
                "add it to ignore in the config"
            )
        store = load_store(config.repo_root / config.store_path, repo_git)
        cache = ParseCache(repo_git)
        graph, taken = source_graph(sources, cache, store.graph_snapshot, reuse=store.recorded)
        changes = diff_objects(store.graph_snapshot, graph)
        refused = refuse_parse_errors and graph.parse_errors
        pending = set() if refused else stale_objects(graph, store, changes)
        plan = plan_updates(changes, pending)
        if gateway is None and pending:
            gateway = build_gateway(config)
        add_snippets(graph, sources, cache, taken, pending)
    finally:
        sources.close()
    cache.save()
    run = generate_all(graph, gateway, store, config, jobs, pending, changes)
    report = UpdateReport(plan=plan, run=run)
    report.parse_errors = list(graph.parse_errors)
    report.diagnostics = graph.diagnostics
    report.parsed_files, report.reused_files = cache.parsed, len(taken)
    return graph, store, report


def run_update(gateway: "Gateway | None", config: "Config", jobs: int) -> UpdateReport:
    """Regenerate docs for staged changes (``document`` of the index) and
    stage the results. A staged file that fails to parse refuses the commit
    before any request. Nothing is written unless the report is ``ok`` and
    every staged file parses, so a refused commit leaves the repository as
    it was and can be retried, and the records of a file that failed to
    parse are kept for the run after it is fixed. An outdated doc that
    fails again is reported, keeps its record, and is tried again on the
    next run.
    """
    repo_root = config.repo_root
    repo_git = require_git_repo(repo_root)
    with _update_lock(repo_git):
        staged = staged_changes(repo_root, config.ignore)
        if not staged:
            return UpdateReport(staged)
        sources = read_staged_text(repo_root, config.ignore)
        graph, store, report = document(config, sources, repo_git, jobs, gateway, refuse_parse_errors=True)
        report.staged = staged
        if not report.ok or report.parse_errors:
            # leave store and pages untouched; the commit stays blocked
            return report
        store_path, doc_dir = repo_root / config.store_path, repo_root / config.doc_dir
        report.written_pages = persist(graph, store, store_path, doc_dir, repo_git)
        _stage(repo_root, config.doc_dir, config.store_path)
        return report


def persist(
    graph: RepoGraph,
    store: DocStore,
    store_path: Path | None,
    doc_dir: Path,
    repo_git: Path | None,
) -> list[str]:
    """Save the store to ``store_path`` when it changed, write its pages to
    ``doc_dir``, and only then record the store's digest in ``repo_git``, so
    that a recorded digest also vouches for the pages. Returns the pages
    written. A page that cannot be written is a ``StoreWriteError``, and
    leaves no digest recorded.

    Store first: if saving fails, no page has changed. The save and the
    first page written remove the digest, so a run that stops between
    leaves none and the next one rewrites every stale page. When the store
    was ``recorded`` as loaded, only the pages of what the run changed
    (``DocStore.edited``) are compiled. Otherwise every page is compiled,
    and in a Git repository a store loaded from a file and left unchanged
    (``DocStore.changed``: no doc written or dropped, and a graph the
    ``same`` as the snapshot, blob ids and parse errors aside) is saved
    anyway, as loaded, so that the digest recorded there is of bytes
    ``save_store`` wrote. It keeps the snapshot's blob ids, so the next run
    parses each file whose blob is not the snapshot's, as after a
    fast-path run with such a change. Without ``store_path``, as for
    ``publish``, the store is not saved, no graph was built, and every page
    is compiled.
    """
    recorded = store.recorded
    current = repo_git is not None and not (recorded or store.changed)
    saved = store_path is not None and (store.changed or current)
    if saved:
        save_store(store, store_path, repo_git)
    changed = store.edited if store_path is not None and recorded else None
    try:
        pages = write_site(graph, store, doc_dir, changed, repo_git)
    except OSError as exc:
        forget_snapshot(repo_git)
        raise StoreWriteError(f"cannot write pages to {doc_dir}: {exc}") from exc
    if saved or (recorded and pages):
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
