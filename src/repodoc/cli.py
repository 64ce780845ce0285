"""Command line entry points.

Exit codes: 0 success, 1 usage or configuration problems, 2 completed with
source files that failed to parse, 3 generation failures (provider errors or
prompts that cannot fit any context window), 4 not a Git repository, 130
interrupted (Ctrl-C or SIGTERM), with one line and no traceback: the
requests in flight finish, and an interrupt during generation saves
nothing. A reader that closes the output pipe early also gives 1, with no
traceback.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import signal
import sys
from itertools import islice
from pathlib import Path

from .change_tracker import _update_lock, document, git_dir, install_hook, persist, run_update
from .config import api_key, load_config
from .doc_pipeline import graph_dict, load_store
from .errors import (
    CorruptStoreError,
    NotAGitRepoError,
    OverBudgetError,
    ProviderError,
    StoreWriteError,
    UsageError,
)
from .project_graph import graph_to_dot, source_graph
from .source_model import ParseCache, scan_repository

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE_ERRORS = 2
EXIT_GENERATION_FAILED = 3
EXIT_NOT_A_REPO = 4
EXIT_INTERRUPTED = 130


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _job_count(value: str) -> int:
    """The value of ``--jobs``: a whole number of at least 1."""
    try:
        jobs = int(value)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number N >= 1, got {value!r}")
    return jobs


def _options(jobs: bool = False, json: bool = False) -> argparse.ArgumentParser:
    """The options every command takes, with ``--jobs`` and ``--json`` for
    the commands that read them."""
    common = _Parser(add_help=False)
    common.add_argument("--repo", default=".", help="repository root (default: cwd)")
    common.add_argument("--config", default=None, help="config file (default: <repo>/.repodoc.json)")
    if jobs:
        common.add_argument(
            "--jobs",
            type=_job_count,
            default=1,
            help="objects generated at once, N >= 1 (default: %(default)s)",
        )
    if json:
        common.add_argument("--json", action="store_true", help="machine readable output")
    common.add_argument("--verbose", action="store_true", help="log progress details")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="repodoc", description="Repository documentation generator")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    generating, reporting, plain = _options(jobs=True, json=True), _options(json=True), _options()

    p = sub.add_parser("generate", parents=[generating], help="document every object in the repo")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("update", parents=[generating], help="regenerate docs for staged changes")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("install-hook", parents=[plain], help="install the pre-commit hook")
    p.set_defaults(func=cmd_install_hook)

    p = sub.add_parser("publish", parents=[reporting], help="rewrite pages from the stored docs")
    p.set_defaults(func=cmd_publish)

    p = sub.add_parser("graph", parents=[plain], help="print the project tree and references")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("eval", parents=[reporting], help="score stored docs for format and params")
    p.add_argument("--param-metric", choices=("jaccard", "precision"), default="jaccard")
    p.add_argument("--refs", default=None, help="ground truth reference JSON for recall")
    p.set_defaults(func=cmd_eval)

    return parser


def _write_json(payload: dict) -> None:
    """Write ``payload`` to stdout as JSON indented by 2 with sorted keys and
    a final newline, the bytes ``json.dumps`` gives, without holding the text
    whole. It is encoded in blocks of 128 pieces, each written at once: an
    unbuffered stdout (``PYTHONUNBUFFERED``) then makes a system call per
    block rather than per piece, and a block is small enough to take memory
    the run has freed rather than new pages."""
    pieces = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    while block := "".join(islice(pieces, 128)):
        sys.stdout.write(block)
    sys.stdout.write("\n")


def _print_list(title: str, items) -> None:
    items = list(items)
    if not items:
        return
    print(f"{title}:")
    for item in items:
        print(f"  {item}")


def cmd_generate(args) -> int:
    config = load_config(args.repo, args.config)
    api_key(config)  # a missing key fails here, before the lock is taken
    store_path = config.repo_root / config.store_path
    repo_git = git_dir(config.repo_root)
    with _update_lock(repo_git or store_path.parent):
        sources = scan_repository(config.repo_root, config.ignore)
        graph, store, report = document(config, sources, repo_git, args.jobs)
        # partial progress is kept even when some objects failed
        pages = persist(graph, store, store_path, config.repo_root / config.doc_dir, repo_git)
    # let go of the texts, the graph and the store, whose memory the
    # report's lines then take, so that writing the report adds no peak
    del sources, graph, store
    run = report.run
    if args.json:
        # the report of update, the run's fields at the top and no staging
        payload = report.to_dict()
        payload.update(payload.pop("run"), pages_written=pages)
        for key in ("staged", "plan", "written_pages"):
            del payload[key]
        _write_json(payload)
    else:
        print(
            f"generated {len(run.generated)} objects, skipped {len(run.skipped)}, "
            f"{len(pages)} pages written"
        )
        _print_list("parse errors", report.parse_errors)
        _print_list("failures", (f"{k}: {v}" for k, v in sorted(run.failures.items())))
    return _exit_code(bool(run.failures), report.parse_errors)


def cmd_update(args) -> int:
    config = load_config(args.repo, args.config)
    report = run_update(None, config, args.jobs)
    failures = [f"{k}: {v}" for k, v in sorted(report.run.failures.items())]
    if args.json:
        _write_json(report.to_dict())
    elif not report.ok:
        _print_list("documentation update failed", failures)
    elif report.parse_errors:
        print("Refused: staged Python fails to parse; fix it and stage it again")
        _print_list("parse errors", report.parse_errors)
    else:
        print(report.summary_line())
        _print_list("outdated docs still failing", failures)
    return _exit_code(not report.ok, report.parse_errors)


def _exit_code(failed: bool, parse_errors: list[str]) -> int:
    """Failed generation outranks source files that failed to parse."""
    if failed:
        return EXIT_GENERATION_FAILED
    return EXIT_PARSE_ERRORS if parse_errors else EXIT_OK


def cmd_install_hook(args) -> int:
    config = load_config(args.repo, args.config)
    path = install_hook(config.repo_root)
    print(f"installed pre-commit hook at {path}")
    return EXIT_OK


def cmd_publish(args) -> int:
    config = load_config(args.repo, args.config)
    store_path = config.repo_root / config.store_path
    if not store_path.exists():
        raise UsageError("no doc store found; run: repodoc generate")
    repo_git = git_dir(config.repo_root)
    with _update_lock(repo_git or store_path.parent):
        doc_dir = config.repo_root / config.doc_dir
        store = load_store(store_path, repo_git, doc_dir)
        if store.graph_snapshot is None:
            raise UsageError("no doc store found; run: repodoc generate")
        # every text is read before any page is written
        store.read_pages(store.graph_snapshot.files)
        if store.unsplit:
            raise UsageError(
                f"{', '.join(store.unsplit)} no longer give back their docs; "
                "run: repodoc generate, which regenerates them"
            )
        pages = persist(store.graph_snapshot, store, None, doc_dir, repo_git)
    if args.json:
        _write_json({"pages_written": pages})
    else:
        print(f"{len(pages)} pages written")
    return EXIT_OK


def cmd_graph(args) -> int:
    config = load_config(args.repo, args.config)
    cache = ParseCache(git_dir(config.repo_root))
    graph, _ = source_graph(scan_repository(config.repo_root, config.ignore), cache)
    cache.save()
    if args.format == "dot":
        print(graph_to_dot(graph))
    else:
        _write_json(graph_dict(graph))
    return EXIT_PARSE_ERRORS if graph.parse_errors else EXIT_OK


def _load_reference_truth(path: str) -> dict[str, set[str]]:
    """Ground truth references: a JSON object mapping each object id to the
    list of the ids, strings, it references."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read reference file {path}: {exc}") from exc
    if not isinstance(raw, dict) or not all(
        isinstance(refs, list) and all(type(ref) is str for ref in refs) for refs in raw.values()
    ):
        raise UsageError(f"reference file {path} must map object ids to lists of ids")
    return {oid: set(refs) for oid, refs in raw.items()}


def cmd_eval(args) -> int:
    from .eval_harness import evaluate_docs, reference_recall

    config = load_config(args.repo, args.config)
    store = load_store(config.repo_root / config.store_path, None, config.repo_root / config.doc_dir)
    if store.graph_snapshot is None:
        raise UsageError("no doc store found; run: repodoc generate")
    docs = {oid: rec.text for oid, rec in store.records.items()}
    report = evaluate_docs(docs, store.graph_snapshot, args.param_metric)
    payload = report.to_dict()
    if args.refs:
        truth = _load_reference_truth(args.refs)
        payload["reference_recall"] = round(reference_recall(store.graph_snapshot, truth), 6)
    if args.json:
        _write_json(payload)
    else:
        agg = payload["aggregates"]
        print(
            f"objects scored: {agg['objects']}; format compliance: {agg['format_compliance']}; "
            f"param accuracy ({agg['param_metric']}): {agg['param_accuracy']}"
        )
        if "reference_recall" in payload:
            print(f"reference recall: {payload['reference_recall']}")
        _print_list("errors", payload["errors"])
    return EXIT_OK


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def main(argv=None) -> int:
    """Run one command. A SIGTERM ends it as Ctrl-C does. The objects that
    exist on entry, the imported modules among them, are frozen out of the
    collector's walks, and young objects are collected every 10,000
    allocations rather than 700, since most of what a run allocates lives
    until it ends. All three are undone on return, also when the command
    raises."""
    terminate = signal.signal(signal.SIGTERM, _interrupt)
    threshold, frozen = gc.get_threshold(), gc.get_freeze_count()
    if not frozen:
        gc.freeze()
    gc.set_threshold(10_000, *threshold[1:])
    try:
        return _main(argv)
    finally:
        gc.set_threshold(*threshold)
        if not frozen:
            gc.unfreeze()
        signal.signal(signal.SIGTERM, terminate)


def _main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left early is seen here, not at exit
        return code
    except KeyboardInterrupt:
        # generate_all let the requests in flight finish; the store and pages
        # are saved only after it returns
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # the reader closed the pipe: send what is still buffered nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except NotAGitRepoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_A_REPO
    except (OverBudgetError, ProviderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERATION_FAILED
    except (UsageError, CorruptStoreError, StoreWriteError) as exc:
        # usage covers configuration and lock problems as well
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
