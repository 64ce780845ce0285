"""Command line entry points.

Exit codes: 0 success, 1 usage or configuration problems, 2 completed with
source files that failed to parse, 3 generation failures (provider errors or
prompts that cannot fit any context window), 4 not a Git repository. A
reader that closes the output pipe early also gives 1, with no traceback.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .change_tracker import _update_lock, git_dir, install_hook, persist, run_update
from .config import api_key, build_gateway, load_config
from .doc_pipeline import generate_all, load_store, snapshot_is_recorded, stale_objects
from .errors import (
    CorruptStoreError,
    NotAGitRepoError,
    OverBudgetError,
    ProviderError,
    StoreWriteError,
    UsageError,
)
from .project_graph import add_snippets, graph_to_dot, source_graph
from .source_model import ParseCache, scan_repository

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE_ERRORS = 2
EXIT_GENERATION_FAILED = 3
EXIT_NOT_A_REPO = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _common_options() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--repo", default=".", help="repository root (default: cwd)")
    common.add_argument("--config", default=None, help="config file (default: <repo>/.repodoc.json)")
    common.add_argument(
        "--jobs", type=int, default=1, help="objects generated at once (default: %(default)s)"
    )
    common.add_argument("--json", action="store_true", help="machine readable output")
    common.add_argument("--verbose", action="store_true", help="log progress details")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    parser = _Parser(prog="repodoc", description="Repository documentation generator")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("generate", parents=[common], help="document every object in the repo")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("update", parents=[common], help="regenerate docs for staged changes")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("install-hook", parents=[common], help="install the pre-commit hook")
    p.set_defaults(func=cmd_install_hook)

    p = sub.add_parser("publish", parents=[common], help="rewrite pages from the stored docs")
    p.set_defaults(func=cmd_publish)

    p = sub.add_parser("graph", parents=[common], help="print the project tree and references")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("eval", parents=[common], help="score stored docs for format and params")
    p.add_argument("--param-metric", choices=("jaccard", "precision"), default="jaccard")
    p.add_argument("--refs", default=None, help="ground truth reference JSON for recall")
    p.set_defaults(func=cmd_eval)

    return parser


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
        store = load_store(store_path, repo_git)
        sources = scan_repository(config.repo_root, config.ignore)
        cache = ParseCache(repo_git)
        reuse = snapshot_is_recorded(store, repo_git)
        graph, taken = source_graph(sources, cache, store.graph_snapshot, reuse=reuse)
        stale = stale_objects(graph, store)
        add_snippets(graph, sources, cache, taken, stale)
        cache.save()
        gateway = build_gateway(config) if stale else None
        report = generate_all(graph, gateway, store, config, args.jobs, only=stale)
        # partial progress is kept even when some objects failed
        doc_dir = config.repo_root / config.doc_dir
        pages = persist(graph, store, store_path, doc_dir, repo_git, reuse)
    if args.json:
        payload = report.to_dict()
        payload["pages_written"] = pages
        payload["parsed_files"] = cache.parsed
        payload["reused_files"] = len(taken)
        payload["parse_errors"] = list(graph.parse_errors)
        payload["diagnostics"] = list(graph.diagnostics)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"generated {len(report.generated)} objects, skipped {len(report.skipped)}, "
            f"{len(pages)} pages written"
        )
        _print_list("parse errors", graph.parse_errors)
        _print_list("failures", (f"{k}: {v}" for k, v in sorted(report.failures.items())))
    if report.failures:
        return EXIT_GENERATION_FAILED
    if graph.parse_errors:
        return EXIT_PARSE_ERRORS
    return EXIT_OK


def cmd_update(args) -> int:
    config = load_config(args.repo, args.config)
    gateway = build_gateway(config)
    report = run_update(gateway, config, args.jobs)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif report.ok:
        print(report.summary_line())
        _print_list("parse errors", report.parse_errors)
    else:
        _print_list(
            "documentation update failed",
            (f"{k}: {v}" for k, v in sorted(report.run.failures.items())),
        )
    if not report.ok:
        return EXIT_GENERATION_FAILED
    if report.parse_errors:
        return EXIT_PARSE_ERRORS
    return EXIT_OK


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
        store = load_store(store_path, repo_git)
        if store.graph_snapshot is None:
            raise UsageError("no doc store found; run: repodoc generate")
        reuse = snapshot_is_recorded(store, repo_git)
        doc_dir = config.repo_root / config.doc_dir
        pages = persist(store.graph_snapshot, store, None, doc_dir, repo_git, reuse)
    if args.json:
        print(json.dumps({"pages_written": pages}, indent=2))
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
        print(json.dumps(graph.to_dict(), indent=2, sort_keys=True))
    return EXIT_PARSE_ERRORS if graph.parse_errors else EXIT_OK


def _load_reference_truth(path: str) -> dict[str, set[str]]:
    """Ground truth references: a JSON object mapping each object id to the
    list of ids it references."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read reference file {path}: {exc}") from exc
    if not isinstance(raw, dict) or not all(isinstance(refs, list) for refs in raw.values()):
        raise UsageError(f"reference file {path} must map object ids to lists of ids")
    return {oid: set(refs) for oid, refs in raw.items()}


def cmd_eval(args) -> int:
    from .eval_harness import evaluate_docs, reference_recall

    config = load_config(args.repo, args.config)
    store = load_store(config.repo_root / config.store_path)
    if store.graph_snapshot is None:
        raise UsageError("no doc store found; run: repodoc generate")
    docs = {oid: rec.text for oid, rec in store.records.items()}
    report = evaluate_docs(docs, store.graph_snapshot, args.param_metric)
    payload = json.loads(report.to_json())
    if args.refs:
        truth = _load_reference_truth(args.refs)
        payload["reference_recall"] = round(reference_recall(store.graph_snapshot, truth), 6)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
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


def main(argv=None) -> int:
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
