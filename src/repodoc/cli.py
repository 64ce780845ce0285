"""Command line entry points.

Exit codes: 0 success, 1 usage or configuration problems, 2 completed with
source files that failed to parse, 3 generation failures (provider errors or
prompts that cannot fit any context window), 4 not a Git repository.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .change_tracker import _update_lock, git_dir, install_hook, run_update
from .config import build_gateway, load_config
from .doc_pipeline import generate_all, load_store, record_snapshot, save_store
from .errors import (
    CorruptStoreError,
    NotAGitRepoError,
    OverBudgetError,
    ProviderError,
    StoreWriteError,
    UsageError,
)
from .eval_harness import evaluate_docs, reference_recall
from .markdown_publisher import write_site
from .project_graph import build_graph, graph_to_dot
from .source_model import ParseCache, parse_repository, scan_repository

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


def _build_current_graph(config, repo_git):
    """The working tree's graph, and how many files had to be parsed;
    ``repo_git`` is the repository's git directory, if any."""
    files = scan_repository(config.repo_root, config.ignore)
    cache = ParseCache(repo_git)
    parses = parse_repository(config.repo_root, files, cache)
    return build_graph(files, parses), cache.parsed


def _print_list(title: str, items) -> None:
    items = list(items)
    if not items:
        return
    print(f"{title}:")
    for item in items:
        print(f"  {item}")


def cmd_generate(args) -> int:
    config = load_config(args.repo, args.config)
    gateway = build_gateway(config)
    store_path = config.repo_root / config.store_path
    with _update_lock(store_path.parent):
        repo_git = git_dir(config.repo_root)
        graph, parsed_files = _build_current_graph(config, repo_git)
        store = load_store(store_path)
        report = generate_all(graph, gateway, store, config, args.jobs)
        # partial progress is kept even when some objects failed
        if store.changed:
            save_store(store, store_path)
            if repo_git is not None:
                record_snapshot(store, repo_git)
        pages = write_site(graph, store, config.repo_root / config.doc_dir)
    if args.json:
        payload = report.to_dict()
        payload["pages_written"] = pages
        payload["parsed_files"] = parsed_files
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
    store = load_store(config.repo_root / config.store_path)
    if store.graph_snapshot is None:
        raise UsageError("no doc store found; run: repodoc generate")
    pages = write_site(store.graph_snapshot, store, config.repo_root / config.doc_dir)
    if args.json:
        print(json.dumps({"pages_written": pages}, indent=2))
    else:
        print(f"{len(pages)} pages written")
    return EXIT_OK


def cmd_graph(args) -> int:
    config = load_config(args.repo, args.config)
    graph, _parsed_files = _build_current_graph(config, git_dir(config.repo_root))
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
        return args.func(args)
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
