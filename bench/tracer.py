"""Spans around repodoc's layers, recorded from outside the program.

``Tracer.install`` wraps public functions of repodoc's modules, and the
providers' ``send`` and ``Gateway.complete``, by rebinding module and class
attributes: every module that imported a wrapped function gets the wrapper.
Each call records a span (id, parent id, run id, name, start, end) in memory.
Counts are read from the same calls' arguments and return values, after the
call's span has ended; that work is recorded as a ``trace.count`` span under
the caller, so it is not charged to the caller's layer. A layer's self time
is its spans' durations minus the part their child spans cover. A function
that is not found is not traced, and the run reports it as a failure.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "cli",
    "source_model",
    "project_graph",
    "prompt_engine",
    "llm_gateway",
    "doc_pipeline",
    "markdown_publisher",
    "change_tracker",
)


def _count_parse(c, a, result):
    c["source_model.files"] += 1
    c["source_model.objects"] += len(result.objects)
    c["source_model.parse_errors"] += bool(result.parse_error)


def _count_resolve(c, a, result):
    _edges, unresolved = result
    c["project_graph.unresolved_calls"] += len(unresolved)
    c["project_graph.resolved_calls"] += sum(len(p.calls) for p in a["parses"]) - len(unresolved)


def _count_write_site(c, a, result):
    c["markdown_publisher.pages_written"] += len(result)
    c["markdown_publisher.pages_total"] = sum(1 for _ in Path(a["out_dir"]).rglob("*.md"))


def _set_store_bytes(c, a, result):
    c["doc_pipeline.store_bytes"] = os.path.getsize(a["path"])


def _count_generate_all(c, a, result):
    c["doc_pipeline.generated"] += len(result.generated)
    c["doc_pipeline.skipped"] += len(result.skipped)


def _add(key, size=lambda a, r: 1):
    def count(c, a, result):
        c[key] += size(a, result)

    return count


# (module, attribute, span name, counter); the layer is the span name's prefix
FUNCTIONS = (
    ("source_model", "scan_repository", "source_model.scan", None),
    ("source_model", "parse_repository", "source_model.parse_repository", None),
    ("source_model", "parse_file", "source_model.parse", _count_parse),
    ("project_graph", "build_graph", "project_graph.build_graph", None),
    ("project_graph", "build_tree", "project_graph.tree", None),
    ("project_graph", "resolve_references", "project_graph.resolve", _count_resolve),
    (
        "project_graph",
        "prune_cycles",
        "project_graph.prune",
        _add("project_graph.removed_edges", lambda a, r: len(r[1])),
    ),
    ("project_graph", "topological_order", "project_graph.topo", None),
    ("prompt_engine", "assemble_context", "prompt_engine.assemble", None),
    (
        "prompt_engine",
        "fit_to_budget",
        "prompt_engine.fit",
        _add("prompt_engine.reduced_prompts", lambda a, r: r[0] is not a["ctx"]),
    ),
    ("prompt_engine", "render_prompt", "prompt_engine.render", _add("prompt_engine.renders")),
    ("doc_pipeline", "generate_all", "doc_pipeline.generate_all", _count_generate_all),
    ("doc_pipeline", "parse_doc", "doc_pipeline.parse_doc", None),
    ("doc_pipeline", "load_store", "doc_pipeline.load_store", None),
    ("doc_pipeline", "save_store", "doc_pipeline.save_store", _set_store_bytes),
    ("markdown_publisher", "write_site", "markdown_publisher.write_site", _count_write_site),
    ("change_tracker", "run_update", "change_tracker.run_update", None),
    ("change_tracker", "staged_changes", "change_tracker.staged_changes", None),
    ("change_tracker", "read_staged_text", "change_tracker.read_staged", None),
    ("change_tracker", "diff_objects", "change_tracker.diff", None),
    (
        "change_tracker",
        "plan_updates",
        "change_tracker.plan",
        _add("change_tracker.plan_size", lambda a, r: len(r.regenerate)),
    ),
    ("change_tracker", "_git", "change_tracker.git", _add("change_tracker.git_calls")),
)
# (module, class, method, span name, counter)
METHODS = (
    ("llm_gateway", "Gateway", "complete", "llm_gateway.complete", _add("llm_gateway.requests")),
    ("llm_gateway", "MockProvider", "send", "llm_gateway.send", _add("llm_gateway.sends")),
    ("llm_gateway", "HttpChatProvider", "send", "llm_gateway.send", _add("llm_gateway.sends")),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.ops: dict[int, str] = {}  # run id -> operation kind
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._run = 0
        self._lock = threading.Lock()
        self._inflight = 0
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counter=None, inflight: bool = False):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # a worker thread's spans belong to the span that started the pool
            parent = stack[-1] if stack else (tracer._op_stack[-1] if tracer._op_stack else None)
            sid = next(tracer._ids)
            stack.append(sid)
            if inflight:
                with tracer._lock:
                    tracer._inflight += 1
                    tracer.counts["llm_gateway.max_inflight"] = max(
                        tracer.counts["llm_gateway.max_inflight"], tracer._inflight
                    )
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, tracer._run, name, start, end))
                if inflight:
                    with tracer._lock:
                        tracer._inflight -= 1
            if counter is not None:
                count_start = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                with tracer._lock:
                    counter(tracer.counts, bound.arguments, result)
                count_span = (next(tracer._ids), parent, tracer._run, "trace.count")
                tracer.spans.append((*count_span, count_start, time.perf_counter()))
            return result

        return wrapper

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items()) if n == "repodoc" or n.startswith("repodoc.")
        ]
        for mod_name, attr, name, counter in FUNCTIONS:
            mod = importlib.import_module(f"repodoc.{mod_name}")
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self.wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        for mod_name, cls_name, attr, name, counter in METHODS:
            cls = getattr(importlib.import_module(f"repodoc.{mod_name}"), cls_name, None)
            original = getattr(cls, attr, None) if cls is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, counter, inflight=name.endswith(".send")))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def op(self, kind: str, call):
        """Run one CLI operation under a root span ``cli.main``."""
        self._run += 1
        self.ops[self._run] = kind
        self._op_stack = self._stack()
        return self.wrap("cli.main", call)()

    # -- reporting -------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _sid, parent, _run, _name, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _parent, _run, _name, start, end in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[sid] = (end - start) - covered
        return out

    def metrics(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        selfs = self.self_times()
        for sid, _parent, run, name, start, end in self.spans:
            total[name] += end - start
            own[name] += selfs[sid]
            per_op[run][name.split(".")[0]] += selfs[sid]
        c = self.counts
        requests = c["llm_gateway.requests"]
        m = {
            "source_model.scan_s": total["source_model.scan"],
            "source_model.parse_s": total["source_model.parse"],
            "source_model.files": c["source_model.files"],
            "source_model.objects": c["source_model.objects"],
            "source_model.parse_errors": c["source_model.parse_errors"],
            "project_graph.tree_s": total["project_graph.tree"],
            "project_graph.resolve_s": total["project_graph.resolve"],
            "project_graph.resolved_calls": c["project_graph.resolved_calls"],
            "project_graph.unresolved_calls": c["project_graph.unresolved_calls"],
            "project_graph.prune_s": total["project_graph.prune"],
            "project_graph.removed_edges": c["project_graph.removed_edges"],
            "project_graph.topo_s": total["project_graph.topo"],
            "prompt_engine.assemble_s": total["prompt_engine.assemble"],
            "prompt_engine.fit_s": total["prompt_engine.fit"],
            "prompt_engine.renders_per_request": (
                c["prompt_engine.renders"] / requests if requests else 0.0
            ),
            "prompt_engine.reduced_prompts": c["prompt_engine.reduced_prompts"],
            "llm_gateway.complete_s": total["llm_gateway.complete"],
            "llm_gateway.send_s": total["llm_gateway.send"],
            "llm_gateway.wait_s": total["llm_gateway.complete"] - total["llm_gateway.send"],
            "llm_gateway.requests": requests,
            "llm_gateway.retries": c["llm_gateway.sends"] - requests,
            "llm_gateway.max_inflight": c["llm_gateway.max_inflight"],
            "doc_pipeline.generate_all_self_s": own["doc_pipeline.generate_all"],
            "doc_pipeline.generated": c["doc_pipeline.generated"],
            "doc_pipeline.skipped": c["doc_pipeline.skipped"],
            "doc_pipeline.parse_doc_s": total["doc_pipeline.parse_doc"],
            "doc_pipeline.load_store_s": total["doc_pipeline.load_store"],
            "doc_pipeline.save_store_s": total["doc_pipeline.save_store"],
            "doc_pipeline.store_bytes": c["doc_pipeline.store_bytes"],
            "markdown_publisher.write_site_s": total["markdown_publisher.write_site"],
            "markdown_publisher.pages_written": c["markdown_publisher.pages_written"],
            "markdown_publisher.pages_total": c["markdown_publisher.pages_total"],
            "change_tracker.staged_changes_s": total["change_tracker.staged_changes"],
            "change_tracker.read_staged_s": total["change_tracker.read_staged"],
            "change_tracker.git_calls": c["change_tracker.git_calls"],
            "change_tracker.diff_s": total["change_tracker.diff"],
            "change_tracker.plan_size": c["change_tracker.plan_size"],
            "change_tracker.run_update_self_s": own["change_tracker.run_update"],
        }
        for phase in ("generate", "rerun", "update"):
            runs = [run for run, kind in self.ops.items() if kind == phase]
            for layer in LAYERS:
                values = [per_op[run][layer] for run in runs] or [0.0]
                m[f"{phase}.{layer}.self_s"] = statistics.median(values)
        return m

    def write_jsonl(self, path: Path) -> None:
        selfs = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for sid, parent, run, name, start, end in sorted(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "run": run,
                            "op": self.ops.get(run),
                            "name": name,
                            "start": start,
                            "end": end,
                            "self": selfs[sid],
                        }
                    )
                    + "\n"
                )
