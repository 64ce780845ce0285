"""The names the benchmark's tracer binds must exist in the program.

``bench/tracer.py`` wraps repodoc's functions and methods by name and reads
some of their arguments by parameter name. A name it cannot find is not
traced and a traced run reports a failure, so each rename is caught here.
"""

from __future__ import annotations

import importlib
import inspect
import types
from collections import Counter
from pathlib import Path

import pytest

from repodoc.project_graph import build_tree, resolve_references
from repodoc.source_model import parse_file

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# the parameters the tracer's counters read, by function
COUNTED_PARAMETERS = (
    ("project_graph", "resolve_references", "parses"),
    ("markdown_publisher", "write_site", "out_dir"),
    ("doc_pipeline", "save_store", "path"),
    ("prompt_engine", "fit_to_budget", "ctx"),
)


def _load_tracer() -> types.ModuleType:
    # compiled from its text, so no bytecode is written beside it
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec"), vars(module))
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("module_name, attr", [entry[:2] for entry in TRACER.FUNCTIONS])
def test_every_traced_function_exists(module_name, attr):
    module = importlib.import_module(f"repodoc.{module_name}")
    assert callable(getattr(module, attr, None)), f"repodoc.{module_name}.{attr}"


@pytest.mark.parametrize("module_name, cls_name, attr", [entry[:3] for entry in TRACER.METHODS])
def test_every_traced_method_exists(module_name, cls_name, attr):
    cls = getattr(importlib.import_module(f"repodoc.{module_name}"), cls_name, None)
    assert cls is not None, f"repodoc.{module_name}.{cls_name}"
    assert callable(getattr(cls, attr, None)), f"repodoc.{module_name}.{cls_name}.{attr}"


@pytest.mark.parametrize("module_name, attr, parameter", COUNTED_PARAMETERS)
def test_counted_functions_keep_their_parameter_names(module_name, attr, parameter):
    function = getattr(importlib.import_module(f"repodoc.{module_name}"), attr)
    assert parameter in inspect.signature(function).parameters


def test_resolve_references_gives_one_unresolved_entry_per_call():
    # the tracer unpacks the result into two items and counts the second
    # with len, one entry per unresolved call, duplicates included
    text = "def f():\n    return g() + missing() + missing()\n\n\ndef g():\n    return 1\n"
    parses = [parse_file("a.py", text)]
    result = resolve_references(build_tree(["a.py"], parses), parses)
    assert type(result) is tuple and len(result) == 2
    assert len(result[1]) == 2
    counts = Counter()
    TRACER._count_resolve(counts, {"parses": parses}, result)
    assert counts == {"project_graph.unresolved_calls": 2, "project_graph.resolved_calls": 1}
