"""Shared fixtures and utilities for the test suite.

Three fixture repositories are used throughout:

- the demo repo: four objects in a.py plus one importer in util/b.py, small
  enough that every derived value (edges, order, docs) is frozen by hand;
- the labeled repo: 15 objects and 12 hand-labeled reference edges covering
  cross-file imports, method calls, instantiation and a two-function call
  ring, used for recall and end-to-end checks;
- the order repo: one file whose source order is not alphabetical, used to
  check the order of pages and prompts.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repodoc.config import Config
from repodoc.doc_pipeline import DocStore, generate_all, stale_objects
from repodoc.llm_gateway import (
    CompletionRequest,
    CompletionResponse,
    Gateway,
    MockProvider,
    TransientProviderError,
)
from repodoc.project_graph import RepoGraph, build_graph, diff_objects
from repodoc.prompt_engine import PromptContext, assemble_context
from repodoc.source_model import parse_repository, scan_repository

DEMO_FILES = {
    "a.py": (
        "class C:\n"
        "    def m(self):\n"
        "        return g(2)\n"
        "\n"
        "\n"
        "def f():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def g(x):\n"
        "    return f() + x\n"
    ),
    "util/b.py": "from a import g\n\n\ndef h():\n    return g(3)\n",
    "README.md": "# demo\n",
}

DEMO_EDGES = {
    ("a.py/C/m", "a.py/g"),
    ("a.py/g", "a.py/f"),
    ("util/b.py/h", "a.py/g"),
}

DEMO_TOPO_ORDER = ["a.py/f", "a.py/g", "a.py/C/m", "a.py/C", "util/b.py/h"]

LABELED_FILES = {
    "core.py": (
        "def alpha():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def beta(x):\n"
        "    return alpha() + x\n"
        "\n"
        "\n"
        "def ring_a(n):\n"
        "    if n <= 0:\n"
        "        return 0\n"
        "    return ring_b(n - 1)\n"
        "\n"
        "\n"
        "def ring_b(n):\n"
        "    return ring_a(n) + 1\n"
        "\n"
        "\n"
        "class Engine:\n"
        "    def __init__(self, size):\n"
        "        self.size = size\n"
        "\n"
        "    def run(self):\n"
        "        return beta(self.size)\n"
        "\n"
        "    def helper(self):\n"
        "        return self.run()\n"
    ),
    "util/__init__.py": "",
    "util/tools.py": (
        "import core\n"
        "from core import beta\n"
        "\n"
        "\n"
        "def scale(x):\n"
        "    return beta(x) * 2\n"
        "\n"
        "\n"
        "def spin(n):\n"
        "    return core.ring_a(n)\n"
        "\n"
        "\n"
        "class Wrapper:\n"
        "    def __init__(self):\n"
        "        self.engine = core.Engine(3)\n"
        "\n"
        "    def go(self, x):\n"
        "        return scale(x)\n"
    ),
    "app.py": (
        "from util.tools import Wrapper, scale\n"
        "\n"
        "\n"
        "def main():\n"
        "    wrapper = Wrapper()\n"
        "    return wrapper.go(scale(1))\n"
        "\n"
        "\n"
        "def report():\n"
        "    print(main())\n"
    ),
}

# Hand-labeled ground truth: every caller->callee pair in the labeled repo.
LABELED_EDGES = {
    ("core.py/beta", "core.py/alpha"),
    ("core.py/ring_a", "core.py/ring_b"),
    ("core.py/ring_b", "core.py/ring_a"),
    ("core.py/Engine/run", "core.py/beta"),
    ("core.py/Engine/helper", "core.py/Engine/run"),
    ("util/tools.py/scale", "core.py/beta"),
    ("util/tools.py/spin", "core.py/ring_a"),
    ("util/tools.py/Wrapper/__init__", "core.py/Engine"),
    ("util/tools.py/Wrapper/go", "util/tools.py/scale"),
    ("app.py/main", "util/tools.py/Wrapper"),
    ("app.py/main", "util/tools.py/scale"),
    ("app.py/report", "app.py/main"),
}

# The two-function ring is broken deterministically at this edge.
LABELED_REMOVED_EDGE = ("core.py/ring_b", "core.py/ring_a")

LABELED_OBJECT_COUNT = 15


# b comes before a, method z before y, and the def of r that an if/else
# keeps comes after s.
ORDER_FILES = {
    "order.py": (
        "def b():\n"
        "    return a()\n"
        "\n"
        "\n"
        "def a():\n"
        "    return 1\n"
        "\n"
        "\n"
        "class K:\n"
        "    def z(self):\n"
        "        return 1\n"
        "\n"
        "    def y(self):\n"
        "        return self.z()\n"
        "\n"
        "\n"
        "if FLAG:\n"
        "    def r():\n"
        "        return 1\n"
        "\n"
        "    def s():\n"
        "        return r()\n"
        "else:\n"
        "    def r():\n"
        "        return 2\n"
    ),
}

ORDER_SOURCE_ORDER = [
    ("order.py/b", 1),
    ("order.py/a", 1),
    ("order.py/K", 1),
    ("order.py/K/z", 2),
    ("order.py/K/y", 2),
    ("order.py/s", 1),
    ("order.py/r", 1),
]


def write_tree(root: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")


def reference_sets(edges: Iterable[tuple[str, str]]) -> dict[str, set[str]]:
    """Per-object union of callers and callees from (caller, callee) pairs."""
    refs: dict[str, set[str]] = {}
    for caller, callee in edges:
        refs.setdefault(caller, set()).add(callee)
        refs.setdefault(callee, set()).add(caller)
    return refs


def build_repo_graph(root: Path, ignore: tuple[str, ...] = ()) -> RepoGraph:
    sources = scan_repository(root, ignore)
    return build_graph(list(sources), parse_repository(sources, sources))


def make_gateway(fail_names: frozenset[str] = frozenset()) -> Gateway:
    """Mock gateway; ``gateway.provider`` is a CapturingProvider, whose
    requests for the objects named in ``fail_names`` fail."""
    return Gateway(CapturingProvider(fail_names), retries=0)


def make_config(root: Path, **overrides) -> Config:
    """The default configuration of ``root`` with the given fields replaced."""
    return Config(repo_root=root, **overrides)


def context_for(graph: RepoGraph, store, object_id: str, **overrides) -> PromptContext:
    """``assemble_context`` with the prompt settings of the default configuration."""
    config = make_config(Path("."))
    settings = dict(
        child_docs_enabled=config.child_docs_enabled, doc_language=config.doc_language
    )
    settings.update(overrides)
    return assemble_context(graph, store, object_id, **settings)


def generate_stale(graph, gateway, store, config, jobs, only=None):
    """``generate_all`` with the pending set ``generate`` and ``update``
    pass, the ``stale_objects`` of ``graph``, or ``only`` when given."""
    changes = diff_objects(store.graph_snapshot, graph)
    pending = stale_objects(graph, store, changes) if only is None else set(only)
    return generate_all(graph, gateway, store, config, jobs, pending, changes)


def generate_repo(root: Path, jobs: int = 1, **config_overrides):
    """Full mock generation; returns (graph, store, report, gateway).

    ``gateway.provider`` records what the run sent and received.
    """
    graph = build_repo_graph(root)
    store = DocStore()
    gateway = make_gateway()
    report = generate_stale(graph, gateway, store, make_config(root, **config_overrides), jobs)
    return graph, store, report, gateway


class CapturingProvider:
    """Mock provider that also records every request it receives and every
    response it returns. A request for an object named in ``fail_names``
    fails."""

    def __init__(self, fail_names: frozenset[str] = frozenset()) -> None:
        self._inner = MockProvider()
        self.fail_names = fail_names
        self.requests: list[CompletionRequest] = []
        self.responses: list[CompletionResponse] = []

    @property
    def prompts(self) -> list[str]:
        return [request.prompt for request in self.requests]

    def send(self, request: CompletionRequest) -> CompletionResponse:
        self.requests.append(request)
        for name in self.fail_names:
            if f'whose name is "{name}"' in request.prompt:
                raise TransientProviderError(f"synthetic failure for {name}")
        response = self._inner.send(request)
        self.responses.append(response)
        return response


class FailingProvider:
    """Provider whose listed object names always fail; others succeed.

    With no names listed, every request fails.
    """

    def __init__(self, fail_names: frozenset[str] | None = None) -> None:
        self._inner = MockProvider()
        self.fail_names = fail_names
        self.attempts = 0

    def send(self, request: CompletionRequest) -> CompletionResponse:
        if self.fail_names is None:
            self.attempts += 1
            raise TransientProviderError("synthetic outage")
        for name in self.fail_names:
            if f'whose name is "{name}"' in request.prompt:
                self.attempts += 1
                raise TransientProviderError(f"synthetic failure for {name}")
        return self._inner.send(request)
