from __future__ import annotations

import textwrap

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repodoc.project_graph import build_graph
from repodoc.source_model import (
    CLASS,
    FUNCTION,
    module_name_for,
    normalize_source,
    parse_file,
    parse_repository,
    scan_repository,
    source_digest,
)

from .helpers import DEMO_FILES, write_tree


def test_scan_lists_python_files_sorted(demo_repo):
    assert scan_repository(demo_repo) == ["a.py", "util/b.py"]


def test_scan_excludes_hidden_and_ignored(tmp_path):
    write_tree(
        tmp_path,
        {
            "a.py": "x = 1\n",
            ".hidden/b.py": "x = 1\n",
            ".c.py": "x = 1\n",
            "build/gen.py": "x = 1\n",
            "docs/conf.py": "x = 1\n",
        },
    )
    assert scan_repository(tmp_path) == ["a.py", "build/gen.py", "docs/conf.py"]
    assert scan_repository(tmp_path, ignore=("build",)) == ["a.py", "docs/conf.py"]
    assert scan_repository(tmp_path, ignore=("docs/*.py",)) == ["a.py", "build/gen.py"]


def test_parse_demo_objects():
    parse = parse_file("a.py", DEMO_FILES["a.py"])
    assert parse.parse_error is None
    by_id = {o.id: o for o in parse.objects}
    assert sorted(by_id) == ["a.py/C", "a.py/C/m", "a.py/f", "a.py/g"]

    c = by_id["a.py/C"]
    assert (c.kind, c.name, c.parent_id) == (CLASS, "C", "a.py")
    assert c.params == ()  # no __init__
    assert c.has_return is True  # method m returns a value
    assert c.line_span == (1, 3)

    m = by_id["a.py/C/m"]
    assert (m.kind, m.parent_id) == (FUNCTION, "a.py/C")
    assert m.params == ()  # receiver excluded
    assert m.has_return is True

    f = by_id["a.py/f"]
    assert f.line_span == (6, 7)
    assert f.snippet == "def f():\n    return 1"

    g = by_id["a.py/g"]
    assert g.params == ("x",)
    assert g.line_span == (10, 11)


def test_parse_error_is_reported_not_raised():
    parse = parse_file("bad.py", "def broken(:\n")
    assert parse.objects == []
    assert parse.parse_error is not None
    assert parse.parse_error.startswith("bad.py:1:")


def test_duplicate_definition_last_wins():
    text = "def f():\n    return 1\n\n\ndef f():\n    return 2\n"
    parse = parse_file("a.py", text)
    assert [o.id for o in parse.objects] == ["a.py/f"]
    assert parse.objects[0].line_span == (5, 6)


_NESTED_DEFS = """\
import sys


def helper():
    return 1


if sys.platform == "win32":
    def outer():
        def inner():
            return helper()
        return inner()
else:
    def outer():
        return helper()


def user():
    return outer()
"""

_CLASSES = """\
FAST = True

if FAST:
    class Arena:
        def __getstate__(self):
            return self.size()

        def size(self):
            return 1
else:
    class Arena:
        def size(self):
            return 2


def make():
    return Arena()
"""

_INSIDE_A_DEF = """\
def wrapper(flag):
    if flag:
        def pick():
            def deep():
                return 1
            return deep()
    else:
        def pick():
            return 2
    return pick()
"""


@pytest.mark.parametrize(
    "text, dropped, redefined, ids",
    [
        (
            _NESTED_DEFS,
            "a.py/outer/inner",
            ("a.py/outer", 14),
            ["a.py/helper", "a.py/outer", "a.py/user"],
        ),
        (
            _CLASSES,
            "a.py/Arena/__getstate__",
            ("a.py/Arena", 11),
            ["a.py/Arena", "a.py/Arena/size", "a.py/make"],
        ),
        (
            _INSIDE_A_DEF,
            "a.py/wrapper/pick/deep",
            ("a.py/wrapper/pick", 8),
            ["a.py/wrapper", "a.py/wrapper/pick"],
        ),
    ],
    ids=["nested-defs", "classes", "inside-a-def"],
)
def test_conditional_redefinition_drops_the_earlier_subtree(text, dropped, redefined, ids):
    parse = parse_file("a.py", text)
    assert [o.id for o in parse.objects] == ids
    # the surviving definition is the last one
    redefined_id, start = redefined
    assert {o.id: o.line_span[0] for o in parse.objects}[redefined_id] == start
    graph = build_graph(["a.py"], [parse])
    assert sorted(graph.objects) == sorted(ids)
    named = [
        *graph.nodes,
        *parse.scopes,
        *(c.caller for c in parse.calls),
        *(oid for scope in parse.scopes.values() for oid in scope.defs.values()),
        *(end for e in graph.edges + graph.removed_edges for end in (e.caller, e.callee)),
    ]
    assert [n for n in named if n == dropped or n.startswith(dropped + "/")] == []


def test_decorated_and_async_defs_are_functions():
    text = (
        "import functools\n"
        "\n"
        "\n"
        "@functools.cache\n"
        "def cached():\n"
        "    return 1\n"
        "\n"
        "\n"
        "async def fetch(url):\n"
        "    return url\n"
    )
    parse = parse_file("a.py", text)
    by_id = {o.id: o for o in parse.objects}
    assert by_id["a.py/cached"].kind == FUNCTION
    assert by_id["a.py/cached"].line_span[0] == 4  # decorator included
    assert by_id["a.py/fetch"].kind == FUNCTION
    assert by_id["a.py/fetch"].params == ("url",)


def test_has_return_rules():
    cases = {
        "def a():\n    return\n": False,  # bare return
        "def a():\n    return 1\n": True,
        "def a():\n    yield 1\n": True,
        "def a():\n    yield\n": True,
        "def a():\n    def inner():\n        return 1\n    inner()\n": False,
        "def a():\n    if 1:\n        return 2\n": True,
        "class A:\n    def m(self):\n        pass\n": False,
        "class A:\n    def m(self):\n        return 3\n": True,
    }
    for text, expected in cases.items():
        parse = parse_file("x.py", text)
        assert parse.objects[0].has_return is expected, text


@pytest.mark.parametrize(
    "text, target, expected",
    [
        pytest.param("def a():\n    return x\n", "x.py/a", True, id="return-value"),
        pytest.param("def a():\n    return\n", "x.py/a", False, id="bare-return"),
        pytest.param("def a():\n    yield\n", "x.py/a", True, id="yield"),
        pytest.param("def a():\n    yield from b()\n", "x.py/a", True, id="yield-from"),
        pytest.param("def a():\n    f = lambda: (yield)\n", "x.py/a", True, id="yield-in-lambda"),
        pytest.param(
            "def a():\n    def inner():\n        return 1\n", "x.py/a", False, id="nested-def-return"
        ),
        pytest.param(
            "def a():\n    def inner():\n        return 1\n", "x.py/a/inner", True, id="nested-def-itself"
        ),
        pytest.param(
            "def a():\n    def inner(x=(yield)):\n        pass\n", "x.py/a", False, id="yield-in-nested-default"
        ),
        pytest.param(
            "def a():\n    def inner(x=(yield)):\n        pass\n",
            "x.py/a/inner",
            False,
            id="own-default-yield",
        ),
        pytest.param("@d(lambda: (yield))\ndef a():\n    pass\n", "x.py/a", False, id="yield-in-decorator"),
        pytest.param(
            "def a():\n    class K:\n        def m(self):\n            return 1\n",
            "x.py/a",
            False,
            id="nested-class-method",
        ),
        pytest.param(
            "class A:\n    def m(self):\n        pass\n\n    def n(self):\n        return 1\n",
            "x.py/A",
            True,
            id="class-with-returning-method",
        ),
        pytest.param(
            "class A:\n    if c:\n        def m(self):\n            return 1\n",
            "x.py/A",
            False,
            id="class-method-under-if",
        ),
        pytest.param(
            "class A:\n    if c:\n        def m(self):\n            return 1\n",
            "x.py/A/m",
            True,
            id="method-under-if-itself",
        ),
        pytest.param(
            "class A:\n    class B:\n        def m(self):\n            return 1\n",
            "x.py/A",
            False,
            id="class-nested-class",
        ),
    ],
)
def test_has_return_per_object(text, target, expected):
    objects = {obj.id: obj for obj in parse_file("x.py", text).objects}
    assert objects[target].has_return is expected


def test_param_extraction_full_signature():
    text = "def f(a, b, /, c, *args, d, e=1, **kw):\n    return a\n"
    parse = parse_file("x.py", text)
    assert parse.objects[0].params == ("a", "b", "c", "args", "d", "e", "kw")


def test_class_params_come_from_init():
    text = (
        "class Box:\n"
        "    def __init__(self, width, height):\n"
        "        self.width = width\n"
        "        self.height = height\n"
        "\n"
        "    def area(self):\n"
        "        return self.width * self.height\n"
    )
    parse = parse_file("x.py", text)
    box = next(o for o in parse.objects if o.id == "x.py/Box")
    assert box.params == ("width", "height")


def test_module_name_mapping():
    assert module_name_for("a.py") == "a"
    assert module_name_for("util/b.py") == "util.b"
    assert module_name_for("util/__init__.py") == "util"
    assert module_name_for("pkg/sub/mod.py") == "pkg.sub.mod"


def test_normalization_rules():
    assert normalize_source("a \r\nb\r") == "a\nb\n"
    assert source_digest("def f():\n    return 1") == source_digest(
        "def f():   \r\n    return 1"
    )


def test_parse_repository_order(demo_repo):
    parses = parse_repository(demo_repo, ["util/b.py", "a.py"])
    assert [p.file for p in parses] == ["a.py", "util/b.py"]


def test_snippet_reparse_reports_same_signature_facts():
    # An object's stored snippet, parsed on its own, must describe the same
    # interface; receiver exclusion is name-based so methods survive the trip.
    parse = parse_file("a.py", DEMO_FILES["a.py"])
    for obj in parse.objects:
        snippet = textwrap.dedent(obj.snippet)
        reparsed = parse_file("solo.py", snippet)
        assert reparsed.parse_error is None
        match = next(o for o in reparsed.objects if o.name == obj.name)
        assert match.kind == obj.kind
        assert match.params == obj.params
        assert match.has_return == obj.has_return


_identifiers = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in {"def", "class", "return", "pass", "self", "cls", "yield",
                        "import", "from", "if", "else", "for", "while", "in", "is",
                        "not", "and", "or", "lambda", "del", "with", "as", "try",
                        "none", "true", "false", "global", "nonlocal", "assert",
                        "break", "continue", "elif", "except", "finally", "raise"}
)


@given(
    name=_identifiers,
    params=st.lists(_identifiers, max_size=4, unique=True),
    returns=st.booleans(),
)
def test_generated_function_roundtrip(name, params, returns):
    body = "    return 1\n" if returns else "    pass\n"
    text = f"def {name}({', '.join(params)}):\n{body}"
    parse = parse_file("gen.py", text)
    assert parse.parse_error is None
    obj = parse.objects[0]
    assert obj.name == name
    assert list(obj.params) == params
    assert obj.has_return is returns
    assert obj.snippet == text.rstrip("\n")


@given(st.text())
def test_normalize_is_idempotent(text):
    once = normalize_source(text)
    assert normalize_source(once) == once


@given(
    st.text(alphabet=st.characters(blacklist_characters="\r")),
    st.integers(min_value=0, max_value=6),
)
@example(text="\ud800", pad=0)
def test_digest_ignores_trailing_spaces(text, pad):
    # CR normalization is covered separately; padding would split a CRLF pair.
    padded = "\n".join(line + " " * pad for line in text.split("\n"))
    assert source_digest(padded) == source_digest(text)


def test_scan_rejects_missing_directory(tmp_path):
    from repodoc.errors import UsageError

    with pytest.raises(UsageError):
        scan_repository(tmp_path / "nope")
