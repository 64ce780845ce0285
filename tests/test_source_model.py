from __future__ import annotations

import ast
import importlib.util
import os
import sys
import sysconfig
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repodoc.project_graph import build_graph, build_tree, resolve_references
from repodoc.source_model import (
    CLASS,
    FUNCTION,
    ParseCache,
    blob_id,
    module_name_for,
    normalize_source,
    parse_file,
    parse_repository,
    scan_repository,
    source_digest,
    source_text,
)

from .header_oracle import header_end
from .helpers import DEMO_FILES, LABELED_FILES, ORDER_FILES, write_tree


def line_span(obj) -> tuple[int, int]:
    """An object's first and last line, 1-based, counted in its text."""
    start, _, end = obj.span
    first = obj.text.count("\n", 0, start) + 1
    return first, first + obj.text.count("\n", start, end)


def test_scan_lists_python_files_sorted(demo_repo):
    assert list(scan_repository(demo_repo)) == ["a.py", "util/b.py"]


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
    assert list(scan_repository(tmp_path)) == ["a.py", "build/gen.py", "docs/conf.py"]
    assert list(scan_repository(tmp_path, ignore=("build",))) == ["a.py", "docs/conf.py"]
    assert list(scan_repository(tmp_path, ignore=("docs/*.py",))) == ["a.py", "build/gen.py"]


def test_parse_demo_objects():
    parse = parse_file("a.py", DEMO_FILES["a.py"])
    assert parse.parse_error is None
    by_id = {o.id: o for o in parse.objects}
    assert sorted(by_id) == ["a.py/C", "a.py/C/m", "a.py/f", "a.py/g"]

    c = by_id["a.py/C"]
    assert (c.kind, c.name, c.parent_id) == (CLASS, "C", "a.py")
    assert c.params == ()  # no __init__
    assert c.has_return is True  # method m returns a value
    assert line_span(c) == (1, 3)

    m = by_id["a.py/C/m"]
    assert (m.kind, m.parent_id) == (FUNCTION, "a.py/C")
    assert m.params == ()  # receiver excluded
    assert m.has_return is True

    f = by_id["a.py/f"]
    assert line_span(f) == (6, 7)
    assert f.snippet == "def f():\n    return 1"

    g = by_id["a.py/g"]
    assert g.params == ("x",)
    assert line_span(g) == (10, 11)


def test_parse_error_is_reported_not_raised():
    parse = parse_file("bad.py", "def broken(:\n")
    assert parse.objects == []
    assert parse.parse_error is not None
    assert parse.parse_error.startswith("bad.py:1:")


def test_a_parse_warning_names_its_file():
    # an invalid escape: a DeprecationWarning before Python 3.12, a
    # SyntaxWarning since
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse = parse_file("pkg/esc.py", 'def f():\n    return "\\("\n')
    assert [o.id for o in parse.objects] == ["pkg/esc.py/f"]
    assert caught and {w.filename for w in caught} == {"pkg/esc.py"}


def test_duplicate_definition_last_wins():
    text = "def f():\n    return 1\n\n\ndef f():\n    return 2\n"
    parse = parse_file("a.py", text)
    assert [o.id for o in parse.objects] == ["a.py/f"]
    assert line_span(parse.objects[0]) == (5, 6)


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
    assert {o.id: line_span(o)[0] for o in parse.objects}[redefined_id] == start
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
    assert line_span(by_id["a.py/cached"])[0] == 4  # decorator included
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
    parses = parse_repository(scan_repository(demo_repo), ["util/b.py", "a.py"])
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


def test_crlf_and_lone_cr_files_parse_as_their_lf_text(tmp_path):
    lf = "class K:\n    def m(self):\n        return f(1)\n\n\ndef f(x):\n    return x\n"
    raws = {
        "lf.py": lf.encode("utf-8"),
        "crlf.py": lf.replace("\n", "\r\n").encode("utf-8"),
        "cr.py": lf.replace("\n", "\r").encode("utf-8"),
    }
    for name, raw in raws.items():
        (tmp_path / name).write_bytes(raw)
    sources = scan_repository(tmp_path)
    # the blob id is that of the bytes, as Git's; the text is the LF text
    assert sources.blobs == {name: blob_id(raws[name]) for name in sorted(raws)}
    assert len(set(sources.blobs.values())) == 3

    def objects(name: str) -> list[tuple[str, str, str]]:
        parse = parse_file(name, sources[name][1])
        return [(obj.name, obj.snippet, obj.source_hash) for obj in parse.objects]

    assert objects("lf.py") and objects("crlf.py") == objects("lf.py") == objects("cr.py")


def test_a_relative_import_above_the_repository_binds_nothing():
    parses = [
        parse_file("far.py", "def far():\n    return 1\n"),
        parse_file("pkg/a.py", "from .... import far\n\n\ndef g():\n    return far()\n"),
    ]
    assert parses[1].scopes["pkg/a.py"].imports == {}
    edges, diagnostics = resolve_references(build_tree(["far.py", "pkg/a.py"], parses), parses)
    assert edges == []
    assert list(map(str, diagnostics)) == ["pkg/a.py:5: unresolved call far (caller pkg/a.py/g)"]


def test_lines_end_at_newlines_alone_as_ast_numbers_them(tmp_path):
    # a form feed on a line of its own, and a line separator inside a string:
    # str.splitlines breaks at both, ast at neither
    text = (
        'x = 1\n\x0c\ndef f():\n    return 1\n\n\n'
        'def g():\n    return "a\u2028b"\n\n\n'
        "def h():\n    return 2\n"
    )
    cache = ParseCache(tmp_path)
    direct = cache.parse("ff.py", blob_id(text.encode("utf-8")), text)
    cache.save()
    cached = ParseCache(tmp_path)
    hit = cached.parse("ff.py", blob_id(text.encode("utf-8")), text)
    assert cached.parsed == 0
    assert hit == direct
    by_name = {obj.name: obj for obj in direct.objects}
    assert {name: line_span(obj) for name, obj in by_name.items()} == {
        "f": (3, 4),
        "g": (7, 8),
        "h": (11, 12),
    }
    assert by_name["f"].snippet == "def f():\n    return 1"
    assert by_name["g"].snippet == 'def g():\n    return "a\u2028b"'
    assert by_name["h"].snippet == "def h():\n    return 2"
    # an edit of a def's last line changes its source hash
    edited = parse_file("ff.py", text.replace("return 1", "return 3"))
    assert {o.name: o.source_hash for o in edited.objects}["f"] != by_name["f"].source_hash
    edited = parse_file("ff.py", text.replace("a\u2028b", "a\u2028c"))
    assert {o.name: o.source_hash for o in edited.objects}["g"] != by_name["g"].source_hash


def _snippets_by_splitlines(text: str) -> dict[tuple[str, int], str]:
    """Each definition's snippet as the lines ``str.splitlines`` gives from
    its first decorator to its end, by name and first line: right for text
    with no line break but "\\n"."""
    lines = text.splitlines()
    out = {}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            start = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            out[node.name, start] = "\n".join(lines[start - 1 : node.end_lineno])
    return out


def _nested_classes(depth: int, body_lines: int) -> str:
    """Classes nested ``depth`` deep, each with a method of ``body_lines``
    lines, so that a class's lines hold those of every class inside it."""
    lines = []
    for level in range(depth):
        pad = "    " * level
        lines += [f"{pad}class C{level}:", f"{pad}    def m(self):"]
        lines += [f"{pad}        x = {i}" for i in range(body_lines)]
        lines.append(f"{pad}        return x")
    return "\n".join(lines) + "\n"


def test_a_parse_keeps_memory_in_proportion_to_the_text_not_the_nesting(tmp_path):
    text = _nested_classes(depth=20, body_lines=40)
    blob = blob_id(text.encode("utf-8"))
    parse_file("warm.py", "class W:\n    def m(self):\n        return 1\n")
    cache = ParseCache(tmp_path)
    cache.parse("n.py", blob, text)
    cache.save()
    cache = ParseCache(tmp_path)

    def kept(parse_text):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            parse = parse_text()
            return parse, tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    for parse, size in (
        kept(lambda: parse_file("n.py", text)),
        kept(lambda: cache.parse("n.py", blob, text)),
    ):
        assert len(parse.objects) == 40
        # a copy of each class's lines would keep about 15 times the text
        assert size < 2 * len(text), size
        assert all(obj.text is text for obj in parse.objects)
    assert cache.parsed == 0


def test_snippets_are_the_lines_of_each_definition():
    fixtures = [DEMO_FILES, LABELED_FILES, ORDER_FILES, {"n.py": _nested_classes(4, 2)}]
    checked = 0
    for rel, text in (item for files in fixtures for item in files.items()):
        expected = _snippets_by_splitlines(text)
        for obj in parse_file(rel, text).objects:
            assert obj.snippet == expected[obj.name, line_span(obj)[0]], obj.id
            checked += 1
    assert checked > 30


# -- header ends -------------------------------------------------------------------

# (source of a class K with one child, the child's header through its ":", or
# None when its body starts on the colon's line and it is kept whole)
_HEADER_CASES = {
    "hash-colon-default": (
        "class K:\n    def f(self, a='#:'):  # c: d\n        return a\n",
        "    def f(self, a='#:'):",
    ),
    "lambda-default": (
        "class K:\n    def f(self, key=lambda x: x[1:]):\n        return key\n",
        "    def f(self, key=lambda x: x[1:]):",
    ),
    "comment-in-parentheses": (
        "class K:\n    def f(\n        self,  # the receiver: here\n"
        "        a,  # (a: b\n    ):\n        pass\n",
        "    def f(\n        self,  # the receiver: here\n        a,  # (a: b\n    ):",
    ),
    "string-annotation": (
        "class K:\n    def f(self, a: 'x: #y') -> \"T # :\":\n        pass\n",
        "    def f(self, a: 'x: #y') -> \"T # :\":",
    ),
    "class-keywords": (
        "class K:\n    class E(Base, metaclass=M, **{'a:': 1}):  # E: e\n        pass\n",
        "    class E(Base, metaclass=M, **{'a:': 1}):",
    ),
    "no-parameters": (
        "class K:\n    @staticmethod\n    def f() :\n        pass\n    # after\n",
        "    @staticmethod\n    def f() :",
    ),
    "no-bases": (
        "class K:\n    class E :  # E: e\n        pass\n",
        "    class E :",
    ),
    "continuation-after-colon": ("class K:\n    def f(self): \\\n        return 1\n", None),
    "last-line-no-newline": ("class K:\n    def f(self):\n        return 1", "    def f(self):"),
    "last-line-no-newline-whole": ("class K:\n    def f(self): return 1", None),
    "non-ascii-names": (
        "class K:\n    def f(self, ü: 'é→' = 'ñ', *ß):  # ü\n        return ü\n",
        "    def f(self, ü: 'é→' = 'ñ', *ß):",
    ),
}


def _class_children(parse):
    classes = {obj.id for obj in parse.objects if obj.kind == CLASS}
    return [obj for obj in parse.objects if obj.parent_id in classes]


def _check_header(text: str, expected: str | None) -> None:
    (child,) = _class_children(parse_file("m.py", text))
    start, cut, stop = child.span
    assert cut == header_end(text, start, stop)
    assert text[start:cut] == (child.snippet if expected is None else expected)


@pytest.mark.parametrize("case", _HEADER_CASES)
def test_a_header_ends_just_past_its_colon(case):
    _check_header(*_HEADER_CASES[case])


@pytest.mark.skipif(sys.version_info < (3, 12), reason="PEP 695 type parameters")
def test_a_header_with_type_parameters_ends_just_past_its_colon():
    _check_header(
        "class K:\n    def f[T: (int, str), *Ts, **P](self, x: T):  # T: t\n        pass\n",
        "    def f[T: (int, str), *Ts, **P](self, x: T):",
    )
    _check_header(
        "class K:\n    class E[T: int, *Ts] :\n        pass\n", "    class E[T: int, *Ts] :"
    )


def _cuts_checked(root: Path) -> int:
    """Compare every class child's header end under ``root`` with the
    oracle's; returns the number compared."""
    checked = 0
    for path in sorted(root.rglob("*.py")):
        if "site-packages" in path.parts or not path.is_file():
            continue
        text = source_text(path.read_bytes())
        for child in _class_children(parse_file("m.py", text)):  # none when it does not parse
            start, cut, stop = child.span
            assert cut == header_end(text, start, stop), (str(path), child.id)
            checked += 1
    return checked


@pytest.mark.parametrize("package", ["email", "asyncio", "idlelib"])
def test_header_ends_match_the_tokenize_oracle_on_a_stdlib_package(package):
    spec = importlib.util.find_spec(package)
    if spec is None or not spec.submodule_search_locations:
        pytest.skip(f"no {package} package")
    assert _cuts_checked(Path(spec.submodule_search_locations[0])) > 100


@pytest.mark.skipif(
    not os.environ.get("REPODOC_TEST_STDLIB_CUTS"),
    reason="the whole stdlib takes about half a minute; set REPODOC_TEST_STDLIB_CUTS=1",
)
def test_header_ends_match_the_tokenize_oracle_on_the_whole_stdlib():
    assert _cuts_checked(Path(sysconfig.get_paths()["stdlib"])) > 10_000
