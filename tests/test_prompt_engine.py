from __future__ import annotations

import importlib.util
import os
import re
import shutil
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repodoc.config import ProviderConfig
from repodoc.doc_pipeline import DocRecord, DocStore
from repodoc.errors import OverBudgetError, SchedulingError
from repodoc.project_graph import build_graph
from repodoc.prompt_engine import (
    CALLEE_INTRO,
    CALLER_INTRO,
    CHILD_DOCS_INTRO,
    CODE_INTRO,
    FORMAT_INTRO,
    OUTPUT_EXAMPLE_INSTRUCTION,
    REDUCTION_STEPS,
    ModelTier,
    PromptContext,
    RefBlock,
    choose_tier,
    estimate_tokens,
    fit_to_budget,
    quoted_caller,
    quoted_code,
    render_hierarchy,
    render_prompt,
)
from repodoc.source_model import CLASS, parse_repository, scan_repository

from .helpers import (
    build_repo_graph,
    context_for,
    generate_repo,
    generate_stale,
    make_config,
    make_gateway,
    write_tree,
)

TARGET_LINE = re.compile(r"^\s*\*[^*]", re.MULTILINE)


def test_estimate_tokens_frozen_values():
    assert estimate_tokens("") == 0
    assert estimate_tokens("aaaa") == 1
    assert estimate_tokens("aaaaaaaaa") == 3  # 9 bytes
    assert estimate_tokens("X" * 4000) == 1000
    assert estimate_tokens("ééé") == 2  # 6 UTF-8 bytes


@given(st.text())
def test_estimate_tokens_is_byte_ceiling(text):
    byte_len = len(text.encode("utf-8"))
    estimate = estimate_tokens(text)
    assert estimate == (byte_len + 3) // 4
    assert estimate * 4 >= byte_len


def test_tier_selection_boundaries():
    tiers = [ModelTier("base-4k", 4000), ModelTier("extended-16k", 16000)]
    assert choose_tier(2976, tiers, reserve=1024) == tiers[0]  # 2976+1024 = 4000
    assert choose_tier(2977, tiers, reserve=1024) == tiers[1]
    assert choose_tier(14976, tiers, reserve=1024) == tiers[1]
    assert choose_tier(14977, tiers, reserve=1024) is None


def test_hierarchy_render_frozen(demo_repo):
    graph = build_repo_graph(demo_repo)
    assert render_hierarchy(graph, "a.py/C/m") == "a.py\n    C\n        *m"
    assert render_hierarchy(graph, "a.py/C") == "a.py\n    *C\n        m"
    assert render_hierarchy(graph, "util/b.py/h") == "util\n    b.py\n        *h"
    assert (
        render_hierarchy(graph, "a.py/C", include_children=False) == "a.py\n    *C"
    )


def test_the_compact_hierarchy_is_the_render_without_the_target_children(demo_repo):
    write_tree(demo_repo, {"a*b/m.py": "class K:\n    def f(self):\n        return 1\n"})
    graph = build_repo_graph(demo_repo)
    compact = dict(REDUCTION_STEPS)["compact hierarchy"]
    for oid in graph.objects:
        ctx = context_for(graph, DocStore(), oid, allow_missing=set(graph.objects))
        reduced = compact(ctx)
        assert reduced.hierarchy_render == render_hierarchy(graph, oid, include_children=False)
        assert reduced._replace(hierarchy_render=ctx.hierarchy_render) == ctx
    assert render_hierarchy(graph, "a*b/m.py/K", include_children=False) == "a*b\n    m.py\n        *K"


def test_every_prompt_marks_exactly_one_target(demo_repo):
    graph, store, report, _ = generate_repo(demo_repo)
    for oid in graph.objects:
        ctx = context_for(graph, store, oid, allow_missing=set(graph.objects))
        marks = TARGET_LINE.findall(render_prompt(ctx))
        assert len(marks) == 1, oid


def test_prompt_layout_for_demo_g(demo_repo):
    graph, store, _, _ = generate_repo(demo_repo)
    ctx = context_for(graph, store, "a.py/g")
    prompt = render_prompt(ctx)

    assert 'for a Function, whose name is "g".' in prompt
    assert "def g(x):" in prompt
    assert CALLEE_INTRO in prompt
    assert "OBJ_NAME: f\nOBJ_PATH: a.py/f" in prompt
    assert CALLER_INTRO in prompt
    assert [b.id for b in ctx.caller_blocks] == ["a.py/C/m", "util/b.py/h"]
    assert FORMAT_INTRO in prompt
    assert "**g**: The function of g is XXX" in prompt
    assert "**parameters**: The parameters of this Function." in prompt
    assert "- x: XXX" in prompt
    assert OUTPUT_EXAMPLE_INSTRUCTION in prompt
    assert CHILD_DOCS_INTRO not in prompt
    # the callee block embeds f's generated doc and its code
    assert "**f**: The function of f is f stub." in prompt
    assert "[Code begin of f]" in prompt


def test_prompt_for_class_uses_attributes_and_child_docs(demo_repo):
    graph, store, _, _ = generate_repo(demo_repo)
    ctx = context_for(graph, store, "a.py/C", child_docs_enabled=True)
    prompt = render_prompt(ctx)
    assert 'for a Class, whose name is "C".' in prompt
    assert "**Attributes**: The attributes of this Class." in prompt
    assert CHILD_DOCS_INTRO in prompt
    assert "OBJ_PATH: a.py/C/m" in prompt


def test_class_prompt_lists_children_sorted_not_in_source_order(order_repo):
    # the version-2 release wrote this prompt, when children were kept sorted
    expected = (Path(__file__).parent / "data" / "order_store_v2" / "class_prompt.txt").read_text(
        encoding="utf-8"
    )
    _, _, report, gateway = generate_repo(order_repo, child_docs_enabled=True)
    prompt = gateway.provider.prompts[report.generated.index("order.py/K")]
    # that release quoted the target whole; its methods are now cut to their headers
    whole = "class K:\n    def z(self):\n        return 1\n\n    def y(self):\n        return self.z()\n"
    skeleton = "class K:\n    def z(self): ...\n\n    def y(self): ...\n"
    assert expected.count(CODE_INTRO + "\n\n" + whole) == 1
    assert CODE_INTRO + "\n\n" + skeleton + "\n" + CHILD_DOCS_INTRO in prompt
    assert prompt == expected.replace(whole, skeleton)
    assert "order.py\n    *K\n        y\n        z\n" in prompt
    assert prompt.index("OBJ_PATH: order.py/K/y") < prompt.index("OBJ_PATH: order.py/K/z")


def test_no_output_example_instruction_without_return(tmp_path):
    (tmp_path / "a.py").write_text(
        "def log(msg):\n    print(msg)\n", encoding="utf-8"
    )
    graph = build_repo_graph(tmp_path)
    ctx = context_for(graph, DocStore(), "a.py/log")
    assert OUTPUT_EXAMPLE_INSTRUCTION not in render_prompt(ctx)


def test_assemble_requires_callee_docs(demo_repo):
    graph = build_repo_graph(demo_repo)
    empty = DocStore()
    with pytest.raises(SchedulingError):
        context_for(graph, empty, "a.py/g")  # callee f has no doc yet
    ctx = context_for(graph, empty, "a.py/g", allow_missing={"a.py/f"})
    assert ctx.callee_blocks[0].doc == "None"
    # caller docs are always optional
    ctx = context_for(graph, empty, "a.py/f")
    assert all(b.doc == "None" for b in ctx.caller_blocks)


def _fat_context(demo_repo) -> PromptContext:
    graph, store, _, _ = generate_repo(demo_repo)
    ctx = context_for(graph, store, "a.py/g")
    fat = "#" * 4000
    return ctx._replace(
        callee_blocks=tuple(b._replace(snippet=fat) for b in ctx.callee_blocks),
        caller_blocks=tuple(b._replace(snippet=fat) for b in ctx.caller_blocks),
        child_docs=None,
    )


def test_fit_to_budget_prefers_smallest_tier(demo_repo):
    graph, store, _, _ = generate_repo(demo_repo)
    ctx = context_for(graph, store, "a.py/g")
    tiers = [ModelTier("small", 4000), ModelTier("large", 16000)]
    fitted, tier, rendered = fit_to_budget(ctx, tiers, reserve=1024)
    assert tier.name == "small"
    assert fitted == ctx  # no reduction applied
    assert rendered == render_prompt(ctx)


def test_fit_to_budget_reduces_then_uses_largest_tier(demo_repo):
    ctx = _fat_context(demo_repo)
    # base prompt carries ~12k characters of snippets; neither tier fits it raw
    tiers = [ModelTier("small", 1200), ModelTier("large", 2400)]
    fitted, tier, rendered = fit_to_budget(ctx, tiers, reserve=64)
    assert tier.name == "large"
    assert all(b.snippet is None for b in fitted.caller_blocks) or not fitted.caller_blocks
    # the target's own code is never reduced away
    assert fitted.target.snippet == ctx.target.snippet
    prompt = render_prompt(fitted)
    assert rendered == prompt  # the prompt returned is the reduced context's
    assert estimate_tokens(prompt) + 64 <= 2400


def test_fit_to_budget_raises_when_nothing_fits(demo_repo):
    ctx = _fat_context(demo_repo)
    with pytest.raises(OverBudgetError) as err:
        fit_to_budget(ctx, [ModelTier("tiny", 64)], reserve=16)
    assert "a.py/g" in str(err.value)


def test_reduction_order_drops_caller_snippets_first(demo_repo, caplog):
    ctx = _fat_context(demo_repo)
    # caller snippets alone push past "mid"; dropping them is enough
    import logging

    with caplog.at_level(logging.INFO, logger="repodoc.prompt_engine"):
        fitted, tier, _ = fit_to_budget(ctx, [ModelTier("mid", 2300)], reserve=64)
    assert "drop caller snippets" in caplog.text
    assert all(b.snippet is None for b in fitted.caller_blocks)
    assert fitted.caller_blocks  # blocks themselves survived
    assert all(b.snippet is not None for b in fitted.callee_blocks)


def _quoted(tmp_path: Path, source: str, object_id: str = "m.py/K") -> str:
    write_tree(tmp_path, {"m.py": source})
    return quoted_code(build_repo_graph(tmp_path), object_id)


def test_a_class_is_quoted_with_its_decorated_methods_cut_to_their_headers(tmp_path):
    source = (
        "class K:\n"
        "    @property\n"
        "    @cache(size=2)\n"
        "    def size(self):\n"
        "        return 2\n"
    )
    assert _quoted(tmp_path, source) == (
        "class K:\n"
        "    @property\n"
        "    @cache(size=2)\n"
        "    def size(self): ..."
    )


def test_a_multi_line_signature_is_kept_through_its_colon(tmp_path):
    source = (
        "class K:\n"
        "    def run(self, key=lambda x:\n"
        "            x[1:],\n"
        "    ) -> dict[str, int]:\n"
        "        return {}\n"
    )
    # the first line ends in ":" too, inside the parentheses
    assert _quoted(tmp_path, source) == (
        "class K:\n"
        "    def run(self, key=lambda x:\n"
        "            x[1:],\n"
        "    ) -> dict[str, int]: ..."
    )


def test_a_comment_after_the_colon_goes_with_the_body(tmp_path):
    source = (
        "class K:\n"
        "    def run(self, sep=':'):  # note: not a body\n"
        "        return sep\n"
    )
    assert _quoted(tmp_path, source) == "class K:\n    def run(self, sep=':'): ..."


def test_an_async_method_is_cut_to_its_header(tmp_path):
    source = "class K:\n    async def fetch(self, url):\n        return await get(url)\n"
    assert _quoted(tmp_path, source) == "class K:\n    async def fetch(self, url): ..."


def test_a_nested_class_is_cut_with_its_own_methods(tmp_path):
    source = (
        "class K:\n"
        "    class Inner(Base):\n"
        '        """Inner doc."""\n'
        "\n"
        "        def deep(self):\n"
        "            return 1\n"
        "\n"
        "    def run(self):\n"
        "        return self.Inner()\n"
    )
    assert _quoted(tmp_path, source) == (
        "class K:\n"
        "    class Inner(Base): ...\n"
        "\n"
        "    def run(self): ..."
    )


def test_a_one_line_child_is_kept_whole(tmp_path):
    source = (
        "class K:\n"
        "    def one(self): return 1\n"
        "    @staticmethod\n"
        "    def two(): return 2  # two\n"
        "    class E(Exception): pass\n"
        "    def three(self):\n"
        "        return 3\n"
    )
    assert _quoted(tmp_path, source) == (
        "class K:\n"
        "    def one(self): return 1\n"
        "    @staticmethod\n"
        "    def two(): return 2  # two\n"
        "    class E(Exception): pass\n"
        "    def three(self): ..."
    )


def test_class_attributes_docstring_and_comments_are_kept(tmp_path):
    source = (
        "@dataclass\n"
        "class K(Base, metaclass=Meta):\n"
        '    """K holds a size.\n'
        "\n"
        '    def looks_like_code(self): not a child\n'
        '    """\n'
        "\n"
        "    size: int = 3  # the default\n"
        "    # a comment between methods\n"
        "    def grow(self, by: int = 1) -> None:\n"
        "        self.size += by\n"
        "\n"
        "    limit = 10\n"
    )
    assert _quoted(tmp_path, source) == (
        "@dataclass\n"
        "class K(Base, metaclass=Meta):\n"
        '    """K holds a size.\n'
        "\n"
        '    def looks_like_code(self): not a child\n'
        '    """\n'
        "\n"
        "    size: int = 3  # the default\n"
        "    # a comment between methods\n"
        "    def grow(self, by: int = 1) -> None: ...\n"
        "\n"
        "    limit = 10"
    )


def test_a_class_with_no_child_is_quoted_whole(tmp_path):
    source = 'class K:\n    """Doc."""\n\n    size = 3\n'
    assert _quoted(tmp_path, source) == source[:-1]


def test_a_function_is_quoted_whole(tmp_path):
    source = "def f(x):\n    def inner():\n        return x\n    return inner\n"
    assert _quoted(tmp_path, source, "m.py/f") == source[:-1]


def test_form_feeds_and_line_separators_in_a_method_do_not_move_the_cuts(tmp_path):
    # str.splitlines breaks at both; ast, and so every span, at "\n" alone
    source = (
        "class K:\n"
        "    def a(self, s='\u2028'):\n"
        "        \f\n"
        "        return '\u2028x'\n"
        "\f\n"
        "    def b(self):\n"
        "        return 2  # \u2028 here\n"
    )
    assert _quoted(tmp_path, source) == (
        "class K:\n"
        "    def a(self, s='\u2028'): ...\n"
        "\f\n"
        "    def b(self): ..."
    )


def test_a_header_with_non_ascii_text_is_cut_at_its_colon(tmp_path):
    # tokenized for its comment; the colon's column counts characters
    source = "class K:\n    def ü(self, s='é→'):  # ü\n        return s\n"
    assert _quoted(tmp_path, source) == "class K:\n    def ü(self, s='é→'): ..."


def _copy_package(tmp_path: Path, name: str) -> None:
    """A copy of the running interpreter's package ``name`` under
    ``tmp_path``, its sources alone; skips the test without one."""
    spec = importlib.util.find_spec(name)
    if spec is None or not spec.submodule_search_locations:
        pytest.skip(f"no {name} package")
    package = Path(spec.submodule_search_locations[0])
    for path in package.rglob("*.py"):
        rel = path.relative_to(package.parent)
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, tmp_path / rel)


def test_every_class_skeleton_of_the_email_package_is_python(tmp_path):
    import ast
    import textwrap

    _copy_package(tmp_path, "email")
    graph = build_repo_graph(tmp_path)
    classes = [oid for oid, obj in graph.objects.items() if obj.kind == "Class"]
    assert len(classes) > 100
    inits = 0
    for oid in classes:
        # as a callee or caller, and as the target
        target = context_for(graph, DocStore(), oid, allow_missing=set(graph.objects)).target_code
        for skeleton in (quoted_code(graph, oid), target):
            ast.parse(textwrap.dedent(skeleton))  # raises on a skeleton that is not Python
            assert len(skeleton) <= len(graph.objects[oid].snippet) + 4 * len(graph.nodes[oid].children)
        init = graph.objects.get(f"{oid}/__init__")
        if init is not None:
            inits += 1
            assert init.snippet in target
    assert inits > 20


def test_a_class_callee_is_quoted_as_its_skeleton(labeled_repo):
    graph, store, _, _ = generate_repo(labeled_repo)
    prompt = render_prompt(context_for(graph, store, "util/tools.py/Wrapper/__init__"))
    assert "[Code begin of Engine]\n```\nclass Engine:\n    def __init__(self, size): ...\n" in prompt
    assert "self.size = size" not in prompt
    assert "def run(self): ...\n\n    def helper(self): ...\n```" in prompt


def test_a_class_target_keeps_its_init_whole_and_cuts_every_other_method(labeled_repo):
    graph, store, _, _ = generate_repo(labeled_repo)
    ctx = context_for(graph, store, "core.py/Engine")
    assert ctx.target_code == (
        "class Engine:\n"
        "    def __init__(self, size):\n"
        "        self.size = size\n"
        "\n"
        "    def run(self): ...\n"
        "\n"
        "    def helper(self): ..."
    )
    prompt = render_prompt(ctx)
    assert CODE_INTRO + "\n\n" + ctx.target_code + "\n\n" in prompt
    assert "self.size = size" in prompt
    assert "return beta(self.size)" not in prompt
    assert "return self.run()" not in prompt


def test_a_class_target_with_no_init_is_quoted_as_its_skeleton(tmp_path):
    source = (
        "class K:\n"
        "    size = 3\n"
        "\n"
        "    def grow(self):\n"
        "        self.size += 1\n"
        "\n"
        "    class Inner:\n"
        "        def __init__(self):\n"
        "            self.deep = 1\n"
    )
    write_tree(tmp_path, {"m.py": source})
    graph = build_repo_graph(tmp_path)
    ctx = context_for(graph, DocStore(), "m.py/K", allow_missing=set(graph.objects))
    assert ctx.target_code == quoted_code(graph, "m.py/K") == (
        "class K:\n    size = 3\n\n    def grow(self): ...\n\n    class Inner: ..."
    )
    # a function target is quoted whole
    method = context_for(graph, DocStore(), "m.py/K/grow", allow_missing=set(graph.objects))
    assert method.target_code == graph.objects["m.py/K/grow"].snippet


def test_a_class_that_no_tier_holds_is_quoted_as_its_skeleton(tmp_path, caplog):
    import logging

    body = "".join(f"        self.a{i} = {i}\n" for i in range(2998))
    source = (
        "class Big:\n"
        '    """A class with one long __init__."""\n'
        "\n"
        "    def __init__(self):\n" + body + "\n"
        "    def short(self):\n"
        "        return 1\n"
    )
    small = "class Small:\n    def __init__(self):\n        self.n = 1\n\n    def f(self):\n        return 1\n"
    write_tree(tmp_path, {"big.py": source, "small.py": small})
    tiers = (ModelTier("only-4k", 4000),)
    with caplog.at_level(logging.INFO, logger="repodoc.prompt_engine"):
        _, store, report, gateway = generate_repo(tmp_path, provider=ProviderConfig(tiers=tiers))
    # the __init__ is its own target and still fails; the class is rescued
    assert list(report.failures) == ["big.py/Big/__init__"]
    assert "big.py/Big" in report.generated
    assert "budget reduction applied to big.py/Big: quote target class as skeleton" in caplog.text
    prompt = gateway.provider.prompts[report.generated.index("big.py/Big")]
    assert "    def __init__(self): ...\n\n    def short(self): ..." in prompt
    assert "self.a1 = 1\n" not in prompt
    # a class that fits keeps its __init__ whole, with no reduction
    small_prompt = gateway.provider.prompts[report.generated.index("small.py/Small")]
    assert "class Small:\n    def __init__(self):\n        self.n = 1\n\n    def f(self): ...\n" in small_prompt
    assert "budget reduction applied to small.py/Small" not in caplog.text


def _caller_quote(tmp_path: Path, files: dict[str, str], caller: str, target: str) -> str:
    write_tree(tmp_path, files)
    graph = build_repo_graph(tmp_path)
    assert caller in graph.callers(target)
    return quoted_caller(graph, caller, graph.objects[target].name)


def test_a_caller_is_quoted_as_its_call_sites(tmp_path):
    source = (
        "def target(*args):\n"
        "    return args\n"
        "\n"
        "\n"
        "def caller(x):\n"
        '    """Call target twice.\n'
        "\n"
        "    The docstring goes.\n"
        '    """\n'
        "    y = x * 2\n"
        "    f = target\n"
        "    retarget(y)\n"
        "    total = target(\n"
        "        y,\n"
        "        [x,\n"
        '         ")"],\n'
        "    )\n"
        "\n"
        "    again = target(total)\n"
        "    return again\n"
    )
    # the call runs until its brackets close, a bracket in a string not
    # counted; a run of blank lines stays one blank line
    expected = (
        "def caller(x):\n"
        "    ...\n"
        "    total = target(\n"
        "        y,\n"
        "        [x,\n"
        '         ")"],\n'
        "    )\n"
        "\n"
        "    again = target(total)\n"
        "    ..."
    )
    assert _caller_quote(tmp_path, {"m.py": source}, "m.py/caller", "m.py/target") == expected
    graph = build_repo_graph(tmp_path)
    ctx = context_for(graph, DocStore(), "m.py/target")
    assert [b.snippet for b in ctx.caller_blocks] == [expected]
    prompt = render_prompt(ctx)
    assert "The docstring goes." not in prompt
    assert "retarget" not in prompt


def test_a_decorated_caller_keeps_its_header_through_the_colon(tmp_path):
    source = (
        "def target(x):\n"
        "    return x\n"
        "\n"
        "\n"
        "@wrap(1)\n"
        "@other\n"
        "def caller(\n"
        "    x,\n"
        "):  # the header's comment\n"
        '    """Doc."""\n'
        "    if x:\n"
        "        return target(x)  # a call (\n"
        "    return 0\n"
    )
    # a bracket in a comment opens nothing
    assert _caller_quote(tmp_path, {"m.py": source}, "m.py/caller", "m.py/target") == (
        "@wrap(1)\n"
        "@other\n"
        "def caller(\n"
        "    x,\n"
        "):\n"
        "    ...\n"
        "        return target(x)  # a call (\n"
        "    ..."
    )


def test_a_one_line_caller_is_quoted_whole(tmp_path):
    source = "def target(x):\n    return x\n\n\ndef caller(x): return target(x)  # all\n"
    assert _caller_quote(tmp_path, {"m.py": source}, "m.py/caller", "m.py/target") == (
        "def caller(x): return target(x)  # all"
    )
    # a body that starts on the header's line and runs on
    source = "def target(x):\n    return x\n\n\ndef caller(x): return (\n    target(x))\n"
    assert _caller_quote(tmp_path, {"m.py": source}, "m.py/caller", "m.py/target") == (
        "def caller(x): return (\n    target(x))"
    )


def test_a_nested_def_with_the_target_name_keeps_its_header_line(tmp_path):
    # its header line names the target followed by "(", as a call does
    source = (
        "def caller(x):\n"
        "    def target(y):\n"
        "        return y\n"
        "    z = 1\n"
        "    return target(x) + z\n"
    )
    assert _caller_quote(tmp_path, {"m.py": source}, "m.py/caller", "m.py/caller/target") == (
        "def caller(x):\n"
        "    def target(y):\n"
        "        ...\n"
        "    return target(x) + z"
    )


def test_a_caller_with_no_line_naming_the_target_is_quoted_whole(tmp_path):
    # the comment after the header's colon is not a body line
    files = {
        "m.py": "def target(x):\n    return x\n",
        "n.py": (
            "from m import target as alias\n"
            "\n"
            "\n"
            "def caller(x):  # calls target(x) by its alias\n"
            '    """Doc."""\n'
            "    y = x + 1\n"
            "    return alias(y)\n"
        ),
    }
    quote = _caller_quote(tmp_path, files, "n.py/caller", "m.py/target")
    assert quote == files["n.py"][files["n.py"].index("def") : -1]


def test_a_class_caller_is_quoted_as_its_skeleton(tmp_path):
    source = (
        "def target(x):\n"
        "    return x\n"
        "\n"
        "\n"
        "class K:\n"
        "    size = target(3)\n"
        "\n"
        "    def grow(self):\n"
        "        return self.size\n"
    )
    quote = _caller_quote(tmp_path, {"m.py": source}, "m.py/K", "m.py/target")
    assert quote == "class K:\n    size = target(3)\n\n    def grow(self): ..."


def _call_sites_checked(root: Path, ignore: tuple[str, ...] = ()) -> int:
    """Check, for each kept edge under ``root`` whose caller is a function,
    that the caller's quote holds every line where a call of its own ends
    in the callee's name, or is the caller whole; returns the number of
    call sites checked."""
    sources = scan_repository(root, ignore)
    parses = list(parse_repository(sources, sources))
    graph = build_graph(list(sources), parses)
    sites: dict[tuple[str, str], list[int]] = {}
    for parse in parses:
        for call in parse.calls:
            sites.setdefault((call.caller, call.chain[-1]), []).append(call.line)
    file_lines: dict[str, list[str]] = {}
    checked = 0
    for callee, target in graph.objects.items():
        for caller in graph.callers(callee):
            obj = graph.objects[caller]
            quote = quoted_caller(graph, caller, target.name)
            if obj.kind == CLASS or quote == obj.snippet:
                continue
            file = graph.file_of(caller)
            if file not in file_lines:
                file_lines[file] = obj.text.split("\n")
            quoted = set(quote.split("\n"))
            for line in sites.get((caller, target.name), ()):
                assert file_lines[file][line - 1] in quoted, (caller, callee, line)
                checked += 1
    return checked


@pytest.mark.parametrize("package", ["email", "idlelib"])
def test_every_call_site_of_a_stdlib_package_is_quoted(tmp_path, package):
    _copy_package(tmp_path, package)
    assert _call_sites_checked(tmp_path) > 500


@pytest.mark.skipif(
    not os.environ.get("REPODOC_TEST_STDLIB_CUTS"),
    reason="the whole stdlib takes about half a minute; set REPODOC_TEST_STDLIB_CUTS=1",
)
def test_every_call_site_is_quoted_on_the_whole_stdlib():
    root = Path(sysconfig.get_paths()["stdlib"])
    assert _call_sites_checked(root, ("site-packages",)) > 10_000


def _callee_quote(tmp_path: Path, callee_source: str, **overrides) -> str:
    """The quote of ``m.py/callee``, defined by ``callee_source``, in the
    callee block of ``m.py/caller`` after a mock generation."""
    write_tree(tmp_path, {"m.py": callee_source + "\n\ndef caller(x):\n    return callee(x)\n"})
    graph, store, _, _ = generate_repo(tmp_path)
    (block,) = context_for(graph, store, "m.py/caller", **overrides).callee_blocks
    assert block.id == "m.py/callee"
    return block.snippet


def test_a_documented_function_callee_is_quoted_as_its_header(tmp_path):
    source = (
        "def callee(x, *, y=2) -> int:\n"
        '    """Add y."""\n'
        "    def inner():\n"
        "        return y\n"
        "    return x + inner()\n"
    )
    assert _callee_quote(tmp_path, source) == "def callee(x, *, y=2) -> int: ..."
    graph, store, _, _ = generate_repo(tmp_path)
    prompt = render_prompt(context_for(graph, store, "m.py/caller"))
    # its doc stays, beside the header
    assert "Document: \n**callee**: The function of callee is callee stub." in prompt
    assert "[Code begin of callee]\n```\ndef callee(x, *, y=2) -> int: ...\n```" in prompt
    assert "Add y." not in prompt and "return x + inner()" not in prompt
    # a comment after the colon goes with the body
    source = "def callee(\n    x,\n):  # a note\n    return x\n"
    assert _callee_quote(tmp_path, source) == "def callee(\n    x,\n): ..."


def test_a_decorated_callee_keeps_its_decorators(tmp_path):
    source = (
        "@wrap(1)\n"
        "@other\n"
        "async def callee(\n"
        "    x: int = (1 if True else 2),\n"
        ") -> dict[str, int]:\n"
        "    return {}\n"
    )
    assert _callee_quote(tmp_path, source) == (
        "@wrap(1)\n@other\nasync def callee(\n    x: int = (1 if True else 2),\n) -> dict[str, int]: ..."
    )


def test_a_one_line_callee_is_quoted_whole(tmp_path):
    source = "def callee(x): return x  # all"
    assert _callee_quote(tmp_path, source) == source
    # a body that starts on the header's line and runs on
    source = "def callee(x): return (\n    x)"
    assert _callee_quote(tmp_path, source) == source


def test_a_callee_with_no_doc_is_quoted_whole(tmp_path):
    source = "def callee(x):\n    return x\n"
    # failed in this run: its doc renders as "None"
    write_tree(tmp_path, {"m.py": source + "\n\ndef caller(x):\n    return callee(x)\n"})
    graph = build_repo_graph(tmp_path)
    gateway = make_gateway(frozenset({"callee"}))
    report = generate_stale(graph, gateway, DocStore(), make_config(tmp_path), 1)
    assert list(report.failures) == ["m.py/callee"] and report.generated == ["m.py/caller"]
    (prompt,) = [p for p in gateway.provider.prompts if 'whose name is "caller"' in p]
    assert "Document: \nNone\n[Code begin of callee]\n```\n" + source + "```" in prompt
    # listed as allowed to be missing
    assert _callee_quote(tmp_path, source, allow_missing={"m.py/callee"}) == source[:-1]


def test_a_class_callee_keeps_its_skeleton(tmp_path):
    source = (
        "class callee:\n"
        '    """Doc."""\n'
        "\n"
        "    def __init__(self, x):\n"
        "        self.x = x\n"
        "\n"
        "    def one(self): return 1\n"
    )
    assert _callee_quote(tmp_path, source) == (
        'class callee:\n    """Doc."""\n\n    def __init__(self, x): ...\n\n    def one(self): return 1'
    )


def _callee_quotes_checked(root: Path, ignore: tuple[str, ...] = ()) -> tuple[int, int]:
    """Check every callee block of every object under ``root``, a third of
    the functions failed (their docs "None"): a function shows its exact
    signature slice, decorators included, and a doc other than "None", or
    its code whole; a class shows its skeleton. A signature slice, followed
    by " ...", must parse as a def of the callee's name with that body.
    Returns the numbers of function callee blocks quoted as a header and
    quoted whole."""
    import ast

    graph = build_repo_graph(root, ignore)
    objects = graph.objects
    failed = set(sorted(oid for oid, obj in objects.items() if obj.kind != CLASS)[::3])
    store = DocStore({oid: DocRecord(f"doc of {oid}", "") for oid in objects if oid not in failed})
    headers = whole = 0
    parsed: set[str] = set()
    for oid in objects:
        for block in context_for(graph, store, oid, allow_missing=failed).callee_blocks:
            obj = objects[block.id]
            if obj.kind == CLASS:
                assert block.snippet == quoted_code(graph, block.id), block.id
                continue
            start, head_end, end = obj.span
            if block.snippet == obj.snippet:
                assert block.doc == "None" or head_end == end, block.id
                whole += 1
                continue
            assert block.doc != "None", block.id
            assert head_end < end and obj.text[head_end - 1] == ":", block.id
            assert block.snippet == obj.text[start:head_end] + " ...", block.id
            headers += 1
            if block.id not in parsed:
                parsed.add(block.id)
                # the decorators and the def line share one indentation; the
                # other lines are inside brackets, where indentation is free
                lines = block.snippet.split("\n")
                indent = lines[0][: len(lines[0]) - len(lines[0].lstrip())]
                (node,) = ast.parse("\n".join(x.removeprefix(indent) for x in lines)).body
                assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)), block.id
                (body,) = node.body
                assert node.name == obj.name and ast.unparse(body) == "...", block.id
    return headers, whole


@pytest.mark.parametrize("package", ["email", "idlelib"])
def test_every_callee_of_a_stdlib_package_shows_its_signature(tmp_path, package):
    _copy_package(tmp_path, package)
    headers, whole = _callee_quotes_checked(tmp_path)
    assert headers > 150 and whole > 50


@pytest.mark.skipif(
    not os.environ.get("REPODOC_TEST_STDLIB_CUTS"),
    reason="the whole stdlib takes about half a minute; set REPODOC_TEST_STDLIB_CUTS=1",
)
def test_every_callee_shows_its_signature_on_the_whole_stdlib():
    root = Path(sysconfig.get_paths()["stdlib"])
    headers, whole = _callee_quotes_checked(root, ("site-packages",))
    assert headers > 10_000 and whole > 5_000
