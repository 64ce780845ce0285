from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repodoc.config import ProviderConfig
from repodoc.doc_pipeline import DocStore
from repodoc.errors import OverBudgetError, SchedulingError
from repodoc.prompt_engine import (
    CALLEE_INTRO,
    CALLER_INTRO,
    CHILD_DOCS_INTRO,
    FORMAT_INTRO,
    OUTPUT_EXAMPLE_INSTRUCTION,
    REDUCTION_STEPS,
    ModelTier,
    PromptContext,
    RefBlock,
    choose_tier,
    estimate_tokens,
    fit_to_budget,
    quoted_code,
    render_hierarchy,
    render_prompt,
)

from .helpers import build_repo_graph, context_for, generate_repo, write_tree

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
    assert prompt == expected
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
    return PromptContext(
        target=ctx.target,
        hierarchy_render=ctx.hierarchy_render,
        callee_blocks=tuple(
            RefBlock(id=b.id, doc=b.doc, snippet=fat) for b in ctx.callee_blocks
        ),
        caller_blocks=tuple(
            RefBlock(id=b.id, doc=b.doc, snippet=fat) for b in ctx.caller_blocks
        ),
        child_docs=None,
        doc_language=ctx.doc_language,
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


def test_every_class_skeleton_of_the_email_package_is_python(tmp_path):
    import ast
    import email
    import textwrap

    package = Path(email.__file__).parent
    for path in package.rglob("*.py"):
        rel = path.relative_to(package.parent)
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes(path.read_bytes())
    graph = build_repo_graph(tmp_path)
    classes = [oid for oid, obj in graph.objects.items() if obj.kind == "Class"]
    assert len(classes) > 100
    for oid in classes:
        skeleton = quoted_code(graph, oid)
        ast.parse(textwrap.dedent(skeleton))  # raises on a skeleton that is not Python
        assert len(skeleton) <= len(graph.objects[oid].snippet) + 4 * len(graph.nodes[oid].children)


def test_a_class_callee_is_quoted_as_its_skeleton(labeled_repo):
    graph, store, _, _ = generate_repo(labeled_repo)
    prompt = render_prompt(context_for(graph, store, "util/tools.py/Wrapper/__init__"))
    assert "[Code begin of Engine]\n```\nclass Engine:\n    def __init__(self, size): ...\n" in prompt
    assert "self.size = size" not in prompt
    assert "def run(self): ...\n\n    def helper(self): ...\n```" in prompt


def test_a_class_that_no_tier_holds_is_quoted_as_its_skeleton(tmp_path, caplog):
    import logging

    body = "".join(f"        total += {i}\n" for i in range(2998))
    source = (
        "class Big:\n"
        '    """A class with one long method."""\n'
        "\n"
        "    def long(self):\n"
        "        total = 0\n" + body + "        return total\n"
        "\n"
        "    def short(self):\n"
        "        return 1\n"
    )
    write_tree(tmp_path, {"big.py": source, "small.py": "class Small:\n    def f(self):\n        return 1\n"})
    tiers = (ModelTier("only-4k", 4000),)
    with caplog.at_level(logging.INFO, logger="repodoc.prompt_engine"):
        _, store, report, gateway = generate_repo(tmp_path, provider=ProviderConfig(tiers=tiers))
    # the method is its own target and still fails; the class is rescued
    assert list(report.failures) == ["big.py/Big/long"]
    assert "big.py/Big" in report.generated
    assert "budget reduction applied to big.py/Big: quote target class as skeleton" in caplog.text
    prompt = gateway.provider.prompts[report.generated.index("big.py/Big")]
    assert "    def long(self): ...\n\n    def short(self): ..." in prompt
    assert "total += 1\n" not in prompt
    # a class that fits is quoted whole as a target
    small = gateway.provider.prompts[report.generated.index("small.py/Small")]
    assert "class Small:\n    def f(self):\n        return 1\n" in small
