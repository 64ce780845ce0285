from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repodoc.doc_pipeline import DocStore
from repodoc.errors import OverBudgetError, SchedulingError
from repodoc.prompt_engine import (
    CALLEE_INTRO,
    CALLER_INTRO,
    CHILD_DOCS_INTRO,
    FORMAT_INTRO,
    OUTPUT_EXAMPLE_INSTRUCTION,
    ModelTier,
    PromptContext,
    RefBlock,
    choose_tier,
    estimate_tokens,
    fit_to_budget,
    render_hierarchy,
    render_prompt,
)

from .helpers import build_repo_graph, context_for, generate_repo

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
        hierarchy_compact=ctx.hierarchy_compact,
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
