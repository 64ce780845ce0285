from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repodoc.eval_harness import (
    check_format,
    evaluate_docs,
    extract_params,
    param_accuracy,
    reference_recall,
    reference_sets,
)

from .helpers import build_repo_graph, generate_repo, write_tree

FUNCTION_DOC = (
    "**load**: reads the file.\n"
    "**parameters**:\n"
    "- `path`: where it lives.\n"
    "**Code Description**: reads and validates.\n"
    "**Note**: path must exist.\n"
    "**Output Example**: {'a': 1}"
)


def test_reference_sets_union_both_directions():
    refs = reference_sets([("a", "b"), ("a", "c"), ("d", "a")])
    assert refs == {"a": {"b", "c", "d"}, "b": {"a"}, "c": {"a"}, "d": {"a"}}


def test_reference_recall_partial_credit():
    truth = {"a": {"b", "c", "d"}}
    predicted = {"a": {"b"}}
    assert reference_recall(predicted, truth) == pytest.approx(1 / 3)


def test_reference_recall_ignores_empty_truth_sets():
    truth = {"a": {"b"}, "quiet": set()}
    predicted = {"a": {"b"}}
    assert reference_recall(predicted, truth) == 1.0


def test_reference_recall_empty_prediction_scores_zero():
    assert reference_recall({}, {"a": {"b"}}) == 0.0


def test_reference_recall_all_empty_truth_is_zero():
    assert reference_recall({"a": {"b"}}, {"x": set()}) == 0.0


def test_reference_recall_accepts_graphs(demo_repo):
    graph = build_repo_graph(demo_repo)
    assert reference_recall(graph, graph) == 1.0


def test_check_format_accepts_compliant_function_doc():
    flags = check_format(FUNCTION_DOC, "Function", has_return=True)
    assert flags.compliant
    assert flags.to_dict()["compliant"] is True


def test_check_format_flags_each_defect():
    no_name = FUNCTION_DOC.split("\n", 1)[1]
    assert not check_format(no_name, "Function", True).name_ok

    wrong_label = FUNCTION_DOC.replace("**parameters**:", "**Attributes**:")
    flags = check_format(wrong_label, "Function", True)
    assert not flags.params_ok and not flags.no_extras

    unbolded = FUNCTION_DOC.replace("**Note**:", "Note:")
    assert not check_format(unbolded, "Function", True).note_ok

    empty_desc = FUNCTION_DOC.replace(
        "**Code Description**: reads and validates.", "**Code Description**:"
    )
    assert not check_format(empty_desc, "Function", True).code_description_ok

    missing_example = FUNCTION_DOC.replace("\n**Output Example**: {'a': 1}", "")
    assert not check_format(missing_example, "Function", True).output_example_ok
    # the same text is fine when the object does not return a value
    assert check_format(missing_example, "Function", False).output_example_ok

    # an Output Example on a non-returning object is itself a defect
    assert not check_format(FUNCTION_DOC, "Function", False).output_example_ok

    duplicated = FUNCTION_DOC + "\n**Note**: twice."
    assert not check_format(duplicated, "Function", True).no_extras


def test_check_format_class_expects_attributes():
    class_doc = FUNCTION_DOC.replace("**parameters**:", "**Attributes**:")
    assert check_format(class_doc, "Class", True).compliant
    assert not check_format(FUNCTION_DOC, "Class", True).params_ok


def test_check_format_first_param_section_decides():
    # a function doc whose first parameter section is Attributes is scored as
    # parse_doc builds the store: the later parameters section is an extra
    doc = FUNCTION_DOC.replace(
        "**parameters**:", "**Attributes**:\n- `x`: wrong label.\n**parameters**:"
    )
    flags = check_format(doc, "Function", True)
    assert not flags.params_ok and not flags.no_extras and not flags.compliant
    assert extract_params(doc) == ["x"]


def test_mock_generated_docs_are_fully_compliant(labeled_repo):
    graph, store, _, _ = generate_repo(labeled_repo)
    for oid, record in store.records.items():
        obj = graph.objects[oid]
        flags = check_format(record.text, obj.kind, obj.has_return)
        assert flags.compliant, (oid, flags.to_dict())


def test_objects_named_like_a_section_label_are_generated_and_scored_compliant(tmp_path, caplog):
    write_tree(tmp_path, {
        "labels.py": (
            "def parameters(a, b):\n    return a + b\n\n\n"
            "class Holder:\n    def __init__(self, note):\n        self.note = note\n\n"
            "    def note(self):\n        return self\n"
        ),
    })
    with caplog.at_level("WARNING"):
        graph, store, _, _ = generate_repo(tmp_path)
    assert "non-compliant" not in caplog.text
    docs = {oid: record.text for oid, record in store.records.items()}
    assert {"labels.py/parameters", "labels.py/Holder/note"} <= set(docs)
    report = evaluate_docs(docs, graph)
    assert report.aggregates["format_compliance"] == 1.0
    doc = docs["labels.py/parameters"]
    assert check_format(doc, "Function", True, "parameters").compliant
    assert extract_params(doc, "parameters") == ["a", "b"]


def test_extract_params_order_and_duplicates():
    doc = (
        "**f**: x.\n"
        "**parameters**:\n"
        "- `beta`: later alphabetically, first here.\n"
        "- `alpha`: second.\n"
        "- `beta`: repeated.\n"
        "- plain: not backticked, ignored.\n"
        "**Code Description**: d."
    )
    assert extract_params(doc) == ["beta", "alpha", "beta"]


def test_extract_params_stops_at_next_section():
    doc = (
        "**f**: x.\n**parameters**:\n- `a`: yes.\n"
        "**Note**:\n- `b`: different section."
    )
    assert extract_params(doc) == ["a"]


def test_extract_params_counts_indented_bullets():
    doc = "**f**: x.\n**parameters**:\n  - `a`: indented.\n- `b`: flush."
    assert extract_params(doc) == ["a", "b"]


def test_extract_params_without_param_section():
    assert extract_params("**f**: no sections here.") == []


def test_param_accuracy_jaccard():
    assert param_accuracy(["x", "phantom"], ["x"]) == 0.5
    assert param_accuracy([], []) == 1.0
    assert param_accuracy(["a"], []) == 0.0
    assert param_accuracy(["a", "b"], ["a", "b"]) == 1.0


def test_param_accuracy_precision():
    assert param_accuracy(["x", "x"], ["x"], mode="precision") == 0.5
    assert param_accuracy(["x", "y"], ["x"], mode="precision") == 0.5
    assert param_accuracy([], [], mode="precision") == 1.0
    assert param_accuracy([], ["x"], mode="precision") == 0.0


def test_param_accuracy_unknown_mode():
    with pytest.raises(ValueError):
        param_accuracy(["a"], ["a"], mode="recall")


names = st.lists(st.text(alphabet="abcdef", min_size=1, max_size=3), max_size=6)


@given(names, names)
def test_param_accuracy_bounds_and_symmetry(pred, truth):
    score = param_accuracy(pred, truth)
    assert 0.0 <= score <= 1.0
    # jaccard is symmetric on sets
    assert score == param_accuracy(sorted(set(truth)), sorted(set(pred)))
    precision = param_accuracy(pred, truth, mode="precision")
    assert 0.0 <= precision <= 1.0


def test_evaluate_docs_aggregates_match_rows(demo_repo):
    graph, store, _, _ = generate_repo(demo_repo)
    docs = {oid: rec.text for oid, rec in store.records.items()}
    report = evaluate_docs(docs, graph)
    assert report.errors == []
    assert report.aggregates["objects"] == len(docs)
    assert report.aggregates["format_compliance"] == 1.0
    assert report.aggregates["param_accuracy"] == 1.0
    assert report.aggregates["section_rates"]["note"] == 1.0
    assert len(report.per_object) == len(docs)
    assert all(row["compliant"] for row in report.per_object)
    parsed = json.loads(report.to_json())
    assert parsed["aggregates"]["param_metric"] == "jaccard"


def test_evaluate_docs_reports_unknown_ids(demo_repo):
    graph, store, _, _ = generate_repo(demo_repo)
    docs = {"no/such.py/obj": "**x**: y."}
    report = evaluate_docs(docs, graph)
    assert report.errors == ["unknown object id: no/such.py/obj"]
    assert report.aggregates["objects"] == 0
    assert report.aggregates["format_compliance"] == 0.0


def test_evaluate_docs_precision_metric(demo_repo):
    graph, store, _, _ = generate_repo(demo_repo)
    docs = {oid: rec.text for oid, rec in store.records.items()}
    report = evaluate_docs(docs, graph, param_metric="precision")
    assert report.aggregates["param_metric"] == "precision"
    assert report.aggregates["param_accuracy"] == 1.0
