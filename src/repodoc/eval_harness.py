"""Quality measurement for generated docs and resolved references.

Reference recall scores the resolver against a hand-labelled ground truth.
Format checking and parameter accuracy score generated doc text without any
model in the loop, so they are cheap enough to run on every build.
"""

from __future__ import annotations

from statistics import fmean
from typing import Iterable, Mapping, NamedTuple, Union

from .doc_pipeline import ATTRIBUTE_LABEL, PARAM_LABEL, ParsedDoc, parse_doc
from .project_graph import RepoGraph
from .source_model import CLASS

ReferenceSource = Union[RepoGraph, Mapping[str, Iterable[str]]]


def _reference_map(source: ReferenceSource) -> dict[str, set[str]]:
    if isinstance(source, RepoGraph):
        return {
            oid: set(source.callers(oid)) | set(source.callees(oid))
            for oid in source.objects
        }
    return {oid: set(refs) for oid, refs in source.items()}


def reference_recall(predicted: ReferenceSource, truth: ReferenceSource) -> float:
    """Mean per-object recall of reference sets against the ground truth.

    Objects the truth marks as having no references are excluded; an object
    with no predictions scores zero against a nonempty truth set.
    """
    pred_map = _reference_map(predicted)
    truth_map = _reference_map(truth)
    scores: list[float] = []
    for oid, expected in sorted(truth_map.items()):
        if not expected:
            continue
        found = pred_map.get(oid, set())
        scores.append(len(found & expected) / len(expected))
    return fmean(scores) if scores else 0.0


class FormatCheck(NamedTuple):
    """Per-section verdicts for one doc."""

    name_ok: bool
    params_ok: bool
    code_description_ok: bool
    note_ok: bool
    output_example_ok: bool
    no_extras: bool

    @property
    def compliant(self) -> bool:
        return (
            self.name_ok
            and self.params_ok
            and self.code_description_ok
            and self.note_ok
            and self.output_example_ok
            and self.no_extras
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name_ok,
            "params": self.params_ok,
            "code_description": self.code_description_ok,
            "note": self.note_ok,
            "output_example": self.output_example_ok,
            "no_extras": self.no_extras,
            "compliant": self.compliant,
        }


def check_format(parsed: ParsedDoc, kind: str, has_return: bool) -> FormatCheck:
    """The five-section layout verdicts for a doc that ``parse_doc`` read
    for an object of ``kind``."""
    expected_param = ATTRIBUTE_LABEL if kind == CLASS else PARAM_LABEL
    if has_return:
        output_example_ok = bool(parsed.output_example)
    else:
        output_example_ok = parsed.output_example is None
    return FormatCheck(
        name_ok="name" not in parsed.missing,
        params_ok=expected_param not in parsed.missing,
        code_description_ok=bool(parsed.code_description),
        note_ok=bool(parsed.note),
        output_example_ok=output_example_ok,
        no_extras=not parsed.extra,
    )


def param_accuracy(
    predicted: Iterable[str], truth: Iterable[str], mode: str = "jaccard"
) -> float:
    """Agreement between documented and declared parameter names.

    jaccard compares the two as sets; precision scores how much of the
    prediction is real, penalizing duplicated bullets.
    """
    pred_list = list(predicted)
    pred_set = set(pred_list)
    truth_set = set(truth)
    if mode == "jaccard":
        if not pred_set and not truth_set:
            return 1.0
        union = pred_set | truth_set
        return len(pred_set & truth_set) / len(union)
    if mode == "precision":
        if not pred_list:
            return 1.0 if not truth_set else 0.0
        return len(pred_set & truth_set) / len(pred_list)
    raise ValueError(f"unknown param accuracy mode: {mode}")


class EvalReport:
    def __init__(self) -> None:
        self.per_object: list[dict] = []
        self.aggregates: dict = {}
        self.errors: list[str] = []

    def to_dict(self) -> dict:
        return {"aggregates": self.aggregates, "per_object": self.per_object, "errors": self.errors}


def evaluate_docs(
    docs: Mapping[str, str], graph: RepoGraph, param_metric: str = "jaccard"
) -> EvalReport:
    """Score every doc against its object in ``graph`` for format compliance
    and parameter accuracy."""
    report = EvalReport()
    flag_totals = {
        "name": 0,
        "params": 0,
        "code_description": 0,
        "note": 0,
        "output_example": 0,
        "no_extras": 0,
    }
    compliant = 0
    accuracies: list[float] = []
    for oid in sorted(docs):
        obj = graph.objects.get(oid)
        if obj is None:
            report.errors.append(f"unknown object id: {oid}")
            continue
        parsed = parse_doc(docs[oid], obj.kind, obj.has_return, obj.name)
        flags = check_format(parsed, obj.kind, obj.has_return)
        documented = [name for name, _ in parsed.params]
        accuracy = param_accuracy(documented, obj.params, param_metric)
        accuracies.append(accuracy)
        compliant += flags.compliant
        for key, value in flags.to_dict().items():
            if key in flag_totals:
                flag_totals[key] += value
        report.per_object.append(
            {"id": oid, "param_accuracy": round(accuracy, 6), **flags.to_dict()}
        )
    scored = len(report.per_object)
    report.aggregates = {
        "objects": scored,
        "format_compliance": round(compliant / scored, 6) if scored else 0.0,
        "param_accuracy": round(fmean(accuracies), 6) if accuracies else 0.0,
        "param_metric": param_metric,
        "section_rates": {
            key: round(total / scored, 6) if scored else 0.0
            for key, total in flag_totals.items()
        },
    }
    return report
