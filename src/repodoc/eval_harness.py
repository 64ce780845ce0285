"""Quality measurement for generated docs and resolved references.

Reference recall scores the resolver against a hand-labelled ground truth.
Format checking and parameter accuracy score generated doc text without any
model in the loop, so they are cheap enough to run on every build.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from statistics import fmean
from typing import Iterable, Mapping, Union

from .doc_pipeline import ATTRIBUTE_LABEL, PARAM_LABEL, ParsedDoc, parse_doc
from .project_graph import RepoGraph
from .source_model import CLASS, FUNCTION

ReferenceSource = Union[RepoGraph, Mapping[str, Iterable[str]]]


def reference_sets(edges: Iterable[tuple[str, str]]) -> dict[str, set[str]]:
    """Per-object union of callers and callees from (caller, callee) pairs."""
    refs: dict[str, set[str]] = {}
    for caller, callee in edges:
        refs.setdefault(caller, set()).add(callee)
        refs.setdefault(callee, set()).add(caller)
    return refs


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


@dataclass(frozen=True)
class FormatCheck:
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


def _format_check(parsed: ParsedDoc, kind: str, has_return: bool) -> FormatCheck:
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


def check_format(doc: str, kind: str, has_return: bool) -> FormatCheck:
    """Verify the five-section layout for one generated doc."""
    return _format_check(parse_doc(doc, kind, has_return), kind, has_return)


def extract_params(doc: str) -> list[str]:
    """Backticked bullet names under the parameters or Attributes section,
    in order, duplicates kept."""
    return [name for name, _ in parse_doc(doc, FUNCTION, False).params]


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


@dataclass
class EvalReport:
    per_object: list[dict] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "aggregates": self.aggregates,
                "per_object": self.per_object,
                "errors": self.errors,
            },
            indent=2,
            sort_keys=True,
        )


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
        parsed = parse_doc(docs[oid], obj.kind, obj.has_return)
        flags = _format_check(parsed, obj.kind, obj.has_return)
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
