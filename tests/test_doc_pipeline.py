from __future__ import annotations

import json
import logging
import os
import stat
import threading
import tracemalloc
from dataclasses import replace

import pytest

from repodoc.doc_pipeline import (
    DocStore,
    generate_all,
    load_store,
    parse_doc,
    record_from_parsed,
    save_store,
)
from repodoc.config import load_config
from repodoc.errors import CorruptStoreError
from repodoc.llm_gateway import Gateway, MockProvider
from repodoc.project_graph import topological_order
from repodoc.prompt_engine import CHILD_DOCS_INTRO

from .helpers import (
    DEMO_TOPO_ORDER,
    CapturingProvider,
    FailingProvider,
    build_repo_graph,
    generate_repo,
    make_gateway,
    make_config,
    write_tree,
)

COMPLIANT_FUNCTION_DOC = (
    "**load**: The function of load is to read a config file.\n"
    "**parameters**:\n"
    "- `path`: where the file lives.\n"
    "- `strict`: whether unknown keys raise.\n"
    "**Code Description**: Reads the file and validates every key.\n"
    "**Note**: The path must exist.\n"
    "**Output Example**: {'debug': False}"
)


def test_parse_doc_full_function_doc():
    parsed = parse_doc(COMPLIANT_FUNCTION_DOC, "Function", has_return=True)
    assert parsed.missing == [] and parsed.extra == []
    assert parsed.name_header.startswith("**load**:")
    assert parsed.param_label == "parameters"
    assert parsed.params == [
        ("path", "where the file lives."),
        ("strict", "whether unknown keys raise."),
    ]
    assert parsed.code_description == "Reads the file and validates every key."
    assert parsed.note == "The path must exist."
    assert parsed.output_example == "{'debug': False}"


def test_parse_doc_reports_missing_sections():
    text = "**load**: something.\n**parameters**:\n- `path`: a path."
    parsed = parse_doc(text, "Function", has_return=True)
    assert parsed.missing == ["Code Description", "Note", "Output Example"]


def test_parse_doc_output_example_not_required_without_return():
    text = (
        "**log**: writes a line.\n**parameters**:\n- `msg`: text.\n"
        "**Code Description**: prints.\n**Note**: none."
    )
    parsed = parse_doc(text, "Function", has_return=False)
    assert parsed.missing == []


def test_parse_doc_wrong_kind_label_is_missing_plus_extra():
    text = COMPLIANT_FUNCTION_DOC.replace("**parameters**:", "**Attributes**:")
    parsed = parse_doc(text, "Function", has_return=True)
    assert "parameters" in parsed.missing
    assert "Attributes" in parsed.extra
    # the section content is still captured so rendering loses nothing
    assert parsed.param_label == "Attributes"
    assert [name for name, _ in parsed.params] == ["path", "strict"]


def test_parse_doc_duplicate_and_unknown_labels_are_extras():
    text = COMPLIANT_FUNCTION_DOC + "\n**Note**: again.\n**Vibes**: immaculate."
    parsed = parse_doc(text, "Function", has_return=True)
    assert parsed.extra == ["Note", "Vibes"]
    assert parsed.note == "The path must exist."


def test_parse_doc_without_name_header():
    text = "**parameters**:\n- `x`: a number.\n**Code Description**: adds."
    parsed = parse_doc(text, "Function", has_return=False)
    assert "name" in parsed.missing
    assert parsed.name_header == ""
    assert parsed.params == [("x", "a number.")]


def test_parse_doc_joins_bullet_continuation_lines():
    text = (
        "**f**: short.\n"
        "**parameters**:\n"
        "- `x`: the first half\n"
        "  and the second half.\n"
        "**Code Description**: body.\n"
        "**Note**: n."
    )
    parsed = parse_doc(text, "Function", has_return=False)
    assert parsed.params == [("x", "the first half and the second half.")]


def test_parse_doc_case_insensitive_labels():
    text = COMPLIANT_FUNCTION_DOC.replace("**parameters**:", "**Parameters**:").replace(
        "**Note**:", "**note**:"
    )
    parsed = parse_doc(text, "Function", has_return=True)
    assert parsed.missing == [] and parsed.extra == []
    assert parsed.param_label == "parameters"


def test_parse_doc_keeps_non_bullet_param_prose_as_tail():
    text = (
        "**f**: short.\n"
        "**parameters**: This function takes no parameters.\n"
        "**Code Description**: body.\n**Note**: n."
    )
    parsed = parse_doc(text, "Function", has_return=False)
    assert parsed.param_tail == "This function takes no parameters."
    assert parsed.params == []


def test_record_roundtrips_through_render_and_reparse(demo_repo):
    graph, store, _, _ = generate_repo(demo_repo)
    for oid, record in store.records.items():
        obj = graph.objects[oid]
        reparsed = parse_doc(record.text, obj.kind, obj.has_return)
        rebuilt = record_from_parsed(obj, reparsed, record.model)
        assert reparsed.missing == [] and reparsed.extra == []
        assert rebuilt.text == record.text


def test_record_from_parsed_drops_output_example_without_return(demo_repo):
    graph = build_repo_graph(demo_repo)
    obj = graph.objects["a.py/f"]
    obj = replace(obj, has_return=False)
    parsed = parse_doc(COMPLIANT_FUNCTION_DOC, "Function", has_return=False)
    record = record_from_parsed(obj, parsed, "base-4k")
    assert parse_doc(record.text, "Function", has_return=False).output_example is None


def test_record_from_parsed_dedups_params_keep_first(demo_repo):
    graph = build_repo_graph(demo_repo)
    parsed = parse_doc(
        "**g**: x.\n**parameters**:\n- `x`: first.\n- `x`: second.\n"
        "**Code Description**: d.\n**Note**: n.\n**Output Example**: 1",
        "Function",
        has_return=True,
    )
    record = record_from_parsed(graph.objects["a.py/g"], parsed, "base-4k")
    assert parse_doc(record.text, "Function", has_return=True).params == [("x", "first.")]


def test_store_roundtrip_and_byte_stability(tmp_path, demo_repo):
    _, store, _, _ = generate_repo(demo_repo)
    path = tmp_path / "store.json"
    save_store(store, path)
    loaded = load_store(path)
    assert set(loaded.records) == set(store.records)
    for oid in store.records:
        assert loaded.records[oid] == store.records[oid]
    assert loaded.graph_snapshot is not None
    assert loaded.graph_snapshot.to_dict() == store.graph_snapshot.to_dict()
    second = tmp_path / "copy.json"
    save_store(loaded, second)
    assert second.read_bytes() == path.read_bytes()


def test_save_store_streams_one_value_per_line(tmp_path):
    # 20 files of 100 functions, each calling the one before: 2,000 objects
    chain = "".join(f"def f{i}(x):\n    return f{i - 1}(x)\n\n\n" for i in range(1, 100))
    module = "def f0(x):\n    return x\n\n\n" + chain
    write_tree(tmp_path / "repo", {f"m{n}.py": module for n in range(20)})
    _, store, _, _ = generate_repo(tmp_path / "repo")
    assert len(store.records) == 2000
    path = tmp_path / "store.json"
    tracemalloc.start()
    try:
        save_store(store, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    text = path.read_text(encoding="utf-8")
    data = store.to_dict()
    assert json.loads(text) == data and text.endswith("}\n")

    # one line per edge, node and record: its compact JSON with sorted keys
    def dump(value) -> str:
        return json.dumps(value, separators=(",", ":"), sort_keys=True)

    lines = text.splitlines()
    members = [
        line.removesuffix(",")
        for line in lines
        if not line.endswith(("[", "{")) and not line.startswith(("]", "}"))
    ]
    graph = data["graph"]
    assert len(members) == len(graph["edges"]) + len(graph["nodes"]) + len(data["records"])
    for member in members:
        member = member if member.startswith("{") else "{" + member + "}"
        assert dump(json.loads(member)) == member
    assert len(lines) == len(members) + 5
    # holding the whole text, as json.dumps does, would take more than this
    assert peak < path.stat().st_size


@pytest.mark.parametrize(
    "umask, mode",
    [(0o022, 0o644), (0o002, 0o664), (0o077, 0o600)],
    ids=["umask-022", "umask-002", "umask-077"],
)
def test_store_file_mode_follows_umask(tmp_path, umask, mode):
    path = tmp_path / "store.json"
    previous = os.umask(umask)
    try:
        save_store(DocStore(), path)
        save_store(DocStore(), path)  # replacing an existing store as well
    finally:
        os.umask(previous)
    assert stat.S_IMODE(path.stat().st_mode) == mode


def test_store_missing_file_is_empty(tmp_path):
    store = load_store(tmp_path / "absent.json")
    assert store.records == {} and store.graph_snapshot is None


def test_store_corrupt_json_raises(tmp_path):
    path = tmp_path / "store.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CorruptStoreError) as err:
        load_store(path)
    assert "delete it and rerun generate" in str(err.value)


@pytest.mark.parametrize(
    "payload, found",
    [({"version": 5, "records": {}, "graph": None}, "version 5"),
     ({"records": {}, "graph": None}, "version None")],
    ids=["version-5", "no-version"],
)
def test_store_version_mismatch_raises(tmp_path, payload, found):
    path = tmp_path / "store.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CorruptStoreError) as err:
        load_store(path)
    message = str(err.value)
    assert found in message and "expected 4" in message
    assert "delete it and rerun generate" in message


def test_store_structurally_broken_raises(tmp_path):
    path = tmp_path / "store.json"
    path.write_text(json.dumps({"version": 1, "records": {"a.py/f": {"id": "a.py/f"}}}), encoding="utf-8")
    with pytest.raises(CorruptStoreError):
        load_store(path)


def test_generate_all_demo_order_and_records(demo_repo):
    graph, store, report, gateway = generate_repo(demo_repo)
    assert report.generated == DEMO_TOPO_ORDER
    assert report.skipped == [] and report.ok
    assert set(store.records) == set(DEMO_TOPO_ORDER)
    assert len(gateway.provider.prompts) == len(DEMO_TOPO_ORDER)
    assert report.prompt_tokens > 0 and report.completion_tokens > 0
    assert store.graph_snapshot is graph


def test_generate_all_reads_every_generation_setting_from_config(demo_repo):
    settings = {
        "doc_language": "Deutsch",
        "child_docs_enabled": True,
        "completion_reserve_tokens": 700,
        "provider": {
            "temperature": 0.55,
            "tiers": [
                {"name": "small-6k", "context_window": 6000},
                {"name": "large-60k", "context_window": 60000},
            ],
        },
    }
    (demo_repo / ".repodoc.json").write_text(json.dumps(settings), encoding="utf-8")
    config = load_config(demo_repo)
    graph = build_repo_graph(demo_repo)
    gateway = make_gateway()
    report = generate_all(graph, gateway, DocStore(), config, 1)

    assert report.ok and report.generated == DEMO_TOPO_ORDER
    requests = gateway.provider.requests
    assert len(requests) == len(DEMO_TOPO_ORDER)
    for oid, request in zip(report.generated, requests):
        assert (request.model, request.max_completion_tokens) == ("small-6k", 700), oid
        assert request.temperature == 0.55, oid
        assert "in language Deutsch to serve" in request.prompt, oid
        assert "for the target object in Deutsch in" in request.prompt, oid
    class_prompt = requests[report.generated.index("a.py/C")].prompt
    assert CHILD_DOCS_INTRO + "\n\nOBJ_NAME: m\nOBJ_PATH: a.py/C/m" in class_prompt


def test_generate_all_second_run_skips_everything(demo_repo):
    graph, store, _, _ = generate_repo(demo_repo)
    gateway = make_gateway()
    report = generate_all(graph, gateway, store, make_config(demo_repo), 1)
    assert report.generated == []
    assert report.skipped == DEMO_TOPO_ORDER
    assert gateway.provider.prompts == []


def test_generate_all_regenerates_on_stale_hash(demo_repo):
    graph, store, _, _ = generate_repo(demo_repo)
    record = store.records["a.py/f"]
    store.records["a.py/f"] = replace(record, source_hash="0" * 64)
    gateway = make_gateway()
    report = generate_all(graph, gateway, store, make_config(demo_repo), 1)
    assert report.generated == ["a.py/f"]
    assert len(gateway.provider.prompts) == 1


def test_generate_all_only_filter(demo_repo):
    graph, store, _, _ = generate_repo(demo_repo)
    gateway = make_gateway()
    report = generate_all(
        graph, gateway, store, make_config(demo_repo), 1, only={"a.py/f", "a.py/g"}
    )
    # records are fresh, so even the named objects are up to date
    assert report.generated == [] and gateway.provider.prompts == []
    store.records.pop("a.py/f")
    store.records.pop("util/b.py/h")
    report = generate_all(graph, gateway, store, make_config(demo_repo), 1, only={"a.py/f"})
    assert report.generated == ["a.py/f"]
    assert "util/b.py/h" in report.skipped


def test_missing_prerequisite_renders_none_and_warns(demo_repo, caplog):
    graph = build_repo_graph(demo_repo)
    store = DocStore()
    provider = CapturingProvider()
    gateway = Gateway(provider, retries=0)
    with caplog.at_level(logging.WARNING, logger="repodoc.doc_pipeline"):
        report = generate_all(
            graph, gateway, store, make_config(demo_repo), 1, only={"a.py/g"}
        )
    assert report.generated == ["a.py/g"]
    assert "a.py/f" in caplog.text and "rendering None" in caplog.text
    prompt = provider.prompts[0]
    assert "OBJ_NAME: f\nOBJ_PATH: a.py/f\nDocument: \nNone" in prompt


def test_failures_do_not_stop_the_run(demo_repo):
    graph = build_repo_graph(demo_repo)
    store = DocStore()
    gateway = Gateway(FailingProvider(frozenset({"f"})), retries=0)
    report = generate_all(graph, gateway, store, make_config(demo_repo), 1)
    assert not report.ok
    assert set(report.failures) == {"a.py/f"}
    assert "synthetic failure" in report.failures["a.py/f"]
    assert report.generated == [oid for oid in DEMO_TOPO_ORDER if oid != "a.py/f"]
    assert "a.py/f" not in store.records
    # dependents still generated, with the failed doc shown as None
    assert "a.py/g" in store.records


def test_parallel_generation_matches_sequential(labeled_repo):
    _, store_seq, report_seq, _ = generate_repo(labeled_repo, jobs=1)
    _, store_par, report_par, gateway_par = generate_repo(labeled_repo, jobs=3)
    assert report_par.ok
    assert set(report_par.generated) == set(report_seq.generated)
    assert set(store_par.records) == set(store_seq.records)
    for oid in store_seq.records:
        assert store_par.records[oid].text == store_seq.records[oid].text
    totals = (report_par.prompt_tokens, report_par.completion_tokens)
    assert totals == (report_seq.prompt_tokens, report_seq.completion_tokens)
    returned = gateway_par.provider.responses
    assert totals == (
        sum(r.prompt_tokens for r in returned),
        sum(r.completion_tokens for r in returned),
    )


class BarrierProvider:
    """Mock provider whose sends return only once ``parties`` of them overlap."""

    def __init__(self, parties: int) -> None:
        self._inner = MockProvider()
        self._barrier = threading.Barrier(parties, timeout=5)

    def send(self, request):
        self._barrier.wait()
        return self._inner.send(request)


def test_two_jobs_overlap_provider_sends(tmp_path):
    write_tree(tmp_path, {"m.py": "def a():\n    return 1\n\n\ndef b():\n    return 2\n"})
    graph = build_repo_graph(tmp_path)
    gateway = Gateway(BarrierProvider(2), retries=0)
    report = generate_all(graph, gateway, DocStore(), make_config(tmp_path), 2)
    assert report.ok
    assert sorted(report.generated) == ["m.py/a", "m.py/b"]


def test_single_job_follows_filtered_topological_order(tmp_path):
    # z is a prerequisite of b but not pending: the full order is c, z, b,
    # while ordering only {b, c} by id would put b first.
    source = "def b():\n    return z()\n\n\ndef c():\n    return 1\n\n\ndef z():\n    return 2\n"
    write_tree(tmp_path, {"m.py": source})
    graph, store, _, _ = generate_repo(tmp_path)
    only = {"m.py/b", "m.py/c"}
    for oid in only:
        store.records.pop(oid)
    report = generate_all(graph, make_gateway(), store, make_config(tmp_path), 1, only=only)
    assert report.generated == [oid for oid in topological_order(graph) if oid in only]
    assert report.generated == ["m.py/c", "m.py/b"]
