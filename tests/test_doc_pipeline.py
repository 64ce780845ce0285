from __future__ import annotations

import builtins
import io
import json
import logging
import os
import signal
import stat
import threading
import tracemalloc

import pytest

from repodoc.doc_pipeline import (
    SNAPSHOT_DIGEST_NAME,
    STORE_VERSION,
    DocRecord,
    DocStore,
    LazyEntries,
    _unmatched,
    graph_dict,
    graph_of,
    load_store,
    parse_doc,
    record_from_parsed,
    record_snapshot,
    save_store,
    stale_objects,
)
from repodoc.config import load_config
from repodoc.errors import CorruptStoreError, InternalError
from repodoc.llm_gateway import CompletionResponse, Gateway, MockProvider
from repodoc.project_graph import (
    Overlay,
    ReferenceEdge,
    RepoGraph,
    build_tree,
    diff_objects,
    topological_order,
)
from repodoc.prompt_engine import CHILD_DOCS_INTRO
from repodoc.source_model import CodeObject, parse_file, source_digest

from .helpers import (
    DEMO_FILES,
    DEMO_TOPO_ORDER,
    assert_stored_fact_by_fact,
    build_repo_graph,
    generate_repo,
    generate_stale,
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


@pytest.mark.parametrize("name", ["parameters", "note"])
def test_parse_doc_reads_a_name_header_labelled_like_a_section(name):
    text = COMPLIANT_FUNCTION_DOC.replace("**load**: The function of load", f"**{name}**: The function of {name}")
    parsed = parse_doc(text, "Function", has_return=True, name=name)
    assert parsed.missing == [] and parsed.extra == []
    assert parsed.name_header.startswith(f"**{name}**: The function of {name}")
    assert parsed.params == [
        ("path", "where the file lives."),
        ("strict", "whether unknown keys raise."),
    ]
    assert parsed.note == "The path must exist."
    # without the name, the first header is taken for the section it names
    assert "name" in parse_doc(text, "Function", has_return=True).missing


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


def _target(name: str, kind: str = "Function", has_return: bool = True) -> CodeObject:
    return CodeObject(
        id=f"m.py/{name}", kind=kind, name=name, span=(0, 0), text="", params=(),
        has_return=has_return, parent_id="m.py", source_hash="h",
    )


_LOAD_HEADER = "**load**: The function of load is to read a config file."
_COMPLIANT_TEXT = (
    f"{_LOAD_HEADER}\n\n**parameters**:\n- `path`: where the file lives.\n"
    "- `strict`: whether unknown keys raise.\n\n"
    "**Code Description**: Reads the file and validates every key.\n\n"
    "**Note**: The path must exist."
)
_EXAMPLE = "\n\n**Output Example**: {'debug': False}"

# (target, provider answer, missing, extra, record text): answers of every
# shape the doc path must read, each pinned to the record text it gives
DOC_PATH_CASES = {
    "compliant": (_target("load"), COMPLIANT_FUNCTION_DOC, [], [], _COMPLIANT_TEXT + _EXAMPLE),
    "missing-sections": (
        _target("load"),
        "**load**: something.\n**parameters**:\n- `path`: a path.",
        ["Code Description", "Note", "Output Example"],
        [],
        "**load**: something.\n\n**parameters**:\n- `path`: a path.",
    ),
    "no-headers": (
        _target("load"),
        "Just prose, no sections at all.\n",
        ["name", "parameters", "Code Description", "Note", "Output Example"],
        [],
        "**parameters**:",
    ),
    "duplicate-and-unknown-labels": (
        _target("load"),
        COMPLIANT_FUNCTION_DOC + "\n**Note**: again.\n**Vibes**: immaculate.\n**parameters**:\n- `x`: late.",
        [],
        ["Note", "Vibes", "parameters"],
        _COMPLIANT_TEXT + _EXAMPLE,
    ),
    "parameters-for-a-class": (
        _target("Loader", "Class", has_return=False),
        COMPLIANT_FUNCTION_DOC.replace("**load**", "**Loader**"),
        ["Attributes"],
        ["parameters"],
        _COMPLIANT_TEXT.replace("**load**", "**Loader**"),
    ),
    "attributes-for-a-function": (
        _target("load"),
        COMPLIANT_FUNCTION_DOC.replace("**parameters**:", "**Attributes**:"),
        ["parameters"],
        ["Attributes"],
        _COMPLIANT_TEXT.replace("**parameters**:", "**Attributes**:") + _EXAMPLE,
    ),
    "bullet-continuations": (
        _target("load"),
        "**load**: short.\n\n**Parameters**: Takes two values.\n- `x`: the first half\n"
        "  and the second half.\n\n- `x`: a duplicate, dropped.\n-`y` :  spaced\n"
        "not a bullet, but continues y\n**code description**: body line one\n"
        "  body line two   \n\n\n**NOTE**:\n  n.  \n",
        ["Output Example"],
        [],
        "**load**: short.\n\n**parameters**: Takes two values.\n"
        "- `x`: the first half and the second half.\n- `y`: spaced not a bullet, but continues y\n\n"
        "**Code Description**: body line one\n  body line two\n\n**Note**: n.",
    ),
    "prose-before-bullets": (
        _target("load", has_return=False),
        "**load**: short.\n**parameters**:\nThis function takes no parameters.\nNone at all.\n"
        "**Code Description**: body.\n**Note**: n.",
        [],
        [],
        "**load**: short.\n\n**parameters**: This function takes no parameters. None at all.\n\n"
        "**Code Description**: body.\n\n**Note**: n.",
    ),
    "name-equal-to-a-label": (
        _target("note"),
        COMPLIANT_FUNCTION_DOC.replace("**load**: The function of load", "**note**: The function of note"),
        [],
        [],
        _COMPLIANT_TEXT.replace("**load**: The function of load", "**note**: The function of note")
        + _EXAMPLE,
    ),
    "a-label-that-is-not-the-name": (
        _target("other"),
        COMPLIANT_FUNCTION_DOC.replace("**load**: The function of load", "**note**: The function of note"),
        ["name"],
        ["Note"],
        _COMPLIANT_TEXT.replace(f"{_LOAD_HEADER}\n\n", "").replace(
            "The path must exist.", "The function of note is to read a config file."
        )
        + _EXAMPLE,
    ),
    "output-example-without-return": (
        _target("load", has_return=False), COMPLIANT_FUNCTION_DOC, [], [], _COMPLIANT_TEXT
    ),
    "crlf-line-ends": (
        _target("load"),
        COMPLIANT_FUNCTION_DOC.replace("\n", "\r\n").replace(
            "every key.", "every key.\r\nAnd more.\r\n  Indented."
        )
        + "\r\n",
        [],
        [],
        _COMPLIANT_TEXT.replace("every key.", "every key.\nAnd more.\r\n  Indented.") + _EXAMPLE,
    ),
    "lone-cr-and-tabs": (
        _target("load"),
        "**load**\t:\tx\r**parameters**:\n-\t`a`\t:\tb\r\n**Note** :\tq\t\n",
        ["parameters", "Code Description", "Output Example"],
        [],
        "**load**\t:\tx\r**parameters**:\n-\t`a`\t:\tb\n\n**parameters**:\n\n**Note**: q",
    ),
}


@pytest.mark.parametrize("case", DOC_PATH_CASES)
def test_a_provider_answer_becomes_the_record_text_it_always_gave(case):
    obj, answer, missing, extra, text = DOC_PATH_CASES[case]
    parsed = parse_doc(answer, obj.kind, obj.has_return, obj.name)
    assert (parsed.missing, parsed.extra) == (missing, extra)
    assert record_from_parsed(obj, parsed) == DocRecord(text, "h")


class _SameAnswer:
    """A provider that gives every request the same answer."""

    def __init__(self, answer: str) -> None:
        self.answer = answer

    def send(self, request) -> CompletionResponse:
        return CompletionResponse(self.answer, 10, 5)


def test_a_non_compliant_answer_is_stored_with_one_warning(tmp_path, caplog):
    write_tree(tmp_path, {"m.py": "def f(x):\n    print(x)\n"})
    graph = build_repo_graph(tmp_path)
    store = DocStore()
    # no parameters and no Code Description, and a section of no known label
    answer = "**f**: Prints x.\n**Note**: none.\n**Vibes**: immaculate."
    gateway = Gateway(_SameAnswer(answer), retries=0)
    with caplog.at_level(logging.WARNING, logger="repodoc"):
        report = generate_stale(graph, gateway, store, make_config(tmp_path), 1)
    assert report.generated == ["m.py/f"] and report.failures == {}
    (warning,) = [record for record in caplog.records if record.levelno >= logging.WARNING]
    assert warning.getMessage() == (
        "m.py/f: non-compliant doc (missing=['parameters', 'Code Description'] extra=['Vibes'])"
    )
    # the kind's label stands in for the section the answer left out
    assert store.records["m.py/f"].text == "**f**: Prints x.\n\n**parameters**:\n\n**Note**: none."


def test_record_roundtrips_through_render_and_reparse(demo_repo):
    graph, store, _, _ = generate_repo(demo_repo)
    for oid, record in store.records.items():
        obj = graph.objects[oid]
        reparsed = parse_doc(record.text, obj.kind, obj.has_return)
        rebuilt = record_from_parsed(obj, reparsed)
        assert reparsed.missing == [] and reparsed.extra == []
        assert rebuilt.text == record.text


def test_record_from_parsed_drops_output_example_without_return(demo_repo):
    graph = build_repo_graph(demo_repo)
    obj = graph.objects["a.py/f"]
    obj = obj._replace(has_return=False)
    parsed = parse_doc(COMPLIANT_FUNCTION_DOC, "Function", has_return=False)
    record = record_from_parsed(obj, parsed)
    assert parse_doc(record.text, "Function", has_return=False).output_example is None


def test_record_from_parsed_dedups_params_keep_first(demo_repo):
    graph = build_repo_graph(demo_repo)
    parsed = parse_doc(
        "**g**: x.\n**parameters**:\n- `x`: first.\n- `x`: second.\n"
        "**Code Description**: d.\n**Note**: n.\n**Output Example**: 1",
        "Function",
        has_return=True,
    )
    record = record_from_parsed(graph.objects["a.py/g"], parsed)
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
    assert graph_dict(loaded.graph_snapshot) == graph_dict(store.graph_snapshot)
    second = tmp_path / "copy.json"
    save_store(loaded, second)
    assert second.read_bytes() == path.read_bytes()


def _carrying_store(tmp_path, demo_repo):
    """A saved store, loaded again lazily with its digest recorded in a git
    directory, so that it holds each entry it has not decoded as its line."""
    _, store, _, _ = generate_repo(demo_repo)
    path, git_dir = tmp_path / "store.json", tmp_path / "git"
    git_dir.mkdir()
    save_store(store, path, git_dir)
    record_snapshot(store, git_dir)
    loaded = load_store(path, git_dir)
    assert isinstance(loaded.records, LazyEntries)
    return loaded, path, git_dir


def _saved_whole(store, path) -> bytes:
    """The bytes of a save that encodes every entry: the store's records and
    graph, decoded into plain mappings."""
    graph = graph_of(graph_dict(store.graph_snapshot))
    save_store(DocStore(dict(store.records.items()), graph), path)
    return path.read_bytes()


def test_store_lines_whose_hashes_differ_in_the_last_character_are_unmatched(tmp_path, demo_repo):
    # the node line states its own hash, since its record states another
    _, store, _, _ = generate_repo(demo_repo)
    source_hash = store.graph_snapshot.objects["a.py/f"].source_hash
    other = source_hash[:-1] + ("B" if source_hash[-1] == "A" else "A")
    store.records["a.py/f"] = store.records["a.py/f"]._replace(source_hash=other)
    path, git_dir = tmp_path / "store.json", tmp_path / "git"
    git_dir.mkdir()
    save_store(store, path, git_dir)
    record_snapshot(store, git_dir)
    loaded = load_store(path, git_dir)
    objects, records = loaded.graph_snapshot.objects, loaded.records
    assert type(objects.held["a.py/f"]) is str and type(records.held["a.py/f"]) is str
    assert _unmatched(objects, records) == ["a.py/f"]


def test_a_held_node_line_states_its_hash_while_its_record_does_not(tmp_path, demo_repo):
    store, path, git_dir = _carrying_store(tmp_path, demo_repo)
    full = tmp_path / "full.json"
    assert '"source_hash":' not in store.graph_snapshot.objects.held["a.py/f"]
    # a record of another hash set over a node still held as its line
    record = store.records["a.py/f"]
    store.records["a.py/f"] = record._replace(source_hash="A" * 43)
    save_store(store, path, git_dir)
    assert path.read_bytes() == _saved_whole(store, full)
    record_snapshot(store, git_dir)
    # and the record of its hash set again, over the line that states it
    store = load_store(path, git_dir)
    assert '"source_hash":' in store.graph_snapshot.objects.held["a.py/f"]
    store.records["a.py/f"] = record
    save_store(store, path, git_dir)
    assert b'"source_hash":' not in path.read_bytes()
    assert path.read_bytes() == _saved_whole(store, full)


def test_save_store_copies_unchanged_lines_and_writes_a_full_encode(tmp_path, demo_repo):
    store, path, git_dir = _carrying_store(tmp_path, demo_repo)
    full = tmp_path / "full.json"
    record = store.records["a.py/f"]
    store.records["a.py/f"] = record._replace(text=record.text + " Edited.")
    save_store(store, path, git_dir)
    assert not (git_dir / SNAPSHOT_DIGEST_NAME).exists()  # until the pages are written
    assert b" Edited." in path.read_bytes()
    assert path.read_bytes() == _saved_whole(store, full)
    assert store.digest == load_store(path).digest

    # the first and the last record dropped, from the store saved above
    record_snapshot(store, git_dir)
    store = load_store(path, git_dir)
    record_ids = sorted(store.records)
    del store.records[record_ids[0]]
    del store.records[record_ids[-1]]
    save_store(store, path, git_dir)
    assert sorted(load_store(path).records) == record_ids[1:-1]
    assert path.read_bytes() == _saved_whole(store, full)


def test_save_store_encodes_each_node_an_overlay_changes(tmp_path, demo_repo):
    store, path, git_dir = _carrying_store(tmp_path, demo_repo)
    snapshot = store.graph_snapshot
    # f given a parameter over the snapshot, which still holds its old line
    parse = parse_file("a.py", DEMO_FILES["a.py"].replace("def f():", "def f(y=0):"))
    (f,) = [obj for obj in parse.objects if obj.name == "f"]
    store.graph_snapshot = RepoGraph(
        nodes=Overlay(snapshot.nodes, {f.id: build_tree(["a.py"], [parse])[f.id]}),
        objects=Overlay(snapshot.objects, {f.id: f}),
        edges=snapshot.edges,
        removed_edges=snapshot.removed_edges,
        files=snapshot.files,
    )
    assert type(snapshot.nodes.held[f.id]) is str
    save_store(store, path, git_dir)
    assert b'"params":["y"]' in path.read_bytes()
    assert path.read_bytes() == _saved_whole(store, tmp_path / "full.json")


def test_a_store_file_replaced_after_load_does_not_change_what_the_save_writes(
    tmp_path, demo_repo
):
    store, path, git_dir = _carrying_store(tmp_path, demo_repo)
    loaded = path.read_bytes()
    before = path.stat()
    # the same size and modification time, one section misnamed
    path.write_bytes(loaded.replace(b'],"nodes":{', b'],"nodez":{'))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    save_store(store, path, git_dir)
    assert path.read_bytes() == loaded
    path.write_bytes(b"{}")
    save_store(store, path, git_dir)
    assert path.read_bytes() == loaded


def test_save_store_of_a_lazy_store_opens_only_its_temp_file_and_decodes_nothing(
    tmp_path, demo_repo, monkeypatch
):
    store, path, git_dir = _carrying_store(tmp_path, demo_repo)
    graph = store.graph_snapshot
    held = [dict(entries.held) for entries in (store.records, graph.nodes, graph.objects)]
    assert all(type(line) is str for line in held[0].values())
    assert all(type(line) is str for line in held[2].values())
    loaded, opened = path.read_bytes(), []
    for owner in (os, io, builtins):
        real = owner.open

        def recording(file, *args, real=real, **kwargs):
            if not isinstance(file, int):  # a descriptor is one opened already
                opened.append(os.fspath(file))
            return real(file, *args, **kwargs)

        monkeypatch.setattr(owner, "open", recording)
    save_store(store, path, git_dir)
    monkeypatch.undo()
    assert len(opened) == 1 and os.path.basename(opened[0]).startswith(".tmp-repodoc-")
    assert path.read_bytes() == loaded
    # each entry is still held as the line loaded
    assert [entries.held for entries in (store.records, graph.nodes, graph.objects)] == held


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
    assert text.endswith("}\n")
    # one line per edge, node and record, and one for each section's start
    # and end
    graph = store.graph_snapshot
    members = len(graph.edges) + len(graph.nodes) + len(store.records)
    assert len(text.splitlines()) == members + 5
    assert_stored_fact_by_fact(store, path)
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
    [({"version": STORE_VERSION + 1, "records": {}, "graph": None}, f"version {STORE_VERSION + 1}"),
     ({"records": {}, "graph": None}, "version None")],
    ids=["a-later-version", "no-version"],
)
def test_store_version_mismatch_raises(tmp_path, payload, found):
    path = tmp_path / "store.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CorruptStoreError) as err:
        load_store(path)
    message = str(err.value)
    assert found in message and f"expected {STORE_VERSION}" in message
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
    report = generate_stale(graph, gateway, DocStore(), config, 1)

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
    report = generate_stale(graph, gateway, store, make_config(demo_repo), 1)
    assert report.generated == []
    assert report.skipped == sorted(DEMO_TOPO_ORDER)
    assert gateway.provider.prompts == []


def test_generate_all_regenerates_on_stale_hash(demo_repo):
    graph, store, _, _ = generate_repo(demo_repo)
    record = store.records["a.py/f"]
    store.records["a.py/f"] = record._replace(source_hash="0" * 64)
    gateway = make_gateway()
    report = generate_stale(graph, gateway, store, make_config(demo_repo), 1)
    assert report.generated == ["a.py/f"]
    assert len(gateway.provider.prompts) == 1


def test_only_objects_without_a_current_record_are_pending(demo_repo):
    graph, store, _, _ = generate_repo(demo_repo)
    changes = diff_objects(store.graph_snapshot, graph)
    # records are fresh, so nothing is pending
    assert stale_objects(graph, store, changes) == set()
    store.records.pop("a.py/f")
    store.records.pop("util/b.py/h")
    assert stale_objects(graph, store, changes) == {"a.py/f", "util/b.py/h"}
    gateway = make_gateway()
    report = generate_stale(graph, gateway, store, make_config(demo_repo), 1)
    assert sorted(report.generated) == ["a.py/f", "util/b.py/h"]
    assert len(gateway.provider.prompts) == 2


def test_failures_do_not_stop_the_run(demo_repo):
    graph = build_repo_graph(demo_repo)
    store = DocStore()
    gateway = make_gateway(frozenset({"f"}))
    report = generate_stale(graph, gateway, store, make_config(demo_repo), 1)
    assert not report.ok
    assert set(report.failures) == {"a.py/f"}
    assert "synthetic failure" in report.failures["a.py/f"]
    assert report.generated == [oid for oid in DEMO_TOPO_ORDER if oid != "a.py/f"]
    assert "a.py/f" not in store.records
    # dependents still generated, with the failed doc shown as None
    assert "a.py/g" in store.records
    (prompt,) = [p for p in gateway.provider.prompts if 'whose name is "g"' in p]
    assert "OBJ_NAME: f\nOBJ_PATH: a.py/f\nDocument: \nNone" in prompt


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
    report = generate_stale(graph, gateway, DocStore(), make_config(tmp_path), 2)
    assert report.ok
    assert sorted(report.generated) == ["m.py/a", "m.py/b"]


def test_single_job_generates_in_topological_order_on_the_labeled_repo(labeled_repo):
    graph, store, report, _ = generate_repo(labeled_repo)
    assert report.generated == topological_order(graph)
    # a pending subset: every other object by id
    only = set(sorted(graph.objects)[::2])
    for oid in only:
        del store.records[oid]
    report = generate_stale(graph, make_gateway(), store, make_config(labeled_repo), 1, only=only)
    assert report.generated == topological_order(graph, only)


def test_a_cycle_that_survived_pruning_is_an_internal_error(tmp_path):
    write_tree(tmp_path, {"m.py": "def a():\n    return 1\n\n\ndef b():\n    return 2\n"})
    graph = build_repo_graph(tmp_path)
    graph.edges = [ReferenceEdge("m.py/a", "m.py/b"), ReferenceEdge("m.py/b", "m.py/a")]
    with pytest.raises(InternalError, match="cycle survived pruning"):
        generate_stale(graph, make_gateway(), DocStore(), make_config(tmp_path), 1)


THREE_INDEPENDENT = "def a():\n    return 1\n\n\ndef b():\n    return 2\n\n\ndef c():\n    return 3\n"


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_run_finds_a_cycle_before_its_first_request(tmp_path, jobs):
    write_tree(tmp_path, {"m.py": THREE_INDEPENDENT})
    graph = build_repo_graph(tmp_path)
    graph.edges = [ReferenceEdge("m.py/a", "m.py/b"), ReferenceEdge("m.py/b", "m.py/a")]
    gateway = make_gateway()
    with pytest.raises(InternalError, match="cycle survived pruning"):
        generate_stale(graph, gateway, DocStore(), make_config(tmp_path), jobs)
    assert gateway.provider.prompts == []  # not even c, which is ready


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_run_blocks_the_interrupts_once_and_restores_them_once(tmp_path, monkeypatch, jobs):
    write_tree(tmp_path, {"m.py": THREE_INDEPENDENT})
    graph = build_repo_graph(tmp_path)
    calls, real = [], signal.pthread_sigmask

    def counting(how, mask):
        calls.append(how)
        return real(how, mask)

    monkeypatch.setattr(signal, "pthread_sigmask", counting)
    report = generate_stale(graph, make_gateway(), DocStore(), make_config(tmp_path), jobs)
    assert sorted(report.generated) == ["m.py/a", "m.py/b", "m.py/c"]
    assert calls == [signal.SIG_BLOCK, signal.SIG_SETMASK]


def test_single_job_follows_filtered_topological_order(tmp_path):
    # Only the pending objects are ordered, by their own edges and
    # containment: z is a prerequisite of b but not pending, so b comes
    # first by id, though the order of every object, c, z, b, filtered to
    # {b, c} would put c first. A pending callee still precedes its caller.
    source = "def b():\n    return z()\n\n\ndef c():\n    return 1\n\n\ndef z():\n    return 2\n"
    write_tree(tmp_path, {"m.py": source})
    graph, store, _, _ = generate_repo(tmp_path)
    only = {"m.py/b", "m.py/c"}
    for oid in only:
        store.records.pop(oid)
    report = generate_stale(graph, make_gateway(), store, make_config(tmp_path), 1, only=only)
    assert report.generated == topological_order(graph, only) == ["m.py/b", "m.py/c"]
    assert [oid for oid in topological_order(graph) if oid in only] == ["m.py/c", "m.py/b"]

    only = {"m.py/b", "m.py/z"}
    for oid in only:
        store.records.pop(oid)
    report = generate_stale(graph, make_gateway(), store, make_config(tmp_path), 1, only=only)
    assert report.generated == ["m.py/z", "m.py/b"]
