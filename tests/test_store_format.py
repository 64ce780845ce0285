"""The store's format: what a fresh store holds, and older stores.

Each ``tests/data/*_store_v<N>`` directory was written by the last release
that saved version N: ``repodoc generate`` on a fixture repo with the mock
provider, then ``repodoc eval --json``. It holds that store, its pages and
the eval output. ``order_store_v2/class_prompt.txt`` is the prompt that
release sent for class ``K`` of the order repo with child docs enabled.
``demo_cold_store.json`` is the store a cold ``repodoc generate`` of the
demo repo wrote at version 4, each ``generated_at`` emptied,
``demo_cold_store_v5.json`` the one it wrote at version 5,
``demo_cold_store_v6.json`` the one it wrote at version 6,
``demo_cold_store_v7.json`` the one it wrote at version 7 and
``demo_cold_store_v8.json`` the one it writes at version 8, each text left
to its page.
``demo_graph.json`` is what ``repodoc graph --format json`` printed for the
demo repo before the store's encoder moved into ``doc_pipeline``.
"""

from __future__ import annotations

import ast
import base64
import json
import os
import shutil
import sysconfig
from json.decoder import scanstring
from pathlib import Path

import pytest

import repodoc
from repodoc.change_tracker import git_dir
from repodoc.cli import main
from repodoc.doc_pipeline import (
    SNAPSHOT_DIGEST_NAME,
    STORE_VERSION,
    DocRecord,
    DocStore,
    LazyEntries,
    graph_dict,
    load_store,
    record_snapshot,
    save_store,
)
from repodoc.errors import CorruptStoreError
from repodoc.llm_gateway import MockProvider
from repodoc.markdown_publisher import write_site
from repodoc.project_graph import DIR, FILE, REPO, ROOT_ID, RepoGraph, TreeNode
from repodoc.source_model import CLASS, FUNCTION, CodeObject, blob_id

from .conftest import git
from .helpers import (
    DEMO_FILES,
    ORDER_FILES,
    assert_stored_fact_by_fact,
    build_repo_graph,
    generate_repo,
    write_tree,
)

DATA = Path(__file__).parent / "data"
V1_DIR = DATA / "demo_store_v1"
V3_DIR = DATA / "demo_store_v3"
COLD_STORE_V4 = DATA / "demo_cold_store.json"
COLD_STORE_V5 = DATA / "demo_cold_store_v5.json"
COLD_STORE_V6 = DATA / "demo_cold_store_v6.json"
COLD_STORE_V7 = DATA / "demo_cold_store_v7.json"
COLD_STORE = DATA / "demo_cold_store_v8.json"
STORE_REL = ".project_doc_record/project_hierarchy.json"
# and has_return when true, params when any, and source_hash when the
# object's record states another one or is missing
META_KEYS = {"parent_id"}


def record_hash(version: int, record) -> str:
    """The source hash of a stored record: the record itself when it states
    its hash alone, from version 8 on, the second of its text and hash from
    version 7 on, its ``source_hash`` before it."""
    if version > 7 and type(record) is str:
        return record
    if version > 6:
        assert type(record) is list and len(record) == 2
        return record[1]
    return record["source_hash"]


def digest_bytes(source_hash: str) -> bytes:
    """The bytes a stored source hash spells, in hex before version 6 and
    in unpadded base64url from it."""
    if len(source_hash) == 64:
        return bytes.fromhex(source_hash)
    assert len(source_hash) == 43
    return base64.urlsafe_b64decode(source_hash + "=")


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def pages(doc_dir: Path) -> dict[str, bytes]:
    return {
        p.relative_to(doc_dir).as_posix(): p.read_bytes()
        for p in doc_dir.rglob("*")
        if p.is_file()
    }


def release_repo(root: Path, files: dict[str, str], release: Path) -> Path:
    """A repo holding ``files`` and the store and pages of ``release``."""
    write_tree(root, files)
    (root / STORE_REL).parent.mkdir()
    shutil.copy(release / "project_hierarchy.json", root / STORE_REL)
    shutil.copytree(release / "markdown_docs", root / "markdown_docs")
    return root


@pytest.fixture
def sends(monkeypatch) -> list[str]:
    sent: list[str] = []
    real_send = MockProvider.send

    def counting_send(self, request):
        sent.append(request.prompt)
        return real_send(self, request)

    monkeypatch.setattr(MockProvider, "send", counting_send)
    return sent


def test_fresh_store_holds_only_what_is_read(labeled_repo, tmp_path):
    _, store, _, _ = generate_repo(labeled_repo)
    graph_nodes = store.graph_snapshot.nodes
    path = tmp_path / "store.json"
    save_store(store, path)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert set(data) == {"version", "records", "graph"}
    assert data["version"] == STORE_VERSION == 8
    records = data["records"]
    assert records and all(type(value) is str for r in records.values() for value in r)
    graph = data["graph"]
    assert set(graph) == {"nodes", "edges", "removed_edges"}
    assert graph["edges"] and graph["removed_edges"]  # the labeled repo has a call ring
    for edge in graph["edges"] + graph["removed_edges"]:
        assert set(edge) == {"caller", "callee"}
    metas = [node["meta"] for node in graph["nodes"].values() if "meta" in node]
    assert len(metas) == len(records)
    for meta in metas:
        # each default is left out, and so is each hash, which the object's
        # current record states
        assert META_KEYS <= set(meta) <= META_KEYS | {"has_return", "params"}
        assert meta.get("has_return", True) is True and meta.get("params", ["p"]) != []
    assert {"has_return", "params"} <= {key for meta in metas for key in meta}
    for record in records.values():
        # each hash is 32 bytes in base64url
        assert len(digest_bytes(record_hash(STORE_VERSION, record))) == 32
    for node_id, node in graph["nodes"].items():
        # children by name, left out when there are none
        assert node.get("children", ["c"]) != []
        prefix = "" if node_id == "." else node_id + "/"
        assert all(prefix + name in graph["nodes"] for name in node.get("children", []))
        if node.get("node_kind") == "File":
            # the blob id of the parsed text, which the hook compares
            source = (labeled_repo / node_id).read_bytes()
            assert set(node) - {"children"} == {"node_kind", "blob"}
            assert node["blob"] == blob_id(source)
        elif "meta" in node and "node_kind" not in node:
            # a function's kind is the default of an object's node
            assert graph_nodes[node_id].node_kind == FUNCTION
        else:
            assert set(node) - {"meta", "children"} == {"node_kind"}
            assert node["node_kind"] != FUNCTION


def assert_migrated_without_a_request(repo: Path, release: Path, capsys, sends) -> None:
    """``publish``, ``eval`` and ``generate`` on the store of an older release
    send nothing and change no page and no eval output; the store is then
    saved in the current format, every record's source hash kept, and each
    text left to its page."""
    old = json.loads((release / "project_hierarchy.json").read_text(encoding="utf-8"))
    eval_out = (release / "eval.json").read_text(encoding="utf-8")
    doc_dir = repo / "markdown_docs"
    before = pages(doc_dir)

    code, out = run_cli(capsys, "publish", "--repo", repo, "--json")
    assert code == 0 and json.loads(out)["pages_written"] == []

    code, out = run_cli(capsys, "eval", "--repo", repo, "--json")
    assert code == 0
    assert out == eval_out

    code, out = run_cli(capsys, "generate", "--repo", repo, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["generated"] == [] and report["pages_written"] == []
    assert sends == []
    assert pages(doc_dir) == before

    saved = json.loads((repo / STORE_REL).read_text(encoding="utf-8"))
    assert saved["version"] == STORE_VERSION
    assert set(saved["records"]) == set(old["records"])
    for oid, record in saved["records"].items():
        # the same SHA-256, whatever form each version writes it in
        old_hash = record_hash(old["version"], old["records"][oid])
        assert digest_bytes(record_hash(STORE_VERSION, record)) == digest_bytes(old_hash)
    assert all(type(record) is str for record in saved["records"].values())
    # the migrated store reads back as it was written, each text from its
    # page, so without the pages publish writes nothing
    code, out = run_cli(capsys, "eval", "--repo", repo, "--json")
    assert out == eval_out
    shutil.rmtree(doc_dir)
    code, out = run_cli(capsys, "publish", "--repo", repo, "--json")
    assert code == 1 and not doc_dir.exists()


def test_v1_store_is_migrated_without_a_request(tmp_path, capsys, sends):
    repo = release_repo(tmp_path / "demo", DEMO_FILES, V1_DIR)
    assert json.loads((repo / STORE_REL).read_text(encoding="utf-8"))["version"] == 1
    assert_migrated_without_a_request(repo, V1_DIR, capsys, sends)


@pytest.mark.parametrize(
    "name, files", [("demo", DEMO_FILES), ("order", ORDER_FILES)], ids=["demo", "order"]
)
def test_v2_store_is_migrated_without_a_request(tmp_path, capsys, sends, name, files):
    release = DATA / f"{name}_store_v2"
    repo = release_repo(tmp_path / name, files, release)
    assert json.loads((repo / STORE_REL).read_text(encoding="utf-8"))["version"] == 2
    assert_migrated_without_a_request(repo, release, capsys, sends)


def test_v3_store_is_migrated_without_a_request(tmp_path, capsys, sends):
    repo = release_repo(tmp_path / "demo", DEMO_FILES, V3_DIR)
    assert json.loads((repo / STORE_REL).read_text(encoding="utf-8"))["version"] == 3
    assert_migrated_without_a_request(repo, V3_DIR, capsys, sends)


def assert_cold_store_migrated(demo_repo: Path, old_store: Path, capsys, sends) -> None:
    """The store a cold ``generate`` of the demo repo wrote at an older
    version publishes and evaluates as a fresh store does, and ``generate``
    on it sends nothing and writes the fresh store's bytes."""
    # a fresh store's pages and eval output, then the old store's
    assert run_cli(capsys, "generate", "--repo", demo_repo)[0] == 0
    doc_dir = demo_repo / "markdown_docs"
    fresh_pages = pages(doc_dir)
    fresh_eval = run_cli(capsys, "eval", "--repo", demo_repo, "--json")
    sends.clear()
    shutil.rmtree(doc_dir)
    shutil.copy(old_store, demo_repo / STORE_REL)

    code, out = run_cli(capsys, "publish", "--repo", demo_repo, "--json")
    assert code == 0 and pages(doc_dir) == fresh_pages
    assert run_cli(capsys, "eval", "--repo", demo_repo, "--json") == fresh_eval
    code, out = run_cli(capsys, "generate", "--repo", demo_repo, "--json")
    report = json.loads(out)
    assert code == 0 and report["generated"] == [] and report["pages_written"] == []
    assert sends == [] and pages(doc_dir) == fresh_pages
    assert (demo_repo / STORE_REL).read_bytes() == COLD_STORE.read_bytes()


def test_v4_store_is_migrated_without_a_request(demo_repo, capsys, sends):
    assert_cold_store_migrated(demo_repo, COLD_STORE_V4, capsys, sends)


def test_v5_store_is_migrated_without_a_request(demo_repo, capsys, sends):
    # the hex source hashes and child ids of version 5 become base64url and
    # names, so that the same sources still match every record
    assert json.loads(COLD_STORE_V5.read_text(encoding="utf-8"))["version"] == 5
    assert_cold_store_migrated(demo_repo, COLD_STORE_V5, capsys, sends)


def test_v6_store_is_migrated_without_a_request(demo_repo, capsys, sends):
    # each node's hash that its record states, each function's kind and
    # each record's keys are left out
    assert json.loads(COLD_STORE_V6.read_text(encoding="utf-8"))["version"] == 6
    assert_cold_store_migrated(demo_repo, COLD_STORE_V6, capsys, sends)


def test_v7_store_is_migrated_without_a_request(demo_repo, capsys, sends):
    # every text, which version 7 held, is left to its page
    assert json.loads(COLD_STORE_V7.read_text(encoding="utf-8"))["version"] == 7
    assert_cold_store_migrated(demo_repo, COLD_STORE_V7, capsys, sends)


def test_the_hook_on_a_v5_store_sends_nothing_for_a_comment(git_demo_repo, capsys, sends):
    repo = git_demo_repo
    assert main(["generate", "--repo", str(repo)]) == 0
    fresh_pages = pages(repo / "markdown_docs")
    shutil.copy(COLD_STORE_V5, repo / STORE_REL)
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", "release 5")
    sends.clear()
    (repo / "a.py").write_text("# a comment\n" + DEMO_FILES["a.py"], encoding="utf-8")
    git(repo, "add", "a.py")
    capsys.readouterr()
    assert main(["update", "--repo", str(repo), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["run"]["generated"] == [] and sends == []
    assert pages(repo / "markdown_docs") == fresh_pages
    # the upgrade is staged with the edit, and every record kept
    staged = json.loads(git(repo, "show", f":{STORE_REL}"))
    assert staged["version"] == STORE_VERSION
    assert staged["records"] == json.loads(COLD_STORE.read_text(encoding="utf-8"))["records"]


def test_first_update_on_a_v3_store_rebuilds_and_the_next_reuses(git_demo_repo, capsys):
    repo = release_repo(git_demo_repo, DEMO_FILES, V3_DIR)
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", "release 3")

    def staged_update(text: str) -> dict:
        (repo / "a.py").write_text(text, encoding="utf-8")
        git(repo, "add", "a.py")
        capsys.readouterr()
        assert main(["update", "--repo", str(repo), "--json"]) == 0
        git(repo, "commit", "-qm", "edit")
        return json.loads(capsys.readouterr().out)

    # a version-3 snapshot names no blob id, so every file is parsed
    report = staged_update(DEMO_FILES["a.py"].replace("return 1", "return 2"))
    assert report["reused_files"] == 0 and report["parsed_files"] == 2
    assert report["run"]["generated"] == ["a.py/f"]
    saved = json.loads(git(repo, "show", f"HEAD:{STORE_REL}"))
    assert saved["version"] == STORE_VERSION
    report = staged_update(DEMO_FILES["a.py"].replace("return 1", "return 3"))
    assert report["reused_files"] == 1 and report["parsed_files"] == 1


@pytest.mark.parametrize(
    "case", ["git", "outside git", "digest deleted", "byte changed", "v3 fixture", "no git_dir"]
)
def test_a_store_is_recorded_only_when_the_git_dir_holds_its_digest(demo_repo, capsys, case):
    if case != "outside git":
        git(demo_repo, "init", "-q")
    if case == "v3 fixture":
        release_repo(demo_repo, {}, V3_DIR)
    else:
        assert main(["generate", "--repo", str(demo_repo)]) == 0
    path, repo_git = demo_repo / STORE_REL, git_dir(demo_repo)
    if case == "digest deleted":
        (repo_git / SNAPSHOT_DIGEST_NAME).unlink()
    elif case == "byte changed":
        path.write_bytes(path.read_bytes()[:-1] + b" ")
    elif case == "v3 fixture":
        # even a recorded digest of its bytes lends no trust to a store
        # that save_store did not write
        digest = load_store(path, repo_git).digest
        (repo_git / SNAPSHOT_DIGEST_NAME).write_text(digest + "\n", encoding="utf-8")
    store = load_store(path, None if case == "no git_dir" else repo_git)
    assert store.graph_snapshot is not None
    assert store.recorded is (case == "git")


def test_cold_generate_pages_match_the_version_1_release(demo_repo, capsys, sends):
    code, _ = run_cli(capsys, "generate", "--repo", demo_repo)
    assert code == 0
    assert len(sends) == 5
    assert pages(demo_repo / "markdown_docs") == pages(V1_DIR / "markdown_docs")


def _v1_record(**sections) -> dict:
    record = {
        "id": "a.py/f",
        "kind": "Function",
        "name_header": "**f**: The function of f.",
        "param_label": "parameters",
        "param_section": [],
        "param_tail": "",
        "code_description": "Body.",
        "note": "Careful.",
        "output_example": None,
        "source_hash": "0" * 64,
        "model": "base-4k",
        "generated_at": "2026-01-01T00:00:00+00:00",
    }
    record.update(sections)
    return record


@pytest.mark.parametrize(
    "sections, text",
    [
        (
            {"output_example": None},
            "**f**: The function of f.\n\n**parameters**:\n\n"
            "**Code Description**: Body.\n\n**Note**: Careful.",
        ),
        (
            {"output_example": "", "note": ""},
            "**f**: The function of f.\n\n**parameters**:\n\n**Code Description**: Body.",
        ),
        (
            {
                "name_header": "",
                "param_label": "Attributes",
                "param_tail": "Two of them.",
                "param_section": [["x", "first."], ["y", "second."]],
                "output_example": "3",
            },
            "**Attributes**: Two of them.\n- `x`: first.\n- `y`: second.\n\n"
            "**Code Description**: Body.\n\n**Note**: Careful.\n\n**Output Example**: 3",
        ),
    ],
    ids=["no-output-example", "empty-sections", "tail-bullets-and-example"],
)
def test_v1_record_sections_become_their_rendered_text(tmp_path, sections, text):
    path = tmp_path / "store.json"
    payload = {"version": 1, "records": {"a.py/f": _v1_record(**sections)}, "graph": None}
    path.write_text(json.dumps(payload), encoding="utf-8")
    # the hex digest of 32 zero bytes becomes their base64url
    assert load_store(path).records["a.py/f"] == DocRecord(text, "A" * 43)


@pytest.mark.parametrize(
    "record",
    [
        {"text": "t", "source_hash": "h", "model": "m"},
        {"text": "t", "source_hash": "h", "model": "m", "generated_at": "g", "kind": "Function"},
        _v1_record(),
    ],
    ids=["missing-key", "unknown-key", "version-1-record-in-version-2"],
)
def test_version_2_record_with_other_keys_is_refused(tmp_path, record):
    path = tmp_path / "store.json"
    payload = {"version": 2, "records": {"a.py/f": record}, "graph": None}
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CorruptStoreError, match="delete it and rerun generate"):
        load_store(path)


def test_a_cold_generate_writes_the_store_of_the_fixture(demo_repo, capsys):
    # twice, from nothing: the same sources and answers give the same bytes
    for _ in range(2):
        assert run_cli(capsys, "generate", "--repo", demo_repo)[0] == 0
        assert (demo_repo / STORE_REL).read_bytes() == COLD_STORE.read_bytes()
        shutil.rmtree((demo_repo / STORE_REL).parent)
        shutil.rmtree(demo_repo / "markdown_docs")


def test_the_graph_command_prints_the_graph_of_the_fixture(demo_repo, capsys):
    code, out = run_cli(capsys, "graph", "--repo", demo_repo, "--format", "json")
    assert code == 0
    assert out.encode("utf-8") == (DATA / "demo_graph.json").read_bytes()


def test_only_doc_pipeline_spells_the_keys_of_the_store():
    """The store's format lives in one module: no other holds a string that
    is one of the keys its snapshot alone uses."""
    keys = {"meta", "has_return", "parent_id", "source_hash", "removed_edges"}
    found = []
    for path in sorted(Path(repodoc.__file__).parent.glob("*.py")):
        if path.name == "doc_pipeline.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in keys:
                found.append(f"{path.name}:{node.lineno}: {node.value}")
    assert found == []


STRANGE_STRINGS = [
    "",
    "plain",
    "é ü 中文 😀",
    'a "quote", a \\ backslash and a \\" pair',
    "controls \x00\x01\x1f\x7f\t\n\r\x08\x0c",
    "separators \u2028 \u2029",
    "a lone \ud800 surrogate",
]


def utf8_line(key: str, value) -> bytes:
    """What ``json.dumps`` gives the member ``key: value``, compact, with
    sorted keys and ``ensure_ascii`` off, in UTF-8, each lone surrogate
    written as its JSON escape."""
    encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True, ensure_ascii=False).encode
    return f"{encode(key)}:{encode(value)}".encode("utf-8", "backslashreplace")


def test_record_lines_are_those_of_a_full_encode(tmp_path):
    records = {
        f"m.py/{value}{index}": DocRecord(value, value[::-1])
        for index, value in enumerate(STRANGE_STRINGS)
    }
    path = tmp_path / "store.json"
    save_store(DocStore(records=dict(records)), path)
    lines = path.read_bytes().split(b"\n")
    assert lines[0] == b'{"graph":null,"records":{'
    assert lines[-2:] == [b'},"version":%d}' % STORE_VERSION, b""]
    assert [line.removesuffix(b",") for line in lines[1:-2]] == [
        utf8_line(oid, list(records[oid])) for oid in sorted(records)
    ]
    assert load_store(path).records == records


def test_node_lines_are_those_of_a_full_encode(tmp_path):
    # files with and without a blob and a parse error, each holding one
    # object with a record of its hash, of another or none, and all but one
    # with params; every id, name, param, hash and error a strange string
    nodes = {ROOT_ID: TreeNode(ROOT_ID, REPO, ["d"]), "d": TreeNode("d", DIR)}
    objects, records = {}, {}
    for index, value in enumerate(STRANGE_STRINGS):
        file_id, kind = f"d/{value}{index}.py", (CLASS, FUNCTION)[index % 2]
        blob = None if index == 0 else blob_id(value.encode("utf-8", "surrogatepass"))
        oid = f"{file_id}/{value}"
        nodes["d"].children.append(file_id)
        nodes[file_id] = TreeNode(file_id, FILE, [oid], blob, value if index % 3 else None)
        nodes[oid] = TreeNode(oid, kind)
        params = () if index == 1 else (value, value[::-1])
        objects[oid] = CodeObject(oid, kind, value, (0, 0), "", params, index % 2 == 0, file_id, value)
        if index % 3 < 2:
            records[oid] = DocRecord(value, (value, value + "!")[index % 3])
    graph = RepoGraph(nodes, objects, [], [])
    path = tmp_path / "store.json"
    store = DocStore(records=dict(records), graph_snapshot=graph)
    save_store(store, path)
    lines = path.read_bytes().split(b"\n")
    start, end = lines.index(b'],"nodes":{') + 1, lines.index(b'},"removed_edges":[')
    assert [scanstring(line.decode("utf-8"), 1)[0] for line in lines[start:end]] == sorted(nodes)
    assert sum(b'"source_hash":' in line for line in lines[start:end]) == len(objects) - 3
    assert_stored_fact_by_fact(store, path)


@pytest.mark.skipif(
    not os.environ.get("REPODOC_TEST_STDLIB_CUTS"),
    reason="the whole stdlib takes seconds to parse and save; set REPODOC_TEST_STDLIB_CUTS=1",
)
def test_the_store_of_the_whole_stdlib_holds_each_fact(tmp_path):
    # the interpreter's own stdlib, less its test suites and what is not
    # the stdlib's own code; every other object has a record of its source,
    # so node lines both state and leave out the source hash
    root = Path(sysconfig.get_paths()["stdlib"])
    ignore = ("site-packages", "test", "tests", "idle_test", "lib2to3", "turtledemo", "ensurepip")
    graph = build_repo_graph(root, ignore)
    assert len(graph.objects) > 10_000
    records = {
        oid: DocRecord(f"**{graph.objects[oid].name}**: a doc.", graph.objects[oid].source_hash)
        for oid in sorted(graph.objects)[::2]
    }
    store = DocStore(records=records, graph_snapshot=graph)
    path = tmp_path / "store.json"
    save_store(store, path)
    assert_stored_fact_by_fact(store, path)
    # and with each text left to its page: every page gives back every
    # record of its file, decoded whole or lazily
    doc_dir, git_dir = tmp_path / "docs", tmp_path / "git"
    write_site(graph, store, doc_dir)
    save_store(store, path, git_dir, frozenset())
    record_snapshot(store, git_dir)
    assert all(type(line) is str for line in json.loads(path.read_bytes())["records"].values())
    whole, lazy = load_store(path, None, doc_dir), load_store(path, git_dir, doc_dir)
    assert whole.pages_at_rest == {graph.file_of(oid) for oid in records} and whole.unsplit == []
    lazy.read_pages(graph.files)
    assert whole.records == dict(lazy.records) == records


def test_a_record_value_that_is_not_a_string_is_refused(tmp_path):
    path = tmp_path / "store.json"
    record = {"text": "t", "source_hash": "h", "model": 4, "generated_at": "g"}
    path.write_text(json.dumps({"version": 4, "records": {"a.py/f": record}, "graph": None}), encoding="utf-8")
    with pytest.raises(CorruptStoreError, match="delete it and rerun generate"):
        load_store(path)


@pytest.mark.parametrize(
    "version, record",
    [
        (3, {"text": "t", "source_hash": "h", "model": "m"}),
        (4, {"text": "t", "source_hash": "h", "model": "m", "generated_at": "g", "kind": "Function"}),
        (4, {"text": "t", "source_hash": "h"}),
        (5, {"text": "t"}),
        (5, {"text": "t", "source_hash": "h", "model": "m"}),
        (5, {"text": "t", "source_hash": "h", "model": "m", "generated_at": "g"}),
        (5, {"text": 4, "source_hash": "h"}),
        (5, ["t", "h"]),
        (6, ["t", "h"]),
        (7, {"text": "t", "source_hash": "h"}),
        (7, ["t"]),
        (7, ["t", "h", "x"]),
        (7, ["t", 4]),
    ],
    ids=[
        "v3-missing-key",
        "v4-unknown-key",
        "v4-record-in-v5-form",
        "v5-missing-key",
        "v5-model",
        "v4-record-in-v5",
        "v5-value-not-a-string",
        "v5-record-not-an-object",
        "v6-record-not-an-object",
        "v7-record-not-a-list",
        "v7-missing-hash",
        "v7-extra-value",
        "v7-hash-not-a-string",
    ],
)
def test_a_record_its_version_does_not_hold_is_refused(tmp_path, version, record):
    path = tmp_path / "store.json"
    payload = {"version": version, "records": {"a.py/f": record}, "graph": None}
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CorruptStoreError, match="delete it and rerun generate"):
        load_store(path)


def test_an_object_whose_hash_no_line_states_is_refused(tmp_path):
    path = tmp_path / "store.json"
    nodes = {"a.py/f": {"meta": {"parent_id": "a.py"}}}
    graph = {"nodes": nodes, "edges": [], "removed_edges": []}
    path.write_text(json.dumps({"version": STORE_VERSION, "records": {}, "graph": graph}), encoding="utf-8")
    with pytest.raises(CorruptStoreError, match="delete it and rerun generate"):
        load_store(path)


def test_a_doc_in_another_language_is_stored_as_its_utf8(tmp_path, demo_repo):
    _, store, _, _ = generate_repo(demo_repo)
    doc = "**f**: 计算并返回一个值。"
    store.records["a.py/f"] = store.records["a.py/f"]._replace(text=doc)
    # a provider may answer with half of a surrogate pair
    store.records["a.py/g"] = store.records["a.py/g"]._replace(text="a lone \ud83d half")
    path, git_dir = tmp_path / "store.json", tmp_path / "git"
    git_dir.mkdir()
    save_store(store, path, git_dir)
    record_snapshot(store, git_dir)
    raw = path.read_bytes()
    # three bytes a character, not the six of an escape; UTF-8 cannot
    # encode a lone surrogate, so it keeps its escape
    assert doc.encode("utf-8") in raw and b"\\u8ba1" not in raw
    assert b"a lone \\ud83d half" in raw
    lazy, whole = load_store(path, git_dir), load_store(path)
    assert isinstance(lazy.records, LazyEntries)
    assert dict(lazy.records) == whole.records == store.records
    assert graph_dict(lazy.graph_snapshot) == graph_dict(whole.graph_snapshot)
    save_store(lazy, path, git_dir)
    assert path.read_bytes() == raw


def test_a_clone_takes_each_hash_its_node_leaves_out_from_the_record(
    git_demo_repo, tmp_path, capsys, sends
):
    repo = git_demo_repo
    assert run_cli(capsys, "generate", "--repo", repo)[0] == 0
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", "docs")
    clone = tmp_path / "clone"
    git(tmp_path, "clone", "-q", str(repo), str(clone))
    stored = (clone / STORE_REL).read_bytes()
    assert b'"source_hash":' not in stored
    # a fresh clone records no digest, so its store is decoded whole, each
    # text read from the page the clone checked out
    store = load_store(clone / STORE_REL, git_dir(clone), clone / "markdown_docs")
    assert not store.recorded
    objects = store.graph_snapshot.objects
    assert len(objects) == 5
    assert all(objects[oid].source_hash == store.records[oid].source_hash for oid in objects)
    sends.clear()
    code, out = run_cli(capsys, "generate", "--repo", clone, "--json")
    report = json.loads(out)
    assert code == 0 and report["generated"] == [] and report["pages_written"] == []
    assert sends == []
    assert (clone / STORE_REL).read_bytes() == stored
