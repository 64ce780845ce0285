"""The store's format: what a fresh store holds, and older stores.

Each ``tests/data/*_store_v<N>`` directory was written by the last release
that saved version N: ``repodoc generate`` on a fixture repo with the mock
provider, then ``repodoc eval --json``. It holds that store, its pages and
the eval output. ``order_store_v2/class_prompt.txt`` is the prompt that
release sent for class ``K`` of the order repo with child docs enabled.
``demo_cold_store.json`` is the store a cold ``repodoc generate`` of the
demo repo wrote at version 4, each ``generated_at`` emptied, and
``demo_cold_store_v5.json`` the one it writes at version 5.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repodoc.change_tracker import git_dir
from repodoc.cli import main
from repodoc.doc_pipeline import (
    SNAPSHOT_DIGEST_NAME,
    STORE_VERSION,
    DocRecord,
    DocStore,
    load_store,
    save_store,
)
from repodoc.errors import CorruptStoreError
from repodoc.llm_gateway import MockProvider
from repodoc.project_graph import DIR, FILE, REPO, ROOT_ID, RepoGraph, TreeNode
from repodoc.source_model import CLASS, FUNCTION, CodeObject, blob_id

from .conftest import git
from .helpers import DEMO_FILES, ORDER_FILES, generate_repo, write_tree

DATA = Path(__file__).parent / "data"
V1_DIR = DATA / "demo_store_v1"
V3_DIR = DATA / "demo_store_v3"
COLD_STORE_V4 = DATA / "demo_cold_store.json"
COLD_STORE = DATA / "demo_cold_store_v5.json"
STORE_REL = ".project_doc_record/project_hierarchy.json"
RECORD_KEYS = {"text", "source_hash"}
META_KEYS = {"params", "has_return", "parent_id", "source_hash"}


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
    path = tmp_path / "store.json"
    save_store(store, path)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert set(data) == {"version", "records", "graph"}
    assert data["version"] == STORE_VERSION == 5
    assert data["records"] and all(set(r) == RECORD_KEYS for r in data["records"].values())
    graph = data["graph"]
    assert set(graph) == {"nodes", "edges", "removed_edges"}
    assert graph["edges"] and graph["removed_edges"]  # the labeled repo has a call ring
    for edge in graph["edges"] + graph["removed_edges"]:
        assert set(edge) == {"caller", "callee"}
    metas = [node["meta"] for node in graph["nodes"].values() if "meta" in node]
    assert len(metas) == len(data["records"])
    assert all(set(meta) == META_KEYS for meta in metas)
    for node_id, node in graph["nodes"].items():
        if node["node_kind"] == "File":
            # the blob id of the parsed text, which the hook compares
            source = (labeled_repo / node_id).read_bytes()
            assert set(node) == {"node_kind", "children", "blob"}
            assert node["blob"] == blob_id(source)
        else:
            assert set(node) - {"meta"} == {"node_kind", "children"}


def assert_migrated_without_a_request(repo: Path, release: Path, capsys, sends) -> None:
    """``publish``, ``eval`` and ``generate`` on the store of an older release
    send nothing and change no page and no eval output; the store is then
    saved in the current format, every record's source hash kept."""
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
        assert set(record) == RECORD_KEYS
        assert record["source_hash"] == old["records"][oid]["source_hash"]
    # the migrated store reads back as it was written
    code, out = run_cli(capsys, "eval", "--repo", repo, "--json")
    assert out == eval_out
    shutil.rmtree(doc_dir)
    code, out = run_cli(capsys, "publish", "--repo", repo, "--json")
    assert code == 0 and pages(doc_dir) == before


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


def test_v4_store_is_migrated_without_a_request(demo_repo, capsys, sends):
    # a fresh store's pages and eval output, then the v4 store's
    assert run_cli(capsys, "generate", "--repo", demo_repo)[0] == 0
    doc_dir = demo_repo / "markdown_docs"
    fresh_pages = pages(doc_dir)
    fresh_eval = run_cli(capsys, "eval", "--repo", demo_repo, "--json")
    sends.clear()
    shutil.rmtree(doc_dir)
    shutil.copy(COLD_STORE_V4, demo_repo / STORE_REL)

    code, out = run_cli(capsys, "publish", "--repo", demo_repo, "--json")
    assert code == 0 and pages(doc_dir) == fresh_pages
    assert run_cli(capsys, "eval", "--repo", demo_repo, "--json") == fresh_eval
    code, out = run_cli(capsys, "generate", "--repo", demo_repo, "--json")
    assert code == 0 and json.loads(out)["generated"] == []
    assert sends == []
    assert (demo_repo / STORE_REL).read_bytes() == COLD_STORE.read_bytes()


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
    assert load_store(path).records["a.py/f"] == DocRecord(text, "0" * 64)


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


STRANGE_STRINGS = [
    "",
    "plain",
    "é ü 中文 😀",
    'a "quote", a \\ backslash and a \\" pair',
    "controls \x00\x01\x1f\x7f\t\n\r\x08\x0c",
    "separators \u2028 \u2029",
    "a lone \ud800 surrogate",
]


def test_record_lines_are_those_of_a_full_encode(tmp_path):
    records = {
        f"m.py/{value}{index}": DocRecord(value, value[::-1])
        for index, value in enumerate(STRANGE_STRINGS)
    }
    path = tmp_path / "store.json"
    save_store(DocStore(records=dict(records)), path)
    lines = path.read_bytes().split(b"\n")
    assert lines[0] == b'{"graph":null,"records":{' and lines[-2:] == [b'},"version":5}', b""]
    encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode
    assert [line.removesuffix(b",") for line in lines[1:-2]] == [
        f"{encode(oid)}:{encode(records[oid]._asdict())}".encode("ascii") for oid in sorted(records)
    ]
    assert load_store(path).records == records


def test_node_lines_are_those_of_a_full_encode(tmp_path):
    # files with and without a blob and a parse error, each holding one
    # object; every id, name, param and error a strange string
    nodes = {ROOT_ID: TreeNode(ROOT_ID, REPO, ["d"]), "d": TreeNode("d", DIR)}
    objects = {}
    for index, value in enumerate(STRANGE_STRINGS):
        file_id, kind = f"d/{value}{index}.py", (CLASS, FUNCTION)[index % 2]
        blob = None if index == 0 else blob_id(value.encode("utf-8", "surrogatepass"))
        oid = f"{file_id}/{value}"
        nodes["d"].children.append(file_id)
        nodes[file_id] = TreeNode(file_id, FILE, [oid], blob, value if index % 3 else None)
        nodes[oid] = TreeNode(oid, kind)
        params = (value, value[::-1])
        objects[oid] = CodeObject(oid, kind, value, (0, 0), "", params, index % 2 == 0, file_id, value)
    graph = RepoGraph(nodes, objects, [], [])
    path = tmp_path / "store.json"
    save_store(DocStore(graph_snapshot=graph), path)
    lines = path.read_bytes().split(b"\n")
    start, end = lines.index(b'],"nodes":{') + 1, lines.index(b'},"removed_edges":[')
    encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode
    assert [line.removesuffix(b",") for line in lines[start:end]] == [
        f"{encode(nid)}:{encode(graph.node_entry(nid))}".encode("ascii") for nid in sorted(nodes)
    ]
    assert load_store(path).graph_snapshot.to_dict() == graph.to_dict()


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
    ],
)
def test_a_record_its_version_does_not_hold_is_refused(tmp_path, version, record):
    path = tmp_path / "store.json"
    payload = {"version": version, "records": {"a.py/f": record}, "graph": None}
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(CorruptStoreError, match="delete it and rerun generate"):
        load_store(path)
