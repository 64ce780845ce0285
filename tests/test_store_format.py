"""The store's format: what a fresh store holds, and older stores.

Each ``tests/data/*_store_v<N>`` directory was written by the last release
that saved version N: ``repodoc generate`` on a fixture repo with the mock
provider, then ``repodoc eval --json``. It holds that store, its pages and
the eval output. ``order_store_v2/class_prompt.txt`` is the prompt that
release sent for class ``K`` of the order repo with child docs enabled.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repodoc.cli import main
from repodoc.doc_pipeline import STORE_VERSION, load_store, save_store
from repodoc.errors import CorruptStoreError
from repodoc.llm_gateway import MockProvider
from repodoc.source_model import blob_id

from .conftest import git
from .helpers import DEMO_FILES, ORDER_FILES, generate_repo, write_tree

DATA = Path(__file__).parent / "data"
V1_DIR = DATA / "demo_store_v1"
V3_DIR = DATA / "demo_store_v3"
STORE_REL = ".project_doc_record/project_hierarchy.json"
RECORD_KEYS = {"text", "source_hash", "model", "generated_at"}
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
    assert data["version"] == STORE_VERSION == 4
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
    saved in the current format, every record's metadata kept."""
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
        for key in ("source_hash", "model", "generated_at"):
            assert record[key] == old["records"][oid][key]
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
    record = load_store(path).records["a.py/f"]
    assert record.text == text
    assert (record.source_hash, record.model) == ("0" * 64, "base-4k")
    assert record.generated_at == "2026-01-01T00:00:00+00:00"


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
