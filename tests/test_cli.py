from __future__ import annotations

import json
import os

from repodoc.cli import main
from repodoc.llm_gateway import Gateway

from .conftest import git
from .helpers import DEMO_FILES, FailingProvider

STORE_REL = ".project_doc_record/project_hierarchy.json"


def run_cli(*argv, capsys=None):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


def test_generate_then_rerun(demo_repo, capsys):
    code, out, _ = run_cli("generate", "--repo", demo_repo, capsys=capsys)
    assert code == 0
    assert "generated 5 objects, skipped 0, 3 pages written" in out
    assert (demo_repo / STORE_REL).exists()
    assert (demo_repo / "markdown_docs" / "a.md").exists()

    code, out, _ = run_cli("generate", "--repo", demo_repo, capsys=capsys)
    assert code == 0
    assert "generated 0 objects, skipped 5, 0 pages written" in out


def test_a_noop_generate_leaves_the_store_alone(demo_repo, capsys):
    store = demo_repo / STORE_REL
    assert run_cli("generate", "--repo", demo_repo, capsys=capsys)[0] == 0
    saved = store.stat()
    assert run_cli("generate", "--repo", demo_repo, capsys=capsys)[0] == 0
    rerun = store.stat()
    assert (rerun.st_ino, rerun.st_mtime_ns) == (saved.st_ino, saved.st_mtime_ns)

    # a comment that shifts lines changes no doc and nothing in the snapshot
    a_py = demo_repo / "a.py"
    a_py.write_text("# shifted\n" + DEMO_FILES["a.py"], encoding="utf-8")
    code, out, _ = run_cli("generate", "--repo", demo_repo, capsys=capsys)
    assert code == 0 and "generated 0 objects" in out
    shifted = store.stat()
    assert (shifted.st_ino, shifted.st_mtime_ns) == (saved.st_ino, saved.st_mtime_ns)

    # swapping two functions changes no doc, but the snapshot's source order
    before = store.read_text(encoding="utf-8")
    f_def, g_def = "def f():\n    return 1\n", "def g(x):\n    return f() + x\n"
    swapped = DEMO_FILES["a.py"].replace(f"{f_def}\n\n{g_def}", f"{g_def}\n\n{f_def}")
    assert swapped != DEMO_FILES["a.py"]
    a_py.write_text(swapped, encoding="utf-8")
    code, out, _ = run_cli("generate", "--repo", demo_repo, capsys=capsys)
    assert code == 0 and "generated 0 objects" in out
    assert store.stat().st_ino != saved.st_ino
    assert store.read_text(encoding="utf-8") != before


def test_generate_drops_the_docs_of_deleted_objects(demo_repo, capsys):
    assert run_cli("generate", "--repo", demo_repo, capsys=capsys)[0] == 0
    (demo_repo / "util" / "b.py").unlink()
    assert run_cli("generate", "--repo", demo_repo, capsys=capsys)[0] == 0
    records = json.loads((demo_repo / STORE_REL).read_text(encoding="utf-8"))["records"]
    assert sorted(records) == ["a.py/C", "a.py/C/m", "a.py/f", "a.py/g"]
    code, out, _ = run_cli("eval", "--repo", demo_repo, "--json", capsys=capsys)
    assert code == 0
    assert json.loads(out)["errors"] == []


def test_generate_json_output(demo_repo, capsys):
    code, out, _ = run_cli("generate", "--repo", demo_repo, "--json", capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["generated"]) == 5
    assert payload["failures"] == {}
    assert "SUMMARY.md" in payload["pages_written"]
    assert payload["parse_errors"] == []


def test_generate_with_parse_error_exits_2(demo_repo, capsys):
    (demo_repo / "broken.py").write_text("def oops(:\n", encoding="utf-8")
    code, out, _ = run_cli("generate", "--repo", demo_repo, capsys=capsys)
    assert code == 2
    assert "parse errors:" in out
    assert "broken.py:1" in out
    # the healthy files were still documented
    assert "generated 5 objects" in out


def test_generate_provider_failure_exits_3(demo_repo, capsys, monkeypatch):
    monkeypatch.setattr(
        "repodoc.cli.build_gateway",
        lambda config: Gateway(FailingProvider(), retries=0),
    )
    code, out, _ = run_cli("generate", "--repo", demo_repo, capsys=capsys)
    assert code == 3
    assert "failures:" in out
    assert "synthetic outage" in out


def test_failures_outrank_parse_errors(demo_repo, capsys, monkeypatch):
    (demo_repo / "broken.py").write_text("def oops(:\n", encoding="utf-8")
    monkeypatch.setattr(
        "repodoc.cli.build_gateway",
        lambda config: Gateway(FailingProvider(), retries=0),
    )
    code, _, _ = run_cli("generate", "--repo", demo_repo, capsys=capsys)
    assert code == 3


def test_corrupt_store_exits_1(demo_repo, capsys):
    store = demo_repo / STORE_REL
    store.parent.mkdir(parents=True)
    store.write_text("{broken", encoding="utf-8")
    code, _, err = run_cli("generate", "--repo", demo_repo, capsys=capsys)
    assert code == 1
    assert "delete it and rerun generate" in err


def test_generate_refuses_while_lock_is_held(demo_repo, capsys):
    assert run_cli("generate", "--repo", demo_repo, capsys=capsys)[0] == 0
    with (demo_repo / "a.py").open("a", encoding="utf-8") as handle:
        handle.write("\n\ndef added():\n    return 2\n")
    outputs = [demo_repo / STORE_REL, *sorted((demo_repo / "markdown_docs").rglob("*"))]
    before = {p: p.read_bytes() for p in outputs if p.is_file()}
    lock = demo_repo / ".project_doc_record" / ".lock"
    lock.write_text(str(os.getpid()), encoding="ascii")  # a live holder

    code, _, err = run_cli("generate", "--repo", demo_repo, capsys=capsys)
    assert code == 1
    assert str(lock) in err
    assert {p: p.read_bytes() for p in outputs if p.is_file()} == before
    assert sorted((demo_repo / "markdown_docs").rglob("*")) == outputs[1:]
    assert sorted(p.name for p in lock.parent.iterdir()) == [".lock", "project_hierarchy.json"]
    assert lock.read_text(encoding="ascii") == str(os.getpid())


def test_bad_arguments_exit_1(demo_repo, capsys):
    code, _, err = run_cli("no-such-command", capsys=capsys)
    assert code == 1 and "error:" in err
    code, _, err = run_cli("graph", "--repo", demo_repo, "--format", "png", capsys=capsys)
    assert code == 1 and "error:" in err


def test_update_outside_git_exits_4(demo_repo, capsys):
    code, _, err = run_cli("update", "--repo", demo_repo, capsys=capsys)
    assert code == 4
    assert "not inside a Git repository" in err


def test_install_hook_outside_git_exits_4(demo_repo, capsys):
    code, _, err = run_cli("install-hook", "--repo", demo_repo, capsys=capsys)
    assert code == 4


def test_install_hook_and_update_inside_git(git_demo_repo, capsys):
    code, out, _ = run_cli("install-hook", "--repo", git_demo_repo, capsys=capsys)
    assert code == 0
    assert "installed pre-commit hook at" in out

    git(git_demo_repo, "add", "-A")
    code, out, _ = run_cli("update", "--repo", git_demo_repo, capsys=capsys)
    assert code == 0
    assert "Passed: documentation in sync (5 regenerated, 0 removed, 3 pages written)" in out

    code, out, _ = run_cli("update", "--repo", git_demo_repo, "--json", capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["run"]["generated"] == []
    assert payload["staged"]["added"] == ["a.py", "util/b.py"]


def test_publish_requires_store(demo_repo, capsys):
    code, _, err = run_cli("publish", "--repo", demo_repo, capsys=capsys)
    assert code == 1
    assert "no doc store found" in err


def test_publish_rebuilds_pages(demo_repo, capsys):
    run_cli("generate", "--repo", demo_repo, capsys=capsys)
    (demo_repo / "markdown_docs" / "a.md").unlink()
    code, out, _ = run_cli("publish", "--repo", demo_repo, capsys=capsys)
    assert code == 0
    assert "1 pages written" in out
    assert (demo_repo / "markdown_docs" / "a.md").exists()


def test_graph_json_and_dot(demo_repo, capsys):
    code, out, _ = run_cli("graph", "--repo", demo_repo, capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    edge_pairs = {(e["caller"], e["callee"]) for e in payload["edges"]}
    assert ("a.py/g", "a.py/f") in edge_pairs

    code, out, _ = run_cli("graph", "--repo", demo_repo, "--format", "dot", capsys=capsys)
    assert code == 0
    assert out.startswith("digraph")
    assert '"a.py/g" -> "a.py/f"' in out


def test_eval_text_json_and_recall(demo_repo, tmp_path, capsys):
    run_cli("generate", "--repo", demo_repo, capsys=capsys)
    code, out, _ = run_cli("eval", "--repo", demo_repo, capsys=capsys)
    assert code == 0
    assert "objects scored: 5" in out
    assert "format compliance: 1.0" in out
    assert "param accuracy (jaccard): 1.0" in out

    truth = tmp_path / "refs.json"
    truth.write_text(
        json.dumps({"a.py/g": ["a.py/f", "a.py/C/m", "util/b.py/h"]}), encoding="utf-8"
    )
    code, out, _ = run_cli(
        "eval", "--repo", demo_repo, "--refs", truth, capsys=capsys
    )
    assert code == 0
    assert "reference recall: 1.0" in out

    code, out, _ = run_cli(
        "eval", "--repo", demo_repo, "--json", "--param-metric", "precision", capsys=capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["aggregates"]["param_metric"] == "precision"
    assert payload["aggregates"]["param_accuracy"] == 1.0


def test_eval_requires_store(demo_repo, capsys):
    code, _, err = run_cli("eval", "--repo", demo_repo, capsys=capsys)
    assert code == 1
    assert "no doc store found" in err


def test_eval_rejects_an_unreadable_reference_file(demo_repo, tmp_path, capsys):
    run_cli("generate", "--repo", demo_repo, capsys=capsys)
    broken = tmp_path / "broken.json"
    broken.write_text('{"a.py/g": [', encoding="utf-8")
    listed = tmp_path / "listed.json"
    listed.write_text('["a.py/f"]', encoding="utf-8")
    for refs in (tmp_path / "missing.json", tmp_path, broken, listed):
        code, out, err = run_cli("eval", "--repo", demo_repo, "--refs", refs, capsys=capsys)
        assert code == 1, refs
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(refs) in err


def test_generate_accepts_jobs_flag(demo_repo, capsys):
    code, out, _ = run_cli("generate", "--repo", demo_repo, "--jobs", 2, capsys=capsys)
    assert code == 0
    assert "generated 5 objects" in out
