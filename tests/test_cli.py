from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repodoc.change_tracker import LOCK_NAME, _update_lock
from repodoc.cli import main
from repodoc.doc_pipeline import SNAPSHOT_DIGEST_NAME
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
    # outside Git the lock lives beside the store
    lock = demo_repo / ".project_doc_record" / LOCK_NAME

    with _update_lock(lock.parent):
        code, _, err = run_cli("generate", "--repo", demo_repo, capsys=capsys)
    assert code == 1
    assert str(lock) in err
    assert {p: p.read_bytes() for p in outputs if p.is_file()} == before
    assert sorted((demo_repo / "markdown_docs").rglob("*")) == outputs[1:]
    assert sorted(p.name for p in lock.parent.iterdir()) == ["project_hierarchy.json", LOCK_NAME]
    assert lock.read_bytes() == b""


def test_publish_refuses_while_lock_is_held(git_demo_repo, capsys):
    assert run_cli("generate", "--repo", git_demo_repo, capsys=capsys)[0] == 0
    page = git_demo_repo / "markdown_docs" / "a.md"
    page.unlink()
    with _update_lock(git_demo_repo / ".git"):
        code, _, err = run_cli("publish", "--repo", git_demo_repo, capsys=capsys)
    assert code == 1
    assert str(git_demo_repo / ".git" / LOCK_NAME) in err
    assert not page.exists()


def test_runs_leave_nothing_but_docs_and_store_in_the_work_tree(git_demo_repo, capsys):
    git(git_demo_repo, "add", "-A")
    git(git_demo_repo, "commit", "-q", "-m", "sources")
    assert run_cli("generate", "--repo", git_demo_repo, capsys=capsys)[0] == 0
    with (git_demo_repo / "a.py").open("a", encoding="utf-8") as handle:
        handle.write("\n\ndef added():\n    return 2\n")
    git(git_demo_repo, "add", "a.py")
    assert run_cli("update", "--repo", git_demo_repo, capsys=capsys)[0] == 0
    assert run_cli("publish", "--repo", git_demo_repo, capsys=capsys)[0] == 0
    status = git(git_demo_repo, "status", "--porcelain", "--ignored").splitlines()
    pages = ["markdown_docs/SUMMARY.md", "markdown_docs/a.md", "markdown_docs/util/b.md"]
    assert sorted(line[3:] for line in status) == sorted(["a.py", STORE_REL, *pages])


def test_a_doc_dir_at_the_root_is_refused_before_anything_is_written(git_demo_repo, capsys):
    (git_demo_repo / "README.md").write_text("# demo\n", encoding="utf-8")
    (git_demo_repo / "notes").mkdir()
    (git_demo_repo / "notes" / "todo.md").write_text("- a\n", encoding="utf-8")
    (git_demo_repo / ".repodoc.json").write_text('{"doc_dir": "."}', encoding="utf-8")
    before = sorted(git_demo_repo.rglob("*"))

    code, _, err = run_cli("generate", "--repo", git_demo_repo, capsys=capsys)
    assert code == 1
    assert "doc_dir '.'" in err
    assert sorted(git_demo_repo.rglob("*")) == before
    assert (git_demo_repo / "README.md").read_text(encoding="utf-8") == "# demo\n"
    git(git_demo_repo, "status")


def test_a_file_name_that_is_not_utf8_is_skipped(git_demo_repo, capsys):
    try:
        (git_demo_repo / os.fsdecode(b"caf\xe9.py")).write_text(
            "def g():\n    return 2\n", encoding="utf-8"
        )
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a name that is not UTF-8")
    git(git_demo_repo, "add", "-A")
    pages = ["SUMMARY.md", "a.md", "util/b.md"]

    code, out, err = run_cli("update", "--repo", git_demo_repo, "--json", capsys=capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["staged"]["added"] == ["a.py", "util/b.py"]
    assert sorted(json.loads(out)["written_pages"]) == pages
    shutil.rmtree(git_demo_repo / "markdown_docs")
    code, out, err = run_cli("generate", "--repo", git_demo_repo, "--json", capsys=capsys)
    assert (code, err) == (0, "")
    assert sorted(json.loads(out)["pages_written"]) == pages


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


def test_generate_documents_no_symlink(git_demo_repo, capsys):
    # links are not sources, in the working tree as in the index
    pkg = git_demo_repo / "pkg"
    pkg.mkdir()
    (pkg / "link.py").symlink_to("../a.py")
    (pkg / "broken.py").symlink_to("missing.py")
    (git_demo_repo / "linked").symlink_to("util", target_is_directory=True)
    code, out, _ = run_cli("generate", "--repo", git_demo_repo, "--json", capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert sorted(report["generated"]) == ["a.py/C", "a.py/C/m", "a.py/f", "a.py/g", "util/b.py/h"]
    assert sorted(report["pages_written"]) == ["SUMMARY.md", "a.md", "util/b.md"]

    # so the hook, which reads the index, finds the same objects
    git(git_demo_repo, "add", "-A")
    code, out, _ = run_cli("update", "--repo", git_demo_repo, "--json", capsys=capsys)
    assert code == 0
    assert json.loads(out)["plan"] == {"regenerate": [], "delete_docs": []}


def test_generate_stops_on_an_unreadable_file(demo_repo, capsys, monkeypatch):
    # root reads a file of mode 000, so the read itself is made to fail
    real = Path.read_bytes

    def read_bytes(path):
        if path.name == "b.py":
            raise PermissionError(13, "Permission denied", str(path))
        return real(path)

    monkeypatch.setattr(Path, "read_bytes", read_bytes)
    code, out, err = run_cli("generate", "--repo", demo_repo, capsys=capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read util/b.py: [Errno 13] Permission denied")
    assert not (demo_repo / STORE_REL).exists()


def _repodoc_process(*argv: str) -> subprocess.Popen:
    """A Python child with this checkout's ``src`` on its path, reading
    ``argv``, its stdout and stderr piped."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.Popen(
        [sys.executable, *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_graph_into_a_closed_pipe_exits_quietly(demo_repo):
    proc = _repodoc_process("-m", "repodoc", "graph", "--repo", str(demo_repo))
    proc.stdout.close()  # the reader leaves before the first byte, as `| head -c 0` would
    _, err = proc.communicate(timeout=60)
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert proc.returncode == 1


def test_mock_and_noop_generates_import_no_http_code(demo_repo):
    # the second run points at an HTTP provider but has nothing to send
    script = (
        "import json, os, sys\n"
        "from repodoc.cli import main\n"
        "repo = sys.argv[1]\n"
        "assert main(['generate', '--repo', repo]) == 0\n"
        "config = {'provider': {'base_url': 'http://127.0.0.1:9/v1'}}\n"
        "open(os.path.join(repo, '.repodoc.json'), 'w').write(json.dumps(config))\n"
        "os.environ['REPODOC_API_KEY'] = 'unused'\n"
        "assert main(['generate', '--repo', repo]) == 0\n"
        "print(sorted({'http.client', 'requests', 'urllib.request', 'ssl'} & set(sys.modules)))\n"
    )
    proc = _repodoc_process("-c", script, str(demo_repo))
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert "generated 0 objects, skipped 5" in out
    assert out.splitlines()[-1] == "[]"


# modules loaded only by the commands that run them: generation's once an
# object is pending, eval's by eval, and a worker pool only for --jobs > 1;
# dataclasses by none
LATE_MODULES = (
    "repodoc.prompt_engine",
    "repodoc.llm_gateway",
    "repodoc.eval_harness",
    "concurrent.futures",
    "statistics",
    "dataclasses",
)
_MAIN_THEN_LIST = (
    "import json, sys\n"
    "from repodoc.cli import main\n"
    "code = main(sys.argv[1:])\n"
    f"print(json.dumps([code, sorted(set({LATE_MODULES!r}) & set(sys.modules))]))\n"
)


def _late_modules_after(repo, *argv: str) -> tuple[int, set[str]]:
    """Run one command in a fresh interpreter; its exit code and the
    ``LATE_MODULES`` loaded when it returned."""
    proc = _repodoc_process("-c", _MAIN_THEN_LIST, *argv, "--repo", str(repo))
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    code, loaded = json.loads(out.splitlines()[-1])
    return code, set(loaded)


@pytest.mark.parametrize(
    "base_url, staged_edit",
    [
        ("mock:", ("return 1", "return 5")),  # regenerates a.py/f
        ("http://127.0.0.1:9/v1", ("def f():", "# nothing to send\ndef f():")),
    ],
)
def test_each_command_loads_only_what_it_runs(
    git_demo_repo, capsys, monkeypatch, base_url, staged_edit
):
    repo = git_demo_repo
    assert run_cli("generate", "--repo", repo, capsys=capsys)[0] == 0
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", "seed")
    config = {"provider": {"base_url": base_url}}
    (repo / ".repodoc.json").write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.setenv("REPODOC_API_KEY", "unused")
    assert _late_modules_after(repo, "generate") == (0, set())
    assert _late_modules_after(repo, "generate", "--jobs", "2") == (0, set())

    (repo / "a.py").write_text(DEMO_FILES["a.py"].replace(*staged_edit), encoding="utf-8")
    git(repo, "add", "a.py")
    code, loaded = _late_modules_after(repo, "update", "--jobs", "1")
    assert code == 0
    assert not loaded & {"repodoc.eval_harness", "concurrent.futures", "statistics", "dataclasses"}
    assert _late_modules_after(repo, "eval")[0] == 0
    if base_url == "mock:":
        for rel in ("a.py", "util/b.py"):
            text = (repo / rel).read_text(encoding="utf-8")
            (repo / rel).write_text(text.replace("return", "return -"), encoding="utf-8")
        code, loaded = _late_modules_after(repo, "generate", "--jobs", "2")
        assert code == 0 and "concurrent.futures" in loaded


@pytest.mark.parametrize("command", ["generate", "update"])
def test_a_missing_api_key_fails_before_the_lock_and_writes_nothing(
    git_demo_repo, capsys, monkeypatch, command
):
    repo = git_demo_repo
    assert run_cli("generate", "--repo", repo, capsys=capsys)[0] == 0
    config = {"provider": {"base_url": "https://llm.example/v1"}}
    (repo / ".repodoc.json").write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.delenv("REPODOC_API_KEY", raising=False)

    def files() -> dict:
        paths = [p for p in repo.rglob("*") if p.is_file() and "objects" not in p.parts]
        return {p: (p.stat().st_mtime_ns, p.read_bytes()) for p in paths}

    before = files()
    # a run that reached the lock would report the lock instead
    with _update_lock(repo / ".git"):
        code, _, err = run_cli(command, "--repo", repo, capsys=capsys)
    assert code == 1
    assert err == (
        "error: provider https://llm.example/v1 needs an API key; "
        "set the REPODOC_API_KEY environment variable\n"
    )
    assert files() == before


def _one_error_line(err: str) -> str:
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_a_config_file_that_is_not_utf8_exits_1(demo_repo, capsys):
    config = demo_repo / ".repodoc.json"
    config.write_bytes(b'{"doc_dir": "caf\xe9"}')
    code, _, err = run_cli("generate", "--repo", demo_repo, capsys=capsys)
    assert code == 1
    assert f"cannot read config file {config}" in _one_error_line(err)
    assert not (demo_repo / STORE_REL).exists()


def test_a_config_file_that_is_a_directory_exits_1(demo_repo, capsys):
    config = demo_repo / ".repodoc.json"
    config.mkdir()
    code, _, err = run_cli("generate", "--repo", demo_repo, capsys=capsys)
    assert code == 1
    assert f"cannot read config file {config}" in _one_error_line(err)
    assert not (demo_repo / STORE_REL).exists()


@pytest.mark.parametrize("command", ["generate", "update", "publish"])
def test_a_store_path_that_is_a_directory_exits_1(git_demo_repo, capsys, command):
    store = git_demo_repo / STORE_REL
    store.mkdir(parents=True)
    git(git_demo_repo, "add", "-A")
    code, _, err = run_cli(command, "--repo", git_demo_repo, capsys=capsys)
    assert code == 1
    assert f"cannot read doc store {store}" in _one_error_line(err)
    assert not (git_demo_repo / "markdown_docs").exists()


@pytest.mark.parametrize("command", ["generate", "update", "publish"])
def test_a_doc_dir_that_is_a_file_exits_1_and_leaves_no_digest(git_demo_repo, capsys, command):
    git(git_demo_repo, "add", "-A")
    assert run_cli("update", "--repo", git_demo_repo, capsys=capsys)[0] == 0
    digest = git_demo_repo / ".git" / SNAPSHOT_DIGEST_NAME
    assert digest.exists()
    doc_dir = git_demo_repo / "markdown_docs"
    shutil.rmtree(doc_dir)
    doc_dir.write_text("not a directory\n", encoding="utf-8")
    code, _, err = run_cli(command, "--repo", git_demo_repo, capsys=capsys)
    assert code == 1
    assert f"cannot write pages to {doc_dir}" in _one_error_line(err)
    assert not digest.exists()
    assert doc_dir.read_text(encoding="utf-8") == "not a directory\n"
