from __future__ import annotations

import builtins
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repodoc import cli
from repodoc.change_tracker import LOCK_NAME, _update_lock
from repodoc.cli import main
from repodoc.doc_pipeline import SNAPSHOT_DIGEST_NAME
from repodoc.llm_gateway import Gateway, MockProvider

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
        "repodoc.change_tracker.build_gateway",
        lambda config: Gateway(FailingProvider(), retries=0),
    )
    code, out, _ = run_cli("generate", "--repo", demo_repo, capsys=capsys)
    assert code == 3
    assert "failures:" in out
    assert "synthetic outage" in out


def test_failures_outrank_parse_errors(demo_repo, capsys, monkeypatch):
    (demo_repo / "broken.py").write_text("def oops(:\n", encoding="utf-8")
    monkeypatch.setattr(
        "repodoc.change_tracker.build_gateway",
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


@pytest.mark.parametrize("command", ["generate", "update"])
def test_a_top_level_summary_py_is_refused_until_it_is_ignored(git_demo_repo, capsys, command):
    # its page would be SUMMARY.md, the table of contents
    (git_demo_repo / "SUMMARY.py").write_text("def f():\n    return 1\n", encoding="utf-8")
    git(git_demo_repo, "add", "-A")
    code, _, err = run_cli(command, "--repo", git_demo_repo, capsys=capsys)
    assert code == 1
    assert "SUMMARY.py" in err and "ignore" in err
    assert not (git_demo_repo / STORE_REL).exists()
    assert not (git_demo_repo / "markdown_docs").exists()

    (git_demo_repo / ".repodoc.json").write_text('{"ignore": ["SUMMARY.py"]}', encoding="utf-8")
    code, out, err = run_cli(command, "--repo", git_demo_repo, "--json", capsys=capsys)
    assert (code, err) == (0, "")
    pages = json.loads(out)["pages_written" if command == "generate" else "written_pages"]
    assert sorted(pages) == ["SUMMARY.md", "a.md", "util/b.md"]
    summary = (git_demo_repo / "markdown_docs" / "SUMMARY.md").read_text(encoding="utf-8")
    assert summary.startswith("# Summary\n") and "SUMMARY.py" not in summary


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
    # the pages hold the texts, so only a cold generate rewrites them all
    shutil.rmtree(git_demo_repo / "markdown_docs")
    shutil.rmtree((git_demo_repo / STORE_REL).parent)
    code, out, err = run_cli("generate", "--repo", git_demo_repo, "--json", capsys=capsys)
    assert (code, err) == (0, "")
    assert sorted(json.loads(out)["pages_written"]) == pages


def test_bad_arguments_exit_1(demo_repo, capsys):
    code, _, err = run_cli("no-such-command", capsys=capsys)
    assert code == 1 and "error:" in err
    code, _, err = run_cli("graph", "--repo", demo_repo, "--format", "png", capsys=capsys)
    assert code == 1 and "error:" in err


@pytest.mark.parametrize(
    "argv", [("graph", "--json"), ("publish", "--jobs", "2"), ("install-hook", "--json")]
)
def test_a_command_refuses_an_option_it_does_not_read(git_demo_repo, capsys, argv):
    code, out, err = run_cli(*argv, "--repo", git_demo_repo, capsys=capsys)
    assert (code, out) == (1, "")
    assert "error: unrecognized arguments" in err


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


def test_an_update_refused_for_a_parse_error_does_not_say_passed(git_demo_repo, capsys):
    (git_demo_repo / "broken.py").write_text("def oops(:\n", encoding="utf-8")
    git(git_demo_repo, "add", "-A")
    code, out, _ = run_cli("update", "--repo", git_demo_repo, capsys=capsys)
    assert code == 2
    assert "Passed" not in out
    assert out.startswith("Refused: ")
    assert "parse errors:\n  broken.py:1: " in out


_BOM_FILE = b"\xef\xbb\xbfdef f():\n    return 1\n"  # Python runs it, the mark dropped


def test_generate_documents_a_file_that_starts_with_a_byte_order_mark(demo_repo, capsys):
    (demo_repo / "m.py").write_bytes(_BOM_FILE)
    code, out, _ = run_cli("generate", "--repo", demo_repo, "--json", capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["parse_errors"] == []
    assert "m.py/f" in report["generated"]


def test_update_documents_a_staged_file_that_starts_with_a_byte_order_mark(git_demo_repo, capsys):
    (git_demo_repo / "m.py").write_bytes(_BOM_FILE)
    git(git_demo_repo, "add", "-A")
    code, out, _ = run_cli("update", "--repo", git_demo_repo, "--json", capsys=capsys)
    assert code == 0
    assert "m.py/f" in json.loads(out)["run"]["generated"]


def test_publish_requires_store(demo_repo, capsys):
    code, _, err = run_cli("publish", "--repo", demo_repo, capsys=capsys)
    assert code == 1
    assert "no doc store found" in err


def test_publish_rebuilds_pages(demo_repo, capsys):
    run_cli("generate", "--repo", demo_repo, capsys=capsys)
    (demo_repo / "markdown_docs" / "SUMMARY.md").unlink()
    code, out, _ = run_cli("publish", "--repo", demo_repo, capsys=capsys)
    assert code == 0
    assert "1 pages written" in out
    assert (demo_repo / "markdown_docs" / "SUMMARY.md").exists()
    # a page holds the docs that the store leaves to it: publish refuses
    # to go on without it, and writes nothing
    (demo_repo / "markdown_docs" / "a.md").unlink()
    (demo_repo / "markdown_docs" / "SUMMARY.md").unlink()
    code, _, err = run_cli("publish", "--repo", demo_repo, capsys=capsys)
    assert code == 1 and "a.md no longer give back their docs" in err
    assert sorted(p.name for p in (demo_repo / "markdown_docs").rglob("*")) == ["b.md", "util"]


def test_graph_json_and_dot(demo_repo, capsys):
    run_cli("generate", "--repo", demo_repo, capsys=capsys)
    code, out, _ = run_cli("graph", "--repo", demo_repo, capsys=capsys)
    assert code == 0
    payload = json.loads(out)
    edge_pairs = {(e["caller"], e["callee"]) for e in payload["edges"]}
    assert ("a.py/g", "a.py/f") in edge_pairs
    # every source hash, which only the store leaves out where a record
    # states it, and a function's kind left out as in the store
    metas = {nid: node for nid, node in payload["nodes"].items() if "meta" in node}
    assert len(metas) == 5 and all("source_hash" in node["meta"] for node in metas.values())
    assert {nid: node.get("node_kind") for nid, node in metas.items() if "node_kind" in node} == {
        "a.py/C": "Class"
    }

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
    unhashable = tmp_path / "unhashable.json"
    unhashable.write_text('{"a.py/f": [{"x": 1}]}', encoding="utf-8")
    numbered = tmp_path / "numbered.json"
    numbered.write_text('{"a.py/f": [1]}', encoding="utf-8")
    for refs in (tmp_path / "missing.json", tmp_path, broken, listed, unhashable, numbered):
        code, out, err = run_cli("eval", "--repo", demo_repo, "--refs", refs, capsys=capsys)
        assert code == 1, refs
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(refs) in err


def test_generate_accepts_jobs_flag(demo_repo, capsys):
    code, out, _ = run_cli("generate", "--repo", demo_repo, "--jobs", 2, capsys=capsys)
    assert code == 0
    assert "generated 5 objects" in out


class InterruptingProvider:
    """The mock provider, whose ``n``-th send raises ``KeyboardInterrupt``,
    as Ctrl-C does, and whose other sends take a moment, so that a request
    left in flight would still be running when the command returns."""

    def __init__(self, n: int) -> None:
        self._inner, self.n = MockProvider(), n
        self.started = self.finished = 0
        self._lock = threading.Lock()

    def send(self, request):
        with self._lock:
            self.started += 1
            interrupt = self.started == self.n
        if interrupt:
            raise KeyboardInterrupt
        time.sleep(0.05)
        response = self._inner.send(request)
        with self._lock:
            self.finished += 1
        return response


def _snapshot(repo: Path) -> dict:
    """Each file's bytes, but the lock's, which every run leaves behind."""
    return {
        path.relative_to(repo).as_posix(): path.read_bytes()
        for path in sorted(repo.rglob("*"))
        if path.is_file() and path.name != LOCK_NAME
    }


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_an_interrupted_generate_exits_130_in_one_line_and_saves_nothing(
    demo_repo, capsys, monkeypatch, jobs
):
    providers = []

    def interrupting_gateway(n):
        def build(config):
            providers.append(InterruptingProvider(n))
            return Gateway(providers[-1], retries=0)

        monkeypatch.setattr("repodoc.change_tracker.build_gateway", build)

    # a cold run: after f and g, the third send runs beside a fourth at --jobs 2
    interrupting_gateway(3)
    before = _snapshot(demo_repo)
    code, out, err = run_cli("generate", "--repo", demo_repo, "--jobs", jobs, capsys=capsys)
    assert code == 130
    assert (out, err) == ("", "error: interrupted\n")
    provider = providers[-1]
    assert provider.finished == provider.started - 1  # no request was left running
    assert provider.started <= 3 + (jobs == "2")
    assert not (demo_repo / STORE_REL).exists()
    assert _snapshot(demo_repo) == before

    # with a store: interrupted on its first send, it leaves store and pages as they were
    monkeypatch.undo()
    assert run_cli("generate", "--repo", demo_repo, capsys=capsys)[0] == 0
    (demo_repo / "a.py").write_text(DEMO_FILES["a.py"].replace("return 1", "return 7"), encoding="utf-8")
    before = _snapshot(demo_repo)
    interrupting_gateway(1)
    code, out, err = run_cli("generate", "--repo", demo_repo, "--jobs", jobs, capsys=capsys)
    assert (code, out, err) == (130, "", "error: interrupted\n")
    assert _snapshot(demo_repo) == before


class SignallingProvider:
    """The mock provider, whose ``n``-th send sends ``signum`` to this
    process, SIGTERM as a service manager stopping the command would, or
    SIGINT as Ctrl-C does, and then completes; every send takes a moment.
    ``running`` counts the sends not returned, ``completed`` those that
    returned a response."""

    def __init__(self, n: int, signum: int = signal.SIGTERM) -> None:
        self._inner, self.n, self.signum = MockProvider(), n, signum
        self.started = self.running = self.completed = 0
        self._lock = threading.Lock()

    def send(self, request):
        with self._lock:
            self.started += 1
            self.running += 1
            signalling = self.started == self.n
        try:
            if signalling:
                os.kill(os.getpid(), self.signum)
            time.sleep(0.05)
            response = self._inner.send(request)
            with self._lock:
                self.completed += 1
            return response
        finally:
            with self._lock:
                self.running -= 1


class _SigtermReachedTheTest(Exception):
    pass


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_terminated_generate_exits_130_in_one_line_and_saves_nothing(
    demo_repo, capsys, monkeypatch, jobs
):
    # a handler of the test's own, so that a SIGTERM main does not catch
    # fails this test rather than ending the test run
    def reached(signum, frame):
        raise _SigtermReachedTheTest

    providers = []

    def terminating_gateway(n):
        def build(config):
            providers.append(SignallingProvider(n))
            return Gateway(providers[-1], retries=0)

        monkeypatch.setattr("repodoc.change_tracker.build_gateway", build)

    previous = signal.signal(signal.SIGTERM, reached)
    try:
        # a cold run: after f and g, the third send runs beside a fourth at --jobs 2
        terminating_gateway(3)
        before = _snapshot(demo_repo)
        code, out, err = run_cli("generate", "--repo", demo_repo, "--jobs", jobs, capsys=capsys)
        assert code == 130
        assert (out, err) == ("", "error: interrupted\n")
        assert providers[-1].running == 0  # no request was left running
        assert providers[-1].completed == providers[-1].started  # the signalling one too
        assert providers[-1].started <= 3 + (jobs == "2")
        assert not (demo_repo / STORE_REL).exists()
        assert _snapshot(demo_repo) == before
        assert signal.getsignal(signal.SIGTERM) is reached

        # with a store: terminated on its first send, it leaves store and pages as they were
        monkeypatch.undo()
        assert run_cli("generate", "--repo", demo_repo, capsys=capsys)[0] == 0
        (demo_repo / "a.py").write_text(DEMO_FILES["a.py"].replace("return 1", "return 7"), encoding="utf-8")
        before = _snapshot(demo_repo)
        terminating_gateway(1)
        code, out, err = run_cli("generate", "--repo", demo_repo, "--jobs", jobs, capsys=capsys)
        assert (code, out, err) == (130, "", "error: interrupted\n")
        assert providers[-1].completed == providers[-1].started == 1
        assert _snapshot(demo_repo) == before
        assert signal.getsignal(signal.SIGTERM) is reached
    finally:
        signal.signal(signal.SIGTERM, previous)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_ctrl_c_lets_the_request_in_flight_finish(demo_repo, capsys, monkeypatch, jobs):
    # SIGINT itself, which Python turns into KeyboardInterrupt on the main
    # thread; with one job that thread is the one sending
    providers = []

    def build(config):
        providers.append(SignallingProvider(3, signal.SIGINT))
        return Gateway(providers[-1], retries=0)

    monkeypatch.setattr("repodoc.change_tracker.build_gateway", build)
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        before = _snapshot(demo_repo)
        code, out, err = run_cli("generate", "--repo", demo_repo, "--jobs", jobs, capsys=capsys)
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped the command")
    finally:
        signal.signal(signal.SIGINT, previous)
    assert (code, out, err) == (130, "", "error: interrupted\n")
    provider = providers[-1]
    assert provider.running == 0
    assert provider.completed == provider.started  # the third send returned its response
    assert 3 <= provider.started <= 3 + (jobs == "2")
    assert _snapshot(demo_repo) == before


def test_a_serial_generate_stops_at_a_ctrl_c_whose_handler_does_not_raise(
    demo_repo, capsys, monkeypatch
):
    # the handler runs when the sending thread lets the held SIGINT in; the
    # run still stops there, and no cycle is reported for what it left
    providers, handled = [], []

    def build(config):
        providers.append(SignallingProvider(3, signal.SIGINT))
        return Gateway(providers[-1], retries=0)

    monkeypatch.setattr("repodoc.change_tracker.build_gateway", build)
    previous = signal.signal(signal.SIGINT, lambda signum, frame: handled.append(signum))
    try:
        before = _snapshot(demo_repo)
        code, out, err = run_cli("generate", "--repo", demo_repo, "--jobs", "1", capsys=capsys)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert (code, out, err) == (130, "", "error: interrupted\n")
    assert handled == [signal.SIGINT]
    assert providers[-1].completed == providers[-1].started == 3
    assert _snapshot(demo_repo) == before


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_a_usage_error(demo_repo, capsys, jobs):
    code, out, err = run_cli("generate", "--repo", demo_repo, "--jobs", jobs, capsys=capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "--jobs" in err
    assert not (demo_repo / STORE_REL).exists()
    assert not (demo_repo / "markdown_docs").exists()


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
    # root reads a file of mode 000, so the open itself is made to fail
    real = builtins.open

    def open_file(file, *args, **kwargs):
        if isinstance(file, str) and os.path.basename(file) == "b.py":
            raise PermissionError(13, "Permission denied", file)
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", open_file)
    code, out, err = run_cli("generate", "--repo", demo_repo, capsys=capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read util/b.py: [Errno 13] Permission denied")
    assert not (demo_repo / STORE_REL).exists()


def _child_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on the path."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def _repodoc_process(*argv: str, cwd: Path | None = None) -> subprocess.Popen:
    """A Python child with this checkout's ``src`` on its path, reading
    ``argv``, its stdout and stderr piped."""
    return subprocess.Popen(
        [sys.executable, *argv],
        cwd=cwd,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _run_in(repo: Path, *argv: str) -> tuple[int, str]:
    """Run a Python child in ``repo``; its exit code and stderr."""
    proc = _repodoc_process(*argv, cwd=repo)
    _, err = proc.communicate(timeout=120)
    return proc.returncode, err


# a module of the documented repository, fatal if repodoc imported it
_SHADOW = "raise SystemExit(1)\n"
_RUN_MODULE = "import runpy; runpy.run_module('repodoc', run_name='__main__', alter_sys=True)"


def test_commands_run_from_a_root_holding_a_json_py(git_demo_repo):
    (git_demo_repo / "json.py").write_text(_SHADOW, encoding="utf-8")
    # -m puts the working directory first on the path, -c an empty entry
    for argv in (["-m", "repodoc", "generate"], ["-c", _RUN_MODULE, "generate"]):
        assert _run_in(git_demo_repo, *argv) == (0, "")
    assert _run_in(git_demo_repo, "-m", "repodoc", "install-hook") == (0, "")


def test_a_commit_that_stages_a_top_level_logging_py_passes_the_hook(git_demo_repo):
    repo = git_demo_repo
    assert _run_in(repo, "-m", "repodoc", "generate") == (0, "")
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", "seed")
    assert _run_in(repo, "-m", "repodoc", "install-hook") == (0, "")
    (repo / "logging.py").write_text(_SHADOW, encoding="utf-8")
    git(repo, "add", "logging.py")
    commit = subprocess.run(
        ["git", "-C", str(repo), "commit", "-qm", "add logging.py"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert commit.returncode == 0, commit.stderr
    assert "logging.py" in git(repo, "show", "--name-only", "--pretty=format:", "HEAD").split()


def test_graph_into_a_closed_pipe_exits_quietly(demo_repo, tmp_path, capsys):
    # a generate report of more than a pipe buffer's 64 KiB: 2,000 unresolved calls
    calls = "".join(f"    missing_{i}()\n" for i in range(2000))
    (demo_repo / "noise.py").write_text(f"def noise():\n{calls}", encoding="utf-8")
    twin = shutil.copytree(demo_repo, tmp_path / "twin")
    out = run_cli("generate", "--repo", twin, "--json", capsys=capsys)[1]
    assert len(out) > 1 << 16
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    for argv in (["graph"], ["generate", "--json"]):
        proc = _repodoc_process("-m", "repodoc", *argv, "--repo", str(demo_repo))
        proc.stdout.close()  # the reader leaves before the first byte, as `| head -c 0` would
        _, err = proc.communicate(timeout=60)
        assert "Traceback" not in err and "BrokenPipeError" not in err, (argv, err)
        assert proc.returncode == 1, argv


def test_json_reports_are_indented_with_sorted_keys_and_a_final_newline(git_demo_repo, capsys):
    repo = git_demo_repo
    (repo / "c.py").write_text("def k():\n    return missing()\n", encoding="utf-8")
    line = "c.py:2: unresolved call missing (caller c.py/k)"
    reports = {}
    for argv in (
        ["generate", "--json"], ["update", "--json"], ["graph", "--format", "json"], ["eval", "--json"]
    ):
        if argv[0] == "update":
            (repo / "c.py").write_text("def k():\n    return missing() + 1\n", encoding="utf-8")
            git(repo, "add", "-A")
        code, out, err = run_cli(*argv, "--repo", repo, capsys=capsys)
        assert (code, err) == (0, ""), argv
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv
        reports[argv[0]] = json.loads(out)
    assert reports["generate"]["diagnostics"] == reports["update"]["diagnostics"] == [line]
    assert "c.py/k" in reports["graph"]["nodes"]


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


_NO_KEY_ERROR = (
    "error: provider https://llm.example/v1 needs an API key; "
    "set the REPODOC_API_KEY environment variable\n"
)


def _without_api_key(repo: Path, monkeypatch) -> None:
    config = {"provider": {"base_url": "https://llm.example/v1"}}
    (repo / ".repodoc.json").write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.delenv("REPODOC_API_KEY", raising=False)


def _files(repo: Path) -> dict:
    """Each file of the repository but Git's objects, with its mtime and bytes."""
    paths = [p for p in repo.rglob("*") if p.is_file() and "objects" not in p.parts]
    return {p: (p.stat().st_mtime_ns, p.read_bytes()) for p in paths}


def test_a_missing_api_key_fails_before_the_lock_and_writes_nothing(
    git_demo_repo, capsys, monkeypatch
):
    repo = git_demo_repo
    assert run_cli("generate", "--repo", repo, capsys=capsys)[0] == 0
    _without_api_key(repo, monkeypatch)
    before = _files(repo)
    # a run that reached the lock would report the lock instead
    with _update_lock(repo / ".git"):
        code, _, err = run_cli("generate", "--repo", repo, capsys=capsys)
    assert (code, err) == (1, _NO_KEY_ERROR)
    assert _files(repo) == before


def _committed_demo(repo: Path, capsys) -> None:
    assert run_cli("generate", "--repo", repo, capsys=capsys)[0] == 0
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", "seed")


def test_an_update_that_regenerates_nothing_needs_no_api_key(git_demo_repo, capsys, monkeypatch):
    repo = git_demo_repo
    _committed_demo(repo, capsys)
    _without_api_key(repo, monkeypatch)
    (repo / "README.md").write_text("# demo, edited\n", encoding="utf-8")
    git(repo, "add", "README.md")
    assert run_cli("update", "--repo", repo, capsys=capsys)[0] == 0
    # a comment changes a file's blob but no object's source
    (repo / "a.py").write_text("# a comment\n" + DEMO_FILES["a.py"], encoding="utf-8")
    git(repo, "add", "a.py")
    code, out, err = run_cli("update", "--repo", repo, "--json", capsys=capsys)
    assert code == 0, err
    assert json.loads(out)["plan"] == {"regenerate": [], "delete_docs": []}


def test_an_update_whose_planned_objects_have_current_docs_needs_no_api_key(
    git_demo_repo, capsys, monkeypatch
):
    repo = git_demo_repo
    _committed_demo(repo, capsys)
    (repo / "a.py").write_text(DEMO_FILES["a.py"].replace("return 1", "return 2"), encoding="utf-8")
    git(repo, "add", "a.py")
    git(repo, "commit", "-qm", "f returns 2", "--no-verify")
    # a generate whose provider is down keeps f's "return 1" doc under the new snapshot
    config = {"provider": {"base_url": "http://127.0.0.1:9/v1", "retries": 0}}
    (repo / ".repodoc.json").write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.setenv("REPODOC_API_KEY", "unused")
    assert run_cli("generate", "--repo", repo, capsys=capsys)[0] == 3
    _without_api_key(repo, monkeypatch)
    (repo / "a.py").write_text(DEMO_FILES["a.py"], encoding="utf-8")
    git(repo, "add", "a.py")
    code, out, err = run_cli("update", "--repo", repo, "--json", capsys=capsys)
    assert code == 0, err
    report = json.loads(out)
    # the plan names f, but the doc it holds is of the staged source
    assert report["plan"]["regenerate"] == [["a.py/f", "SourceModified"]]
    assert report["run"]["generated"] == [] and report["run"]["failures"] == {}


def test_an_update_that_regenerates_fails_without_an_api_key_and_writes_nothing(
    git_demo_repo, capsys, monkeypatch
):
    repo = git_demo_repo
    _committed_demo(repo, capsys)
    _without_api_key(repo, monkeypatch)
    (repo / "a.py").write_text(DEMO_FILES["a.py"].replace("return 1", "return 5"), encoding="utf-8")
    git(repo, "add", "a.py")
    before = _files(repo)
    code, _, err = run_cli("update", "--repo", repo, capsys=capsys)
    assert (code, err) == (1, _NO_KEY_ERROR)
    assert _files(repo) == before


def test_a_failed_update_lists_its_failures_and_writes_and_stages_nothing(
    git_demo_repo, capsys, monkeypatch
):
    repo = git_demo_repo
    _committed_demo(repo, capsys)
    (repo / "a.py").write_text(DEMO_FILES["a.py"].replace("return 1", "return 5"), encoding="utf-8")
    git(repo, "add", "a.py")

    def docs():
        return {p: p.read_bytes() for p in repo.rglob("*") if p.is_file() and ".git" not in p.parts}

    before = docs()
    monkeypatch.setattr(
        "repodoc.change_tracker.build_gateway",
        lambda config: Gateway(FailingProvider(frozenset({"f"})), retries=0),
    )
    code, out, _ = run_cli("update", "--repo", repo, capsys=capsys)
    assert code == 3
    assert out == (
        "documentation update failed:\n"
        "  a.py/f: provider failed after 1 attempts while generating a.py/f: "
        "synthetic failure for f\n"
    )
    assert docs() == before
    assert git(repo, "diff", "--cached", "--name-only") == "a.py\n"


def test_main_leaves_the_collector_as_it_found_it(demo_repo, capsys, monkeypatch):
    before = gc.get_threshold(), gc.get_freeze_count()
    assert run_cli("generate", "--repo", demo_repo, capsys=capsys)[0] == 0
    assert (gc.get_threshold(), gc.get_freeze_count()) == before
    during = []

    def failing_generate(args):
        during.append((gc.get_threshold()[0], gc.get_freeze_count()))
        raise RuntimeError("a command that fails")

    monkeypatch.setattr(cli, "cmd_generate", failing_generate)
    with pytest.raises(RuntimeError, match="a command that fails"):
        main(["generate", "--repo", str(demo_repo)])
    assert (gc.get_threshold(), gc.get_freeze_count()) == before
    assert during[0][0] == 10_000 and during[0][1] > 0


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
    # the fast path reads a page that a doc dir that is a file cannot hold
    assert f"page {doc_dir / 'a.md'} no longer gives back the docs of a.py" in _one_error_line(err)
    assert not digest.exists()
    assert doc_dir.read_text(encoding="utf-8") == "not a directory\n"
