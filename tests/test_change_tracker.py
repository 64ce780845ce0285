from __future__ import annotations

import logging
import json
import os
import shutil
import stat
import subprocess
import sys

import pytest

from repodoc import change_tracker
from repodoc.change_tracker import (
    HOOK_MARKER,
    LOCAL_HOOK_NAME,
    TRIGGER_NEW_OBJECT,
    TRIGGER_NEW_REFERENCE,
    TRIGGER_REFERRER_REMOVED,
    TRIGGER_SOURCE_MODIFIED,
    UpdateReport,
    _update_lock,
    diff_objects,
    install_hook,
    plan_updates,
    read_staged_text,
    run_update,
    staged_changes,
)
from repodoc.cli import main
from repodoc.config import load_config
from repodoc.errors import LockError, NotAGitRepoError, StoreWriteError, UsageError
from repodoc.llm_gateway import Gateway
from repodoc.source_model import blob_id, scan_repository

from .conftest import git
from .helpers import (
    DEMO_FILES,
    FailingProvider,
    build_repo_graph,
    make_gateway,
    write_tree,
)

A_WITH_NEW_CALLER = DEMO_FILES["a.py"] + "\n\ndef k():\n    return g(5)\n"
A_F_EDITED = DEMO_FILES["a.py"].replace("return 1", "return 2")
A_WITHOUT_F = (
    "class C:\n"
    "    def m(self):\n"
    "        return g(2)\n"
    "\n"
    "\n"
    "def g(x):\n"
    "    return x\n"
)
B_WITH_F_CALL = "from a import f, g\n\n\ndef h():\n    return g(3) + f()\n"
B_WITHOUT_G_CALL = "from a import g\n\n\ndef h():\n    return 3\n"


def graphs_for(tmp_path, new_files):
    old_root = tmp_path / "old"
    new_root = tmp_path / "new"
    write_tree(old_root, DEMO_FILES)
    write_tree(new_root, new_files)
    return build_repo_graph(old_root), build_repo_graph(new_root)


def mutate(files, **replacements):
    out = dict(files)
    for rel, text in replacements.items():
        key = rel.replace("__", "/")
        if text is None:
            out.pop(key)
        else:
            out[key] = text
    return out


def test_diff_body_edit_is_modified_only(tmp_path):
    old, new = graphs_for(tmp_path, mutate(DEMO_FILES, **{"a.py": A_F_EDITED}))
    changes = diff_objects(old, new)
    assert changes.modified == ("a.py/f",)
    assert changes.added == () and changes.removed == ()
    assert changes.edge_added == () and changes.edge_removed == ()


def test_diff_dropped_call_is_edge_removed(tmp_path):
    old, new = graphs_for(
        tmp_path, mutate(DEMO_FILES, **{"util__b.py": B_WITHOUT_G_CALL})
    )
    changes = diff_objects(old, new)
    assert changes.modified == ("util/b.py/h",)
    assert changes.edge_removed == (("util/b.py/h", "a.py/g"),)
    assert changes.edge_added == ()


def test_diff_new_object_with_new_edge(tmp_path):
    old, new = graphs_for(tmp_path, mutate(DEMO_FILES, **{"a.py": A_WITH_NEW_CALLER}))
    changes = diff_objects(old, new)
    assert changes.added == ("a.py/k",)
    assert changes.modified == ()
    assert changes.edge_added == (("a.py/k", "a.py/g"),)


def test_plan_body_edit_regenerates_only_the_edited_object(tmp_path):
    old, new = graphs_for(tmp_path, mutate(DEMO_FILES, **{"a.py": A_F_EDITED}))
    plan = plan_updates(diff_objects(old, new))
    assert plan.regenerate == (("a.py/f", TRIGGER_SOURCE_MODIFIED),)
    assert plan.delete_docs == ()
    # callers of the edited callee are left alone on purpose
    assert "a.py/g" not in plan.regenerate_ids


def test_plan_new_call_regenerates_callee(tmp_path):
    old, new = graphs_for(tmp_path, mutate(DEMO_FILES, **{"util__b.py": B_WITH_F_CALL}))
    plan = plan_updates(diff_objects(old, new))
    assert plan.regenerate == (
        ("a.py/f", TRIGGER_NEW_REFERENCE),
        ("util/b.py/h", TRIGGER_SOURCE_MODIFIED),
    )


def test_plan_dropped_call_regenerates_abandoned_callee(tmp_path):
    old, new = graphs_for(
        tmp_path, mutate(DEMO_FILES, **{"util__b.py": B_WITHOUT_G_CALL})
    )
    plan = plan_updates(diff_objects(old, new))
    assert plan.regenerate == (
        ("a.py/g", TRIGGER_REFERRER_REMOVED),
        ("util/b.py/h", TRIGGER_SOURCE_MODIFIED),
    )


def test_plan_added_object(tmp_path):
    old, new = graphs_for(tmp_path, mutate(DEMO_FILES, **{"a.py": A_WITH_NEW_CALLER}))
    plan = plan_updates(diff_objects(old, new))
    assert plan.regenerate == (
        ("a.py/g", TRIGGER_NEW_REFERENCE),
        ("a.py/k", TRIGGER_NEW_OBJECT),
    )


def test_plan_removed_callee_is_deleted_not_regenerated(tmp_path):
    old, new = graphs_for(tmp_path, mutate(DEMO_FILES, **{"a.py": A_WITHOUT_F}))
    plan = plan_updates(diff_objects(old, new))
    assert plan.regenerate == (("a.py/g", TRIGGER_SOURCE_MODIFIED),)
    assert plan.delete_docs == ("a.py/f",)


def test_plan_file_rename(tmp_path):
    new_files = mutate(
        DEMO_FILES, **{"util__b.py": None, "util__c.py": DEMO_FILES["util/b.py"]}
    )
    old, new = graphs_for(tmp_path, new_files)
    plan = plan_updates(diff_objects(old, new))
    assert plan.regenerate == (
        ("a.py/g", TRIGGER_REFERRER_REMOVED),
        ("util/c.py/h", TRIGGER_NEW_OBJECT),
    )
    assert plan.delete_docs == ("util/b.py/h",)


def test_plan_direct_edit_beats_reference_triggers(tmp_path):
    new_files = mutate(
        DEMO_FILES, **{"a.py": A_F_EDITED, "util__b.py": B_WITH_F_CALL}
    )
    old, new = graphs_for(tmp_path, new_files)
    plan = plan_updates(diff_objects(old, new))
    triggers = dict(plan.regenerate)
    assert triggers["a.py/f"] == TRIGGER_SOURCE_MODIFIED


def test_staged_changes_before_first_commit(git_demo_repo):
    git(git_demo_repo, "add", "-A")
    staged = staged_changes(git_demo_repo)
    assert staged.added == ("a.py", "util/b.py")
    assert staged.modified == () and staged.removed == ()
    assert (staged.added, staged.modified, staged.removed) == (("a.py", "util/b.py"), (), ())


def test_staged_changes_after_commit(git_demo_repo):
    git(git_demo_repo, "add", "-A")
    git(git_demo_repo, "commit", "-qm", "seed")
    assert not staged_changes(git_demo_repo)

    (git_demo_repo / "a.py").write_text(A_F_EDITED, encoding="utf-8")
    (git_demo_repo / "util" / "b.py").unlink()
    (git_demo_repo / "new.py").write_text("def n():\n    return 0\n", encoding="utf-8")
    (git_demo_repo / "README.md").write_text("# changed\n", encoding="utf-8")
    git(git_demo_repo, "add", "-A")
    staged = staged_changes(git_demo_repo)
    assert staged.added == ("new.py",)
    assert staged.modified == ("a.py",)
    assert staged.removed == ("util/b.py",)
    assert tuple(sorted(staged.added + staged.modified)) == ("a.py", "new.py")


def test_staged_changes_markdown_only_is_empty(git_demo_repo):
    git(git_demo_repo, "add", "-A")
    git(git_demo_repo, "commit", "-qm", "seed")
    (git_demo_repo / "README.md").write_text("# changed\n", encoding="utf-8")
    git(git_demo_repo, "add", "README.md")
    assert not staged_changes(git_demo_repo)


def test_staged_rename_is_delete_plus_add(git_demo_repo):
    git(git_demo_repo, "add", "-A")
    git(git_demo_repo, "commit", "-qm", "seed")
    git(git_demo_repo, "mv", "util/b.py", "util/c.py")
    staged = staged_changes(git_demo_repo)
    assert staged.added == ("util/c.py",)
    assert staged.removed == ("util/b.py",)


def test_read_staged_text_prefers_index_over_worktree(git_demo_repo):
    git(git_demo_repo, "add", "-A")
    git(git_demo_repo, "commit", "-qm", "seed")
    (git_demo_repo / "a.py").write_text(A_F_EDITED, encoding="utf-8")
    git(git_demo_repo, "add", "a.py")
    (git_demo_repo / "a.py").write_text("def later():\n    return 3\n", encoding="utf-8")
    oid = git(git_demo_repo, "rev-parse", ":a.py").strip()
    assert read_staged_text(git_demo_repo)["a.py"] == (oid, A_F_EDITED)
    # the blob id of the working-tree reader is the index's for the same bytes
    assert blob_id(A_F_EDITED.encode("utf-8")) == oid


def test_index_and_working_tree_share_one_source_filter(git_demo_repo):
    write_tree(git_demo_repo, {
        ".hidden/x.py": "def x():\n    return 0\n",
        "util/.secret.py": "def s():\n    return 0\n",
        "build/gen.py": "def gen():\n    return 0\n",
        "gen/out/made.py": "def made():\n    return 0\n",
        "notes.txt": "not python\n",
        "has space/mod one.py": "def spaced():\n    return 0\n",
    })
    ignore = ("build", "gen/out")
    git(git_demo_repo, "add", "-A")
    expected = ["a.py", "has space/mod one.py", "util/b.py"]
    assert scan_repository(git_demo_repo, ignore) == expected
    assert sorted(read_staged_text(git_demo_repo, ignore)) == expected
    assert staged_changes(git_demo_repo, ignore).added == tuple(expected)


def test_read_staged_text_names_the_file_whose_blob_is_missing(git_demo_repo, capsys):
    git(git_demo_repo, "add", "-A")
    oid = git(git_demo_repo, "rev-parse", ":util/b.py").strip()
    (git_demo_repo / ".git" / "objects" / oid[:2] / oid[2:]).unlink()
    with pytest.raises(UsageError, match="util/b.py"):
        read_staged_text(git_demo_repo)

    assert main(["update", "--repo", str(git_demo_repo)]) == 1
    err = capsys.readouterr().err
    assert "util/b.py" in err and "Traceback" not in err


def test_update_refuses_a_source_with_a_merge_conflict(git_demo_repo):
    git(git_demo_repo, "add", "-A")
    git(git_demo_repo, "commit", "-qm", "seed")
    git(git_demo_repo, "checkout", "-q", "-b", "other")
    (git_demo_repo / "a.py").write_text(A_F_EDITED, encoding="utf-8")
    git(git_demo_repo, "commit", "-qam", "theirs")
    git(git_demo_repo, "checkout", "-q", "-")
    (git_demo_repo / "a.py").write_text(A_F_EDITED.replace("return 2", "return 3"), encoding="utf-8")
    git(git_demo_repo, "commit", "-qam", "ours")
    merge = subprocess.run(["git", "-C", str(git_demo_repo), "merge", "-q", "other"], capture_output=True)
    assert merge.returncode != 0
    with pytest.raises(UsageError, match="a.py has an unresolved merge conflict"):
        run_full_update(git_demo_repo)


def test_update_reads_the_index_with_a_fixed_number_of_git_calls(git_demo_repo, monkeypatch):
    write_tree(git_demo_repo, {f"pkg/m{i}.py": f"def m{i}():\n    return {i}\n" for i in range(6)})
    git(git_demo_repo, "add", "-A")
    commands = []
    real_git = change_tracker._git

    def recording_git(repo_root, *args, **kwargs):
        commands.append(args[0])
        return real_git(repo_root, *args, **kwargs)

    monkeypatch.setattr(change_tracker, "_git", recording_git)
    report, _ = run_full_update(git_demo_repo)
    assert len(report.run.generated) == 11
    assert commands.count("ls-files") == 1 and commands.count("cat-file") == 1
    assert "show" not in commands


def test_one_file_update_runs_five_git_processes(git_demo_repo, monkeypatch):
    git(git_demo_repo, "add", "-A")
    assert run_full_update(git_demo_repo)[0].ok
    git(git_demo_repo, "commit", "-qm", "seed")
    (git_demo_repo / "a.py").write_text(A_F_EDITED, encoding="utf-8")
    git(git_demo_repo, "add", "a.py")
    commands = []
    real_git = change_tracker._git

    def recording_git(repo_root, *args, **kwargs):
        commands.append(args[:2])
        return real_git(repo_root, *args, **kwargs)

    monkeypatch.setattr(change_tracker, "_git", recording_git)
    report, _ = run_full_update(git_demo_repo)
    assert report.run.generated == ["a.py/f"]
    # the repository check, the staged diff, the index listing, the blobs, one add
    assert commands == [
        ("rev-parse", "--git-dir"),
        ("diff", "--cached"),
        ("ls-files", "--stage"),
        ("cat-file", "--batch"),
        ("add", "-A"),
    ]
    # the one add staged the page and the store
    assert git(git_demo_repo, "diff", "--name-only") == ""


def _index_twins(clean, stage, diverge):
    """Two repositories with the same commits, store and index; ``diverge``
    then changes the working tree of the second one only."""
    git(clean, "add", "-A")
    assert run_full_update(clean)[0].ok
    git(clean, "commit", "-qm", "seed")
    stage(clean)
    dirty = clean.parent / "dirty"
    shutil.copytree(clean, dirty)
    diverge(dirty)
    return clean, dirty


def _update_outcome(repo):
    """Plan, pages and index after an update; the store's timestamps masked."""
    report, config = run_full_update(repo)
    doc_dir = repo / config.doc_dir
    pages = {p.relative_to(doc_dir): p.read_bytes() for p in doc_dir.rglob("*") if p.is_file()}
    index = [line for line in git(repo, "ls-files", "-s").splitlines()
             if not line.endswith(config.store_path)]
    store = json.loads(git(repo, "show", f":{config.store_path}"))
    for record in store["records"].values():
        record["generated_at"] = ""
    return report.plan, pages, index, store


def _stage_f_edit(repo):
    (repo / "a.py").write_text(A_F_EDITED, encoding="utf-8")
    git(repo, "add", "a.py")


def _remove_b_from_index_and_disk(repo):
    git(repo, "rm", "-q", "--cached", "util/b.py")
    (repo / "util" / "b.py").unlink()


INDEX_CASES = {
    "untracked-file": (
        _stage_f_edit,
        lambda repo: write_tree(repo, {"wip.py": "from a import g\n\n\ndef wip():\n    return g(7)\n"}),
    ),
    "unstaged-edit-in-def": (
        _stage_f_edit,
        lambda repo: write_tree(repo, {"util/b.py": DEMO_FILES["util/b.py"].replace("g(3)", "g(3) + 1")}),
    ),
    "staged-then-edited": (
        _stage_f_edit,
        lambda repo: write_tree(repo, {"a.py": A_F_EDITED + "\n\ndef k():\n    return g(5)\n"}),
    ),
    "removed-from-index-kept-on-disk": (
        _remove_b_from_index_and_disk,
        lambda repo: write_tree(repo, {"util/b.py": DEMO_FILES["util/b.py"]}),
    ),
}


@pytest.mark.parametrize("case", sorted(INDEX_CASES))
def test_update_documents_the_index_not_the_working_tree(git_demo_repo, case):
    clean, dirty = _index_twins(git_demo_repo, *INDEX_CASES[case])
    expected = _update_outcome(clean)
    assert expected[0]  # the staged change plans something
    assert _update_outcome(dirty) == expected


def _stage_comment_at_top(repo):
    # every object of a.py moves down one line; none changes
    (repo / "a.py").write_text("# a comment\n" + DEMO_FILES["a.py"], encoding="utf-8")
    git(repo, "add", "a.py")


def test_update_of_a_comment_that_shifts_lines_stages_only_the_source(git_demo_repo):
    unstaged_edit = INDEX_CASES["unstaged-edit-in-def"][1]
    for repo in _index_twins(git_demo_repo, _stage_comment_at_top, unstaged_edit):
        store = repo / load_config(repo).store_path
        saved = store.stat()
        report, _ = run_full_update(repo)
        assert report.ok and not report.plan
        assert report.run.generated == [] and report.written_pages == []
        after = store.stat()
        assert (after.st_ino, after.st_mtime_ns) == (saved.st_ino, saved.st_mtime_ns)
        assert git(repo, "diff", "--cached", "--name-only").split() == ["a.py"]


def test_update_lock_is_exclusive(tmp_path):
    with _update_lock(tmp_path):
        with pytest.raises(LockError) as err:
            with _update_lock(tmp_path):
                pass
        assert "remove it" in str(err.value)
    # released on exit, so it can be taken again
    with _update_lock(tmp_path):
        pass


def test_update_lock_takes_over_from_exited_process(tmp_path, caplog):
    child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                           capture_output=True, text=True, check=True)
    (tmp_path / ".lock").write_text(child.stdout.strip(), encoding="ascii")
    with caplog.at_level(logging.WARNING, logger="repodoc.change_tracker"):
        with _update_lock(tmp_path):
            assert (tmp_path / ".lock").read_text(encoding="ascii") == str(os.getpid())
    assert "stale lock" in caplog.text
    assert not (tmp_path / ".lock").exists()


@pytest.mark.parametrize("content", ["", "not a pid"], ids=["empty", "garbage"])
def test_update_lock_keeps_lock_it_cannot_judge(tmp_path, content):
    (tmp_path / ".lock").write_text(content, encoding="ascii")
    with pytest.raises(LockError):
        with _update_lock(tmp_path):
            pass
    assert (tmp_path / ".lock").read_text(encoding="ascii") == content


def test_install_hook_fresh_and_idempotent(git_demo_repo):
    hook_path = install_hook(git_demo_repo)
    text = hook_path.read_text(encoding="utf-8")
    assert HOOK_MARKER in text
    assert "-m repodoc update" in text
    assert hook_path.stat().st_mode & stat.S_IXUSR
    again = install_hook(git_demo_repo)
    assert again == hook_path
    assert not (hook_path.parent / LOCAL_HOOK_NAME).exists()


def test_install_hook_chains_foreign_hook(git_demo_repo):
    hooks_dir = git_demo_repo / ".git" / "hooks"
    foreign = hooks_dir / "pre-commit"
    foreign.write_text("#!/bin/sh\necho mine\n", encoding="utf-8")
    foreign.chmod(foreign.stat().st_mode | stat.S_IXUSR)
    hook_path = install_hook(git_demo_repo)
    local = hooks_dir / LOCAL_HOOK_NAME
    assert local.read_text(encoding="utf-8") == "#!/bin/sh\necho mine\n"
    assert HOOK_MARKER in hook_path.read_text(encoding="utf-8")
    assert LOCAL_HOOK_NAME in hook_path.read_text(encoding="utf-8")


def test_install_hook_refuses_when_both_exist(git_demo_repo):
    hooks_dir = git_demo_repo / ".git" / "hooks"
    (hooks_dir / "pre-commit").write_text("#!/bin/sh\necho a\n", encoding="utf-8")
    (hooks_dir / LOCAL_HOOK_NAME).write_text("#!/bin/sh\necho b\n", encoding="utf-8")
    with pytest.raises(UsageError) as err:
        install_hook(git_demo_repo)
    assert "move your hook aside" in str(err.value)


def test_install_hook_outside_git_repo(tmp_path):
    with pytest.raises(NotAGitRepoError):
        install_hook(tmp_path)


def test_run_update_without_staged_changes(git_demo_repo):
    git(git_demo_repo, "add", "-A")
    git(git_demo_repo, "commit", "-qm", "seed")
    config = load_config(git_demo_repo)
    report = run_update(git_demo_repo, make_gateway(), config)
    assert report.ok and not report.staged
    assert report.summary_line() == (
        "Passed: documentation in sync (no staged Python changes)"
    )
    assert not (git_demo_repo / config.store_path).exists()


def run_full_update(repo, gateway=None):
    config = load_config(repo)
    return run_update(repo, gateway or make_gateway(), config), config


def test_run_update_generates_and_stages_everything(git_demo_repo):
    git(git_demo_repo, "add", "-A")
    report, config = run_full_update(git_demo_repo)
    assert report.ok
    assert {oid for oid, _ in report.plan.regenerate} == set(report.run.generated)
    assert len(report.run.generated) == 5
    assert report.summary_line() == (
        "Passed: documentation in sync (5 regenerated, 0 removed, 3 pages written)"
    )
    staged_now = git(git_demo_repo, "diff", "--cached", "--name-only").splitlines()
    assert "markdown_docs/a.md" in staged_now
    assert "markdown_docs/SUMMARY.md" in staged_now
    assert config.store_path in staged_now
    # the lock is gone afterwards
    assert not (git_demo_repo / config.store_path).parent.joinpath(".lock").exists()


def test_run_update_failure_leaves_store_untouched(git_demo_repo):
    git(git_demo_repo, "add", "-A")
    report, config = run_full_update(git_demo_repo)
    assert report.ok
    git(git_demo_repo, "commit", "-qm", "seed")
    store_path = git_demo_repo / config.store_path
    before = store_path.read_bytes()

    (git_demo_repo / "a.py").write_text(A_F_EDITED, encoding="utf-8")
    git(git_demo_repo, "add", "a.py")
    gateway = Gateway(FailingProvider(frozenset({"f"})), retries=0)
    report, _ = run_full_update(git_demo_repo, gateway)
    assert not report.ok
    assert set(report.run.failures) == {"a.py/f"}
    assert store_path.read_bytes() == before
    assert report.written_pages == []


def test_run_update_store_write_failure_leaves_pages_untouched(git_demo_repo, monkeypatch):
    git(git_demo_repo, "add", "-A")
    report, config = run_full_update(git_demo_repo)
    git(git_demo_repo, "commit", "-qm", "seed")
    doc_dir = git_demo_repo / config.doc_dir
    def snapshot():
        return {p: p.read_bytes() for p in sorted(doc_dir.rglob("*")) if p.is_file()}

    before = snapshot()

    # a new parameter changes the page of a.py
    (git_demo_repo / "a.py").write_text(A_F_EDITED.replace("def f():", "def f(y=0):"), encoding="utf-8")
    git(git_demo_repo, "add", "a.py")

    def refuse(store, path):
        raise StoreWriteError("disk full")

    monkeypatch.setattr(change_tracker, "save_store", refuse)
    with pytest.raises(StoreWriteError):
        run_full_update(git_demo_repo)
    assert snapshot() == before

    monkeypatch.undo()
    report, _ = run_full_update(git_demo_repo)
    assert report.written_pages == ["a.md"]


def test_update_saves_the_store_only_when_it_changed(git_demo_repo):
    store_rel = load_config(git_demo_repo).store_path
    store = git_demo_repo / store_rel
    c_py = git_demo_repo / "c.py"
    c_py.write_text("LIMIT = 1\n\n\ndef k():\n    return LIMIT\n", encoding="utf-8")
    git(git_demo_repo, "add", "-A")
    assert main(["update", "--repo", str(git_demo_repo)]) == 0
    git(git_demo_repo, "commit", "-qm", "seed")
    saved = store.stat()

    # a new value for a module-level name changes no object and shifts no line
    c_py.write_text("LIMIT = 2\n\n\ndef k():\n    return LIMIT\n", encoding="utf-8")
    git(git_demo_repo, "add", "c.py")
    assert main(["update", "--repo", str(git_demo_repo)]) == 0
    after = store.stat()
    assert (after.st_ino, after.st_mtime_ns) == (saved.st_ino, saved.st_mtime_ns)
    assert git(git_demo_repo, "diff", "--cached", "--name-only").split() == ["c.py"]

    # a body edit regenerates a doc, so the store is saved and staged
    (git_demo_repo / "a.py").write_text(A_F_EDITED, encoding="utf-8")
    git(git_demo_repo, "add", "a.py")
    assert main(["update", "--repo", str(git_demo_repo)]) == 0
    assert store.stat().st_ino != saved.st_ino
    assert store_rel in git(git_demo_repo, "diff", "--cached", "--name-only").split()


def test_run_update_incremental_edit_touches_one_object(git_demo_repo):
    git(git_demo_repo, "add", "-A")
    report, config = run_full_update(git_demo_repo)
    git(git_demo_repo, "commit", "-qm", "seed")

    (git_demo_repo / "a.py").write_text(A_F_EDITED, encoding="utf-8")
    git(git_demo_repo, "add", "a.py")
    report, _ = run_full_update(git_demo_repo)
    assert report.ok
    assert report.plan.regenerate == (("a.py/f", TRIGGER_SOURCE_MODIFIED),)
    assert report.run.generated == ["a.py/f"]
    # the mock doc for f has identical bytes, so no page changes
    assert report.written_pages == []


def test_run_update_outside_git_repo(tmp_path):
    write_tree(tmp_path, DEMO_FILES)
    with pytest.raises(NotAGitRepoError):
        run_update(tmp_path, make_gateway(), load_config(tmp_path))


def test_run_update_respects_lock(git_demo_repo):
    git(git_demo_repo, "add", "-A")
    config = load_config(git_demo_repo)
    lock_dir = (git_demo_repo / config.store_path).parent
    lock_dir.mkdir(parents=True, exist_ok=True)
    (lock_dir / ".lock").write_text(str(os.getpid()), encoding="ascii")
    with pytest.raises(LockError):
        run_update(git_demo_repo, make_gateway(), config)
    (lock_dir / ".lock").unlink()


def test_update_report_to_dict_is_json_shaped(git_demo_repo):
    git(git_demo_repo, "add", "-A")
    report, _ = run_full_update(git_demo_repo)
    data = report.to_dict()
    assert data["staged"]["added"] == ["a.py", "util/b.py"]
    assert ["a.py/f", "NewObject"] in data["plan"]["regenerate"]
    assert data["run"]["failures"] == {}
