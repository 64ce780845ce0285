from __future__ import annotations

import contextlib
import json
import logging
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from repodoc import change_tracker
from repodoc.change_tracker import (
    HOOK_MARKER,
    LOCAL_HOOK_NAME,
    LOCK_NAME,
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
from repodoc.doc_pipeline import SNAPSHOT_DIGEST_NAME
from repodoc.errors import LockError, NotAGitRepoError, StoreWriteError, UsageError
from repodoc.llm_gateway import Gateway
from repodoc.source_model import PARSE_CACHE_NAME, ParseCache, blob_id, scan_repository

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
    assert "a.py/g" not in {oid for oid, _ in plan.regenerate}


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
    with contextlib.closing(read_staged_text(git_demo_repo)) as sources:
        assert sources["a.py"] == (oid, A_F_EDITED)
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
    assert list(scan_repository(git_demo_repo, ignore)) == expected
    assert sorted(read_staged_text(git_demo_repo, ignore)) == expected
    assert staged_changes(git_demo_repo, ignore).added == tuple(expected)


def test_read_staged_text_names_the_file_whose_blob_is_missing(git_demo_repo, capsys):
    git(git_demo_repo, "add", "-A")
    oid = git(git_demo_repo, "rev-parse", ":util/b.py").strip()
    (git_demo_repo / ".git" / "objects" / oid[:2] / oid[2:]).unlink()
    with contextlib.closing(read_staged_text(git_demo_repo)) as sources:
        with pytest.raises(UsageError, match="util/b.py"):
            sources.read(list(sources))

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


def test_one_file_update_runs_six_git_processes(git_demo_repo, monkeypatch):
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
    # the repository check, the staged diff, the index listing, the blobs,
    # whether Git commits the pages, which then hold the texts, one add
    assert commands == [
        ("rev-parse", "--git-dir"),
        ("diff", "--cached"),
        ("ls-files", "--stage"),
        ("cat-file", "--batch"),
        ("check-ignore", "-q"),
        ("add", "-A"),
    ]
    # the one add staged the page and the store
    assert git(git_demo_repo, "diff", "--name-only") == ""


@pytest.mark.parametrize("where", ["ignored", "outside the work tree"])
def test_texts_stay_in_the_store_when_git_would_not_commit_the_pages(
    git_demo_repo, tmp_path, monkeypatch, where
):
    repo = git_demo_repo
    if where == "ignored":
        write_tree(repo, {".gitignore": "markdown_docs/\n"})
    else:
        # the doc dir is a link to a directory outside the work tree
        (tmp_path / "pages").mkdir()
        (repo / "markdown_docs").symlink_to(tmp_path / "pages")
    assert main(["generate", "--repo", str(repo)]) == 0
    store_rel = load_config(repo).store_path
    records = json.loads((repo / store_rel).read_text(encoding="utf-8"))["records"]
    assert len(records) == 5 and all(type(record) is list for record in records.values())
    if where != "ignored":
        return
    pages = {p.name: p.read_bytes() for p in (repo / "markdown_docs").rglob("*.md")}
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", "seed")

    # a clone has the store and no page, and writes them all from the store
    clone = tmp_path / "clone"
    git(tmp_path, "clone", "-q", str(repo), str(clone))
    gateway = make_gateway()
    monkeypatch.setattr(change_tracker, "build_gateway", lambda config: gateway)
    assert main(["generate", "--repo", str(clone)]) == 0
    assert gateway.provider.prompts == []
    assert {p.name: p.read_bytes() for p in (clone / "markdown_docs").rglob("*.md")} == pages


def test_a_git_ignored_doc_dir_stays_unstaged_and_the_store_is_staged(git_demo_repo):
    git(git_demo_repo, "add", "-A")
    git(git_demo_repo, "commit", "-qm", "seed")
    # twins that differ in one thing: the second one's .gitignore names the doc dir
    ignored = git_demo_repo.parent / "ignored"
    shutil.copytree(git_demo_repo, ignored)
    write_tree(ignored, {".gitignore": "markdown_docs/\n"})
    git(ignored, "add", ".gitignore")
    git(ignored, "commit", "-qm", "ignore the pages")
    store_rel = load_config(ignored).store_path

    for step, text in enumerate([A_F_EDITED, A_F_EDITED.replace("def f():", "def f(y=0):")]):
        for repo in (git_demo_repo, ignored):
            (repo / "a.py").write_text(text, encoding="utf-8")
            git(repo, "add", "a.py")
            assert main(["update", "--repo", str(repo)]) == 0, (step, repo.name)
            staged = set(git(repo, "diff", "--cached", "--name-only").split())
            assert {"a.py", store_rel} <= staged
            pages = {rel for rel in staged if rel.startswith("markdown_docs/")}
            if repo == ignored:
                assert pages == set()
                assert (repo / "markdown_docs" / "a.md").is_file()
            elif step == 0:
                assert pages == {"markdown_docs/SUMMARY.md", "markdown_docs/a.md", "markdown_docs/util/b.md"}
            # what the commit holds of the store is what the run wrote
            assert git(repo, "diff", "--name-only") == ""
            git(repo, "commit", "-qm", f"step {step}")
    assert git(ignored, "ls-files", "markdown_docs") == ""
    assert git(git_demo_repo, "show", "HEAD:markdown_docs/a.md") == (
        git_demo_repo / "markdown_docs" / "a.md"
    ).read_text(encoding="utf-8")


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
    """Plan, pages, index and the store it holds after an update."""
    report, config = run_full_update(repo)
    doc_dir = repo / config.doc_dir
    pages = {p.relative_to(doc_dir): p.read_bytes() for p in doc_dir.rglob("*") if p.is_file()}
    index = git(repo, "ls-files", "-s").splitlines()
    store = git(repo, "show", f":{config.store_path}")
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
        assert report.ok and report.plan.regenerate == () and report.plan.delete_docs == ()
        assert report.run.generated == [] and report.written_pages == []
        after = store.stat()
        assert (after.st_ino, after.st_mtime_ns) == (saved.st_ino, saved.st_mtime_ns)
        assert git(repo, "diff", "--cached", "--name-only").split() == ["a.py"]


def test_update_lock_is_exclusive(tmp_path):
    with _update_lock(tmp_path):
        with pytest.raises(LockError) as err:
            with _update_lock(tmp_path):
                pass
        message = f"another generate, update or publish holds {tmp_path / LOCK_NAME}"
        assert message in str(err.value)
    # released on exit, so it can be taken again
    with _update_lock(tmp_path):
        pass


HOLD_LOCK = """
import sys, time
from pathlib import Path
from repodoc.change_tracker import _update_lock
with _update_lock(Path(sys.argv[1])):
    print("locked", flush=True)
    time.sleep(60)
"""


def test_update_lock_is_free_once_its_holder_is_killed(tmp_path, caplog):
    src = Path(change_tracker.__file__).parents[1]
    child = subprocess.Popen(
        [sys.executable, "-c", HOLD_LOCK, str(tmp_path)],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    try:
        assert child.stdout.readline() == "locked\n"
        with pytest.raises(LockError):
            with _update_lock(tmp_path):
                pass
    finally:
        child.kill()  # SIGKILL: the holder runs no cleanup
        child.wait()
        child.stdout.close()
    with caplog.at_level(logging.DEBUG, logger="repodoc"):
        with _update_lock(tmp_path):
            pass
    assert caplog.text == ""


@pytest.mark.parametrize(
    "content", ["", "not a pid", str(os.getpid())], ids=["empty", "garbage", "live-pid"]
)
def test_update_lock_ignores_what_the_lock_file_holds(tmp_path, content):
    (tmp_path / LOCK_NAME).write_text(content, encoding="ascii")
    with _update_lock(tmp_path):
        pass
    # neither written nor deleted
    assert (tmp_path / LOCK_NAME).read_text(encoding="ascii") == content


def test_update_lock_that_cannot_be_taken_is_a_lock_error(tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("", encoding="ascii")
    with pytest.raises(LockError) as err:
        with _update_lock(not_a_dir):
            pass
    assert f"cannot lock {not_a_dir / LOCK_NAME}" in str(err.value)


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
    report = run_update(make_gateway(), config, 1)
    assert report.ok and not report.staged
    assert report.summary_line() == (
        "Passed: documentation in sync (no staged Python changes)"
    )
    assert not (git_demo_repo / config.store_path).exists()


def test_an_update_with_nothing_staged_reads_no_parse_cache(git_demo_repo, monkeypatch):
    git(git_demo_repo, "add", "-A")
    git(git_demo_repo, "commit", "-qm", "seed")
    config = load_config(git_demo_repo)
    loads = []
    monkeypatch.setattr(ParseCache, "_load", lambda cache, path: loads.append(path))
    assert not run_update(make_gateway(), config, 1).staged
    assert loads == []
    # the cache is read once something is staged
    (git_demo_repo / "a.py").write_text(DEMO_FILES["a.py"] + "\n# edited\n", encoding="utf-8")
    git(git_demo_repo, "add", "a.py")
    assert run_update(make_gateway(), config, 1).ok
    assert loads == [git_demo_repo / ".git" / PARSE_CACHE_NAME]


def run_full_update(repo, gateway=None):
    config = load_config(repo)
    return run_update(gateway or make_gateway(), config, 1), config


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
    # the lock lives in the git directory, not beside the store
    assert (git_demo_repo / ".git" / LOCK_NAME).exists()
    assert not (git_demo_repo / config.store_path).parent.joinpath(LOCK_NAME).exists()


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


def test_an_update_refused_for_a_parse_error_writes_and_stages_nothing(git_demo_repo):
    git(git_demo_repo, "add", "-A")
    assert run_full_update(git_demo_repo)[0].ok
    git(git_demo_repo, "commit", "-qm", "seed")
    kept = [p for p in git_demo_repo.rglob("*") if p.is_file() and ".git" not in p.parts]
    before = {path: path.read_bytes() for path in kept if path.name != "a.py"}

    (git_demo_repo / "a.py").write_text(A_F_EDITED.replace("def f():", "def f(:"), encoding="utf-8")
    git(git_demo_repo, "add", "a.py")
    assert main(["update", "--repo", str(git_demo_repo)]) == 2
    assert git(git_demo_repo, "diff", "--cached", "--name-only").splitlines() == ["a.py"]
    assert {path: path.read_bytes() for path in before} == before

    # the records of a.py were kept, so fixing it regenerates only what changed
    (git_demo_repo / "a.py").write_text(A_F_EDITED, encoding="utf-8")
    git(git_demo_repo, "add", "a.py")
    report, _ = run_full_update(git_demo_repo)
    assert report.ok and not report.parse_errors
    assert report.plan.regenerate == (("a.py/f", TRIGGER_SOURCE_MODIFIED),)
    assert report.run.generated == ["a.py/f"]


def test_an_update_refused_for_a_parse_error_sends_no_request(git_demo_repo, monkeypatch, capsys):
    git(git_demo_repo, "add", "-A")
    assert run_full_update(git_demo_repo)[0].ok
    git(git_demo_repo, "commit", "-qm", "seed")

    # a.py fails to parse while h, in the other file, has a new body
    (git_demo_repo / "a.py").write_text(A_F_EDITED.replace("def f():", "def f(:"), encoding="utf-8")
    b_py = git_demo_repo / "util" / "b.py"
    b_py.write_text(DEMO_FILES["util/b.py"].replace("g(3)", "g(4)"), encoding="utf-8")
    git(git_demo_repo, "add", "-A")
    gateway = make_gateway()
    monkeypatch.setattr(change_tracker, "build_gateway", lambda config: gateway)
    capsys.readouterr()
    assert main(["update", "--repo", str(git_demo_repo), "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert gateway.provider.requests == []
    assert report["run"]["generated"] == [] and report["run"]["prompt_tokens"] == 0
    assert git(git_demo_repo, "diff", "--cached", "--name-only").splitlines() == ["a.py", "util/b.py"]


def test_update_regenerates_a_doc_that_a_failed_generate_left_outdated(git_demo_repo, monkeypatch):
    assert main(["generate", "--repo", str(git_demo_repo)]) == 0
    git(git_demo_repo, "add", "-A")
    git(git_demo_repo, "commit", "-qm", "seed")
    (git_demo_repo / "a.py").write_text(A_F_EDITED, encoding="utf-8")
    with monkeypatch.context() as patch:
        failing = Gateway(FailingProvider(frozenset({"f"})), retries=0)
        patch.setattr(change_tracker, "build_gateway", lambda config: failing)
        # the snapshot takes the new f, its record keeps the doc of the old
        assert main(["generate", "--repo", str(git_demo_repo)]) == 3
    git(git_demo_repo, "add", "-A")
    git(git_demo_repo, "commit", "-qm", "edit f", "--no-verify")

    # a comment after h changes no object
    b_py = git_demo_repo / "util" / "b.py"
    b_py.write_text(DEMO_FILES["util/b.py"] + "# the end\n", encoding="utf-8")
    git(git_demo_repo, "add", "util/b.py")
    report, _ = run_full_update(git_demo_repo)
    assert report.ok
    assert report.plan.regenerate == (("a.py/f", "DocOutdated"),)
    assert report.run.generated == ["a.py/f"]
    report, _ = run_full_update(git_demo_repo)
    assert report.plan.regenerate == () and report.run.generated == []


def test_update_regenerates_a_def_that_a_failed_generate_left_without_a_record(
    git_demo_repo, monkeypatch
):
    assert main(["generate", "--repo", str(git_demo_repo)]) == 0
    git(git_demo_repo, "add", "-A")
    git(git_demo_repo, "commit", "-qm", "seed")
    a_py = git_demo_repo / "a.py"
    a_py.write_text(DEMO_FILES["a.py"] + "\n\ndef k():\n    return 0\n", encoding="utf-8")
    with monkeypatch.context() as patch:
        failing = Gateway(FailingProvider(frozenset({"k"})), retries=0)
        patch.setattr(change_tracker, "build_gateway", lambda config: failing)
        # the snapshot takes the new k, which has no record
        assert main(["generate", "--repo", str(git_demo_repo)]) == 3
    git(git_demo_repo, "add", "-A")
    git(git_demo_repo, "commit", "-qm", "add k", "--no-verify")

    b_py = git_demo_repo / "util" / "b.py"
    b_py.write_text(DEMO_FILES["util/b.py"] + "# the end\n", encoding="utf-8")
    git(git_demo_repo, "add", "util/b.py")
    report, _ = run_full_update(git_demo_repo)
    assert report.ok and report.reused_files > 0
    assert report.plan.regenerate == (("a.py/k", "DocOutdated"),)
    assert report.run.generated == ["a.py/k"]
    report, _ = run_full_update(git_demo_repo)
    assert report.plan.regenerate == () and report.run.generated == []


def _docs(repo: Path) -> dict:
    """The store's and the pages' bytes."""
    config = load_config(repo)
    paths = [repo / config.store_path, *sorted((repo / config.doc_dir).rglob("*.md"))]
    return {p.relative_to(repo): p.read_bytes() for p in paths}


def test_a_restored_source_whose_record_is_of_it_is_not_regenerated(
    git_demo_repo, monkeypatch, capsys
):
    # A failed generate leaves h's record of the source the user then
    # restores. The call to f that the edit added goes again, which
    # regenerates f, its callee, and not h, its caller: h's doc is of h's
    # source, callers and callees, all as they were when it was made.
    assert main(["generate", "--repo", str(git_demo_repo)]) == 0
    b_py = git_demo_repo / "util" / "b.py"
    b_py.write_text(B_WITH_F_CALL, encoding="utf-8")
    with monkeypatch.context() as patch:
        failing = Gateway(FailingProvider(frozenset({"h"})), retries=0)
        patch.setattr(change_tracker, "build_gateway", lambda config: failing)
        assert main(["generate", "--repo", str(git_demo_repo)]) == 3
    b_py.write_text(DEMO_FILES["util/b.py"], encoding="utf-8")
    full = git_demo_repo.parent / "full"
    shutil.copytree(git_demo_repo, full, symlinks=True)
    (full / ".git" / SNAPSHOT_DIGEST_NAME).unlink()  # nothing is taken from the snapshot

    reports = []
    for repo in (git_demo_repo, full):
        capsys.readouterr()
        assert main(["generate", "--repo", str(repo), "--json"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    fast, slow = reports
    assert (fast["reused_files"], slow["reused_files"]) == (1, 0)
    assert fast["generated"] == slow["generated"] == ["a.py/f"]
    assert _docs(git_demo_repo) == _docs(full)


def test_a_callee_that_fails_for_a_new_caller_is_pending_on_the_next_run(
    tmp_path, monkeypatch, capsys
):
    # f is pending only because g, added, calls it. The failed run saves the
    # snapshot with g -> f, so without a mark on f's record the next run
    # would find no edge added and f's doc would never name its caller.
    repo = tmp_path / "repo"
    write_tree(repo, {"a.py": "def f():\n    return 1\n"})
    git(repo, "init", "-q")
    assert main(["generate", "--repo", str(repo)]) == 0
    page = (repo / "markdown_docs" / "a.md").read_bytes()
    write_tree(repo, {"b.py": "from a import f\n\n\ndef g():\n    return f()\n"})
    with monkeypatch.context() as patch:
        failing = Gateway(FailingProvider(frozenset({"f"})), retries=0)
        patch.setattr(change_tracker, "build_gateway", lambda config: failing)
        capsys.readouterr()
        assert main(["generate", "--repo", str(repo), "--json"]) == 3
        report = json.loads(capsys.readouterr().out)
    assert report["generated"] == ["b.py/g"] and list(report["failures"]) == ["a.py/f"]
    # the page keeps the doc f had
    assert (repo / "markdown_docs" / "a.md").read_bytes() == page

    for generated in (["a.py/f"], []):
        assert main(["generate", "--repo", str(repo), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["generated"] == generated


def test_an_outdated_doc_that_fails_again_refuses_no_later_commit(git_demo_repo, capsys):
    # one tier: the demo's objects fit it, an f of 3,000 lines fits no budget
    config = {"provider": {"tiers": [{"name": "small", "context_window": 4000}]}}
    (git_demo_repo / ".repodoc.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["generate", "--repo", str(git_demo_repo)]) == 0
    git(git_demo_repo, "add", "-A")
    git(git_demo_repo, "commit", "-qm", "seed")
    long_f = A_F_EDITED.replace("def f():\n", "def f():\n" + "    x = 1\n" * 3000)
    (git_demo_repo / "a.py").write_text(long_f, encoding="utf-8")
    assert main(["generate", "--repo", str(git_demo_repo)]) == 3
    git(git_demo_repo, "add", "-A")
    git(git_demo_repo, "commit", "-qm", "grow f", "--no-verify")

    b_py = git_demo_repo / "util" / "b.py"
    b_py.write_text(DEMO_FILES["util/b.py"].replace("g(3)", "g(4)"), encoding="utf-8")
    git(git_demo_repo, "add", "util/b.py")
    capsys.readouterr()
    assert main(["update", "--repo", str(git_demo_repo), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["plan"]["regenerate"] == [["a.py/f", "DocOutdated"], ["util/b.py/h", "SourceModified"]]
    assert out["run"]["generated"] == ["util/b.py/h"] and list(out["run"]["failures"]) == ["a.py/f"]
    # h's new record is saved and staged; f keeps its old one
    staged_now = git(git_demo_repo, "diff", "--cached", "--name-only").splitlines()
    assert load_config(git_demo_repo).store_path in staged_now
    report, _ = run_full_update(git_demo_repo)
    assert report.ok and report.plan.regenerate == (("a.py/f", "DocOutdated"),)
    assert set(report.run.failures) == {"a.py/f"} and report.run.generated == []


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

    def refuse(store, path, *args):
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
    # saved twice, so the second file may take the first's freed inode
    assert (store.stat().st_ino, store.stat().st_mtime_ns) != (saved.st_ino, saved.st_mtime_ns)
    assert store_rel in git(git_demo_repo, "diff", "--cached", "--name-only").split()


def test_each_generate_and_python_update_diffs_the_graph_once(git_demo_repo, monkeypatch):
    real, calls = diff_objects, []

    def counted(old, new):
        calls.append(new)
        return real(old, new)

    # rebind it wherever repodoc imported it
    for module in [m for name, m in sys.modules.items() if name.startswith("repodoc.")]:
        if getattr(module, "diff_objects", None) is real:
            monkeypatch.setattr(module, "diff_objects", counted)
    counts = []

    def run(command):
        assert main([command, "--repo", str(git_demo_repo)]) == 0
        counts.append(len(calls))
        calls.clear()

    run("generate")  # no store yet
    run("generate")  # a no-op over the snapshot
    git(git_demo_repo, "add", "-A")
    git(git_demo_repo, "commit", "-qm", "seed")
    (git_demo_repo / "a.py").write_text(A_F_EDITED, encoding="utf-8")
    git(git_demo_repo, "add", "a.py")
    run("update")
    git(git_demo_repo, "commit", "-qm", "edit")
    (git_demo_repo / "README.md").write_text("# demo, edited\n", encoding="utf-8")
    git(git_demo_repo, "add", "README.md")
    run("update")  # no Python staged
    assert counts == [1, 1, 1, 0]


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
        run_update(make_gateway(), load_config(tmp_path), 1)


def test_run_update_respects_lock(git_demo_repo):
    git(git_demo_repo, "add", "-A")
    config = load_config(git_demo_repo)
    staged = git(git_demo_repo, "diff", "--cached", "--name-only")
    with _update_lock(git_demo_repo / ".git"):
        with pytest.raises(LockError):
            run_update(make_gateway(), config, 1)
    assert not (git_demo_repo / config.store_path).parent.exists()
    assert not (git_demo_repo / config.doc_dir).exists()
    assert git(git_demo_repo, "diff", "--cached", "--name-only") == staged


def test_update_report_to_dict_is_json_shaped(git_demo_repo):
    git(git_demo_repo, "add", "-A")
    report, _ = run_full_update(git_demo_repo)
    data = report.to_dict()
    assert data["staged"]["added"] == ["a.py", "util/b.py"]
    assert ["a.py/f", "NewObject"] in data["plan"]["regenerate"]
    assert data["run"]["failures"] == {}
