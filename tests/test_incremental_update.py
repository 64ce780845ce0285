"""The hook's fast path against the full rebuild.

Each step of an edit sequence stages a change, then runs ``update`` twice on
twin copies of the repository: once as shipped, which takes the unchanged
files from the snapshot when it may, and once with every file parsed and
resolved. Graph, parse errors, prompts, pages and store must agree.
"""

from __future__ import annotations

import json
import re
import shutil
import sys

import pytest

from repodoc import change_tracker, source_model
from repodoc.cli import main
from repodoc.config import load_config
from repodoc.doc_pipeline import SNAPSHOT_DIGEST_NAME
from repodoc.source_model import PARSE_CACHE_NAME

from .conftest import git
from .helpers import LABELED_FILES, make_gateway, write_tree

FILES = {
    **LABELED_FILES,
    # a ring across two files: pruning removes y.py/q -> x.py/p
    "x.py": "import y\n\n\ndef p():\n    return y.q()\n",
    "y.py": "import x\n\n\ndef q():\n    return x.p()\n",
}

X_WITHOUT_CALL = "import y\n\n\ndef p():\n    return 0\n"
APP = LABELED_FILES["app.py"]
CORE = LABELED_FILES["core.py"]


def _edit(rel, text):
    """A step that writes ``rel``, or deletes it when ``text`` is None."""

    def step(repo):
        if text is None:
            (repo / rel).unlink()
        else:
            write_tree(repo, {rel: text})

    return step


def _rename_tools(repo):
    git(repo, "mv", "util/tools.py", "util/helpers.py")
    app = (repo / "app.py").read_text(encoding="utf-8").replace("util.tools", "util.helpers")
    (repo / "app.py").write_text(app, encoding="utf-8")


# (name, edit, files the fast path takes from the snapshot or None for the full path)
STEPS = [
    ("body-edit", _edit("core.py", CORE.replace("return 1", "return 2")), 5),
    ("comment-above-all-defs", _edit("x.py", "# moved\n" + FILES["x.py"]), 5),
    # no doc changed, so no store was saved: x.py's blob is not the snapshot's
    ("body-edit-after-a-comment", _edit("y.py", FILES["y.py"].replace("x.p()", "x.p() + 1")), 4),
    ("ring-opened-in-changed-file", _edit("x.py", X_WITHOUT_CALL), 5),
    ("ring-closed-by-new-call", _edit("x.py", FILES["x.py"]), 5),
    ("import-changed", _edit("app.py", APP.replace(
        "from util.tools import Wrapper, scale\n",
        "import core\nfrom util.tools import Wrapper, scale\n",
    ).replace("print(main())", "print(main(), core.beta(1))")), 5),
    ("call-to-a-missing-def", _edit("app.py", APP.replace("print(main())", "print(core.gamma())")
                                    .replace("from util", "import core\nfrom util")), 5),
    # an unchanged file already calls the new def: its edges must be resolved again
    ("def-added-that-a-reused-file-calls", _edit("core.py", CORE + "\n\ndef gamma():\n    return 3\n"),
     None),
    ("def-added", _edit("y.py", FILES["y.py"] + "\n\ndef z():\n    return 1\n"), None),
    ("def-removed", _edit("y.py", FILES["y.py"]), None),
    ("file-renamed", _rename_tools, None),
    ("syntax-error-file-added", _edit("bad.py", "def broken(:\n    pass\n"), None),
    # bad.py comes from the snapshot with its parse error
    ("body-edit-beside-a-syntax-error", _edit("y.py", FILES["y.py"].replace("x.p()", "x.p() + 2")), 6),
    ("syntax-error-fixed", _edit("bad.py", "VALUE = 1\n"), 6),
    ("file-removed", _edit("bad.py", None), None),
]


def _init_repo(repo):
    write_tree(repo, FILES)
    git(repo, "init", "-q")
    git(repo, "config", "user.email", "test@example.com")
    git(repo, "config", "user.name", "Test")
    git(repo, "config", "commit.gpgsign", "false")


def _update(repo, monkeypatch, *, full: bool):
    """Run ``update``; returns its report, graph and prompts."""
    built = []
    real = change_tracker._staged_graph

    def staged_graph(sources, cache, snapshot=None, must_parse=()):
        graph, taken = real(sources, cache, None if full else snapshot, must_parse)
        built.append(graph)
        return graph, taken

    gateway = make_gateway()
    with monkeypatch.context() as patch:
        patch.setattr(change_tracker, "_staged_graph", staged_graph)
        report = change_tracker.run_update(gateway, load_config(repo), 1)
    return report, built[0], gateway.provider.prompts


def _outputs(repo):
    """Pages, and the store with its timestamps masked."""
    config = load_config(repo)
    doc_dir = repo / config.doc_dir
    pages = {p.relative_to(doc_dir): p.read_bytes() for p in doc_dir.rglob("*") if p.is_file()}
    store = (repo / config.store_path).read_text(encoding="utf-8")
    return pages, re.sub(r'"generated_at":"[^"]*"', '"generated_at":""', store)


def test_fast_path_matches_the_full_rebuild_on_every_commit(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    _init_repo(repo)
    git(repo, "add", "-A")
    first, _, _ = _update(repo, monkeypatch, full=False)
    assert first.ok and first.reused_files == 0
    git(repo, "commit", "-qm", "seed")

    for name, edit, reused in STEPS:
        edit(repo)
        git(repo, "add", "-A")
        twin = tmp_path / f"full-{name}"
        shutil.copytree(repo, twin, symlinks=True)
        fast, fast_graph, fast_prompts = _update(repo, monkeypatch, full=False)
        full, full_graph, full_prompts = _update(twin, monkeypatch, full=True)
        assert fast.ok and full.ok, name
        assert fast.reused_files == (reused or 0), name
        assert full.reused_files == 0
        assert fast_graph.to_dict() == full_graph.to_dict(), name
        assert fast_graph.parse_errors == full_graph.parse_errors, name
        assert fast.parse_errors == full.parse_errors, name
        assert fast_prompts == full_prompts, name
        fast_report, full_report = fast.to_dict(), full.to_dict()
        for report in (fast_report, full_report):
            del report["parsed_files"], report["reused_files"]
        assert fast_report == full_report, name
        assert _outputs(repo) == _outputs(twin), name
        git(repo, "commit", "-qm", name)
        shutil.rmtree(twin)


def _git_files(repo) -> list[str]:
    return [p for p in git(repo, "ls-files").split() if p.endswith(".py")]


def test_one_file_body_edit_parses_one_file_and_reuses_the_rest(tmp_path, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    write_tree(repo, {"z.py": "def z():\n    return len([])\n"})
    git(repo, "add", "-A")
    assert main(["update", "--repo", str(repo), "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert "z.py:2: unresolved call len (caller z.py/z)" in first["diagnostics"]
    git(repo, "commit", "-qm", "seed")

    (repo / "app.py").write_text(APP.replace("print(main())", "print(main(), 2)"), encoding="utf-8")
    git(repo, "add", "app.py")
    assert main(["update", "--repo", str(repo), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["run"]["generated"] == ["app.py/report"]
    assert report["parsed_files"] == 1
    assert report["reused_files"] == len(_git_files(repo)) - 1
    # the unresolved calls of the staged file only
    assert report["diagnostics"] == [
        "app.py:6: unresolved call wrapper.go (caller app.py/main)",
        "app.py:10: unresolved call print (caller app.py/report)",
    ]


def test_fast_path_keeps_the_parse_cache_whole(tmp_path, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    git(repo, "add", "-A")
    assert main(["update", "--repo", str(repo)]) == 0
    git(repo, "commit", "-qm", "seed")
    (repo / "core.py").write_text(CORE.replace("return 1", "return 2"), encoding="utf-8")
    git(repo, "add", "core.py")
    capsys.readouterr()
    assert main(["update", "--repo", str(repo), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["reused_files"] == len(_git_files(repo)) - 1

    # the reused files' lines survived the save, though nothing decoded them
    cache_path = repo / ".git" / PARSE_CACHE_NAME
    lines = cache_path.read_text(encoding="utf-8").splitlines()[1:]
    assert sorted(json.loads(line)[0] for line in lines) == sorted(_git_files(repo))
    assert main(["generate", "--repo", str(repo), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["parsed_files"] == 0


def test_a_syntax_error_reported_from_the_snapshot_fails_the_hook_alike(tmp_path, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    write_tree(repo, {"bad.py": "def broken(:\n    pass\n"})
    git(repo, "add", "-A")
    assert main(["update", "--repo", str(repo)]) == 2
    git(repo, "commit", "-qm", "seed")
    (repo / "core.py").write_text(CORE.replace("return 1", "return 2"), encoding="utf-8")
    git(repo, "add", "core.py")
    capsys.readouterr()
    assert main(["update", "--repo", str(repo), "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["reused_files"] == len(_git_files(repo)) - 1
    assert len(report["parse_errors"]) == 1 and report["parse_errors"][0].startswith("bad.py:1")


def _main_update(repo, monkeypatch, capsys, *, full: bool) -> tuple[int, dict]:
    """Run ``update --json`` as the hook does; returns its exit code and
    report, without the counts of parsed and reused files when ``full``."""
    real = change_tracker._staged_graph

    def staged_graph(sources, cache, snapshot=None, must_parse=()):
        return real(sources, cache, None, must_parse)

    capsys.readouterr()
    with monkeypatch.context() as patch:
        if full:
            patch.setattr(change_tracker, "_staged_graph", staged_graph)
        code = main(["update", "--repo", str(repo), "--json"])
    return code, json.loads(capsys.readouterr().out)


def _same_but_counts(first: dict, second: dict) -> bool:
    counts = ("parsed_files", "reused_files")
    return {k: v for k, v in first.items() if k not in counts} == {
        k: v for k, v in second.items() if k not in counts
    }


@pytest.mark.parametrize("other", [None, "parser version", "cache tag", "no digest"])
def test_no_file_is_taken_from_a_snapshot_saved_elsewhere(tmp_path, monkeypatch, capsys, other):
    repo = tmp_path / "repo"
    _init_repo(repo)
    write_tree(repo, {"bad.py": "def broken(:\n    pass\n"})
    git(repo, "add", "-A")
    assert main(["update", "--repo", str(repo)]) == 2
    git(repo, "commit", "-qm", "seed")

    # the next update runs under another parser or Python, or on a store
    # that this repository's repodoc did not save, as after a clone
    if other == "parser version":
        monkeypatch.setattr(source_model, "PARSER_VERSION", source_model.PARSER_VERSION + 1)
    elif other == "cache tag":
        monkeypatch.setattr(sys.implementation, "cache_tag", "otherpython-99")
    elif other == "no digest":
        (repo / ".git" / SNAPSHOT_DIGEST_NAME).unlink()
    (repo / "core.py").write_text(CORE.replace("return 1", "return 2"), encoding="utf-8")
    git(repo, "add", "core.py")
    twin = tmp_path / "twin"
    shutil.copytree(repo, twin, symlinks=True)
    code, report = _main_update(repo, monkeypatch, capsys, full=False)
    full_code, full_report = _main_update(twin, monkeypatch, capsys, full=True)
    assert report["reused_files"] == (len(_git_files(repo)) - 1 if other is None else 0)
    assert code == full_code == 2
    assert report["parse_errors"] == full_report["parse_errors"]
    assert _same_but_counts(report, full_report)


def test_a_textually_merged_store_is_not_reused(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    git(repo, "add", "-A")
    assert main(["update", "--repo", str(repo)]) == 0
    git(repo, "commit", "-qm", "seed")
    git(repo, "branch", "-M", "main")

    def commit_on(branch: str, rel: str, text: str) -> None:
        git(repo, "checkout", "-q", "-b", branch, "main")
        (repo / rel).write_text(text, encoding="utf-8")
        git(repo, "add", rel)
        assert main(["update", "--repo", str(repo)]) == 0
        git(repo, "commit", "-qm", branch)

    # a call that branch "call" leaves unresolved, to the def branch "def" adds
    tools = LABELED_FILES["util/tools.py"]
    commit_on("call", "util/tools.py", tools.replace("core.ring_a(n)", "core.ring_a(n) + core.gamma()"))
    commit_on("def", "core.py", CORE + "\n\ndef gamma():\n    return 3\n")
    # Git merges the store line by line: the snapshot then lacks the edge
    # util/tools.py/spin -> core.py/gamma that the two branches together give
    git(repo, "checkout", "-q", "call")
    git(repo, "merge", "-q", "-X", "ours", "-m", "merge", "def")
    store = (repo / ".project_doc_record" / "project_hierarchy.json").read_text(encoding="utf-8")
    assert '"core.py/gamma"' in store and '"callee":"core.py/gamma"' not in store

    (repo / "y.py").write_text(FILES["y.py"].replace("x.p()", "x.p() + 1"), encoding="utf-8")
    git(repo, "add", "y.py")
    twin = tmp_path / "twin"
    shutil.copytree(repo, twin, symlinks=True)
    code, report = _main_update(repo, monkeypatch, capsys, full=False)
    full_code, full_report = _main_update(twin, monkeypatch, capsys, full=True)
    assert code == full_code == 0
    assert report["reused_files"] == 0
    assert _same_but_counts(report, full_report)
    assert _outputs(repo) == _outputs(twin)
    store = (repo / ".project_doc_record" / "project_hierarchy.json").read_text(encoding="utf-8")
    assert '"callee":"core.py/gamma","caller":"util/tools.py/spin"' in store
