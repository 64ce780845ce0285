"""The fast path of ``update`` and ``generate`` against the full rebuild.

Each step of an edit sequence changes the repository, staged for ``update``
or in the working tree for ``generate``, then runs the command twice on twin
copies of the repository: once as shipped, which takes the unchanged files
from the snapshot when it may, and once with every file parsed and resolved.
Graph, parse errors, prompts, report, pages and store must agree. The same
edits replayed through ``generate`` and ``update`` on twin repositories must
regenerate the same objects from the same prompts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from repodoc import change_tracker, doc_pipeline, markdown_publisher, project_graph, source_model
from repodoc.cli import main
from repodoc.config import load_config
from repodoc.doc_pipeline import SNAPSHOT_DIGEST_NAME, graph_dict
from repodoc.errors import StoreWriteError
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
Y_WITHOUT_CALL = "import x\n\n\ndef q():\n    return 0\n"
APP = LABELED_FILES["app.py"]
CORE = LABELED_FILES["core.py"]
CORE_WITH_GAMMA = CORE + "\n\ndef gamma():\n    return 3\n"
# scale calls beta on one line of several, so beta's prompt quotes it by that line
SCALE_GROWN = LABELED_FILES["util/tools.py"].replace(
    "def scale(x):\n    return beta(x) * 2\n",
    'def scale(x):\n    """Twice beta."""\n    factor = 2\n    return beta(x) * factor\n',
)
SCALE_QUOTED = "def scale(x):\n    ...\n    return beta(x) * factor\n```"
# beta is documented, so a prompt quotes it by its header
BETA_QUOTED = "[Code begin of beta]\n```\ndef beta(x): ...\n```"


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
    ("def-added-that-a-reused-file-calls", _edit("core.py", CORE_WITH_GAMMA), None),
    ("def-added", _edit("y.py", FILES["y.py"] + "\n\ndef z():\n    return 1\n"), None),
    ("def-removed", _edit("y.py", FILES["y.py"]), None),
    ("file-renamed", _rename_tools, None),
    ("syntax-error-file-added", _edit("bad.py", "def broken(:\n    pass\n"), None),
    # bad.py comes from the snapshot with its parse error
    ("body-edit-beside-a-syntax-error", _edit("y.py", FILES["y.py"].replace("x.p()", "x.p() + 2")), 6),
    ("syntax-error-fixed", _edit("bad.py", "VALUE = 1\n"), 6),
    ("file-removed", _edit("bad.py", None), None),
    # the edge that pruning removed goes, and no kept edge changes
    ("removed-edge-dropped", _edit("y.py", Y_WITHOUT_CALL), 5),
    ("caller-grown", _edit("util/helpers.py", SCALE_GROWN), 5),
    # beta's caller scale lives in a file taken from the snapshot, so the
    # text it is quoted from comes from add_snippets; with alpha edited too,
    # two workers take the two
    ("callee-of-a-taken-caller-edited", _edit("core.py", CORE_WITH_GAMMA.replace(
        "alpha() + x", "alpha() + x + 0").replace("return 1", "return 2")), 5),
    # scale's callee beta lives in a file taken from the snapshot, so the
    # text its header is cut from comes from add_snippets
    ("caller-of-a-taken-callee-edited", _edit("util/helpers.py", SCALE_GROWN.replace(
        "factor = 2", "factor = 3")), 5),
]

# a refused update saves no snapshot, so the file it could not parse is new
# to the snapshot until an update parses it: the update of a step named
# here takes the full path
FULL_AFTER_A_REFUSED_UPDATE = {"body-edit-beside-a-syntax-error", "syntax-error-fixed"}

# (target, quote): in a step named here, the prompt of the target quotes so
QUOTED = {
    "callee-of-a-taken-caller-edited": ("beta", SCALE_QUOTED),
    "caller-of-a-taken-callee-edited": ("scale", BETA_QUOTED),
}


def _init_repo(repo):
    write_tree(repo, FILES)
    git(repo, "init", "-q")
    git(repo, "config", "user.email", "test@example.com")
    git(repo, "config", "user.name", "Test")
    git(repo, "config", "commit.gpgsign", "false")


def _recording(patch, module, *, full: bool) -> list:
    """Patch ``module`` so that each graph its ``source_graph`` builds is
    appended to the list returned, and, when ``full``, so that it trusts no
    snapshot and decodes the whole store, parses every file, compiles every
    page and encodes the whole store."""
    built = []
    real = module.source_graph

    def source_graph(*args, **kwargs):
        graph, taken = real(*args, **kwargs)
        built.append(graph)
        return graph, taken

    patch.setattr(module, "source_graph", source_graph)
    if full:
        load_store = module.load_store
        patch.setattr(
            module, "load_store", lambda path, git_dir=None, doc_dir=None: load_store(path, None, doc_dir)
        )
    return built


def _update(repo, monkeypatch, *, full: bool, fail: frozenset[str] = frozenset(), jobs: int = 1):
    """Run ``update`` with ``jobs`` workers, the generation of each object
    named in ``fail`` failing; returns its report, graph and prompts."""
    gateway = make_gateway(fail)
    with monkeypatch.context() as patch:
        built = _recording(patch, change_tracker, full=full)
        report = change_tracker.run_update(gateway, load_config(repo), jobs)
    return report, built[0], gateway.provider.prompts


def _generate(repo, monkeypatch, capsys, *, full: bool, fail: frozenset[str] = frozenset()):
    """Run ``generate --json``, the generation of each object named in
    ``fail`` failing; returns its exit code, report, graph and prompts."""
    gateway = make_gateway(fail)
    capsys.readouterr()
    with monkeypatch.context() as patch:
        built = _recording(patch, change_tracker, full=full)
        patch.setattr(change_tracker, "build_gateway", lambda config: gateway)
        code = main(["generate", "--repo", str(repo), "--json"])
    return code, json.loads(capsys.readouterr().out), built[0], gateway.provider.prompts


def _assert_prerequisites_first(generated: list[str], graph, name: str) -> None:
    """Each generated object comes after its generated callees and children."""
    position = {oid: index for index, oid in enumerate(generated)}
    for oid in generated:
        for need in (*graph.callees(oid), *graph.object_children(oid)):
            if need in position:
                assert position[need] < position[oid], (name, need, oid)


def _without_counts(report: dict) -> dict:
    return {k: v for k, v in report.items() if k not in ("parsed_files", "reused_files")}


def _outputs(repo):
    """Pages, and the store's text."""
    config = load_config(repo)
    doc_dir = repo / config.doc_dir
    pages = {p.relative_to(doc_dir): p.read_bytes() for p in doc_dir.rglob("*") if p.is_file()}
    store = (repo / config.store_path).read_text(encoding="utf-8")
    return pages, store


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
        twin, jobs_twin = tmp_path / f"full-{name}", tmp_path / f"jobs-{name}"
        shutil.copytree(repo, twin, symlinks=True)
        shutil.copytree(repo, jobs_twin, symlinks=True)
        fast, fast_graph, fast_prompts = _update(repo, monkeypatch, full=False)
        full, full_graph, full_prompts = _update(twin, monkeypatch, full=True)
        _, _, jobs_prompts = _update(jobs_twin, monkeypatch, full=False, jobs=2)
        # two workers send the same prompts, in an order of their own
        assert sorted(jobs_prompts) == sorted(fast_prompts), name
        assert _outputs(jobs_twin) == _outputs(repo), name
        if name in QUOTED:
            target, quote = QUOTED[name]
            (prompt,) = [p for p in fast_prompts if f'whose name is "{target}"' in p]
            assert quote in prompt, name
        assert fast.ok and full.ok, name
        assert fast.reused_files == (0 if name in FULL_AFTER_A_REFUSED_UPDATE else reused or 0), name
        assert full.reused_files == 0
        assert graph_dict(fast_graph) == graph_dict(full_graph), name
        assert fast_graph.parse_errors == full_graph.parse_errors, name
        assert fast.parse_errors == full.parse_errors, name
        assert fast_prompts == full_prompts, name
        assert _without_counts(fast.to_dict()) == _without_counts(full.to_dict()), name
        _assert_prerequisites_first(fast.run.generated, fast_graph, name)
        assert _outputs(repo) == _outputs(twin), name
        git(repo, "commit", "-qm", name)
        shutil.rmtree(twin)
        shutil.rmtree(jobs_twin)


def test_generate_fast_path_matches_the_full_rebuild_after_every_edit(
    tmp_path, monkeypatch, capsys
):
    repo = tmp_path / "repo"
    _init_repo(repo)
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", "seed")
    code, first, _, _ = _generate(repo, monkeypatch, capsys, full=False)
    assert code == 0 and first["reused_files"] == 0

    for name, edit, reused in STEPS:
        edit(repo)
        twin = tmp_path / f"full-{name}"
        shutil.copytree(repo, twin, symlinks=True)
        code, fast, fast_graph, fast_prompts = _generate(repo, monkeypatch, capsys, full=False)
        full_code, full, full_graph, full_prompts = _generate(
            twin, monkeypatch, capsys, full=True
        )
        assert code == full_code, name
        assert fast["reused_files"] == (reused or 0), name
        assert full["reused_files"] == 0
        assert graph_dict(fast_graph) == graph_dict(full_graph), name
        assert fast_graph.parse_errors == full_graph.parse_errors, name
        assert fast_prompts == full_prompts, name
        assert _without_counts(fast) == _without_counts(full), name
        _assert_prerequisites_first(fast["generated"], fast_graph, name)
        assert _outputs(repo) == _outputs(twin), name
        shutil.rmtree(twin)


def test_generate_and_update_regenerate_the_same_objects_after_every_edit(
    tmp_path, monkeypatch, capsys
):
    # twin repositories: one documented by generate from the working tree,
    # the other by update from the index, with each edit staged
    by_generate, by_update = tmp_path / "generate", tmp_path / "update"
    for repo in (by_generate, by_update):
        _init_repo(repo)
        git(repo, "add", "-A")
    assert _generate(by_generate, monkeypatch, capsys, full=False)[0] == 0
    assert _update(by_update, monkeypatch, full=False)[0].ok
    for repo in (by_generate, by_update):
        git(repo, "add", "-A")
        git(repo, "commit", "-qm", "seed")

    for name, edit, _ in STEPS:
        for repo in (by_generate, by_update):
            edit(repo)
        git(by_update, "add", "-A")
        before = _outputs(by_update)
        updated, _, update_prompts = _update(by_update, monkeypatch, full=False)
        if updated.parse_errors:
            # a refused update writes nothing, so its twin documents this
            # edit together with the next one, as the update does
            assert updated.ok and _outputs(by_update) == before, name
            continue
        code, generated, _, generate_prompts = _generate(by_generate, monkeypatch, capsys, full=False)
        assert updated.ok and code == 0, name
        assert generated["generated"] == updated.run.generated, name
        assert generate_prompts == update_prompts, name
        assert _outputs(by_generate) == _outputs(by_update), name
        for repo in (by_generate, by_update):
            git(repo, "add", "-A")
            git(repo, "commit", "-qm", name)


def _run(command, repo, monkeypatch, capsys, *, full: bool, fail: frozenset[str]):
    """Run ``update`` or ``generate``; returns whether it succeeded, its
    report as a dict, and its graph and prompts."""
    if command == "update":
        report, graph, prompts = _update(repo, monkeypatch, full=full, fail=fail)
        return report.ok, report.to_dict(), graph, prompts
    code, report, graph, prompts = _generate(repo, monkeypatch, capsys, full=full, fail=fail)
    return code == 0, report, graph, prompts


def _states_its_hash(repo, node_id: str) -> bool:
    """Whether the store line of ``node_id`` states its source hash."""
    _, text = _outputs(repo)
    line = next(line for line in text.split("\n") if line.startswith(json.dumps(node_id) + ":{"))
    return '"source_hash":' in line


ALPHA_EDITED = _edit("core.py", CORE.replace("return 1", "return 2"))
CALL_TO_ALPHA = _edit("app.py", "import core\n" + APP.replace("print(main())", "print(main(), core.alpha())"))

# (name, edit, command, whether alpha's generation fails, whether alpha's
# node states its hash after, files the fast path takes from the snapshot
# or None when not checked)
FAILED_THEN_DONE = {
    "generate": [
        ("body-edit-whose-generation-fails", ALPHA_EDITED, "generate", True, True, None),
        # alpha's file is taken with its node, which loses its hash
        ("rerun-that-succeeds", None, "generate", False, False, len(FILES)),
    ],
    "update": [
        # a failed update writes nothing
        ("body-edit-whose-update-fails", ALPHA_EDITED, "update", True, False, None),
        ("generate-that-fails", None, "generate", True, True, None),
        # alpha's file is taken with its node; the new call regenerates alpha
        ("call-to-the-failed-def-added", CALL_TO_ALPHA, "update", False, False, len(FILES) - 1),
    ],
}


@pytest.mark.parametrize("sequence", ["generate", "update"])
def test_fast_path_matches_the_full_rebuild_when_a_generation_fails_then_succeeds(
    tmp_path, monkeypatch, capsys, sequence
):
    # A node leaves out the source hash its record states, so the line of
    # a node taken from the snapshot changes when its record does.
    repo = tmp_path / "repo"
    _init_repo(repo)
    git(repo, "add", "-A")
    assert _run(sequence, repo, monkeypatch, capsys, full=False, fail=frozenset())[0]
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", "seed")

    for name, edit, command, fails, own_hash, reused in FAILED_THEN_DONE[sequence]:
        if edit is not None:
            edit(repo)
        git(repo, "add", "-A")
        twin = tmp_path / f"full-{name}"
        shutil.copytree(repo, twin, symlinks=True)
        fail = frozenset({"alpha"} if fails else ())
        ok, fast, fast_graph, fast_prompts = _run(command, repo, monkeypatch, capsys, full=False, fail=fail)
        full_ok, full, full_graph, full_prompts = _run(command, twin, monkeypatch, capsys, full=True, fail=fail)
        assert ok is full_ok is not fails, name
        assert reused is None or fast["reused_files"] == reused, name
        assert graph_dict(fast_graph) == graph_dict(full_graph), name
        assert fast_prompts == full_prompts, name
        assert _without_counts(fast) == _without_counts(full), name
        assert _outputs(repo) == _outputs(twin), name
        assert _states_its_hash(repo, "core.py/alpha") is own_hash, name
        git(repo, "add", "-A")
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


@pytest.mark.parametrize("command", ["update", "generate"])
def test_a_fast_path_run_builds_each_reference_map_once(tmp_path, monkeypatch, capsys, command):
    repo = tmp_path / "repo"
    _init_repo(repo)
    git(repo, "add", "-A")
    assert main(["update", "--repo", str(repo)]) == 0
    git(repo, "commit", "-qm", "seed")
    (repo / "core.py").write_text(CORE.replace("return 1", "return 2"), encoding="utf-8")
    git(repo, "add", "core.py")
    builds = []
    real = project_graph._adjacency
    monkeypatch.setattr(project_graph, "_adjacency", lambda pairs: builds.append(1) or real(pairs))
    capsys.readouterr()
    assert main([command, "--repo", str(repo), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["reused_files"] == len(_git_files(repo)) - 1
    assert report.get("run", report)["generated"] == ["core.py/alpha"]
    # the run's graph keeps the snapshot's edges, and with them its maps:
    # the callee map and the caller map are built once each
    assert len(builds) == 2


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
    # generate saves the parse error in the snapshot, which an update refuses to
    assert main(["generate", "--repo", str(repo)]) == 2
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", "seed")
    (repo / "core.py").write_text(CORE.replace("return 1", "return 2"), encoding="utf-8")
    git(repo, "add", "core.py")
    capsys.readouterr()
    assert main(["update", "--repo", str(repo), "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["reused_files"] == len(_git_files(repo)) - 1
    assert len(report["parse_errors"]) == 1 and report["parse_errors"][0].startswith("bad.py:1")


def _main_update(repo, monkeypatch, capsys, *, full: bool) -> tuple[int, dict]:
    """Run ``update --json`` as the hook does, on the full path when
    ``full``; returns its exit code and report."""
    capsys.readouterr()
    with monkeypatch.context() as patch:
        _recording(patch, change_tracker, full=full)
        code = main(["update", "--repo", str(repo), "--json"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("other", [None, "parser version", "cache tag", "no digest"])
def test_no_file_is_taken_from_a_snapshot_saved_elsewhere(tmp_path, monkeypatch, capsys, other):
    repo = tmp_path / "repo"
    _init_repo(repo)
    write_tree(repo, {"bad.py": "def broken(:\n    pass\n"})
    # generate saves the parse error in the snapshot, which an update refuses to
    assert main(["generate", "--repo", str(repo)]) == 2
    git(repo, "add", "-A")
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
    assert _without_counts(report) == _without_counts(full_report)


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
    assert _without_counts(report) == _without_counts(full_report)
    assert _outputs(repo) == _outputs(twin)
    store = (repo / ".project_doc_record" / "project_hierarchy.json").read_text(encoding="utf-8")
    assert '"callee":"core.py/gamma","caller":"util/tools.py/spin"' in store


def _generate_json(repo, capsys) -> dict:
    capsys.readouterr()
    main(["generate", "--repo", str(repo), "--json"])
    return json.loads(capsys.readouterr().out)


def _files_kept(repo) -> dict:
    """Inode, modification time and bytes of the store, the digest, the
    parse cache and every page."""
    config = load_config(repo)
    paths = [
        repo / config.store_path,
        repo / ".git" / SNAPSHOT_DIGEST_NAME,
        repo / ".git" / PARSE_CACHE_NAME,
        *sorted((repo / config.doc_dir).rglob("*.md")),
    ]
    return {path: (path.stat().st_ino, path.stat().st_mtime_ns, path.read_bytes()) for path in paths}


def test_a_noop_generate_parses_nothing_and_reuses_every_file(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    assert _generate_json(repo, capsys)["parsed_files"] == len(FILES)
    before = _files_kept(repo)
    compiled = []
    for name in ("compile_file_doc", "compile_summary"):
        real = getattr(markdown_publisher, name)
        monkeypatch.setattr(
            markdown_publisher, name, lambda *args, real=real: compiled.append(args) or real(*args)
        )

    report = _generate_json(repo, capsys)
    assert report["parsed_files"] == 0
    assert report["reused_files"] == len(FILES)
    assert report["generated"] == [] and report["diagnostics"] == []
    assert report["pages_written"] == [] and compiled == []
    assert _files_kept(repo) == before


def test_a_deleted_page_costs_the_docs_of_its_file(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    first = _generate_json(repo, capsys)
    before = _outputs(repo)
    page = repo / load_config(repo).doc_dir / "core.md"
    page.unlink()
    # the fast path needs the page to restore it: it stops before any
    # request or write, names the page and forgets the digest
    digest = repo / ".git" / SNAPSHOT_DIGEST_NAME
    kept = _outputs(repo), (repo / load_config(repo).store_path).stat().st_mtime_ns
    gateway = make_gateway()
    monkeypatch.setattr(change_tracker, "build_gateway", lambda config: gateway)
    capsys.readouterr()
    assert main(["generate", "--repo", str(repo), "--json"]) == 1
    assert f"page {page} no longer gives back the docs of core.py" in capsys.readouterr().err
    assert gateway.provider.prompts == [] and not digest.exists()
    assert (_outputs(repo), (repo / load_config(repo).store_path).stat().st_mtime_ns) == kept
    # the full path drops the docs that the page held, and only those are
    # regenerated, to the same page and store
    report = _generate_json(repo, capsys)
    assert report["generated"] == [oid for oid in first["generated"] if oid.startswith("core.py/")]
    assert report["pages_written"] == ["core.md"]
    assert _outputs(repo) == before
    assert _generate_json(repo, capsys)["reused_files"] == len(FILES)


def test_a_deleted_page_regenerates_exactly_its_files_objects_on_the_full_path(tmp_path, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    first = _generate_json(repo, capsys)
    before = _outputs(repo)
    (repo / ".git" / SNAPSHOT_DIGEST_NAME).unlink()
    (repo / load_config(repo).doc_dir / "core.md").unlink()
    report = _generate_json(repo, capsys)
    core = [oid for oid in first["generated"] if oid.startswith("core.py/")]
    assert len(core) == 8 and report["generated"] == core
    assert report["pages_written"] == ["core.md"]
    assert _outputs(repo) == before


def test_a_generate_stopped_while_restoring_pages_leaves_no_digest(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    _generate_json(repo, capsys)
    doc_dir = repo / load_config(repo).doc_dir
    # pages that hold no doc text, so the fast path may restore them:
    # SUMMARY.md is written first, then util/__init__.md fails
    pages = {name: (doc_dir / name).read_bytes() for name in ("SUMMARY.md", "util/__init__.md")}
    for name in pages:
        (doc_dir / name).unlink()

    def fail(*args):
        raise OSError("no space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(markdown_publisher, "compile_file_doc", fail)
        capsys.readouterr()
        assert main(["generate", "--repo", str(repo), "--json"]) == 1
    assert "cannot write pages" in capsys.readouterr().err
    # the store did not change, yet no digest vouches for the pages
    assert not (repo / ".git" / SNAPSHOT_DIGEST_NAME).exists()
    report = _generate_json(repo, capsys)
    assert report["reused_files"] == 0 and report["pages_written"] == ["util/__init__.md"]
    assert {name: (doc_dir / name).read_bytes() for name in pages} == pages


def test_a_page_edited_by_hand_becomes_its_doc(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    git(repo, "add", "-A")
    assert main(["update", "--repo", str(repo)]) == 0
    git(repo, "commit", "-qm", "seed")
    page = repo / load_config(repo).doc_dir / "app.md"
    # the note ends the text of app.py/report, the page's last object
    edited = page.read_text(encoding="utf-8") + "\nA note added by hand.\n"
    page.write_text(edited, encoding="utf-8")

    # neither a no-op generate, nor an update of another file's docs, nor
    # publish writes it
    assert _generate_json(repo, capsys)["pages_written"] == []
    (repo / "core.py").write_text(CORE.replace("def alpha():", "def alpha(y=0):"), encoding="utf-8")
    git(repo, "add", "core.py")
    capsys.readouterr()
    assert main(["update", "--repo", str(repo), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["written_pages"] == ["core.md"]
    assert main(["publish", "--repo", str(repo), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["pages_written"] == []
    assert page.read_text(encoding="utf-8") == edited
    assert _generate_json(repo, capsys)["reused_files"] == len(FILES)
    git(repo, "commit", "-qm", "alpha")

    # report calls main, so main's prompt quotes the edited doc as its
    # caller's, on the fast path and the full path alike
    write_tree(repo, {"app.py": APP.replace("return wrapper.go(scale(1))", "return wrapper.go(scale(2))")})
    git(repo, "add", "app.py")
    twin = tmp_path / "twin"
    shutil.copytree(repo, twin, symlinks=True)
    fast, _, fast_prompts = _update(repo, monkeypatch, full=False)
    full, _, full_prompts = _update(twin, monkeypatch, full=True)
    assert fast.run.generated == full.run.generated == ["app.py/main"]
    assert fast_prompts == full_prompts and "A note added by hand." in fast_prompts[0]
    assert _outputs(repo) == _outputs(twin)
    assert page.read_text(encoding="utf-8").endswith("\nA note added by hand.\n")


def test_an_update_cut_off_while_writing_pages_is_mended_by_the_next(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    _init_repo(repo)
    git(repo, "add", "-A")
    assert _update(repo, monkeypatch, full=False)[0].ok
    git(repo, "commit", "-qm", "seed")
    twin = tmp_path / "twin"
    shutil.copytree(repo, twin, symlinks=True)
    for each in (repo, twin):
        # new parameters change the pages of core.py and app.py
        write_tree(each, {
            "core.py": CORE.replace("def alpha():", "def alpha(y=0):"),
            "app.py": APP.replace("def report():", "def report(z=None):"),
        })
        git(each, "add", "-A")

    compiled = []
    real = markdown_publisher.compile_file_doc

    def fail_on_the_second_page(graph, file_id, store):
        if compiled:
            raise OSError("no space left on device")
        compiled.append(file_id)
        return real(graph, file_id, store)

    with monkeypatch.context() as patch:
        patch.setattr(markdown_publisher, "compile_file_doc", fail_on_the_second_page)
        with pytest.raises(StoreWriteError, match="no space left on device"):
            _update(repo, monkeypatch, full=False)
    # the store was saved, one page written, and no digest vouches for the rest
    assert compiled == ["app.py"]
    assert not (repo / ".git" / SNAPSHOT_DIGEST_NAME).exists()

    report, _, _ = _update(repo, monkeypatch, full=False)
    full, _, _ = _update(twin, monkeypatch, full=False)
    assert report.ok and report.run.generated == []
    assert report.written_pages == ["core.md"]
    assert full.written_pages == ["app.md", "core.md"]
    assert _outputs(repo) == _outputs(twin)
    # every page was compiled from the store as loaded, so its digest is back
    assert (repo / ".git" / SNAPSHOT_DIGEST_NAME).exists()


def test_a_fast_path_update_reads_only_the_blobs_it_parses_or_quotes(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    git(repo, "add", "-A")
    assert main(["update", "--repo", str(repo)]) == 0
    git(repo, "commit", "-qm", "seed")
    tools = LABELED_FILES["util/tools.py"]
    (repo / "util" / "tools.py").write_text(tools.replace("beta(x) * 2", "beta(x) * 3"), encoding="utf-8")
    git(repo, "add", "util/tools.py")

    started, read = [], []
    real_read = change_tracker._BlobReader.read

    class RecordingPopen(subprocess.Popen):
        def __init__(self, args, *rest, **options):
            started.append(args[3])  # git -C <root> <command>
            super().__init__(args, *rest, **options)

    def recording_read(reader, paths):
        read.extend(paths)
        return real_read(reader, paths)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    monkeypatch.setattr(change_tracker._BlobReader, "read", recording_read)
    capsys.readouterr()
    assert main(["update", "--repo", str(repo), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["run"]["generated"] == ["util/tools.py/scale"]
    assert report["reused_files"] == len(FILES) - 1
    # one check that Git commits the pages, which then hold the texts
    assert started == ["rev-parse", "diff", "ls-files", "cat-file", "check-ignore", "add"]
    # the staged file, parsed; then the files of scale's callers and callee, quoted
    assert read == ["util/tools.py", "app.py", "core.py"]


def test_the_fast_path_quotes_a_class_from_the_snapshot_as_the_full_path_does(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    _init_repo(repo)
    git(repo, "add", "-A")
    assert _update(repo, monkeypatch, full=False)[0].ok
    git(repo, "commit", "-qm", "seed")
    # Wrapper.__init__ calls core.py/Engine, and core.py is taken from the snapshot
    tools = LABELED_FILES["util/tools.py"]
    write_tree(repo, {"util/tools.py": tools.replace("core.Engine(3)", "core.Engine(4)")})
    git(repo, "add", "-A")
    twin = tmp_path / "full"
    shutil.copytree(repo, twin, symlinks=True)
    fast, _, fast_prompts = _update(repo, monkeypatch, full=False)
    full, _, full_prompts = _update(twin, monkeypatch, full=True)
    assert fast.reused_files == len(FILES) - 1 and full.reused_files == 0
    assert fast_prompts == full_prompts
    (prompt,) = [p for p in fast_prompts if 'whose name is "__init__"' in p]
    skeleton = (
        "class Engine:\n"
        "    def __init__(self, size): ...\n"
        "\n"
        "    def run(self): ...\n"
        "\n"
        "    def helper(self): ..."
    )
    assert f"[Code begin of Engine]\n```\n{skeleton}\n```" in prompt
    assert "return beta(self.size)" not in prompt


def test_a_missing_blob_of_a_staged_file_ends_the_reader(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    git(repo, "add", "-A")
    assert main(["update", "--repo", str(repo)]) == 0
    git(repo, "commit", "-qm", "seed")
    tools = LABELED_FILES["util/tools.py"]
    (repo / "util" / "tools.py").write_text(tools.replace("beta(x) * 2", "beta(x) * 3"), encoding="utf-8")
    git(repo, "add", "util/tools.py")
    # the staged file's blob is read while the graph is built, on the fast path
    oid = git(repo, "rev-parse", ":util/tools.py").strip()
    (repo / ".git" / "objects" / oid[:2] / oid[2:]).unlink()

    started = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **options):
            super().__init__(*args, **options)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    capsys.readouterr()
    assert main(["update", "--repo", str(repo)]) == 1
    err = capsys.readouterr().err
    assert "cannot read the staged blob of util/tools.py" in err and "Traceback" not in err
    (reader,) = [proc for proc in started if proc.args[3] == "cat-file"]
    assert reader.returncode is not None and reader.stdout.closed


def test_a_generate_after_a_body_edit_parses_one_file(tmp_path, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    first = _generate_json(repo, capsys)
    # with no snapshot, the unresolved calls of every file
    assert "app.py:10: unresolved call print (caller app.py/report)" in first["diagnostics"]
    (repo / "core.py").write_text(CORE.replace("return 1", "return 2"), encoding="utf-8")
    report = _generate_json(repo, capsys)
    assert report["parsed_files"] == 1
    assert report["reused_files"] == len(FILES) - 1
    assert report["generated"] == ["core.py/alpha"]
    # the unresolved calls of the edited file only; core.py has none
    assert report["diagnostics"] == []


def test_a_generate_without_the_digest_reuses_nothing(tmp_path, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    _generate_json(repo, capsys)
    # as after a clone: the store came with the repository, the digest did not
    (repo / ".git" / SNAPSHOT_DIGEST_NAME).unlink()
    report = _generate_json(repo, capsys)
    assert report["reused_files"] == 0
    assert report["parsed_files"] == 0  # the parse cache still holds every file
    assert report["generated"] == [] and report["diagnostics"] == []


def test_a_missing_blob_read_for_a_prompt_names_its_file(tmp_path, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    git(repo, "add", "-A")
    assert main(["update", "--repo", str(repo)]) == 0
    git(repo, "commit", "-qm", "seed")
    tools = LABELED_FILES["util/tools.py"]
    (repo / "util" / "tools.py").write_text(tools.replace("beta(x) * 2", "beta(x) * 3"), encoding="utf-8")
    git(repo, "add", "util/tools.py")
    # core.py is read only to quote scale's callee, after the graph is built
    oid = git(repo, "rev-parse", ":core.py").strip()
    (repo / ".git" / "objects" / oid[:2] / oid[2:]).unlink()
    capsys.readouterr()
    assert main(["update", "--repo", str(repo)]) == 1
    err = capsys.readouterr().err
    assert "cannot read the staged blob of core.py" in err and "Traceback" not in err


def test_a_generate_records_the_digest_again_when_the_store_is_current(tmp_path, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    _generate_json(repo, capsys)
    digest = repo / ".git" / SNAPSHOT_DIGEST_NAME
    recorded = digest.read_bytes()
    digest.unlink()
    report = _generate_json(repo, capsys)
    assert report["reused_files"] == 0 and report["pages_written"] == []
    # the graph rebuilt, blob ids included, and the records are the store's
    assert digest.read_bytes() == recorded
    report = _generate_json(repo, capsys)
    assert report["reused_files"] == len(FILES) and report["parsed_files"] == 0


def test_a_store_edited_by_hand_is_saved_before_its_digest_is_recorded(tmp_path, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    _generate_json(repo, capsys)
    store_path = repo / load_config(repo).store_path
    canonical = store_path.read_bytes()
    # JSON still reads the file, but save_store did not lay it out: a blank
    # line in the records section and an indented record line
    text = canonical.decode("utf-8")
    alpha = next(line for line in text.split("\n") if line.startswith('"core.py/alpha":"'))
    beta = next(line for line in text.split("\n") if line.startswith('"core.py/beta":"'))
    store_path.write_text(text.replace(alpha, "\n" + alpha).replace(beta, "  " + beta), encoding="utf-8")
    report = _generate_json(repo, capsys)
    assert report["reused_files"] == 0 and report["generated"] == []
    # the store was current, so it was saved, and the digest is of bytes
    # that save_store wrote
    assert store_path.read_bytes() == canonical
    report = _generate_json(repo, capsys)
    assert report["reused_files"] == len(FILES) and report["generated"] == []
    git(repo, "add", "-A")
    git(repo, "commit", "-qm", "seed")
    write_tree(repo, {"core.py": CORE.replace("return 1", "return 2")})
    git(repo, "add", "core.py")
    capsys.readouterr()
    assert main(["update", "--repo", str(repo), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["parsed_files"] == 1 and report["reused_files"] == len(FILES) - 1
    assert report["run"]["generated"] == ["core.py/alpha"]


def test_a_blob_only_difference_saves_the_store_as_loaded_and_records_its_digest(
    tmp_path, capsys
):
    repo = tmp_path / "repo"
    _init_repo(repo)
    _generate_json(repo, capsys)
    store_path = repo / load_config(repo).store_path
    stored = store_path.read_bytes()
    digest = repo / ".git" / SNAPSHOT_DIGEST_NAME
    digest.unlink()
    # a comment changes the blob of core.py, and no object or edge
    write_tree(repo, {"core.py": CORE + "# a comment\n"})
    report = _generate_json(repo, capsys)
    assert report["generated"] == [] and report["pages_written"] == []
    # the store is saved as loaded, with core.py's old blob id, and its
    # digest recorded: the next run parses core.py and reuses the rest
    assert digest.exists() and store_path.read_bytes() == stored
    again = _generate_json(repo, capsys)
    assert again["reused_files"] == len(FILES) - 1 and again["generated"] == []


def test_a_store_whose_digest_does_not_match_is_decoded_whole(tmp_path, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    _generate_json(repo, capsys)
    store_path = repo / load_config(repo).store_path
    git_dir = repo / ".git"
    assert isinstance(doc_pipeline.load_store(store_path, git_dir).records, doc_pipeline.LazyEntries)
    # one record line broken, the layout kept: the bytes no longer match
    # the digest, so the broken entry is found at load
    text = store_path.read_text(encoding="utf-8")
    line = next(line for line in text.split("\n") if line.startswith('"core.py/alpha":"'))
    store_path.write_text(text.replace(line, line.replace(':"', ':[0,"', 1)), encoding="utf-8")
    with pytest.raises(doc_pipeline.CorruptStoreError, match="unreadable"):
        doc_pipeline.load_store(store_path, git_dir)
    capsys.readouterr()
    assert main(["generate", "--repo", str(repo)]) == 1
    assert "unreadable" in capsys.readouterr().err


def _decoded_entries(patch) -> dict[str, list[str]]:
    """Wrap the store's entry decoder; returns the ids of the object and
    record entries it decodes, a record either its text and source hash or
    its source hash alone."""
    decoded: dict[str, list[str]] = {"objects": [], "records": []}
    real = doc_pipeline._decode_entry

    def decode(line):
        value = real(line)
        ((key, _),) = json.loads("{%s}" % line.rstrip(",")).items()
        if type(value) in (list, str):
            decoded["records"].append(key)
        elif "meta" in value:
            decoded["objects"].append(key)
        return value

    patch.setattr(doc_pipeline, "_decode_entry", decode)
    return decoded


def _ordered(patch) -> list[int]:
    """Wrap the prerequisites that generation and ``topological_order``
    order by; returns the number of ids each call was given."""
    sizes: list[int] = []
    real = project_graph.prerequisites

    def prerequisites(graph, ids):
        sizes.append(len(ids))
        return real(graph, ids)

    patch.setattr(project_graph, "prerequisites", prerequisites)
    return sizes


def test_a_cold_generate_orders_once_and_parses_no_snippet(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    sizes, parsed = _ordered(monkeypatch), []
    real = project_graph.parse_repository

    def parse_repository(sources, files, cache=None):
        parsed.append(sorted(files))
        return real(sources, files, cache)

    monkeypatch.setattr(project_graph, "parse_repository", parse_repository)
    report = _generate_json(repo, capsys)
    assert len(report["generated"]) == 17 and report["reused_files"] == 0
    # the prerequisite pairs once, and add_snippets has no file to parse
    assert sizes == [17]
    assert parsed == [sorted(FILES)]


def test_one_and_two_jobs_leave_the_same_store_and_pages(tmp_path, capsys):
    outputs = []
    for jobs in ("1", "2"):
        repo = tmp_path / f"jobs{jobs}"
        _init_repo(repo)
        assert main(["generate", "--repo", str(repo), "--jobs", jobs]) == 0
        outputs.append(_outputs(repo))
    assert outputs[0] == outputs[1]


def test_a_noop_generate_decodes_no_entry_and_orders_nothing(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    _generate_json(repo, capsys)
    decoded, sizes = _decoded_entries(monkeypatch), _ordered(monkeypatch)
    report = _generate_json(repo, capsys)
    assert report["reused_files"] == len(FILES) and report["generated"] == []
    assert len(report["skipped"]) == 17
    assert decoded == {"objects": [], "records": []}
    assert sizes == [0]


def test_a_one_def_update_decodes_only_the_entries_it_reads(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    git(repo, "add", "-A")
    assert main(["update", "--repo", str(repo)]) == 0
    git(repo, "commit", "-qm", "seed")
    tools = LABELED_FILES["util/tools.py"]
    (repo / "util" / "tools.py").write_text(tools.replace("beta(x) * 2", "beta(x) * 3"), encoding="utf-8")
    git(repo, "add", "util/tools.py")
    decoded, sizes = _decoded_entries(monkeypatch), _ordered(monkeypatch)
    capsys.readouterr()
    assert main(["update", "--repo", str(repo), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["run"]["generated"] == ["util/tools.py/scale"]
    tools_objects = [
        "util/tools.py/Wrapper",
        "util/tools.py/Wrapper/__init__",
        "util/tools.py/Wrapper/go",
        "util/tools.py/scale",
        "util/tools.py/spin",
    ]
    # the old entries of the parsed file, compared with the new ones, and
    # those of the files whose pages give the texts of scale's callee and
    # callers, which its prompt quotes: a page is split at the headings of
    # its objects
    read = [
        *tools_objects,
        "app.py/main",
        "app.py/report",
        *(f"core.py/{name}" for name in ("Engine", "Engine/__init__", "Engine/helper", "Engine/run")),
        *(f"core.py/{name}" for name in ("alpha", "beta", "ring_a", "ring_b")),
    ]
    assert sorted(decoded["objects"]) == sorted(read)
    # a record line that states its hash alone is decoded for its object's
    # hash, and again for its text if the run reads it
    assert sorted(set(decoded["records"])) == sorted(read)
    assert sizes == [1]


def test_a_lazy_store_reads_ids_that_the_store_escapes(tmp_path, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    module = "import core\n\n\ndef crème():\n    return core.alpha()\n"
    write_tree(repo, {"café.py": module, 'say "hi".py': module})
    _generate_json(repo, capsys)
    store_path, git_dir = repo / load_config(repo).store_path, repo / ".git"
    doc_dir = repo / load_config(repo).doc_dir
    # a quote is escaped, and any other character is stored as its UTF-8
    text = store_path.read_text(encoding="utf-8")
    assert '"say \\"hi\\".py/crème"' in text and '"café.py/crème"' in text
    lazy = doc_pipeline.load_store(store_path, git_dir, doc_dir)
    whole = doc_pipeline.load_store(store_path, None, doc_dir)
    assert isinstance(lazy.records, doc_pipeline.LazyEntries)
    assert dict(lazy.records) == whole.records
    assert graph_dict(lazy.graph_snapshot) == graph_dict(whole.graph_snapshot)
    assert lazy.graph_snapshot.files == whole.graph_snapshot.files
    report = _generate_json(repo, capsys)
    assert report["reused_files"] == len(FILES) + 2 and report["generated"] == []


class Killed(BaseException):
    """A run stopped at one point, as a kill stops it: no handler runs."""


def _stop_at(patch, point: str) -> None:
    """Patch the save sequence of ``persist`` so that it stops at ``point``."""
    if point == "after-the-first-save":
        def write_site(*args, **kwargs):
            raise Killed
        patch.setattr(change_tracker, "write_site", write_site)
    elif point == "between-pages":
        compiled, real = [], markdown_publisher.compile_file_doc

        def compile_file_doc(*args):
            if compiled:
                raise OSError("no space left on device")
            compiled.append(args)
            return real(*args)
        patch.setattr(markdown_publisher, "compile_file_doc", compile_file_doc)
    elif point == "in-the-second-save":
        saves, real_save = [], change_tracker.save_store

        def save_store(*args):
            saves.append(args)
            if len(saves) == 2:
                raise StoreWriteError("cannot write doc store: no space left on device")
            return real_save(*args)
        patch.setattr(change_tracker, "save_store", save_store)
    else:
        def record_snapshot(*args):
            raise Killed
        patch.setattr(change_tracker, "record_snapshot", record_snapshot)


@pytest.mark.parametrize(
    "point", ["after-the-first-save", "between-pages", "in-the-second-save", "before-the-digest"]
)
def test_an_update_stopped_after_its_first_save_costs_no_request(tmp_path, monkeypatch, capsys, point):
    # the first save holds every text whose page the run rewrites, so from
    # then on no text lives on a page alone that the run may have cut short
    repo = tmp_path / "repo"
    _init_repo(repo)
    git(repo, "add", "-A")
    assert _update(repo, monkeypatch, full=False)[0].ok
    git(repo, "commit", "-qm", "seed")
    twin = tmp_path / "twin"
    shutil.copytree(repo, twin, symlinks=True)
    for each in (repo, twin):
        # new parameters change the docs and pages of core.py and app.py
        write_tree(each, {
            "core.py": CORE.replace("def alpha():", "def alpha(y=0):"),
            "app.py": APP.replace("def report():", "def report(z=None):"),
        })
        git(each, "add", "-A")
    with monkeypatch.context() as patch:
        _stop_at(patch, point)
        with pytest.raises((Killed, StoreWriteError)):
            _update(repo, monkeypatch, full=False)
    assert not (repo / ".git" / SNAPSHOT_DIGEST_NAME).exists()

    report, _, prompts = _update(repo, monkeypatch, full=False)
    uninterrupted, _, _ = _update(twin, monkeypatch, full=False)
    assert report.ok and report.run.generated == [] and prompts == []
    assert uninterrupted.run.generated == ["app.py/report", "core.py/alpha"]
    assert _outputs(repo) == _outputs(twin)
    assert _generate_json(repo, capsys)["reused_files"] == len(FILES)


def _saves(patch) -> list:
    """Wrap ``persist``'s store save; returns the records each save holds
    the text of, None for every record."""
    saves, real = [], change_tracker.save_store

    def save_store(store, path, git_dir=None, held=None):
        saves.append(held)
        return real(store, path, git_dir, held)

    patch.setattr(change_tracker, "save_store", save_store)
    return saves


def test_a_run_that_sets_no_record_saves_once(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    _init_repo(repo)
    saves = _saves(monkeypatch)
    # cold: every text, then the texts left to the pages written between
    generated = _generate_json(repo, capsys)["generated"]
    assert len(generated) == 17 and saves == [None, frozenset()]
    store = (repo / load_config(repo).store_path).read_bytes()

    # as after a clone: every page gives back its texts, so the one save
    # already leaves them to it
    saves.clear()
    (repo / ".git" / SNAPSHOT_DIGEST_NAME).unlink()
    report = _generate_json(repo, capsys)
    assert report["generated"] == [] and report["pages_written"] == []
    assert len(saves) == 1 and (repo / load_config(repo).store_path).read_bytes() == store

    # a body edit sets a record: the texts of its page are held until it is
    # written
    saves.clear()
    write_tree(repo, {"core.py": CORE.replace("return 1", "return 2")})
    assert _generate_json(repo, capsys)["generated"] == ["core.py/alpha"]
    core = {oid for oid in generated if oid.startswith("core.py/")}
    assert saves == [frozenset(core), frozenset()]


def test_a_page_whose_headings_broke_stops_the_fast_path_before_any_request(
    tmp_path, monkeypatch, capsys, caplog
):
    repo = tmp_path / "repo"
    _init_repo(repo)
    git(repo, "add", "-A")
    assert _update(repo, monkeypatch, full=False)[0].ok
    git(repo, "commit", "-qm", "seed")
    page = repo / load_config(repo).doc_dir / "core.md"
    page.write_text(page.read_text(encoding="utf-8").replace("## FunctionDef beta", "## beta"), encoding="utf-8")
    twin = tmp_path / "twin"
    shutil.copytree(repo, twin, symlinks=True)
    # scale's prompt quotes the doc of beta, its callee on the broken page;
    # report is generated first, and its prompt reads no doc of core.py
    tools = LABELED_FILES["util/tools.py"]
    (repo / "util" / "tools.py").write_text(tools.replace("beta(x) * 2", "beta(x) * 3"), encoding="utf-8")
    (repo / "app.py").write_text(APP.replace("print(main())", "print(main(), 1)"), encoding="utf-8")
    git(repo, "add", "util/tools.py", "app.py")
    before = _outputs(repo), (repo / load_config(repo).store_path).stat().st_mtime_ns
    gateway = make_gateway()
    monkeypatch.setattr(change_tracker, "build_gateway", lambda config: gateway)
    capsys.readouterr()
    assert main(["update", "--repo", str(repo)]) == 1
    assert f"page {page} no longer gives back the docs of core.py" in capsys.readouterr().err
    assert gateway.provider.prompts == []
    assert (_outputs(repo), (repo / load_config(repo).store_path).stat().st_mtime_ns) == before
    assert not (repo / ".git" / SNAPSHOT_DIGEST_NAME).exists()
    # the next run drops the docs of the broken page, with a warning, and
    # regenerates them with scale
    assert main(["update", "--repo", str(repo), "--json"]) == 0
    assert f"8 docs are on no page that gives them back ({page})" in caplog.text
    generated = json.loads(capsys.readouterr().out)["run"]["generated"]
    assert sorted(generated) == sorted([*(f"core.py/{n}" for n in (
        "alpha", "beta", "ring_a", "ring_b", "Engine", "Engine/__init__", "Engine/run", "Engine/helper"
    )), "util/tools.py/scale", "app.py/report"])
