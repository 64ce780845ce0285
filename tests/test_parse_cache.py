"""The parse cache: a file is parsed once per content, and a cache in any
state gives the same parses as no cache at all."""

from __future__ import annotations

import json
import os
import stat
import sysconfig
from pathlib import Path

import pytest

from repodoc import source_model
from repodoc.cli import main
from repodoc.doc_pipeline import graph_dict
from repodoc.project_graph import build_graph
from repodoc.source_model import (
    PARSE_CACHE_NAME,
    PARSER_VERSION,
    ParseCache,
    _decode_parse,
    _encode_parse,
    blob_id,
    parse_file,
    parse_repository,
    scan_repository,
    source_text,
)

from .conftest import git
from .helpers import DEMO_FILES, write_tree


def graph_json(root: Path, cache: ParseCache) -> str:
    sources = scan_repository(root)
    graph = build_graph(list(sources), parse_repository(sources, sources, cache))
    cache.save()
    return json.dumps(graph_dict(graph))


def run_json(*argv, capsys) -> dict:
    main([str(a) for a in argv] + ["--json"])
    return json.loads(capsys.readouterr().out)


def test_cached_parse_equals_a_fresh_one_on_the_stdlib(tmp_path):
    root = Path(sysconfig.get_paths()["stdlib"])
    skip = {"test", "tests", "site-packages"}
    files = sorted(
        p for p in root.rglob("*.py") if not skip & set(p.relative_to(root).parts)
    )
    assert len(files) > 500
    # in batches, so that only one batch of parses is held at a time
    for start in range(0, len(files), 100):
        sources = {}
        for path in files[start : start + 100]:
            data = path.read_bytes()
            sources[path.relative_to(root).as_posix()] = (blob_id(data), source_text(data))
        cold = ParseCache(tmp_path)
        fresh = {rel: cold.parse(rel, *sources[rel]) for rel in sources}
        cold.save()
        assert cold.parsed == len(sources)
        warm = ParseCache(tmp_path)
        for rel, (blob, text) in sources.items():
            assert warm.parse(rel, blob, text) == fresh[rel], rel
        assert warm.parsed == 0


@pytest.mark.skipif(
    not os.environ.get("REPODOC_TEST_STDLIB_CUTS"),
    reason="the whole stdlib takes about half a minute; set REPODOC_TEST_STDLIB_CUTS=1",
)
def test_every_parse_survives_its_cache_line_on_the_whole_stdlib():
    # ast's positions and node types differ across Python versions, so each
    # interpreter checks its own stdlib, test suites included
    root = Path(sysconfig.get_paths()["stdlib"])
    checked, refused, changed = 0, [], []
    for path in sorted(root.rglob("*.py")):
        if "site-packages" in path.parts or not path.is_file():
            continue
        rel, data = path.relative_to(root).as_posix(), path.read_bytes()
        text, blob = source_text(data), blob_id(data)
        parse = parse_file(rel, text)
        line = _encode_parse((rel, blob), parse)
        if line is None:
            refused.append(rel)
        elif _decode_parse(rel, text, line) != parse._replace(blob=blob):
            changed.append(rel)
        checked += 1
    assert (refused, changed) == ([], [])
    assert checked > 1_000


def _corrupt_line(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2][: len(lines[2]) // 2] + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def _misshapen_line(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rel, blob = json.loads(lines[1])[:2]
    lines[1] = json.dumps([rel, blob, None, [["f"]], [], []]) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def _truncate(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _other_cache_tag(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    header = {"parser": PARSER_VERSION, "cache_tag": "otherpython-99"}
    lines[0] = json.dumps(header, sort_keys=True) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def _invalid_utf8(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:200] + b"\xff\xfe" + data[200:])


DAMAGES = {
    "corrupt line": _corrupt_line,
    "misshapen line": _misshapen_line,
    "truncated file": _truncate,
    "unknown header": lambda path: path.write_text(
        '{"format": "other"}\n' + path.read_text(encoding="utf-8").split("\n", 1)[1],
        encoding="utf-8",
    ),
    "other cache tag": _other_cache_tag,
    "invalid utf-8": _invalid_utf8,
    "empty file": lambda path: path.write_bytes(b""),
    "directory": lambda path: (path.unlink(), path.mkdir()),
}


@pytest.mark.parametrize("damage", DAMAGES.values(), ids=DAMAGES.keys())
def test_a_damaged_cache_is_only_a_miss(labeled_repo, tmp_path, damage):
    cache_path = tmp_path / PARSE_CACHE_NAME
    expected = graph_json(labeled_repo, ParseCache())
    assert graph_json(labeled_repo, ParseCache(tmp_path)) == expected
    damage(cache_path)

    cache = ParseCache(tmp_path)
    assert graph_json(labeled_repo, cache) == expected
    assert cache.parsed > 0
    assert not list(tmp_path.glob(".tmp-repodoc-*"))
    if cache_path.is_file():  # the run mended the cache
        again = ParseCache(tmp_path)
        assert graph_json(labeled_repo, again) == expected
        assert again.parsed == 0


@pytest.mark.parametrize(
    "umask, mode",
    [(0o022, 0o644), (0o002, 0o664), (0o077, 0o600)],
    ids=["umask-022", "umask-002", "umask-077"],
)
def test_cache_file_mode_follows_umask(labeled_repo, tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        graph_json(labeled_repo, ParseCache(tmp_path))
    finally:
        os.umask(previous)
    assert stat.S_IMODE((tmp_path / PARSE_CACHE_NAME).stat().st_mode) == mode


def test_a_newer_parser_does_not_read_an_older_cache(labeled_repo, tmp_path, monkeypatch):
    expected = graph_json(labeled_repo, ParseCache(tmp_path))
    monkeypatch.setattr(source_model, "PARSER_VERSION", PARSER_VERSION + 1)
    cache = ParseCache(tmp_path)
    assert graph_json(labeled_repo, cache) == expected
    assert cache.parsed == len(scan_repository(labeled_repo))


def test_identical_files_keep_their_own_ids(tmp_path):
    body = "def f():\n    return 1\n"
    root = tmp_path / "repo"
    write_tree(root, {
        "one/__init__.py": "",
        "two/__init__.py": "",
        "one/m.py": body,
        "two/m.py": body,
    })
    sources = scan_repository(root)
    cold = ParseCache(tmp_path)
    fresh = parse_repository(sources, sources, cold)
    cold.save()
    warm = ParseCache(tmp_path)
    assert parse_repository(sources, sources, warm) == fresh
    assert warm.parsed == 0
    ids = {obj.id for parse in fresh for obj in parse.objects}
    assert ids == {"one/m.py/f", "two/m.py/f"}


def test_a_file_that_fails_to_parse_is_cached_too(tmp_path):
    root = tmp_path / "repo"
    write_tree(root, {"broken.py": "def oops(:\n", "ok.py": "def f():\n    return 1\n"})
    sources = scan_repository(root)
    cold = ParseCache(tmp_path)
    fresh = parse_repository(sources, sources, cold)
    cold.save()
    assert fresh[0].parse_error
    warm = ParseCache(tmp_path)
    assert parse_repository(sources, sources, warm) == fresh
    assert warm.parsed == 0


def test_parsed_files_counts_cache_misses(git_demo_repo, capsys):
    repo = str(git_demo_repo)
    git(git_demo_repo, "add", "-A")
    git(git_demo_repo, "commit", "-qm", "seed")
    assert run_json("generate", "--repo", repo, capsys=capsys)["parsed_files"] == 2
    assert run_json("generate", "--repo", repo, capsys=capsys)["parsed_files"] == 0

    # the working tree and the index give the same blob ids, so update
    # parses only the staged edit
    a_edited = DEMO_FILES["a.py"].replace("return 1", "return 2")
    (git_demo_repo / "a.py").write_text(a_edited, encoding="utf-8")
    git(git_demo_repo, "add", "a.py")
    report = run_json("update", "--repo", repo, capsys=capsys)
    assert report["run"]["generated"] == ["a.py/f"]
    assert report["parsed_files"] == 1
    assert run_json("generate", "--repo", repo, capsys=capsys)["parsed_files"] == 0


def test_the_cache_never_reaches_a_commit(git_demo_repo, capsys):
    repo = str(git_demo_repo)
    git(git_demo_repo, "add", "-A")
    assert run_json("update", "--repo", repo, capsys=capsys)["parsed_files"] == 2
    git(git_demo_repo, "commit", "-qm", "seed")
    assert (git_demo_repo / ".git" / PARSE_CACHE_NAME).is_file()
    assert PARSE_CACHE_NAME not in git(git_demo_repo, "status", "--porcelain", "--ignored")
    assert PARSE_CACHE_NAME not in git(git_demo_repo, "ls-files")


def test_no_cache_outside_a_git_repository(demo_repo, capsys):
    root = demo_repo.parent
    before = set(root.rglob("*"))
    assert run_json("generate", "--repo", demo_repo, capsys=capsys)["parsed_files"] == 2
    assert run_json("generate", "--repo", demo_repo, capsys=capsys)["parsed_files"] == 2
    added = {p.relative_to(root).parts[:2] for p in root.rglob("*") if p not in before}
    assert added == {("demo", ".project_doc_record"), ("demo", "markdown_docs")}
