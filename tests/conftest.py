from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

from .helpers import DEMO_FILES, LABELED_FILES, ORDER_FILES, write_tree


@pytest.fixture
def demo_repo(tmp_path: Path) -> Path:
    repo = tmp_path / "demo"
    repo.mkdir()
    write_tree(repo, DEMO_FILES)
    return repo


@pytest.fixture
def labeled_repo(tmp_path: Path) -> Path:
    repo = tmp_path / "labeled"
    repo.mkdir()
    write_tree(repo, LABELED_FILES)
    return repo


@pytest.fixture
def order_repo(tmp_path: Path) -> Path:
    repo = tmp_path / "order"
    repo.mkdir()
    write_tree(repo, ORDER_FILES)
    return repo


def git(repo: Path, *args: str) -> str:
    proc = subprocess.run(
        ["git", "-C", str(repo), *args], capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise AssertionError(f"git {' '.join(args)} failed: {proc.stderr}")
    return proc.stdout


@pytest.fixture
def git_demo_repo(demo_repo: Path) -> Path:
    git(demo_repo, "init", "-q")
    git(demo_repo, "config", "user.email", "test@example.com")
    git(demo_repo, "config", "user.name", "Test")
    git(demo_repo, "config", "commit.gpgsign", "false")
    return demo_repo
