from __future__ import annotations

import json

import pytest

from repodoc.cli import main
from repodoc.config import (
    CONFIG_FILENAME,
    DEFAULT_TIERS,
    build_gateway,
    build_provider,
    load_config,
)
from repodoc.errors import ConfigError
from repodoc.llm_gateway import API_KEY_ENV, HttpChatProvider, MockProvider


def write_config(root, data) -> None:
    (root / CONFIG_FILENAME).write_text(json.dumps(data), encoding="utf-8")


def test_defaults_without_config_file(tmp_path):
    config = load_config(tmp_path)
    assert config.repo_root == tmp_path.resolve()
    assert config.provider.base_url == "mock:"
    assert config.provider.tiers == DEFAULT_TIERS
    assert [t.context_window for t in config.provider.tiers] == [4000, 16000, 128000]
    assert config.doc_dir == "markdown_docs"
    assert config.store_path == ".project_doc_record/project_hierarchy.json"
    assert config.completion_reserve_tokens == 1024
    assert config.ignore == ()


def test_config_file_overrides(tmp_path):
    write_config(
        tmp_path,
        {
            "ignore": ["build/*", "tests"],
            "doc_dir": "docs_out",
            "doc_language": "German",
            "child_docs_enabled": True,
            "completion_reserve_tokens": 2048,
            "provider": {
                "base_url": "https://llm.internal/v1",
                "temperature": 0.5,
                "retries": 1,
                "tiers": [
                    {"name": "small", "context_window": 8000},
                    {"name": "big", "context_window": 32000},
                ],
            },
        },
    )
    config = load_config(tmp_path)
    assert config.ignore == ("build/*", "tests")
    assert config.doc_dir == "docs_out"
    assert config.doc_language == "German"
    assert config.child_docs_enabled is True
    assert config.completion_reserve_tokens == 2048
    assert config.provider.base_url == "https://llm.internal/v1"
    assert config.provider.temperature == 0.5
    assert config.provider.retries == 1
    assert [t.name for t in config.provider.tiers] == ["small", "big"]


def test_explicit_config_path(tmp_path):
    custom = tmp_path / "other.json"
    custom.write_text(json.dumps({"doc_dir": "elsewhere"}), encoding="utf-8")
    assert load_config(tmp_path, custom).doc_dir == "elsewhere"
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path, tmp_path / "absent.json")
    assert "not found" in str(err.value)


def test_invalid_json_reports_position(tmp_path):
    (tmp_path / CONFIG_FILENAME).write_text('{\n  "doc_dir": }\n', encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path)
    assert "line 2" in str(err.value)


def test_unknown_keys_rejected(tmp_path):
    write_config(tmp_path, {"doc_dirr": "x"})
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path)
    assert "doc_dirr" in str(err.value)

    write_config(tmp_path, {"provider": {"model": "x"}})
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path)
    assert "model" in str(err.value)


@pytest.mark.parametrize(
    "tiers, message",
    [
        ([], "non-empty"),
        ([{"name": "a"}], "exactly the keys"),
        ([{"name": "a", "context_window": 0}], "positive integer"),
        (
            [
                {"name": "a", "context_window": 9000},
                {"name": "b", "context_window": 4000},
            ],
            "strictly increasing",
        ),
        (
            [
                {"name": "a", "context_window": 4000},
                {"name": "a", "context_window": 9000},
            ],
            "unique",
        ),
    ],
)
def test_tier_validation(tmp_path, tiers, message):
    write_config(tmp_path, {"provider": {"tiers": tiers}})
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path)
    assert message in str(err.value)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"provider": {"temperature": 3.0}}, "between 0 and 2"),
        ({"provider": {"retries": -1}}, "non-negative"),
        ({"provider": {"max_concurrency": 2}}, "unknown provider keys"),
        ({"completion_reserve_tokens": 0}, "positive"),
        ({"child_docs_enabled": "yes"}, "boolean"),
        ({"ignore": "build"}, "list of glob strings"),
        ({"doc_dir": ""}, "non-empty"),
    ],
)
def test_scalar_validation(tmp_path, data, message):
    write_config(tmp_path, data)
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path)
    assert message in str(err.value)


@pytest.mark.parametrize("key", ["doc_dir", "store_path"])
@pytest.mark.parametrize(
    "path",
    [".", "./", "/abs", "//abs", "../docs", "docs/../..", ".git", ".git/docs", "sub/.git/x"],
)
def test_output_paths_must_stay_below_the_root_and_outside_git(tmp_path, key, path):
    write_config(tmp_path, {key: path})
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path)
    assert key in str(err.value) and repr(path) in str(err.value)


@pytest.mark.parametrize("path", ["docs", "./docs", "docs/api/", ".docs", "a..b"])
def test_output_paths_below_the_root_are_accepted(tmp_path, path):
    write_config(tmp_path, {"doc_dir": path, "store_path": f"{path}/store.json"})
    config = load_config(tmp_path)
    assert (config.doc_dir, config.store_path) == (path, f"{path}/store.json")


@pytest.mark.parametrize(
    "url",
    [
        "api.example.test/v1",
        "localhost:8080/v1",
        "ftp://api.example.test/v1",
        "file:///tmp/x",
        "https://",
        "http:///v1",
        "https://api.example.test:notaport/v1",
        "https://api.example.test:99999",
        "http://127.0.0.1:0/v1",
    ],
)
def test_base_url_must_be_mock_or_http(tmp_path, url):
    write_config(tmp_path, {"provider": {"base_url": url}})
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path)
    assert "provider.base_url" in str(err.value) and repr(url) in str(err.value)


@pytest.mark.parametrize(
    "url", ["mock:", "mock:fixture", "http://127.0.0.1:8080", "https://llm.internal/v1/"]
)
def test_base_url_accepts_mock_and_http(tmp_path, url):
    write_config(tmp_path, {"provider": {"base_url": url}})
    assert load_config(tmp_path).provider.base_url == url


def test_bad_base_url_exits_1_before_any_request(tmp_path, capsys):
    write_config(tmp_path, {"provider": {"base_url": "api.example.test/v1"}})
    (tmp_path / "a.py").write_text("def f():\n    return 1\n", encoding="utf-8")
    assert main(["generate", "--repo", str(tmp_path)]) == 1
    assert "provider.base_url" in capsys.readouterr().err
    assert not (tmp_path / "markdown_docs").exists()


def test_reserve_must_fit_largest_tier(tmp_path):
    write_config(
        tmp_path,
        {
            "completion_reserve_tokens": 5000,
            "provider": {"tiers": [{"name": "only", "context_window": 4000}]},
        },
    )
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path)
    assert "largest context window" in str(err.value)


def test_build_provider_mock_by_default(tmp_path):
    provider = build_provider(load_config(tmp_path))
    assert isinstance(provider, MockProvider)


def test_build_provider_http_needs_api_key(tmp_path, monkeypatch):
    write_config(tmp_path, {"provider": {"base_url": "https://llm.internal/v1"}})
    config = load_config(tmp_path)
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    with pytest.raises(ConfigError) as err:
        build_provider(config)
    assert API_KEY_ENV in str(err.value)
    monkeypatch.setenv(API_KEY_ENV, "secret")
    assert isinstance(build_provider(config), HttpChatProvider)


def test_build_gateway_applies_provider_settings(tmp_path):
    write_config(tmp_path, {"provider": {"retries": 7}})
    gateway = build_gateway(load_config(tmp_path))
    assert gateway.retries == 7
    assert isinstance(gateway.provider, MockProvider)
