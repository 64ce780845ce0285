"""Run configuration: defaults, the optional .repodoc.json override file,
and provider construction."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConfigError
from .llm_gateway import (
    API_KEY_ENV,
    Gateway,
    HttpChatProvider,
    MOCK_SCHEME,
    MockProvider,
    Provider,
)
from .prompt_engine import ModelTier

CONFIG_FILENAME = ".repodoc.json"
DEFAULT_DOC_DIR = "markdown_docs"
DEFAULT_STORE_PATH = ".project_doc_record/project_hierarchy.json"
DEFAULT_COMPLETION_RESERVE = 1024

DEFAULT_TIERS = (
    ModelTier("base-4k", 4000),
    ModelTier("extended-16k", 16000),
    ModelTier("long-128k", 128000),
)


@dataclass(frozen=True)
class ProviderConfig:
    base_url: str = MOCK_SCHEME
    tiers: tuple[ModelTier, ...] = DEFAULT_TIERS
    temperature: float = 0.1
    retries: int = 3


@dataclass(frozen=True)
class Config:
    repo_root: Path
    ignore: tuple[str, ...] = ()
    doc_dir: str = DEFAULT_DOC_DIR
    store_path: str = DEFAULT_STORE_PATH
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    doc_language: str = "English"
    child_docs_enabled: bool = False
    completion_reserve_tokens: int = DEFAULT_COMPLETION_RESERVE


_TOP_KEYS = {
    "ignore",
    "doc_dir",
    "store_path",
    "provider",
    "doc_language",
    "child_docs_enabled",
    "completion_reserve_tokens",
}
_PROVIDER_KEYS = {"base_url", "tiers", "temperature", "retries"}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _parse_tiers(raw: object) -> tuple[ModelTier, ...]:
    _require(isinstance(raw, list) and raw, "provider.tiers must be a non-empty list")
    tiers: list[ModelTier] = []
    for entry in raw:
        _require(
            isinstance(entry, dict) and set(entry) == {"name", "context_window"},
            "each tier needs exactly the keys name and context_window",
        )
        name, window = entry["name"], entry["context_window"]
        _require(isinstance(name, str) and name, "tier name must be a non-empty string")
        _require(
            isinstance(window, int) and not isinstance(window, bool) and window > 0,
            f"tier {name}: context_window must be a positive integer",
        )
        tiers.append(ModelTier(name, window))
    windows = [t.context_window for t in tiers]
    _require(
        windows == sorted(windows) and len(set(windows)) == len(windows),
        "provider.tiers must be sorted by strictly increasing context_window",
    )
    names = [t.name for t in tiers]
    _require(len(set(names)) == len(names), "tier names must be unique")
    return tuple(tiers)


def _parse_provider(raw: object) -> ProviderConfig:
    _require(isinstance(raw, dict), "provider must be an object")
    unknown = set(raw) - _PROVIDER_KEYS
    _require(not unknown, f"unknown provider keys: {', '.join(sorted(unknown))}")
    cfg = ProviderConfig()
    if "base_url" in raw:
        _require(
            isinstance(raw["base_url"], str) and raw["base_url"],
            "provider.base_url must be a non-empty string",
        )
        cfg = replace(cfg, base_url=raw["base_url"])
    if "tiers" in raw:
        cfg = replace(cfg, tiers=_parse_tiers(raw["tiers"]))
    if "temperature" in raw:
        temp = raw["temperature"]
        _require(
            isinstance(temp, (int, float)) and not isinstance(temp, bool) and 0.0 <= temp <= 2.0,
            "provider.temperature must be a number between 0 and 2",
        )
        cfg = replace(cfg, temperature=float(temp))
    if "retries" in raw:
        retries = raw["retries"]
        _require(
            isinstance(retries, int) and not isinstance(retries, bool) and retries >= 0,
            "provider.retries must be a non-negative integer",
        )
        cfg = replace(cfg, retries=retries)
    return cfg


def load_config(repo_root: str | Path, path: str | Path | None = None) -> Config:
    """Defaults, overridden by .repodoc.json when present (or an explicit file)."""
    repo_root = Path(repo_root).resolve()
    config = Config(repo_root=repo_root)
    config_path = Path(path) if path is not None else repo_root / CONFIG_FILENAME
    if path is not None and not config_path.exists():
        raise ConfigError(f"config file not found: {config_path}")
    if not config_path.exists():
        return config
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{config_path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    _require(isinstance(raw, dict), f"{config_path}: top level must be an object")
    unknown = set(raw) - _TOP_KEYS
    _require(not unknown, f"{config_path}: unknown keys: {', '.join(sorted(unknown))}")

    if "ignore" in raw:
        patterns = raw["ignore"]
        _require(
            isinstance(patterns, list) and all(isinstance(p, str) for p in patterns),
            "ignore must be a list of glob strings",
        )
        config = replace(config, ignore=tuple(patterns))
    for key in ("doc_dir", "store_path", "doc_language"):
        if key in raw:
            _require(
                isinstance(raw[key], str) and raw[key], f"{key} must be a non-empty string"
            )
            config = replace(config, **{key: raw[key]})
    if "child_docs_enabled" in raw:
        _require(
            isinstance(raw["child_docs_enabled"], bool), "child_docs_enabled must be a boolean"
        )
        config = replace(config, child_docs_enabled=raw["child_docs_enabled"])
    if "completion_reserve_tokens" in raw:
        reserve = raw["completion_reserve_tokens"]
        _require(
            isinstance(reserve, int) and not isinstance(reserve, bool) and reserve > 0,
            "completion_reserve_tokens must be a positive integer",
        )
        config = replace(config, completion_reserve_tokens=reserve)
    if "provider" in raw:
        config = replace(config, provider=_parse_provider(raw["provider"]))
    _require(
        config.completion_reserve_tokens < config.provider.tiers[-1].context_window,
        "completion_reserve_tokens must fit inside the largest context window",
    )
    return config


def build_provider(config: Config) -> Provider:
    base_url = config.provider.base_url
    if base_url.startswith(MOCK_SCHEME):
        return MockProvider()
    api_key = os.environ.get(API_KEY_ENV, "")
    if not api_key:
        raise ConfigError(
            f"provider {base_url} needs an API key; set the {API_KEY_ENV} environment variable"
        )
    return HttpChatProvider(base_url=base_url, api_key=api_key)


def build_gateway(config: Config) -> Gateway:
    return Gateway(build_provider(config), retries=config.provider.retries)
