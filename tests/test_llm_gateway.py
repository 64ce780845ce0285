from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repodoc.doc_pipeline import parse_doc
from repodoc.errors import AuthenticationError, ProviderError
from repodoc.llm_gateway import (
    API_KEY_ENV,
    CompletionRequest,
    Gateway,
    HttpChatProvider,
    MockProvider,
    TransientProviderError,
)
from repodoc.prompt_engine import estimate_tokens, render_prompt

from .helpers import context_for, generate_repo


def request_for(prompt: str) -> CompletionRequest:
    return CompletionRequest(
        model="base-4k", prompt=prompt, max_completion_tokens=256, temperature=0.1
    )


def prompt_for(demo_repo, object_id: str) -> str:
    graph, store, _, _ = generate_repo(demo_repo)
    return render_prompt(context_for(graph, store, object_id))


def test_mock_doc_for_function_with_param(demo_repo):
    prompt = prompt_for(demo_repo, "a.py/g")
    response = MockProvider().send(request_for(prompt))
    parsed = parse_doc(response.text, "Function", has_return=True)
    assert parsed.missing == [] and parsed.extra == []
    assert parsed.name_header == "**g**: The function of g is g stub."
    assert parsed.param_label == "parameters"
    assert parsed.params == [("x", "stub description of x.")]
    assert parsed.output_example == "Deterministic stub output of g."


def test_mock_doc_for_class_uses_attributes(demo_repo):
    prompt = prompt_for(demo_repo, "a.py/C")
    response = MockProvider().send(request_for(prompt))
    parsed = parse_doc(response.text, "Class", has_return=True)
    assert parsed.missing == []
    assert parsed.param_label == "Attributes"


def test_mock_omits_output_example_without_return(tmp_path):
    (tmp_path / "a.py").write_text("def log(msg):\n    print(msg)\n", encoding="utf-8")
    prompt = prompt_for(tmp_path, "a.py/log")
    response = MockProvider().send(request_for(prompt))
    assert "**Output Example**" not in response.text
    parsed = parse_doc(response.text, "Function", has_return=False)
    assert parsed.missing == []


def test_mock_is_deterministic(demo_repo):
    prompt = prompt_for(demo_repo, "a.py/f")
    first = MockProvider().send(request_for(prompt))
    second = MockProvider().send(request_for(prompt))
    assert first == second


def test_mock_rejects_prompt_without_meta_line():
    with pytest.raises(ProviderError):
        MockProvider().send(request_for("no meta information here"))


class _FlakyProvider:
    def __init__(self, failures: int) -> None:
        self._failures = failures
        self.attempts = 0
        self._inner = MockProvider()

    def send(self, request: CompletionRequest):
        self.attempts += 1
        if self.attempts <= self._failures:
            raise TransientProviderError("synthetic blip")
        return self._inner.send(request)


def test_gateway_retries_with_backoff(demo_repo):
    prompt = prompt_for(demo_repo, "a.py/f")
    provider = _FlakyProvider(failures=2)
    sleeps: list[float] = []
    gateway = Gateway(provider, retries=3, sleep=sleeps.append)
    response = gateway.complete(request_for(prompt), context_id="a.py/f")
    assert response.text.startswith("**f**")
    assert provider.attempts == 3
    assert sleeps == [1.0, 2.0]


def test_gateway_exhausts_retries_and_names_the_object(demo_repo):
    prompt = prompt_for(demo_repo, "a.py/f")
    provider = _FlakyProvider(failures=99)
    gateway = Gateway(provider, retries=2, sleep=lambda _: None)
    with pytest.raises(ProviderError) as err:
        gateway.complete(request_for(prompt), context_id="a.py/f")
    assert "after 3 attempts" in str(err.value)
    assert "a.py/f" in str(err.value)


class _AuthFailProvider:
    def send(self, request):
        raise AuthenticationError("bad key")


def test_gateway_does_not_retry_authentication_errors():
    gateway = Gateway(_AuthFailProvider(), retries=5, sleep=lambda _: None)
    with pytest.raises(AuthenticationError):
        gateway.complete(request_for("x"))


def test_gateway_validates_requests():
    gateway = Gateway(MockProvider(), retries=0)
    with pytest.raises(ValueError):
        gateway.complete(request_for(""))
    with pytest.raises(ValueError):
        gateway.complete(replace(request_for("x"), max_completion_tokens=0))


class _FakeHttpResponse:
    def __init__(self, status_code: int, payload=None, text: str = "") -> None:
        self.status_code = status_code
        self._payload = payload
        self.text = text or json.dumps(payload)

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


class _FakeSession:
    def __init__(self, response) -> None:
        self._response = response
        self.calls: list[dict] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        return self._response


def test_http_provider_success_roundtrip():
    payload = {
        "choices": [{"message": {"content": "**f**: doc"}}],
        "usage": {"prompt_tokens": 12, "completion_tokens": 5},
        "model": "served-model",
    }
    session = _FakeSession(_FakeHttpResponse(200, payload))
    provider = HttpChatProvider("https://api.example.test/v1", "key-123", session=session)
    response = provider.send(request_for("hello"))
    assert response.text == "**f**: doc"
    assert (response.prompt_tokens, response.completion_tokens) == (12, 5)
    assert response.model == "served-model"
    call = session.calls[0]
    assert call["url"] == "https://api.example.test/v1/chat/completions"
    assert call["headers"]["Authorization"] == "Bearer key-123"
    assert call["json"]["messages"][0]["content"] == "hello"


def test_http_provider_auth_error_mentions_env_var():
    session = _FakeSession(_FakeHttpResponse(401, {}))
    provider = HttpChatProvider("https://api.example.test", "bad", session=session)
    with pytest.raises(AuthenticationError) as err:
        provider.send(request_for("x"))
    assert API_KEY_ENV in str(err.value)


@pytest.mark.parametrize("status", [429, 500, 503])
def test_http_provider_transient_statuses(status):
    session = _FakeSession(_FakeHttpResponse(status, {}))
    provider = HttpChatProvider("https://api.example.test", "k", session=session)
    with pytest.raises(TransientProviderError):
        provider.send(request_for("x"))


def test_http_provider_malformed_body():
    session = _FakeSession(_FakeHttpResponse(200, {"choices": []}))
    provider = HttpChatProvider("https://api.example.test", "k", session=session)
    with pytest.raises(ProviderError):
        provider.send(request_for("x"))


def test_http_provider_null_usage_falls_back_to_estimates():
    payload = {"choices": [{"message": {"content": "**f**: doc"}}], "usage": None}
    session = _FakeSession(_FakeHttpResponse(200, payload))
    provider = HttpChatProvider("https://api.example.test", "k", session=session)
    response = provider.send(request_for("hello"))
    assert response.text == "**f**: doc"
    assert response.prompt_tokens == estimate_tokens("hello")
    assert response.completion_tokens == estimate_tokens("**f**: doc")


@pytest.mark.parametrize("content", [None, 7, ["**f**: doc"]])
def test_http_provider_non_string_content_is_a_provider_error(content):
    payload = {"choices": [{"message": {"content": content}}]}
    session = _FakeSession(_FakeHttpResponse(200, payload))
    provider = HttpChatProvider("https://api.example.test", "k", session=session)
    with pytest.raises(ProviderError, match="malformed provider response"):
        provider.send(request_for("x"))


def _send_with_usage(usage):
    payload = {"choices": [{"message": {"content": "**f**: doc"}}], "usage": usage}
    session = _FakeSession(_FakeHttpResponse(200, payload))
    provider = HttpChatProvider("https://api.example.test", "k", session=session)
    return provider.send(request_for("hello"))


@pytest.mark.parametrize(
    "usage, counts",
    [
        ({"prompt_tokens": None, "completion_tokens": 5}, (None, 5)),
        ({"prompt_tokens": 12, "completion_tokens": None}, (12, None)),
        ("12 tokens", (None, None)),
        (["prompt_tokens", 12], (None, None)),
        (42, (None, None)),
    ],
    ids=["null-prompt", "null-completion", "string", "list", "number"],
)
def test_http_provider_missing_usage_counts_fall_back_to_estimates(usage, counts):
    response = _send_with_usage(usage)
    estimates = (estimate_tokens("hello"), estimate_tokens("**f**: doc"))
    expected = tuple(e if c is None else c for c, e in zip(counts, estimates))
    assert (response.prompt_tokens, response.completion_tokens) == expected


@pytest.mark.parametrize(
    "count", ["12", 12.0, True, [12], {"n": 12}], ids=["string", "float", "bool", "list", "object"]
)
def test_http_provider_non_integer_usage_count_is_a_provider_error(count):
    with pytest.raises(ProviderError, match="malformed provider response"):
        _send_with_usage({"prompt_tokens": count, "completion_tokens": 5})
