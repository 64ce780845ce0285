"""Completion gateway: provider abstraction and retries.

Two providers ship with the package: an HTTP chat-completion client and a
deterministic mock selected by the ``mock:`` base URL scheme. The mock answers
from the prompt's meta lines alone, so the whole pipeline can run hermetically.
"""

from __future__ import annotations

import json
import threading
import time
import weakref
from functools import partial
from typing import Any, Callable, NamedTuple, Protocol
from urllib.parse import SplitResult, unquote, urlsplit

from .config import API_KEY_ENV, split_http_url
from .errors import AuthenticationError, ConfigError, ProviderError
from .prompt_engine import FORMAT_INTRO, OUTPUT_EXAMPLE_INSTRUCTION, estimate_tokens

_BACKOFF_SCHEDULE = (1.0, 2.0, 4.0)
RETRY_AFTER_CAP_S = 60.0  # the longest wait a provider's Retry-After buys
REQUEST_TIMEOUT_S = 120.0


class CompletionRequest(NamedTuple):
    model: str
    prompt: str
    max_completion_tokens: int
    temperature: float

    def validate(self) -> None:
        if not self.prompt:
            raise ValueError("empty prompt")
        if self.max_completion_tokens < 1:
            raise ValueError("max_completion_tokens must be positive")


class CompletionResponse(NamedTuple):
    text: str
    prompt_tokens: int
    completion_tokens: int


class TransientProviderError(ProviderError):
    """Retryable failure: connection trouble, 5xx, or rate limiting.
    ``retry_after`` is the wait in seconds that the provider asked for, if
    any."""

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class Provider(Protocol):
    def send(self, request: CompletionRequest) -> CompletionResponse: ...


_MOCK_META = "Now you need to generate a document for a "
_MOCK_NAME = ', whose name is "'


def _mock_meta(prompt: str) -> tuple[str, str]:
    """The kind and name of the first whole meta line in ``prompt``, 'Now you
    need to generate a document for a <Class|Function>, whose name is "<name>".'"""
    start = prompt.find(_MOCK_META)
    while start >= 0:
        at = start + len(_MOCK_META)
        for kind in ("Class", "Function"):
            if prompt.startswith(kind + _MOCK_NAME, at):
                name_at = at + len(kind) + len(_MOCK_NAME)
                end = prompt.find('"', name_at)
                if end > name_at and prompt.startswith('".', end):
                    return kind, prompt[name_at:end]
        start = prompt.find(_MOCK_META, start + 1)
    raise ProviderError("mock provider: prompt carries no object meta line")


class MockProvider:
    """Deterministic stand-in provider.

    Reads the object name, kind, parameter bullets and the Output Example
    instruction from the prompt and emits a fully format-compliant doc.
    Identical requests always produce identical responses.
    """

    def send(self, request: CompletionRequest) -> CompletionResponse:
        prompt = request.prompt
        kind, name = _mock_meta(prompt)

        anchor = prompt.rfind(FORMAT_INTRO)
        tail = prompt[anchor:] if anchor >= 0 else ""
        # each line "- <name>: XXX" from the format block on names a parameter
        params = [
            line[2:-5]
            for line in tail.split("\n")
            if len(line) > 7 and line.startswith("- ") and line.endswith(": XXX")
        ]
        wants_output_example = OUTPUT_EXAMPLE_INSTRUCTION in tail

        label, noun = ("Attributes", "attributes") if kind == "Class" else ("parameters", "parameters")
        lines = [f"**{name}**: The function of {name} is {name} stub."]
        lines.append(f"**{label}**: The {noun} of this {kind}.")
        for param in params:
            lines.append(f"- `{param}`: stub description of {param}.")
        lines.append(f"**Code Description**: Deterministic stub analysis of {name}.")
        lines.append(f"**Note**: Deterministic stub note about using {name}.")
        if wants_output_example:
            lines.append(f"**Output Example**: Deterministic stub output of {name}.")
        text = "\n".join(lines)
        return CompletionResponse(text, estimate_tokens(prompt), estimate_tokens(text))


class HttpChatProvider:
    """Minimal OpenAI-style chat completion client on the standard library.

    Sends go over keep-alive connections from an idle list, opened when no
    idle one is left, so no more are open than sends were ever in flight. A
    reused connection that the server has closed is retried once, at once,
    on a new socket. HTTPS verifies certificates with the system's CA store;
    ``http(s)_proxy`` and ``no_proxy`` are honoured. No HTTP code is imported
    before the first send, and the idle connections close with the provider.
    """

    def __init__(self, base_url: str, api_key: str | None) -> None:
        self._url = split_http_url(base_url)
        self._api_key = api_key
        self._lock = threading.Lock()
        self._idle: list = []
        self._route: _Route | None = None  # looked up on the first send
        weakref.finalize(self, _close_all, self._idle)

    def send(self, request: CompletionRequest) -> CompletionResponse:
        import http.client

        payload = {
            "model": request.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "max_tokens": request.max_completion_tokens,
            "temperature": request.temperature,
        }
        body = json.dumps(payload).encode("utf-8")
        with self._lock:
            if self._route is None:
                self._route = _route(self._url)
            conn = self._idle.pop() if self._idle else self._route.connect()
        route = self._route
        headers = {"Content-Type": "application/json", **route.headers}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        reused = conn.sock is not None
        try:
            try:
                status, retry_after, data = _post(conn, route.target, body, headers)
            except ConnectionError:
                if not reused:
                    raise
                conn.close()  # closed by the server while idle
                status, retry_after, data = _post(conn, route.target, body, headers)
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise TransientProviderError(f"request failed: {exc}") from exc
        with self._lock:
            self._idle.append(conn)
        if status in (401, 403):
            raise AuthenticationError(
                f"provider rejected credentials (HTTP {status}); check {API_KEY_ENV}"
            )
        if status == 429 or status >= 500:
            wait = _delta_seconds(retry_after) if status in (429, 503) else None
            raise TransientProviderError(f"provider returned HTTP {status}", wait)
        if status != 200:
            text = data.decode("utf-8", "replace")
            raise ProviderError(f"provider returned HTTP {status}: {text[:200]}")
        try:
            data = json.loads(data)
            text = data["choices"][0]["message"]["content"]
            usage = data.get("usage")
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ProviderError(f"malformed provider response: {exc}") from exc
        if not isinstance(text, str):
            raise ProviderError(
                f"malformed provider response: content is {type(text).__name__}, not a string"
            )
        if not isinstance(usage, dict):
            usage = {}  # some providers send "usage": null, or no usage at all
        prompt_tokens = _token_count(usage, "prompt_tokens", request.prompt)
        return CompletionResponse(text, prompt_tokens, _token_count(usage, "completion_tokens", text))


class _Route(NamedTuple):
    connect: Callable[[], Any]  # a new, unopened connection
    target: str  # what the request line names
    headers: dict[str, str]  # what each request adds for a proxy


def _route(url: SplitResult) -> _Route:
    """How to reach ``url``: straight, through an HTTP proxy that is sent the
    absolute URI, or for HTTPS through a CONNECT tunnel, as the proxy
    environment variables say."""
    import base64
    import http.client
    import urllib.request

    https = url.scheme == "https"
    port = url.port or (443 if https else 80)
    target = f"{url.path}/chat/completions"
    if https:
        import ssl

        connection = partial(http.client.HTTPSConnection, context=ssl.create_default_context())
    else:
        connection = http.client.HTTPConnection
    proxy = None
    if not urllib.request.proxy_bypass(url.hostname):
        proxy = urllib.request.getproxies().get(url.scheme)
    at, auth = (url.hostname, port), {}
    if proxy:
        proxy_url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        if proxy_url.scheme != "http" or not proxy_url.hostname:
            raise ConfigError(f"unsupported proxy {proxy!r}: use an http:// proxy URL")
        if proxy_url.username is not None:
            user, password = unquote(proxy_url.username), unquote(proxy_url.password or "")
            token = base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
            auth["Proxy-Authorization"] = f"Basic {token}"
        at = (proxy_url.hostname, proxy_url.port or 80)
    tunnel = bool(proxy) and https

    def connect():
        conn = connection(*at, timeout=REQUEST_TIMEOUT_S)
        if tunnel:
            conn.set_tunnel(url.hostname, port, headers=auth)
        return conn

    if proxy and not https:
        return _Route(connect, f"http://{url.netloc}{target}", auth)
    return _Route(connect, target, {})


def _close_all(connections: list) -> None:
    for conn in connections:
        conn.close()


def _post(conn, target: str, body: bytes, headers: dict[str, str]) -> tuple[int, str | None, bytes]:
    """One request on ``conn``, which opens its socket if it has none; the
    status, the Retry-After header and the whole body, so that the
    connection can be reused."""
    conn.request("POST", target, body, headers)
    response = conn.getresponse()
    return response.status, response.getheader("Retry-After"), response.read()


def _delta_seconds(value: str | None) -> float | None:
    """A Retry-After value in seconds; None for an HTTP-date or no value."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


def _token_count(usage: dict, key: str, text: str) -> int:
    """The provider's count under ``key``, or the estimate for ``text`` when
    it sent none."""
    count = usage.get(key)
    if count is None:
        return estimate_tokens(text)
    if not isinstance(count, int) or isinstance(count, bool):
        raise ProviderError(
            f"malformed provider response: usage {key} is {count!r}, not an integer"
        )
    return count


class Gateway:
    """Retry wrapper over a provider; safe to share across threads.

    Token counts travel on each response; ``RunReport`` adds them up per run.
    """

    def __init__(
        self,
        provider: Provider,
        *,
        retries: int,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.provider = provider
        self.retries = retries
        self._sleep = sleep

    def complete(self, request: CompletionRequest, *, context_id: str | None = None) -> CompletionResponse:
        request.validate()
        last_error: Exception | None = None
        attempts = self.retries + 1
        for attempt in range(attempts):
            try:
                return self.provider.send(request)
            except TransientProviderError as exc:
                last_error = exc
                if attempt < self.retries:
                    backoff = _BACKOFF_SCHEDULE[min(attempt, len(_BACKOFF_SCHEDULE) - 1)]
                    if exc.retry_after is not None:
                        backoff = min(exc.retry_after, RETRY_AFTER_CAP_S)
                    self._sleep(backoff)
        target = f" while generating {context_id}" if context_id else ""
        raise ProviderError(f"provider failed after {attempts} attempts{target}: {last_error}")
