"""Completion gateway: provider abstraction and retries.

Two providers ship with the package: an HTTP chat-completion client and a
deterministic mock selected by the ``mock:`` base URL scheme. The mock answers
from the prompt's meta lines alone, so the whole pipeline can run hermetically.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Callable, Protocol

from .errors import AuthenticationError, ProviderError
from .prompt_engine import FORMAT_INTRO, OUTPUT_EXAMPLE_INSTRUCTION, estimate_tokens

MOCK_SCHEME = "mock:"
API_KEY_ENV = "REPODOC_API_KEY"

_BACKOFF_SCHEDULE = (1.0, 2.0, 4.0)
REQUEST_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class CompletionRequest:
    model: str
    prompt: str
    max_completion_tokens: int
    temperature: float

    def validate(self) -> None:
        if not self.prompt:
            raise ValueError("empty prompt")
        if self.max_completion_tokens < 1:
            raise ValueError("max_completion_tokens must be positive")


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    prompt_tokens: int
    completion_tokens: int
    model: str


class TransientProviderError(ProviderError):
    """Retryable failure: connection trouble, 5xx, or rate limiting."""


class Provider(Protocol):
    def send(self, request: CompletionRequest) -> CompletionResponse: ...


_MOCK_NAME_RE = re.compile(
    r'Now you need to generate a document for a (Class|Function), whose name is "([^"]+)"\.'
)
_MOCK_BULLET_RE = re.compile(r"^- (.+?): XXX$", re.MULTILINE)


class MockProvider:
    """Deterministic stand-in provider.

    Reads the object name, kind, parameter bullets and the Output Example
    instruction from the prompt and emits a fully format-compliant doc.
    Identical requests always produce identical responses.
    """

    def send(self, request: CompletionRequest) -> CompletionResponse:
        prompt = request.prompt
        match = _MOCK_NAME_RE.search(prompt)
        if match is None:
            raise ProviderError("mock provider: prompt carries no object meta line")
        kind, name = match.group(1), match.group(2)

        anchor = prompt.rfind(FORMAT_INTRO)
        tail = prompt[anchor:] if anchor >= 0 else ""
        params = _MOCK_BULLET_RE.findall(tail)
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
        return CompletionResponse(
            text=text,
            prompt_tokens=estimate_tokens(prompt),
            completion_tokens=estimate_tokens(text),
            model=request.model,
        )


class HttpChatProvider:
    """Minimal OpenAI-style chat completion client."""

    def __init__(self, base_url: str, api_key: str | None, *, session: object | None = None) -> None:
        self._base_url = base_url.rstrip("/")
        self._api_key = api_key
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    def send(self, request: CompletionRequest) -> CompletionResponse:
        import requests

        headers = {}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        payload = {
            "model": request.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "max_tokens": request.max_completion_tokens,
            "temperature": request.temperature,
        }
        try:
            response = self._session.post(
                f"{self._base_url}/chat/completions",
                json=payload,
                headers=headers,
                timeout=REQUEST_TIMEOUT_S,
            )
        except requests.RequestException as exc:
            raise TransientProviderError(f"request failed: {exc}") from exc
        if response.status_code in (401, 403):
            raise AuthenticationError(
                f"provider rejected credentials (HTTP {response.status_code}); check {API_KEY_ENV}"
            )
        if response.status_code == 429 or response.status_code >= 500:
            raise TransientProviderError(f"provider returned HTTP {response.status_code}")
        if response.status_code != 200:
            raise ProviderError(f"provider returned HTTP {response.status_code}: {response.text[:200]}")
        try:
            data = response.json()
            text = data["choices"][0]["message"]["content"]
            usage = data.get("usage") or {}  # some providers send "usage": null
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ProviderError(f"malformed provider response: {exc}") from exc
        if not isinstance(text, str):
            raise ProviderError(
                f"malformed provider response: content is {type(text).__name__}, not a string"
            )
        return CompletionResponse(
            text=text,
            prompt_tokens=int(usage.get("prompt_tokens", estimate_tokens(request.prompt))),
            completion_tokens=int(usage.get("completion_tokens", estimate_tokens(text))),
            model=str(data.get("model", request.model)),
        )


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
                    self._sleep(backoff)
        target = f" while generating {context_id}" if context_id else ""
        raise ProviderError(f"provider failed after {attempts} attempts{target}: {last_error}")
