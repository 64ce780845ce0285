"""The mock provider's answer as its two regular expressions gave it.

This is the former ``repodoc.llm_gateway.MockProvider.send``, kept as an
oracle: ``MockProvider`` must give the same text and token counts for every
prompt, and refuse the same prompts.
"""

from __future__ import annotations

import re

from repodoc.errors import ProviderError
from repodoc.prompt_engine import FORMAT_INTRO, OUTPUT_EXAMPLE_INSTRUCTION, estimate_tokens

_MOCK_NAME_RE = re.compile(
    r'Now you need to generate a document for a (Class|Function), whose name is "([^"]+)"\.'
)
_MOCK_BULLET_RE = re.compile(r"^- (.+?): XXX$", re.MULTILINE)


def regex_answer(prompt: str) -> tuple[str, int, int]:
    """The text, prompt tokens and completion tokens of the mock's answer."""
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
    return text, estimate_tokens(prompt), estimate_tokens(text)
