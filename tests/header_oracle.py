"""Reference header cutter that reads a definition's header from its tokens.

``source_model`` finds where a definition's header ends from its ``ast``
node and a short scan. This finds the same offset from ``tokenize`` alone,
with no fast path, so the two share no logic: ``CodeObject.span[1]`` must
equal what this returns.
"""

from __future__ import annotations

import tokenize
from itertools import accumulate


def header_end(text: str, start: int, stop: int) -> int:
    """The offset just past the ":" that closes the header of the definition
    at ``text[start:stop]``, or ``stop`` when its body starts on that line."""
    lines = [line + "\n" for line in text[start:stop].split("\n")]
    offsets = list(accumulate(map(len, lines), initial=start))  # each line's start
    tokens = tokenize.generate_tokens(iter(lines).__next__)
    depth, header = 0, False
    for token in tokens:
        if token.type == tokenize.OP and token.string in ("(", "[", "{"):
            depth += 1
        elif token.type == tokenize.OP and token.string in (")", "]", "}"):
            depth -= 1
        elif token.type == tokenize.NAME and token.string in ("def", "class") and not depth:
            header = True
        elif token.type == tokenize.OP and token.string == ":" and header and not depth:
            break
    row, col = token.end
    after = next(tokens)
    if after.type == tokenize.COMMENT:
        after = next(tokens)
    return offsets[row - 1] + col if after.type == tokenize.NEWLINE else stop
