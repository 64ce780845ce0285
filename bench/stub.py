"""Localhost stand-in for an OpenAI-style chat completion endpoint.

Usage: python3 bench/stub.py

Prints ``PORT <n>`` once listening on 127.0.0.1, then serves until killed.
``POST .../chat/completions`` answers like repodoc's mock provider, after a
delay of FIXED_S, plus PROMPT_TOKEN_S per prompt token, plus
COMPLETION_TOKEN_S per completion token. ``GET /stats`` returns the request
count and the largest number of requests in flight at once. At most one
connection per CPU is served at a time. The stub injects no faults.

The delays model a hosted gpt-3.5-turbo-class endpoint, scaled down by
SCALE so that a cold generate of a 653-object package waits about 5 s
instead of about 17 minutes:
  - about 0.4 s before the first token, network included, and about 80
    completion tokens per second (Artificial Analysis, gpt-3.5-turbo, 2024);
  - prompt tokens cost little: OpenAI's latency optimisation guide says that
    halving a prompt may cut latency by only 1-5%. 0.1 ms per prompt token
    gives 4.5% for this corpus's typical request of 1,400 prompt and 80
    completion tokens.
These figures are recalled from the sources named, not measured against a
live endpoint. Completion time dominates, as it does in those sources, so
fewer generated tokens move ``generate_s`` most, and a shorter prompt a
little.

Each response is written with one ``sendall``: headers and body sent in two
writes meet Nagle's algorithm and the client's delayed ACK, which stalled
every request by tens of milliseconds.
"""

from __future__ import annotations

import json
import math
import os
import re
import socket
import threading
import time

NAME_RE = re.compile(
    r'Now you need to generate a document for a (Class|Function), whose name is "([^"]+)"\.'
)
BULLET_RE = re.compile(r"^- (.+?): XXX$", re.MULTILINE)
FORMAT_INTRO = "The standard format is as follows:"
OUTPUT_EXAMPLE_MARK = "**Output Example**: Mock up"
SCALE = 1 / 200
FIXED_S = 0.4 * SCALE
PROMPT_TOKEN_S = 1e-4 * SCALE
COMPLETION_TOKEN_S = 1 / 80 * SCALE


def estimate_tokens(text: str) -> int:
    return math.ceil(len(text.encode("utf-8")) / 4)


def answer(prompt: str) -> str | None:
    """The mock provider's doc for the prompt's target, or None."""
    match = NAME_RE.search(prompt)
    if match is None:
        return None
    kind, name = match.groups()
    tail = prompt[prompt.rfind(FORMAT_INTRO):] if FORMAT_INTRO in prompt else ""
    label, noun = ("Attributes", "attributes") if kind == "Class" else ("parameters", "parameters")
    lines = [
        f"**{name}**: The function of {name} is {name} stub.",
        f"**{label}**: The {noun} of this {kind}.",
    ]
    lines += [f"- `{p}`: stub description of {p}." for p in BULLET_RE.findall(tail)]
    lines.append(f"**Code Description**: Deterministic stub analysis of {name}.")
    lines.append(f"**Note**: Deterministic stub note about using {name}.")
    if OUTPUT_EXAMPLE_MARK in tail:
        lines.append(f"**Output Example**: Deterministic stub output of {name}.")
    return "\n".join(lines)


class Stub:
    def __init__(self, max_conn: int) -> None:
        self.slots = threading.BoundedSemaphore(max_conn)
        self.lock = threading.Lock()
        self.requests = 0
        self.inflight = 0
        self.max_inflight = 0

    def serve(self, server: socket.socket) -> None:
        while True:
            self.slots.acquire()
            conn, _ = server.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(target=self._connection, args=(conn,), daemon=True).start()

    def _connection(self, conn: socket.socket) -> None:
        buffer = b""
        try:
            while True:
                while b"\r\n\r\n" not in buffer:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buffer += chunk
                head, buffer = buffer.split(b"\r\n\r\n", 1)
                lines = head.decode("latin-1").split("\r\n")
                method, path = lines[0].split(" ")[:2]
                headers = {
                    k.strip().lower(): v.strip()
                    for k, v in (line.split(":", 1) for line in lines[1:] if ":" in line)
                }
                length = int(headers.get("content-length", "0"))
                while len(buffer) < length:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buffer += chunk
                body, buffer = buffer[:length], buffer[length:]
                status, payload = self._handle(method, path, body, time.perf_counter())
                data = json.dumps(payload).encode("utf-8")
                head = (
                    f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\nConnection: keep-alive\r\n\r\n"
                )
                conn.sendall(head.encode("latin-1") + data)
        except (ConnectionError, OSError):
            return
        finally:
            conn.close()
            self.slots.release()

    def _handle(
        self, method: str, path: str, body: bytes, received: float
    ) -> tuple[str, dict]:
        if method == "GET" and path.endswith("/stats"):
            with self.lock:
                return "200 OK", {"requests": self.requests, "max_inflight": self.max_inflight}
        if method != "POST" or not path.endswith("/chat/completions"):
            return "404 Not Found", {"error": path}
        with self.lock:
            self.requests += 1
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)
        try:
            request = json.loads(body)
            prompt = request["messages"][0]["content"]
            text = answer(prompt)
            if text is None:
                return "400 Bad Request", {"error": "prompt carries no object meta line"}
            prompt_tokens = estimate_tokens(prompt)
            completion_tokens = estimate_tokens(text)
            # the delay runs from the request's arrival, so the stub's own
            # work is inside it and the host's speed does not lengthen it
            delay = FIXED_S + PROMPT_TOKEN_S * prompt_tokens + COMPLETION_TOKEN_S * completion_tokens
            time.sleep(max(0.0, received + delay - time.perf_counter()))
            return "200 OK", {
                "model": request.get("model", "stub"),
                "choices": [{"message": {"role": "assistant", "content": text}}],
                "usage": {
                    "prompt_tokens": prompt_tokens,
                    "completion_tokens": completion_tokens,
                },
            }
        finally:
            with self.lock:
                self.inflight -= 1


def main() -> int:
    stub = Stub(os.cpu_count() or 1)
    server = socket.create_server(("127.0.0.1", 0))
    print(f"PORT {server.getsockname()[1]}", flush=True)
    stub.serve(server)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
