"""Stub completion endpoint for the endpoint_stub workload.

A single-threaded HTTP/1.1 server on ``selectors``.  Connections are
kept alive with TCP_NODELAY set, because a stub that waits on delayed
ACKs measures itself rather than the client.  Each reply is held back
by a timer for a deterministic latency of

    LATENCY_BASE_S + LATENCY_PER_PROMPT_CHAR_S * prompt chars
                   + LATENCY_PER_OUTPUT_CHAR_S * output chars

so concurrent requests overlap their waits the way a batching server's
slots do.  The first attempt at a prompt that holds BUSY_MARKER gets a
503; the workload generator puts the marker into a fixed share of its
documents, so every seed meets the same number of 503s.  Echo requests
return prompt log-probabilities whose last "yes"/"no" token is derived
from a hash of the prompt, so ASK-LLM scores are stable and spread over
[0, 1].

``GET /stats`` returns ``{"requests", "errors_503", "busy_s"}``; every
other request is a completion request and is counted.

Run ``python3 stub.py``; it prints ``READY <port>`` once it listens on
127.0.0.1.  ``Stub`` pins the process to the last CPU the benchmark may
use; ``worker.py`` runs the pipeline on the first.
"""

from __future__ import annotations

import hashlib
import heapq
import http.client
import json
import math
import os
import re
import selectors
import socket
import subprocess
import sys
import time
from pathlib import Path

# Long enough that the endpoint, not the client's CPU, sets the pace.
LATENCY_BASE_S = 0.009
LATENCY_PER_PROMPT_CHAR_S = 9e-6
LATENCY_PER_OUTPUT_CHAR_S = 18e-6
# A word no generated vocabulary holds: it has a digit.
BUSY_MARKER = "busy503"

# The CPUs the benchmark may use, read before worker.py pins itself.
CPUS = sorted(os.sched_getaffinity(0))

_TOKEN = re.compile(r"\w+|[^\w\s]")
_TAGGED_PASSAGE = re.compile(r"(?s)<text>\n(.*?)\n</text>\[/INST\]")


def _unit(text: str) -> float:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return (int.from_bytes(digest[:8], "big") + 0.5) / 2**64


def _echo(prompt: str) -> dict:
    tokens = _TOKEN.findall(prompt)
    logprobs: list = [None] + [-0.5] * (len(tokens) - 1)
    if tokens and tokens[-1] in ("yes", "no"):
        u = _unit(prompt[: prompt.rfind(tokens[-1])])
        logprobs[-1] = math.log(u) if tokens[-1] == "yes" else math.log(1.0 - u)
    return {
        "usage": {"prompt_tokens": len(tokens)},
        "choices": [{"text": "", "logprobs": {"token_logprobs": logprobs}}],
    }


def _completion_text(prompt: str, stop: list) -> str:
    match = _TAGGED_PASSAGE.search(prompt)
    if match:
        return "Question: What does the passage say?\nAnswer: " + match.group(1) + "\n</text>"
    # ASK-LLM vote fallback: one word, consistent with the echo scores.
    if prompt.endswith("Choice:"):
        return " yes" if _unit(prompt) > 0.5 else " no"
    return "ok" + (stop[0] if stop else "")


class StubServer:
    def __init__(self) -> None:
        self.requests = 0
        self.errors_503 = 0
        self.busy_s = 0.0
        self._seen: set[bytes] = set()
        self._timers: list = []
        self._sequence = 0
        self._selector = selectors.DefaultSelector()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(64)
        self._listener.setblocking(False)
        self._selector.register(self._listener, selectors.EVENT_READ, None)

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def _respond(self, method: str, path: str, body: bytes) -> tuple[int, dict, float]:
        if method == "GET" and path == "/stats":
            stats = {"requests": self.requests, "errors_503": self.errors_503, "busy_s": self.busy_s}
            return 200, stats, 0.0
        self.requests += 1
        payload = json.loads(body)
        prompt = payload["prompt"]
        digest = hashlib.sha256(prompt.encode("utf-8")).digest()
        first_attempt = digest not in self._seen
        self._seen.add(digest)
        if first_attempt and BUSY_MARKER in prompt:
            self.errors_503 += 1
            return 503, {"error": "busy"}, LATENCY_BASE_S
        if payload.get("echo"):
            reply, output_chars = _echo(prompt), 0
        else:
            text = _completion_text(prompt, payload.get("stop") or [])
            reply = {"choices": [{"text": text, "finish_reason": "stop"}]}
            output_chars = len(text)
        reply["model"] = payload.get("model", "stub")
        latency = (
            LATENCY_BASE_S
            + LATENCY_PER_PROMPT_CHAR_S * len(prompt)
            + LATENCY_PER_OUTPUT_CHAR_S * output_chars
        )
        return 200, reply, latency

    def _accept(self) -> None:
        conn, _ = self._listener.accept()
        conn.setblocking(False)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._selector.register(conn, selectors.EVENT_READ, bytearray())

    def _read(self, key: selectors.SelectorKey) -> None:
        conn, buffer = key.fileobj, key.data
        try:
            data = conn.recv(1 << 16)
        except ConnectionError:
            data = b""
        if not data:
            self._selector.unregister(conn)
            conn.close()
            return
        buffer += data
        while True:
            head_end = buffer.find(b"\r\n\r\n")
            if head_end < 0:
                return
            head = buffer[:head_end].decode("latin-1").split("\r\n")
            method, path, _ = head[0].split(" ", 2)
            length = 0
            for line in head[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            if len(buffer) < head_end + 4 + length:
                return
            body = bytes(buffer[head_end + 4 : head_end + 4 + length])
            del buffer[: head_end + 4 + length]
            status, obj, latency = self._respond(method, path, body)
            self.busy_s += latency
            self._sequence += 1
            heapq.heappush(
                self._timers, (time.monotonic() + latency, self._sequence, conn, status, obj)
            )

    def _send(self, conn: socket.socket, status: int, obj: dict) -> None:
        body = json.dumps(obj).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {http.client.responses[status]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        conn.setblocking(True)
        try:
            conn.sendall(head + body)
        except OSError:
            return
        finally:
            if conn.fileno() >= 0:
                conn.setblocking(False)

    def serve_forever(self) -> None:
        while True:
            timeout = None
            if self._timers:
                timeout = max(0.0, self._timers[0][0] - time.monotonic())
            for key, _ in self._selector.select(timeout):
                if key.data is None:
                    self._accept()
                else:
                    self._read(key)
            now = time.monotonic()
            while self._timers and self._timers[0][0] <= now:
                _, _, conn, status, obj = heapq.heappop(self._timers)
                if conn.fileno() >= 0:
                    self._send(conn, status, obj)


class Stub:
    """A stub endpoint running in its own process."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self._proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            self.stop()
            raise RuntimeError("stub endpoint did not report ready")
        # Apart from the pipeline's CPU, as a real endpoint would be.
        os.sched_setaffinity(self._proc.pid, {CPUS[-1]})
        self.port = int(line[1])
        self.url = f"http://127.0.0.1:{self.port}/v1/completions"

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()

    def __enter__(self) -> "Stub":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def main() -> None:
    server = StubServer()
    print(f"READY {server.port}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
