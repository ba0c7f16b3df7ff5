"""Exercise the HTTP wire interfaces against a local stub server."""

from __future__ import annotations

import importlib.util
import json
import logging
import re
import shutil
import socket
import ssl
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from rephrasing import pipeline
from rephrasing.cli import main
from rephrasing.config import load_config
from rephrasing.corpus import Document
from rephrasing.inference import (
    AuthError,
    BackendConfig,
    BackendError,
    CheckpointWriter,
    CompletionBackend,
    HttpBackend,
    JobKey,
    RephraseJob,
    TransientBackendError,
    load_checkpoint,
    pull_map,
    run_batch,
)
from rephrasing.pipeline import stage_preprocess, stage_score
from rephrasing.prompts import RenderedPrompt
from rephrasing.quality import askllm_score_first

from conftest import make_docs, write_fixture_config


class _Handler(BaseHTTPRequestHandler):
    # Keep-alive, as vLLM-style servers answer.
    protocol_version = "HTTP/1.1"
    server_version = "stub/0"
    # TCP_NODELAY, set by setup(): a reply goes out as a head and a body,
    # and the body would otherwise wait on the client's delayed ACK.
    disable_nagle_algorithm = True

    def log_message(self, *args):
        pass

    def setup(self):
        super().setup()
        with self.server.cond:
            self.server.open_conns += 1

    def finish(self):
        super().finish()
        with self.server.cond:
            self.server.open_conns -= 1
            self.server.cond.notify_all()

    def _payload(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        return json.loads(self.rfile.read(length))

    def _reply(self, code: int, obj: dict | bytes) -> None:
        body = obj if isinstance(obj, bytes) else json.dumps(obj).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.server.state.get("connection_close"):
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        state = self.server.state
        payload = self._payload()
        state["requests"].append({"path": self.path, "payload": payload,
                                  "auth": self.headers.get("Authorization"),
                                  "port": self.client_address[1]})
        if state.get("raw"):
            # A test's raw replies, one a request, sent as they are; each
            # says whether the server then closes the connection.
            reply, close = state["raw"].pop(0)
            self.wfile.write(reply)
            self.close_connection = close
            return
        if "delay_s" in state:
            time.sleep(state["delay_s"])
        if "barrier" in state:
            state["barrier"].wait()

        if state.get("require_token") and self.headers.get("Authorization") != (
            f"Bearer {state['require_token']}"
        ):
            self._reply(401, {"error": "unauthorized"})
            return
        if state.get("fail_next", 0) > 0:
            state["fail_next"] -= 1
            self._reply(503, {"error": "busy"})
            return

        if self.path == "/tokenize":
            # Exact tokenizer wire interface: one token per 4 chars,
            # unless a test sets its own "tokenize_answer".
            self._reply(200, state.get("tokenize_answer", {"tokens": len(payload["text"]) // 4}))
            return

        prompt = payload["prompt"]
        # A test's "malformed(prompt)" may answer a prompt with a raw 200 body.
        body = state.get("malformed", lambda prompt: None)(prompt)
        if body is not None:
            self._reply(200, body)
            return
        if payload.get("echo"):
            # Echoed prompt logprobs: -0.5 per whitespace token, unless a
            # test sets its own "tokenize" and "logprob(position, token)".
            tokens = state.get("tokenize", str.split)(prompt)
            logprob = state.get("logprob", lambda i, token: -0.5)
            logprobs = [None] + [logprob(i, token) for i, token in enumerate(tokens) if i]
            self._reply(
                200,
                {
                    "usage": {"prompt_tokens": len(tokens)},
                    "choices": [{"text": "", "logprobs": {"token_logprobs": logprobs}}],
                },
            )
            return

        stop = payload.get("stop", [])
        completion = f"echo of {len(prompt)} chars" + (stop[0] if stop else "")
        self._reply(
            200,
            {
                "model": "stub-model",
                "choices": [{"text": completion, "finish_reason": "stop"}],
            },
        )
        if state.pop("close_when_idle", False):
            # Close the kept-alive connection without announcing it, as
            # a server does when its idle timeout expires.
            self.close_connection = True
            self.connection.shutdown(socket.SHUT_WR)


@contextmanager
def serving(tls: ssl.SSLContext | None = None):
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    if tls is not None:
        httpd.socket = tls.wrap_socket(httpd.socket, server_side=True)
    httpd.state = {"requests": []}
    httpd.cond = threading.Condition()
    httpd.open_conns = 0
    # shutdown() waits for the serving loop's next poll; 0.5 s by default.
    thread = threading.Thread(target=httpd.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


@pytest.fixture
def server():
    with serving() as httpd:
        yield httpd


def endpoint(server, path="/v1/completions") -> str:
    host, port = server.server_address
    return f"http://{host}:{port}{path}"


def client_ports(server) -> list[int]:
    return [r["port"] for r in server.state["requests"]]


@pytest.fixture
def backend_for():
    """Make HttpBackends against a stub server; all closed at teardown."""
    made = []

    def make(server, **kw) -> HttpBackend:
        cfg = BackendConfig(
            endpoint=endpoint(server),
            max_retries=3,
            retry_backoff_s=0.0,
            timeout_s=10.0,
            **kw,
        )
        made.append(HttpBackend(cfg))
        return made[-1]

    yield make
    for backend in made:
        backend.close()


def job(i: int) -> RephraseJob:
    prompt = RenderedPrompt(f"doc{i:03d}", 0, "qa", f"prompt {i}", ("</s>",), 0.0)
    return RephraseJob(JobKey(prompt.doc_id, 0, "qa"), prompt)


class TestCompletionWire:
    def test_request_carries_contract_fields(self, server, backend_for):
        backend = backend_for(server, model="stub-model")
        completion = backend.complete(
            "tell me things", temperature=0.7, stop=("</text>", "</s>"), max_tokens=64
        )
        payload = server.state["requests"][-1]["payload"]
        assert payload["prompt"] == "tell me things"
        assert payload["temperature"] == 0.7
        assert payload["stop"] == ["</text>", "</s>"]
        assert payload["max_tokens"] == 64
        assert payload["include_stop_str_in_output"] is True
        assert payload["model"] == "stub-model"
        assert completion.finish == "stop_sequence"
        assert completion.model_id == "stub-model"
        assert completion.text.endswith("</text>")

    def test_auth_token_from_environment(self, server, backend_for, monkeypatch):
        server.state["require_token"] = "sekrit"
        monkeypatch.setenv("STUB_TOKEN", "sekrit")
        backend = backend_for(server, auth_token_env="STUB_TOKEN")
        backend.complete("hi", temperature=0.0, stop=(), max_tokens=8)
        assert server.state["requests"][-1]["auth"] == "Bearer sekrit"

    def test_missing_token_is_auth_error(self, server, backend_for):
        server.state["require_token"] = "sekrit"
        backend = backend_for(server)
        with pytest.raises(AuthError):
            backend.complete("hi", temperature=0.0, stop=(), max_tokens=8)

    def test_5xx_is_transient(self, server, backend_for):
        server.state["fail_next"] = 1
        backend = backend_for(server)
        with pytest.raises(TransientBackendError):
            backend.complete("hi", temperature=0.0, stop=(), max_tokens=8)

    def test_connection_refused_is_transient(self):
        cfg = BackendConfig(endpoint="http://127.0.0.1:9/nothing", timeout_s=0.2)
        with pytest.raises(TransientBackendError):
            HttpBackend(cfg).complete("hi", temperature=0.0, stop=(), max_tokens=8)

    def test_close_closes_every_pooled_connection(self, server, backend_for):
        backend = backend_for(server, max_in_flight=2)
        # Two requests held in flight together open two connections.
        server.state["barrier"] = threading.Barrier(2, timeout=5)
        results = run_batch([job(0), job(1)], backend, backend.cfg)
        assert not any(r.failed for r in results)
        assert len(set(client_ports(server))) == 2
        assert server.open_conns == 2
        backend.close()
        with server.cond:
            assert server.cond.wait_for(lambda: server.open_conns == 0, timeout=5)

    def test_sequential_requests_reuse_one_connection(self, server, backend_for):
        backend = backend_for(server)
        for _ in range(5):
            backend.complete("hi", temperature=0.0, stop=(), max_tokens=8)
        backend.option_logprobs("judge this doc\nChoice:", [" yes", " no"])
        assert len(client_ports(server)) == 8
        assert len(set(client_ports(server))) == 1

    def test_connection_close_reply_is_not_pooled(self, server, backend_for):
        backend = backend_for(server)
        server.state["connection_close"] = True
        for _ in range(3):
            backend.complete("hi", temperature=0.0, stop=(), max_tokens=8)
        assert len(set(client_ports(server))) == 3

    def test_connection_closed_while_idle_is_reopened_without_retry(self, server, backend_for):
        backend = backend_for(server)
        server.state["close_when_idle"] = True
        backend.complete("first", temperature=0.0, stop=(), max_tokens=8)
        with server.cond:
            assert server.cond.wait_for(lambda: server.open_conns == 0, timeout=5)
        [result] = run_batch([job(0)], backend, backend.cfg)
        assert not result.failed
        assert result.attempts == 1
        assert len(server.state["requests"]) == 2
        assert len(set(client_ports(server))) == 2

    def test_run_batch_opens_at_most_max_in_flight_connections(self, server, backend_for):
        backend = backend_for(server, max_in_flight=2)
        server.state["delay_s"] = 0.005
        results = run_batch([job(i) for i in range(20)], backend, backend.cfg)
        assert not any(r.failed for r in results)
        assert len(server.state["requests"]) == 20
        assert len(set(client_ports(server))) <= 2

    def test_option_logprobs_sums_option_span(self, server, backend_for):
        backend = backend_for(server)
        # Base prompt has 3 whitespace tokens; each option adds one
        # token scored -0.5, so both options come back at -0.5.
        scores = backend.option_logprobs("judge this doc\nChoice:", [" yes", " no"])
        assert scores == [-0.5, -0.5]

    def test_echo_503_retried_scorer_stays_logprob(self, server, backend_for, quarter_estimator):
        server.state["fail_next"] = 1
        doc = Document("d1", "informative text about the world.", "en")
        scored = askllm_score_first(doc, backend_for(server), quarter_estimator, model_id="m")
        assert scored.scorer == "ask_llm:m"
        assert scored.score == 0.5
        assert [bool(r["payload"].get("echo")) for r in server.state["requests"]] == [True] * 4


RAW_COMPLETION = json.dumps(
    {"model": "stub-model", "choices": [{"text": "raw reply", "finish_reason": "stop"}]}
).encode("utf-8")


def chunked(body: bytes) -> bytes:
    """``body`` in three chunks, the first with an extension, and a trailer."""
    third = len(body) // 3
    parts = [body[:third], body[third : 2 * third], body[2 * third :]]
    chunks = [b"%x;ext=1\r\n%b\r\n" % (len(parts[0]), parts[0])]
    chunks += [b"%X\r\n%b\r\n" % (len(part), part) for part in parts[1:]]
    return b"".join(chunks) + b"0\r\nX-Trailer: t\r\n\r\n"


LENGTH_200 = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%b" % (len(RAW_COMPLETION), RAW_COMPLETION)

# Raw replies: (bytes, whether the server closes the connection after
# them, whether the client may send its next request on it).
WIRE_REPLIES = {
    "chunked": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked(RAW_COMPLETION), False, True),
    "continue_first": (b"HTTP/1.1 100 Continue\r\n\r\n" + LENGTH_200, False, True),
    "http_1_0": (LENGTH_200.replace(b"HTTP/1.1", b"HTTP/1.0", 1), False, False),
    "no_length": (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + RAW_COMPLETION, True, False),
    "odd_case_length": (LENGTH_200.replace(b"Content-Length", b"cOnTeNt-LeNgTh"), False, True),
    "odd_case_chunked": (
        b"HTTP/1.1 200 OK\r\ntransfer-ENCODING: Chunked\r\n\r\n" + chunked(RAW_COMPLETION), False, True
    ),
    "odd_case_close": (LENGTH_200.replace(b"\r\n\r\n", b"\r\ncOnNeCtIoN: keep-alive, CLOSE\r\n\r\n"), False, False),
    "bytes_after_body": (LENGTH_200 + b"HTTP/1.1 200 OK\r\n", False, False),
}

# Raw replies the client refuses: (bytes, whether the server closes).
MALFORMED_REPLIES = {
    "short_body": (LENGTH_200.replace(b"Content-Length: ", b"Content-Length: 1"), True),
    "garbage_status_line": (b"garbage\r\nContent-Length: 2\r\n\r\n{}", False),
    "endless_head": (b"HTTP/1.1 200 OK\r\nX-Padding: " + b"a" * 70_000, False),
}


class TestWireFraming:
    @pytest.mark.parametrize("reply, closes, pooled", list(WIRE_REPLIES.values()), ids=list(WIRE_REPLIES))
    def test_reply_is_read_and_its_connection_pooled_only_if_kept(
        self, server, backend_for, reply, closes, pooled
    ):
        server.state["raw"] = [(reply, closes)]
        backend = backend_for(server)
        assert backend.complete("hi", temperature=0.0, stop=(), max_tokens=8).text == "raw reply"
        assert backend.complete("hi", temperature=0.0, stop=(), max_tokens=8).text == "echo of 2 chars"
        first, second = client_ports(server)
        assert (first == second) == pooled

    @pytest.mark.parametrize("reply, closes", list(MALFORMED_REPLIES.values()), ids=list(MALFORMED_REPLIES))
    def test_malformed_reply_is_transient_and_its_connection_discarded(
        self, server, backend_for, reply, closes
    ):
        server.state["raw"] = [(reply, closes)]
        backend = backend_for(server)
        with pytest.raises(TransientBackendError):
            backend.complete("hi", temperature=0.0, stop=(), max_tokens=8)
        backend.complete("hi", temperature=0.0, stop=(), max_tokens=8)
        first, second = client_ports(server)
        assert first != second


@pytest.fixture
def tls_server(tmp_path):
    """A stub server behind a self-signed certificate for 127.0.0.1, and
    the certificate's path."""
    if shutil.which("openssl") is None:
        pytest.skip("openssl is not installed")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "1",
         "-subj", "/CN=localhost", "-addext", "subjectAltName=DNS:localhost,IP:127.0.0.1",
         "-keyout", str(key), "-out", str(cert)],
        check=True,
        capture_output=True,
    )
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    with serving(context) as httpd:
        yield httpd, cert


def https_backend(server) -> HttpBackend:
    url = endpoint(server).replace("http://", "https://", 1)
    return HttpBackend(BackendConfig(endpoint=url, timeout_s=10.0))


class TestHttps:
    def test_trusted_certificate_is_accepted(self, tls_server, monkeypatch):
        server, cert = tls_server
        monkeypatch.setenv("SSL_CERT_FILE", str(cert))
        backend = https_backend(server)
        try:
            for _ in range(2):
                completion = backend.complete("hi", temperature=0.0, stop=(), max_tokens=8)
                assert completion.text == "echo of 2 chars"
        finally:
            backend.close()
        assert len(set(client_ports(server))) == 1

    def test_untrusted_certificate_is_refused(self, tls_server, monkeypatch):
        server, _ = tls_server
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        backend = https_backend(server)
        try:
            with pytest.raises(TransientBackendError, match="SSLCertVerificationError"):
                backend.complete("hi", temperature=0.0, stop=(), max_tokens=8)
        finally:
            backend.close()
        assert server.state["requests"] == []


# Words and punctuation, as the benchmark's stub endpoint counts tokens.
WORDS = re.compile(r"\w+|[^\w\s]").findall
OPTIONS = [" yes", " no"]


HTML_200 = b"<html><body>upstream busy</body></html>"


class TestMalformed200:
    """A 200 whose body is not a completion is a permanent BackendError."""

    @pytest.mark.parametrize(
        "body",
        [
            HTML_200,
            b"[]",
            b'{"choices": ["not an object"]}',
            b'{"choices": [{"text": null}]}',
            b'{"choices": [{"text": "x\\ud83d y"}]}',
            b'{"model": null, "choices": [{"text": "x"}]}',
        ],
        ids=[
            "html",
            "not_an_object",
            "choice_not_an_object",
            "text_null",
            "lone_surrogate",
            "model_null",
        ],
    )
    def test_fails_only_its_job(self, server, backend_for, body):
        jobs = [job(i) for i in range(8)]
        server.state["malformed"] = lambda prompt: body if prompt == jobs[3].prompt.text else None
        backend = backend_for(server)
        results = run_batch(jobs, backend, backend.cfg)
        assert [r.key for r in results if r.failed] == [jobs[3].key]
        assert results[3].text.startswith("BackendError: ")
        assert results[3].attempts == 1

    def test_lone_surrogate_recorded_as_failed(self, server, backend_for, tmp_path):
        jobs = [job(i) for i in range(8)]
        body = b'{"choices": [{"text": "x\\ud83d y"}]}'
        server.state["malformed"] = lambda prompt: body if prompt == jobs[3].prompt.text else None
        backend = backend_for(server)
        path = tmp_path / "checkpoint.jsonl"
        with CheckpointWriter(path, "fp") as checkpoint:
            run_batch(jobs, backend, backend.cfg, on_result=checkpoint.append)
        recorded = load_checkpoint(path, "fp")
        assert set(recorded) == {j.key for j in jobs}
        assert [key for key, result in recorded.items() if result.failed] == [jobs[3].key]
        assert "not UTF-8" in recorded[jobs[3].key].text

    def test_names_status_and_body(self, server, backend_for):
        server.state["malformed"] = lambda prompt: HTML_200
        with pytest.raises(BackendError, match="endpoint returned 200: <html><body>upstream busy"):
            backend_for(server).complete("hi", temperature=0.0, stop=(), max_tokens=8)

    def test_later_document_stops_score_with_exit_3(self, server, tmp_path, capsys):
        docs = make_docs(8, seed=5)
        path = http_score_config(tmp_path, docs, endpoint(server))
        assert main(["preprocess", "-c", str(path)]) == 0
        server.state["malformed"] = lambda prompt: HTML_200 if docs[5].text[:40] in prompt else None
        assert main(["score", "-c", str(path)]) == 3
        assert "backend error: endpoint returned 200: <html>" in capsys.readouterr().err


def echo_body(prompt_tokens, token_logprobs) -> bytes:
    logprobs = {"token_logprobs": token_logprobs}
    obj = {"usage": {"prompt_tokens": prompt_tokens}, "choices": [{"text": "", "logprobs": logprobs}]}
    return json.dumps(obj).encode("utf-8")


MALFORMED_ECHOES = {
    "prompt_tokens": echo_body("n/a", [None, -0.5, -0.5]),
    "token_logprobs": echo_body(3, [None, "x", -0.5]),
}


class TestMalformedEcho:
    """An echo 200 whose token count or log-probabilities are of the
    wrong type is a permanent BackendError naming the field."""

    @pytest.mark.parametrize("field", list(MALFORMED_ECHOES))
    def test_names_the_field(self, server, backend_for, field):
        server.state["malformed"] = lambda prompt: MALFORMED_ECHOES[field]
        with pytest.raises(BackendError, match=field):
            backend_for(server).option_logprobs("a b c", OPTIONS)

    @pytest.mark.parametrize("field", list(MALFORMED_ECHOES))
    def test_later_document_stops_score_with_exit_3(self, server, tmp_path, capsys, field):
        docs = make_docs(8, seed=5)
        path = http_score_config(tmp_path, docs, endpoint(server))
        assert main(["preprocess", "-c", str(path)]) == 0
        body = MALFORMED_ECHOES[field]
        server.state["malformed"] = lambda prompt: body if docs[5].text[:40] in prompt else None
        assert main(["score", "-c", str(path)]) == 3
        assert field in capsys.readouterr().err


def echo_requests(server) -> list[str]:
    return [r["payload"]["prompt"] for r in server.state["requests"] if r["payload"].get("echo")]


def scoring_prompts(n: int, last_line: str = "Choice:") -> list[str]:
    return [f"judge document {i}: {'word ' * i}\n\n{last_line}" for i in range(n)]


class TestOptionSpanMemo:
    @pytest.fixture(autouse=True)
    def positional_logprobs(self, server):
        # A token's logprob depends on its position, so a span that is
        # one token off scores differently.
        server.state["tokenize"] = WORDS
        server.state["logprob"] = lambda i, token: -0.1 * (i % 7) - 0.01 * len(token)

    def three_request_scores(self, server, backend_for, prompts, options):
        """Each prompt through a fresh backend, which echoes the bare prompt."""
        before = len(echo_requests(server))
        scores = [backend_for(server).option_logprobs(p, options) for p in prompts]
        assert len(echo_requests(server)) - before == (len(options) + 1) * len(prompts)
        return scores

    @pytest.mark.parametrize(
        "options", [OPTIONS, [" yes please", " no thanks"], ["yes", "no"]], ids=["one", "two", "glued"]
    )
    def test_n_prompts_send_2n_plus_1_echoes(self, server, backend_for, options):
        prompts = scoring_prompts(6)
        backend = backend_for(server)
        scores = [backend.option_logprobs(p, options) for p in prompts]
        assert len(echo_requests(server)) == 2 * len(prompts) + 1
        assert len({tuple(s) for s in scores}) > 1
        assert scores == self.three_request_scores(server, backend_for, prompts, options)

    def test_new_last_line_learns_again(self, server, backend_for):
        backend = backend_for(server)
        choice, answer = scoring_prompts(3), scoring_prompts(2, "Answer:")
        for prompt in choice[:2] + answer + choice[2:]:
            backend.option_logprobs(prompt, OPTIONS)
        assert echo_requests(server) == [
            choice[0], choice[0] + " yes", choice[0] + " no",
            choice[1] + " yes", choice[1] + " no",
            answer[0], answer[0] + " yes", answer[0] + " no",
            answer[1] + " yes", answer[1] + " no",
            choice[2] + " yes", choice[2] + " no",
        ]

    def test_threads_sharing_a_backend_each_learn_at_most_once(self, server, backend_for):
        prompts = scoring_prompts(24)
        backend = backend_for(server)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        scores = [None] * len(prompts)

        def place(tagged):
            scores[tagged[0]] = tagged[1]

        try:
            pull_map(
                lambda i: (i, backend.option_logprobs(prompts[i], OPTIONS)),
                range(len(prompts)),
                8,
                place,
            )
        finally:
            sys.setswitchinterval(interval)
        assert 2 * len(prompts) + 1 <= len(echo_requests(server)) <= 2 * len(prompts) + 8
        assert scores == self.three_request_scores(server, backend_for, prompts, OPTIONS)

    def test_option_counts_that_disagree_get_the_base_echo(self, server, backend_for):
        # After "glue" this server counts " yes" as two tokens, so on
        # the next prompt the spans learned there imply two different
        # prompt lengths.
        server.state["tokenize"] = lambda text: WORDS(text) + (
            ["+"] if "glue" in text and text.endswith("yes") else []
        )
        glue = "judge the glue document\nChoice:"
        prompts = [glue] + scoring_prompts(3)
        backend = backend_for(server)
        scores = [backend.option_logprobs(p, OPTIONS) for p in prompts]
        # The first prompt after "glue" learns the spans again, so the
        # ones after it cost two echoes each.
        assert echo_requests(server) == [
            glue, glue + " yes", glue + " no",
            prompts[1] + " yes", prompts[1] + " no", prompts[1],
            prompts[2] + " yes", prompts[2] + " no",
            prompts[3] + " yes", prompts[3] + " no",
        ]
        assert scores == self.three_request_scores(server, backend_for, prompts, OPTIONS)


def http_score_config(tmp_path, docs, url: str, name: str = "config", **backend) -> Path:
    settings = {"kind": "http", "endpoint": url, "model": "m", "retry_backoff_s": 0.0}
    extra = {"work_dir": f"work_{name}", "backend": {**settings, **backend}}
    return write_fixture_config(tmp_path, docs, extra=extra, name=f"{name}.yaml")


def test_resumed_score_learns_at_most_once_per_slot(server, tmp_path):
    server.state["tokenize"] = WORDS
    cfg = load_config(http_score_config(tmp_path, make_docs(16, seed=5), endpoint(server), max_in_flight=4))
    stage_preprocess(cfg)
    scores_dir = cfg.work_dir / "scores"
    docs = stage_score(cfg)["docs"]
    assert len(echo_requests(server)) == 2 * docs + 1
    expected = (scores_dir / "scores.jsonl").read_bytes()

    # Keep the ledger's header and first score: the resumed run starts
    # its pool at once, and each of its 4 threads may learn the spans.
    ledger = scores_dir / "checkpoint.jsonl"
    ledger.write_text("".join(ledger.read_text().splitlines(keepends=True)[:2]))
    server.state["requests"].clear()
    stage_score(cfg)
    assert 2 * (docs - 1) + 1 <= len(echo_requests(server)) <= 2 * (docs - 1) + 4
    assert (scores_dir / "scores.jsonl").read_bytes() == expected


class _FreshBackendPerDocument(CompletionBackend):
    """Scores every document through a new HttpBackend: three echo requests each."""

    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg

    def option_logprobs(self, prompt, options):
        backend = HttpBackend(self.cfg)
        try:
            return backend.option_logprobs(prompt, options)
        finally:
            backend.close()


def test_scoring_against_the_benchmark_stub(tmp_path, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "stub.py"
    spec = importlib.util.spec_from_file_location("perfbench_stub", path)
    bench_stub = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_stub)
    docs = make_docs(12, seed=31)
    # The stub answers the first try at each prompt of these with a 503;
    # the first is the document that learns the option spans.
    for i in (0, 5):
        doc = docs[i]
        docs[i] = Document(doc.id, f"{bench_stub.BUSY_MARKER} {doc.text}", doc.lang, doc.meta)

    with bench_stub.Stub() as stub:

        def score(name: str) -> tuple[bytes, int, dict]:
            cfg = load_config(http_score_config(tmp_path, docs, stub.url, name))
            stage_preprocess(cfg)
            before = stub.stats()
            report = stage_score(cfg)
            after = stub.stats()
            sent = {key: after[key] - before[key] for key in ("requests", "errors_503")}
            return (cfg.work_dir / "scores" / "scores.jsonl").read_bytes(), report["docs"], sent

        scores, scored, sent = score("memo")
        assert scored == len(docs)
        # Base echo, yes and no for the first document; yes and no for the second.
        assert sent["errors_503"] == 3 + 2
        assert sent["requests"] == 2 * scored + 1 + sent["errors_503"]

        monkeypatch.setattr(pipeline, "make_backend", lambda cfg: _FreshBackendPerDocument(cfg.backend))
        reference, _, sent = score("fresh")
        # Only the second busy document's bare prompt is new to the stub.
        assert sent == {"requests": 3 * scored + 1, "errors_503": 1}
    assert scores == reference
    assert len({json.loads(line)["score"] for line in scores.splitlines()}) == scored


def tokenizer_config(tmp_path, exact_endpoint: str):
    return write_fixture_config(
        tmp_path,
        make_docs(20, seed=12),
        extra={
            "estimator": {"default_ratio": 0.5, "sample_size": 10, "exact_endpoint": exact_endpoint},
            "backend": {"retry_backoff_s": 0},
        },
    )


class TestExactTokenizerWire:
    def test_calibration_uses_endpoint(self, server, tmp_path):
        config_path = tokenizer_config(tmp_path, endpoint(server, "/tokenize"))
        cfg = load_config(config_path)
        report = stage_preprocess(cfg)
        assert report["estimator"]["calibrated"] is True
        # The stub counts floor(chars / 4) tokens, so calibration lands
        # just under 0.25 regardless of the configured 0.5 default.
        assert report["estimator"]["tokens_per_char"] == pytest.approx(0.25, abs=5e-3)
        assert report["estimator"]["tokens_per_char"] != 0.5
        paths = [r["path"] for r in server.state["requests"]]
        assert paths == ["/tokenize"] * 10
        # The whole sample goes over one kept-alive connection.
        assert len(set(client_ports(server))) == 1
        assert report["calibration_fallback"] is None

    def test_transient_error_is_retried(self, server, tmp_path):
        server.state["fail_next"] = 1
        config_path = tokenizer_config(tmp_path, endpoint(server, "/tokenize"))
        report = stage_preprocess(load_config(config_path))
        assert report["estimator"]["calibrated"] is True
        assert report["calibration_fallback"] is None
        assert len(server.state["requests"]) == 11

    def test_refused_endpoint_fallback_is_reported(self, tmp_path, caplog):
        config_path = tokenizer_config(tmp_path, "http://127.0.0.1:9/tokenize")
        with caplog.at_level(logging.WARNING, logger="rephrasing.tokens"):
            report = stage_preprocess(load_config(config_path))
        assert report["estimator"]["calibrated"] is False
        assert report["estimator"]["tokens_per_char"] == 0.5
        assert report["calibration_fallback"].startswith("TransientBackendError: ")
        assert "ConnectionRefusedError" in report["calibration_fallback"]
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert report["calibration_fallback"] in record.getMessage()
        saved = json.loads((tmp_path / "work" / "calibration.json").read_text(encoding="utf-8"))
        assert saved == report["estimator"]

    @pytest.mark.parametrize(
        "answer",
        [{"tokens": "12"}, {"tokens": 12.9}, {"tokens": True}, {}],
        ids=["string", "float", "bool", "missing"],
    )
    def test_answer_without_integer_tokens_refused(self, server, tmp_path, capsys, answer):
        server.state["tokenize_answer"] = answer
        config_path = tokenizer_config(tmp_path, endpoint(server, "/tokenize"))
        assert main(["stats", "-c", str(config_path)]) == 3
        assert "no integer 'tokens'" in capsys.readouterr().err
        report = stage_preprocess(load_config(config_path))
        assert report["estimator"]["calibrated"] is False
        assert report["calibration_fallback"] == (
            f"BackendError: tokenizer answered {json.dumps(answer)}: no integer 'tokens'"
        )
