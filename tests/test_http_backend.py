"""Exercise the HTTP wire interfaces against a local stub server."""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from rephrasing.config import load_config
from rephrasing.corpus import Document
from rephrasing.inference import (
    AuthError,
    BackendConfig,
    HttpBackend,
    JobKey,
    RephraseJob,
    TransientBackendError,
    run_batch,
)
from rephrasing.pipeline import stage_preprocess
from rephrasing.prompts import RenderedPrompt
from rephrasing.quality import askllm_score_first

from conftest import make_docs, write_fixture_config


class _Handler(BaseHTTPRequestHandler):
    # Keep-alive, as vLLM-style servers answer.
    protocol_version = "HTTP/1.1"
    server_version = "stub/0"

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

    def _reply(self, code: int, obj: dict) -> None:
        body = json.dumps(obj).encode("utf-8")
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
            # Exact tokenizer wire interface: one token per 4 chars.
            self._reply(200, {"tokens": len(payload["text"]) // 4})
            return

        prompt = payload["prompt"]
        if payload.get("echo"):
            # Echoed prompt logprobs: -0.5 per whitespace token.
            tokens = prompt.split()
            self._reply(
                200,
                {
                    "usage": {"prompt_tokens": len(tokens)},
                    "choices": [
                        {"text": "", "logprobs": {"token_logprobs": [None] + [-0.5] * (len(tokens) - 1)}}
                    ],
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


@pytest.fixture
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.state = {"requests": []}
    httpd.cond = threading.Condition()
    httpd.open_conns = 0
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


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
