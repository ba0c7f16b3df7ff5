"""Drive an external completion endpoint at high throughput.

Jobs are sorted longest prompt first, so the short jobs fill the tail of
a batch, and pulled in that order through ``max_in_flight`` request
slots.  The pool only reports each finished job to a callback, one at a
time; the pipeline's callback appends it to an append-only checkpoint,
so the checkpoint holds exactly the results reported so far, and
preempted runs resume without re-issuing them and still produce
byte-identical output.  A stop discards at most ``max_in_flight - 1``
results of requests in flight, and sends no retry and no new job.
Transient backend errors are retried by one helper, ``with_retries``,
wherever a request is sent; on a pool thread a request waiting out its
retry backoff gives its slot to the next job.  Called without a
callback, ``run_batch`` returns the results in the original job order
regardless of scheduling.

The wire protocol is a plain-text completion interface (prompt in,
completion out, with stop sequences and temperature) as served by
vLLM-style servers; the prompts embed their own chat framing, so no
chat-message interface is needed.  Requests go through ``JsonClient``,
which speaks HTTP/1.1 over a pool of keep-alive sockets: bodies framed
by length, by chunks or by the connection closing, and ``1xx``
responses skipped; no proxies, redirects or compression.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
import select
import socket
import ssl
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable, Iterable, Mapping, Sequence, Sized, TypeVar

from .corpus import BAD_RECORD, CorpusError, json_head, json_line, parse_line, typed_field
from .prompts import RenderedPrompt

FINISH_STOP = "stop_sequence"
FINISH_LENGTH = "length_cap"
FINISH_ERROR = "error"

T = TypeVar("T")
R = TypeVar("R")


class BackendError(Exception):
    """Permanent backend failure."""


class TransientBackendError(BackendError):
    """Retryable failure (timeouts, 429/5xx, connection resets)."""


class AuthError(BackendError):
    """Authentication failure; aborts the whole run."""


class CheckpointMismatchError(Exception):
    """Checkpoint was written under a different config fingerprint."""


@dataclass(frozen=True)
class BackendConfig:
    endpoint: str = ""
    # Name of the environment variable holding the auth token; tokens
    # never appear inline in config files.
    auth_token_env: str = ""
    model: str = ""
    max_in_flight: int = 4
    max_output_tokens: int = 1024
    # Total tries per job, first attempt included.
    max_retries: int = 3
    timeout_s: float = 120.0
    retry_backoff_s: float = 0.5

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")


def with_retries(request: Callable[[], T], cfg: BackendConfig) -> T:
    """Send one backend request, retrying transient failures.

    At most ``cfg.max_retries`` tries in all, sleeping
    ``cfg.retry_backoff_s * 2**(k - 1)`` after the k-th failed try.  Any
    other error, and the transient error of the last try, propagates.

    On a ``pull_map`` worker thread a backoff holds no request slot: the
    thread gives its slot up for the sleep, so that another request can
    use it, and then takes the next free slot back, ahead of any new
    item.  If the pool has stopped meanwhile, no retry is sent: the
    thread raises ``_PoolStopped`` instead.  Anywhere else the thread
    just sleeps.
    """
    for attempt in range(1, cfg.max_retries):
        try:
            return request()
        except TransientBackendError:
            _back_off(cfg.retry_backoff_s * 2 ** (attempt - 1))
    return request()


def _back_off(seconds: float) -> None:
    started = time.monotonic()
    pool = getattr(_worker, "pool", None)
    if pool is None:
        time.sleep(seconds)
    else:
        pool.release()
        time.sleep(seconds)
        pool.reclaim()
    _worker.waited = _waited() + time.monotonic() - started


def _waited() -> float:
    """Seconds this thread has spent in retry backoffs, slot waits included."""
    return getattr(_worker, "waited", 0.0)


class Stopwatch:
    """Wall time since it started, and the part of it spent in requests.

    Retry backoffs on the calling thread, and the waits for a slot after
    them, hold no request slot and are left out of the busy time.
    """

    def __init__(self) -> None:
        self._start = time.monotonic()
        self._waited = _waited()

    def read(self) -> tuple[float, float]:
        """(latency_s, busy_s) so far."""
        latency = time.monotonic() - self._start
        return latency, latency - (_waited() - self._waited)


class RequestTimes:
    """Busy time summed, the longest latency and a latency histogram over
    timed calls, in O(1) memory; ``add`` may be called from any thread.

    The histogram's bins are fixed: ``BINS_PER_DECADE`` log-spaced bins
    per decade from ``FLOOR_S`` up, and one below it.  A percentile is
    read as the upper edge of the bin that holds it, or the longest
    latency if that is less, so it reads high by less than one bin.
    """

    FLOOR_S = 1e-4
    BINS_PER_DECADE = 20
    BINS = 10 * BINS_PER_DECADE + 1  # up to 10^6 s

    def __init__(self) -> None:
        self.busy_s = 0.0
        self.latency_max_s = 0.0
        self._counts = [0] * self.BINS
        self._lock = threading.Lock()

    def add(self, latency_s: float, busy_s: float) -> None:
        at = 0
        if latency_s >= self.FLOOR_S:
            at = min(int(math.log10(latency_s / self.FLOOR_S) * self.BINS_PER_DECADE) + 1, self.BINS - 1)
        with self._lock:
            self.busy_s += busy_s
            self._counts[at] += 1
            if latency_s > self.latency_max_s:
                self.latency_max_s = latency_s

    def percentile(self, share: float) -> float:
        """The latency below which ``share`` of the timed calls fall, 0.0
        before any call is timed."""
        rank = math.ceil(share * sum(self._counts))
        if rank == 0:
            return 0.0
        seen = 0
        for at, count in enumerate(self._counts):
            seen += count
            if seen >= rank:
                break
        return min(self.FLOOR_S * 10 ** (at / self.BINS_PER_DECADE), self.latency_max_s)

    def report(self, slots: int, wall_s: float) -> dict:
        """``busy_s``, ``latency_max_s``, ``latency_p50_s``,
        ``latency_p95_s`` and ``slot_utilisation``, the busy share of
        ``slots`` request slots over ``wall_s``."""
        return {
            "busy_s": round(self.busy_s, 6),
            "latency_max_s": round(self.latency_max_s, 6),
            "latency_p50_s": round(self.percentile(0.5), 6),
            "latency_p95_s": round(self.percentile(0.95), 6),
            "slot_utilisation": round(self.busy_s / (slots * wall_s), 6) if wall_s > 0 else 0.0,
        }


@dataclass(frozen=True, slots=True)
class JobKey:
    doc_id: str
    index: int
    template_id: str

    def to_obj(self) -> list:
        return [self.doc_id, self.index, self.template_id]

    @staticmethod
    def from_obj(obj: Sequence) -> "JobKey":
        if (
            not isinstance(obj, list)
            or len(obj) != 3
            or not isinstance(obj[0], str)
            or type(obj[1]) is not int  # a bool is no index
            or not isinstance(obj[2], str)
        ):
            raise CorpusError(f"field 'key' is {obj!r}, not a [string, integer, string] list")
        return JobKey(obj[0], obj[1], obj[2])


@dataclass(frozen=True)
class RephraseJob:
    """A rendered job.  ``run_batch`` takes any job with a ``key``, a
    ``prompt_chars`` and a ``render()`` that builds its prompt."""

    key: JobKey
    prompt: RenderedPrompt

    @property
    def prompt_chars(self) -> int:
        return len(self.prompt.text)

    def render(self) -> RenderedPrompt:
        return self.prompt


@dataclass(frozen=True)
class Completion:
    """One backend response."""

    text: str
    finish: str
    model_id: str = ""


@dataclass(frozen=True)
class RephraseResult:
    key: JobKey
    text: str
    finish: str
    model_id: str = ""
    attempts: int = 1
    # Wall-clock only; excluded from serialization so resumed runs stay
    # byte-identical to uninterrupted ones.  ``busy_s`` is ``latency_s``
    # less the retry backoffs and the waits for a slot after them, when
    # the job holds no request slot.
    latency_s: float = 0.0
    busy_s: float = 0.0

    @property
    def failed(self) -> bool:
        return self.finish == FINISH_ERROR

    def to_obj(self) -> dict:
        return {
            "key": self.key.to_obj(),
            "text": self.text,
            "finish": self.finish,
            "model_id": self.model_id,
            "attempts": self.attempts,
        }

    @staticmethod
    def from_obj(obj: Mapping) -> "RephraseResult":
        key, text, finish = obj["key"], obj.get("text"), obj.get("finish")
        model_id, attempts = obj.get("model_id", ""), obj.get("attempts", 1)
        if (
            type(text) is str
            and type(finish) is str
            and type(model_id) is str
            and type(attempts) is int
        ):
            return RephraseResult(JobKey.from_obj(key), text, finish, model_id, attempts)
        return RephraseResult(
            key=JobKey.from_obj(obj["key"]),
            text=typed_field(obj, "text"),
            finish=typed_field(obj, "finish"),
            model_id=typed_field(obj, "model_id", default=""),
            attempts=typed_field(obj, "attempts", int, default=1),
        )


class CompletionBackend:
    """Minimal completion interface every backend implements."""

    def complete(
        self,
        prompt: str,
        *,
        temperature: float,
        stop: Sequence[str],
        max_tokens: int,
    ) -> Completion:
        raise NotImplementedError

    def option_logprobs(self, prompt: str, options: Sequence[str]) -> list[float]:
        """Log-probability of each option continuing the prompt."""
        raise BackendError("backend does not expose log-probabilities")

    def close(self) -> None:
        """Release connections; a backend holding none keeps this no-op."""


def _kept_template_parse():
    """``re``'s parse-once pair behind ``Pattern.sub``, ``(_compile_repl,
    _parser.expand_template)``, if this Python has both and they expand
    as ``Match.expand`` does; else None."""
    try:
        compile_repl, expand_template = re._compile_repl, re._parser.expand_template
        pattern = re.compile(r"(a)(?P<b>b)")
        match = pattern.search("ab")
        probe = r"\g<0>-\1-\g<b>\n"
        if expand_template(compile_repl(probe, pattern), match) == match.expand(probe):
            return compile_repl, expand_template
    except (AttributeError, TypeError, ValueError, LookupError, re.error):
        pass  # missing, or shaped otherwise than on CPython 3.11
    return None


_KEPT_TEMPLATE_PARSE = _kept_template_parse()


def _template_expander(pattern: re.Pattern, response: str) -> Callable[[re.Match], str]:
    """``lambda match: match.expand(response)`` for matches of ``pattern``,
    with the template parsed once, here.

    ``Match.expand`` parses its template again on every call, in pure
    Python, and on a mock backend that parse cost more than the rest of
    the request.  The standard library has no public compiled template,
    so this keeps the parse ``Pattern.sub`` caches; on a Python without
    it, it falls back on ``Match.expand``.  Either way a template that
    references a group the pattern lacks raises here, before any match:
    ``re.error`` for a number, ``IndexError`` for a name.
    """
    if _KEPT_TEMPLATE_PARSE is None:
        pattern.sub(response, "")  # parses the template even without a match
        return lambda match: match.expand(response)
    compile_repl, expand_template = _KEPT_TEMPLATE_PARSE
    return functools.partial(expand_template, compile_repl(response, pattern))


@dataclass(frozen=True)
class MockRule:
    """A prompt regex and its response template, both parsed when the
    rule is made, so a bad rule raises then, as ``re.compile`` and
    ``_template_expander`` do."""

    pattern: str
    response: str
    compiled: tuple[re.Pattern, Callable[[re.Match], str]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        pattern = re.compile(self.pattern, re.DOTALL)
        object.__setattr__(self, "compiled", (pattern, _template_expander(pattern, self.response)))


@dataclass(frozen=True)
class MockLogprobRule:
    """The two options' log-probabilities for prompts ``pattern``
    matches; it unpacks as the ``(pattern, yes, no)`` triple
    ``MockBackend`` takes."""

    pattern: str
    yes: float
    no: float

    def __post_init__(self) -> None:
        re.compile(self.pattern, re.DOTALL)  # a bad pattern raises when the rule is made

    def __iter__(self):
        return iter((self.pattern, self.yes, self.no))


@dataclass(frozen=True)
class MockSettings:
    """The config's ``backend.mock`` section: ``MockBackend``'s settings,
    ``latency_s`` aside."""

    rules: tuple[MockRule, ...] = ()
    default_response: str = ""
    fail_first: int = 0
    auth_fail: bool = False
    model_id: str = "mock"
    logprob_rules: tuple[MockLogprobRule, ...] = ()


class MockBackend(CompletionBackend):
    """Script-driven backend for tests and dry runs.

    ``rules`` map prompt regexes to response templates; the first match
    wins and the template, in ``Match.expand`` syntax, may reference
    capture groups (``\\1`` style).  Each template is parsed once, when
    its ``MockRule`` is made, so a bad rule raises then.
    Responses containing a stop sequence are cut after its first
    occurrence with the stop string included, mirroring a vLLM server
    configured with ``include_stop_str_in_output``.  ``fail_first`` makes
    the first N attempts of every request raise a transient error.
    """

    def __init__(
        self,
        rules: Iterable[MockRule] = (),
        *,
        default_response: str = "",
        fail_first: int = 0,
        auth_fail: bool = False,
        model_id: str = "mock",
        logprob_rules: Iterable[tuple[str, float, float]] = (),
        latency_s: float = 0.0,
    ):
        self._rules = [rule.compiled for rule in rules]
        self._default_response = default_response
        self._fail_first = fail_first
        self._auth_fail = auth_fail
        self._model_id = model_id
        self._logprob_rules = [
            (re.compile(p, re.DOTALL), lp_yes, lp_no) for p, lp_yes, lp_no in logprob_rules
        ]
        self._latency_s = latency_s
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()
        self.calls = 0

    def _respond(self, prompt: str) -> str:
        for pattern, expand in self._rules:
            match = pattern.search(prompt)
            if match:
                return expand(match)
        return self._default_response

    def complete(self, prompt, *, temperature, stop, max_tokens):
        if self._auth_fail:
            raise AuthError("mock auth failure")
        with self._lock:
            self.calls += 1
            if self._fail_first:
                digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
                n = self._attempts.get(digest, 0) + 1
                self._attempts[digest] = n
                if n <= self._fail_first:
                    raise TransientBackendError(f"scripted failure {n}/{self._fail_first}")
        if self._latency_s:
            time.sleep(self._latency_s)
        response = self._respond(prompt)
        best_pos: int | None = None
        best_stop = ""
        for s in stop:
            pos = response.find(s)
            if pos >= 0 and (best_pos is None or pos < best_pos):
                best_pos, best_stop = pos, s
        if best_pos is not None:
            return Completion(response[: best_pos + len(best_stop)], FINISH_STOP, self._model_id)
        return Completion(response, FINISH_LENGTH, self._model_id)

    def option_logprobs(self, prompt, options):
        for pattern, lp_yes, lp_no in self._logprob_rules:
            if pattern.search(prompt):
                return [lp_yes, lp_no][: len(options)]
        # Deterministic pseudo-scores: the normalized pair works out to a
        # uniform value derived from the prompt hash.
        u = int(hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:8], 16) / 2**32
        u = min(max(u, 1e-9), 1 - 1e-9)
        return [math.log(u), math.log(1 - u)][: len(options)]


_NOT_IN_URL = re.compile("[\x00-\x20\x7f]")
_STATUS_LINE = re.compile(rb"HTTP/1\.(\d) (\d{3})(?: |$)")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]+")


def parse_endpoint(url: str) -> urllib.parse.SplitResult:
    """Split an endpoint URL; ValueError unless it is http(s) with a host
    and all of it is ASCII without spaces or control characters."""
    parts = urllib.parse.urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"endpoint {url!r} is not an http:// or https:// URL with a host")
    if not url.isascii() or _NOT_IN_URL.search(url):
        raise ValueError(f"endpoint {url!r} holds a space, a control or a non-ASCII character")
    parts.port  # raises ValueError on a malformed port
    return parts


def _receive(sock: socket.socket, buf: bytearray) -> bool:
    """Append the next bytes the peer sent to ``buf``; False at their end."""
    data = sock.recv(65536)
    buf += data
    return bool(data)


def _find(sock: socket.socket, buf: bytearray, sep: bytes) -> int:
    """Index of ``sep`` in ``buf``, receiving until it has arrived within
    the first 64 KiB."""
    while (at := buf.find(sep)) < 0:
        if len(buf) > 65536:
            raise TransientBackendError(f"no {sep!r} in 64 KiB of a response head or chunk line")
        if not _receive(sock, buf):
            raise TransientBackendError("connection closed inside a response")
    return at


def _fill(sock: socket.socket, buf: bytearray, size: int) -> None:
    """Receive until ``buf`` holds at least ``size`` bytes."""
    while len(buf) < size:
        if not _receive(sock, buf):
            raise TransientBackendError(f"connection closed after {len(buf)} of {size} body bytes")


def _chunked_body(sock: socket.socket, buf: bytearray) -> bytes:
    """Decode a chunked body from the front of ``buf``; trailers are dropped."""
    body = bytearray()
    while True:
        end = _find(sock, buf, b"\r\n")
        size = bytes(buf[:end]).split(b";", 1)[0].strip()
        if not _CHUNK_SIZE.fullmatch(size):
            raise TransientBackendError(f"bad chunk size {size[:40]!r}")
        size = int(size, 16)
        del buf[: end + 2]
        if size == 0:
            break
        _fill(sock, buf, size + 2)
        if buf[size : size + 2] != b"\r\n":
            raise TransientBackendError("chunk not followed by CRLF")
        body += buf[:size]
        del buf[: size + 2]
    while (end := _find(sock, buf, b"\r\n")) > 0:
        del buf[: end + 2]
    del buf[:2]
    return bytes(body)


class JsonClient:
    """JSON POSTs to one http(s) endpoint over pooled keep-alive connections.

    The client speaks HTTP/1.1 over plain sockets.  A request is one
    ``sendall``: a head built once, its ``Content-Length`` and the body.
    Of a response it reads the status line, skipping ``1xx`` responses,
    the ``Content-Length``, ``Transfer-Encoding`` and ``Connection``
    headers, and a body framed by its length, by chunks or by the server
    closing the connection.  Proxies, redirects and compression are not
    supported: the proxy variables are not read, a redirect is a status
    like any other, and the request asks for ``identity`` encoding.

    A request takes an idle connection, or opens one when none is idle,
    and hands it back once the response is read, so the pool never
    holds more connections than requests were in flight at once.  Only
    an HTTP/1.1 response with a framed body, no ``Connection: close``
    and no byte after it hands its connection back.  An idle connection
    the peer has closed is reopened before use, so it costs no retry.
    Connection errors and malformed responses discard the connection
    and raise ``TransientBackendError``; retrying is left to
    ``with_retries``.  Status 401/403 raise ``AuthError``, 429 and 5xx
    ``TransientBackendError``, any other status or a 200 whose body is
    not a JSON object ``BackendError``.  ``timeout_s`` bounds the connect
    and every socket read and write.  Every connection sets TCP_NODELAY.
    HTTPS checks the certificate and the host name against the system
    trust store.
    """

    def __init__(self, url: str, *, timeout_s: float, headers: Mapping[str, str] | None = None):
        parts = parse_endpoint(url)
        default_port = 443 if parts.scheme == "https" else 80
        self._address = (parts.hostname, parts.port or default_port)
        self._timeout_s = timeout_s
        self._tls = ssl.create_default_context() if parts.scheme == "https" else None
        host = f"[{parts.hostname}]" if ":" in parts.hostname else parts.hostname
        if parts.port not in (None, default_port):
            host += f":{parts.port}"
        fields = {"Host": host, "Content-Type": "application/json", "Accept-Encoding": "identity"}
        fields.update(headers or {})
        if any("\r" in value or "\n" in value for value in fields.values()):
            raise ValueError("a request header value holds a line break")
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        head = [f"POST {target} HTTP/1.1", *(f"{name}: {value}" for name, value in fields.items())]
        self._head = "\r\n".join([*head, "Content-Length: "]).encode("latin-1")
        self._idle: list[socket.socket] = []
        self._lock = threading.Lock()

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self._address, self._timeout_s)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        return sock

    def _checkout(self) -> socket.socket | None:
        """An idle connection still open, or None."""
        with self._lock:
            sock = self._idle.pop() if self._idle else None
        if sock is not None and select.select([sock], [], [], 0)[0]:
            # Readable while idle: the peer closed it, or sent bytes no
            # request asked for.
            sock.close()
            return None
        return sock

    def _exchange(self, sock: socket.socket, body: bytes) -> tuple[int, bytes, bool]:
        """Send one request and read its response: (status, body, whether
        the connection may carry another request)."""
        sock.sendall(b"%b%d\r\n\r\n%b" % (self._head, len(body), body))
        buf = bytearray()
        status = 100
        while 100 <= status < 200:
            end = _find(sock, buf, b"\r\n\r\n")
            lines = bytes(buf[:end]).split(b"\r\n")
            del buf[: end + 4]
            match = _STATUS_LINE.match(lines[0])
            if match is None:
                raise TransientBackendError(f"bad status line {lines[0][:80]!r}")
            status = int(match.group(2))
        reusable = match.group(1) != b"0"
        length = 0 if status in (204, 304) else None
        chunked = False
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length" and length is None:
                value = value.strip()
                if not value.isdigit():
                    raise TransientBackendError(f"bad Content-Length {value[:40]!r}")
                length = int(value)
            elif name == b"transfer-encoding":
                chunked = value.rsplit(b",", 1)[-1].strip().lower() == b"chunked"
            elif name == b"connection" and b"close" in [t.strip() for t in value.lower().split(b",")]:
                reusable = False
        if chunked:
            data = _chunked_body(sock, buf)
        elif length is not None:
            _fill(sock, buf, length)
            data = bytes(buf[:length])
            del buf[:length]
        else:
            while _receive(sock, buf):
                pass
            data, reusable = bytes(buf), False
            buf.clear()
        return status, data, reusable and not buf

    def post(self, payload: Mapping) -> dict:
        body = json.dumps(payload).encode("utf-8")
        sock = self._checkout()
        reusable = False
        try:
            if sock is None:
                sock = self._connect()
            status, data, reusable = self._exchange(sock, body)
        except OSError as exc:
            raise TransientBackendError(f"{type(exc).__name__}: {exc}") from exc
        finally:
            if reusable:
                with self._lock:
                    self._idle.append(sock)
            elif sock is not None:
                sock.close()
        if status in (401, 403):
            raise AuthError(f"endpoint returned {status}")
        if status == 429 or status >= 500:
            raise TransientBackendError(f"endpoint returned {status}")
        try:
            obj = json.loads(data) if status == 200 else None
        except ValueError:
            obj = None
        if isinstance(obj, dict):
            return obj
        raise BackendError(f"endpoint returned {status}: {data[:200].decode('utf-8', 'replace')}")

    def close(self) -> None:
        """Close every pooled connection; a later request opens anew."""
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            sock.close()


# The exact types a parsed JSON number or null has; true and false parse
# as bool, an int subclass, and are refused.
_LOGPROB_TYPES = frozenset((float, int, type(None)))


class HttpBackend(CompletionBackend):
    """vLLM/OpenAI-compatible completions endpoint over HTTP.

    Requests ask the server to include the matched stop string in the
    returned text so tagged extraction can see the closing tag.  A field
    of a 200 of the wrong type (a ``text`` that is no UTF-8 string, a
    ``model`` no string, a ``prompt_tokens`` no integer, a
    ``token_logprobs`` entry no number or null) is a ``BackendError``.
    """

    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg
        token = os.environ.get(cfg.auth_token_env, "") if cfg.auth_token_env else ""
        self._client = JsonClient(
            cfg.endpoint,
            timeout_s=cfg.timeout_s,
            headers={"Authorization": f"Bearer {token}"} if token else None,
        )
        # (prompt's last line, option) -> the option's token count after it.
        self._option_spans: dict[tuple[str, str], int] = {}

    def close(self) -> None:
        self._client.close()

    def complete(self, prompt, *, temperature, stop, max_tokens):
        payload = {
            "prompt": prompt,
            "temperature": temperature,
            "stop": list(stop),
            "max_tokens": max_tokens,
            "include_stop_str_in_output": True,
        }
        if self.cfg.model:
            payload["model"] = self.cfg.model
        obj = self._client.post(payload)
        try:
            choice = obj["choices"][0]
            text = choice.get("text", "")
            reason = choice.get("finish_reason", "stop")
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            raise BackendError(f"malformed completion response: {exc}") from exc
        if not isinstance(text, str):
            raise BackendError(f"completion text is {type(text).__name__}, not a string")
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise BackendError(f"completion text is not UTF-8: {exc}") from exc
        model = obj.get("model", self.cfg.model)
        if not isinstance(model, str):
            raise BackendError(f"completion model is {type(model).__name__}, not a string")
        finish = FINISH_STOP if reason == "stop" else FINISH_LENGTH
        return Completion(text, finish, model)

    def _prompt_tokens(self, prompt: str) -> tuple[int, list]:
        payload = {
            "prompt": prompt,
            "max_tokens": 1,
            "temperature": 0.0,
            "echo": True,
            "logprobs": 0,
        }
        if self.cfg.model:
            payload["model"] = self.cfg.model
        obj = with_retries(lambda: self._client.post(payload), self.cfg)
        try:
            n = obj["usage"]["prompt_tokens"]
            logprobs = obj["choices"][0]["logprobs"]["token_logprobs"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"endpoint does not echo prompt logprobs: {exc}") from exc
        if not isinstance(n, int) or isinstance(n, bool):
            raise BackendError(f"echoed usage.prompt_tokens is {n!r:.40}, not an integer")
        if not isinstance(logprobs, list) or not _LOGPROB_TYPES.issuperset(map(type, logprobs)):
            raise BackendError("echoed token_logprobs holds an entry neither a number nor null")
        return n, logprobs

    def option_logprobs(self, prompt, options):
        """One echo request per option, plus one for the bare prompt
        the first time its last line is seen.

        An option's score sums the echoed log-probabilities of the
        tokens after the prompt's ``n(prompt)``.  The option's token
        count ``n(prompt + option) - n(prompt)`` depends only on the
        text after the prompt's last newline, and ASK-LLM prompts all end
        in the same template line, so it is learned from one bare-prompt
        echo and memoised per (last line, option).  A later prompt is
        scored from its option echoes alone if every option implies the
        same prompt length of at least one token; otherwise its bare
        prompt is echoed too and the counts are learned again.  Token
        counts decide, never log-probability values: a batching server
        may echo a shared prefix with slightly different values.

        The memo is a plain dict: each read and write is atomic, and
        threads that learn the same line at once write the same counts.
        Each request is retried on its own, so transient failures spread
        over the requests never add up to the retry budget of one.
        """
        line = prompt[prompt.rfind("\n") + 1 :]
        spans = [self._option_spans.get((line, option)) for option in options]
        learn = None in spans
        base = self._prompt_tokens(prompt)[0] if learn else 0
        echoes = [self._prompt_tokens(prompt + option) for option in options]
        if not learn:
            starts = {n - k for (n, _), k in zip(echoes, spans)}
            base = starts.pop() if len(starts) == 1 else 0
            if base < 1:
                base, learn = self._prompt_tokens(prompt)[0], True
        if learn:
            for option, (n, _) in zip(options, echoes):
                self._option_spans[line, option] = n - base
        return [sum(lp for lp in logprobs[base:n] if lp is not None) for n, logprobs in echoes]


@dataclass(frozen=True)
class ExecutionPlan:
    """Jobs reordered longest prompt first, grouped into buckets.

    Longest first (LPT; Graham 1969) leaves the short jobs for the end,
    so the slots finish close together.  ``order[k]`` is the original
    index of the k-th job to execute; ``run_batch`` tags each result with
    it, so that results can return in input order.
    """

    order: tuple[int, ...]
    buckets: tuple[tuple[int, int], ...]


def schedule(jobs: Sequence[RephraseJob], bucket_size: int = 64) -> ExecutionPlan:
    if not jobs:
        raise ValueError("cannot schedule an empty job collection")
    # Stable: prompts of equal length keep their input order.
    order = tuple(sorted(range(len(jobs)), key=lambda i: jobs[i].prompt_chars, reverse=True))
    buckets = tuple(
        (start, min(start + bucket_size, len(order)))
        for start in range(0, len(order), bucket_size)
    )
    return ExecutionPlan(order, buckets)


_CHECKPOINT_HEADER = "header"
_CHECKPOINT_RESULT = "result"
# How every result line starts: ``{"kind": "result", `` and then the
# fields of the record's own JSON object.
_RESULT_HEAD = b'{"kind": "result", '

# A ledger record: ``key`` names the work it records, ``failed`` marks
# work to redo on resume, and ``to_obj`` / a ``from_obj`` parser carry
# it to and from its JSON line.  Rephrase records ``RephraseResult``s,
# score ``quality.ScoredDocument``s.
L = TypeVar("L")


class CheckpointWriter:
    """Append-only ledger of paid results, one JSON line per record.

    The first line pins the fingerprint; appending to a ledger written
    under a different fingerprint aborts.  Appends are serialized and
    flushed so a preemption loses at most one record.  Opening an
    existing ledger first cuts a partial last line, left by a kill in the
    middle of an append, so that the next record starts a line of its
    own instead of being glued onto it and lost with it, a torn header too.

    A result line is ``{"kind": "result", `` followed by the record's own
    JSON line without its ``{``, so ``record_line`` gets the record's
    line back from the ledger's bytes without a parse.  ``position``
    holds the byte offset and length of the line the last ``append``
    wrote, so a caller that appends from one thread at a time can find
    each of its records in the ledger again.
    """

    def __init__(self, path: Path | str, fingerprint: str):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        size = _cut_partial_line(self.path) if self.path.exists() else 0
        if size:
            with self.path.open("rb") as handle:
                _verify_checkpoint_header(self.path, handle.readline(), fingerprint)
        self._handle = self.path.open("ab")
        if not size:
            data = json_line({"kind": _CHECKPOINT_HEADER, "fingerprint": fingerprint})
            self._handle.write(data)
            self._handle.flush()
            size = len(data)
        self._end = size
        self.position: tuple[int, int] | None = None

    def append(self, result) -> None:
        data = json_line(result.to_obj(), _RESULT_HEAD)
        with self._lock:
            self._handle.write(data)
            self._handle.flush()
            self.position = (self._end, len(data))
            self._end += len(data)

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _cut_partial_line(path: Path) -> int:
    """Truncate ``path`` just after its last newline; returns its new size."""
    with path.open("rb+") as handle:
        end = handle.seek(0, os.SEEK_END)
        keep = end
        while keep > 0:
            start = max(0, keep - 65536)
            handle.seek(start)
            newline = handle.read(keep - start).rfind(b"\n")
            if newline >= 0:
                keep = start + newline + 1
                break
            keep = start
        if keep < end:
            handle.truncate(keep)
        return keep


def _verify_checkpoint_header(path: Path, first: bytes, fingerprint: str) -> None:
    try:
        header = json.loads(first.decode("utf-8"))
        readable = header["kind"] == _CHECKPOINT_HEADER and "fingerprint" in header
    except (ValueError, TypeError, KeyError):
        # Not UTF-8, not JSON, not an object, or an object without "kind".
        readable = False
    if not readable:
        raise CheckpointMismatchError(f"checkpoint {path} has no readable header")
    if header["fingerprint"] != fingerprint:
        raise CheckpointMismatchError(
            f"checkpoint {path} was written under fingerprint "
            f"{header['fingerprint']}, current config is {fingerprint}"
        )


def record_line(ledger_line: bytes) -> bytes:
    """The record's own JSON line, from a result line that
    ``CheckpointWriter.append`` wrote: the ``"kind"`` field cut off."""
    return b"{" + ledger_line[len(_RESULT_HEAD) :]


@dataclass(frozen=True, slots=True)
class LedgerLine:
    """What rephrase keeps of a ledger record, replayed or appended: the
    finish, text length and attempts its report counts, and where its
    line lies, from which ``record_line`` copies its output line."""

    key: JobKey
    finish: str
    chars: int
    attempts: int
    offset: int
    length: int

    @property
    def failed(self) -> bool:
        return self.finish == FINISH_ERROR

    @staticmethod
    def of(result: RephraseResult, offset: int, length: int) -> "LedgerLine":
        return LedgerLine(result.key, result.finish, len(result.text), result.attempts, offset, length)

    @staticmethod
    def from_obj(obj: Mapping, offset: int, length: int) -> "LedgerLine":
        key, finish, text = obj["key"], obj.get("finish"), obj.get("text")
        attempts = obj.get("attempts")
        if type(finish) is str and type(text) is str and type(attempts) is int:
            return LedgerLine(JobKey.from_obj(key), finish, len(text), attempts, offset, length)
        return LedgerLine(
            JobKey.from_obj(obj["key"]),
            typed_field(obj, "finish"),
            len(typed_field(obj, "text")),
            typed_field(obj, "attempts", int),
            offset,
            length,
        )

    @staticmethod
    def head(key: JobKey) -> bytes:
        return json_head({"key": key.to_obj()})


def _rephrase_result(obj: Mapping, offset: int, length: int) -> RephraseResult:
    return RephraseResult.from_obj(obj)


def load_checkpoint(
    path: Path | str,
    fingerprint: str,
    parse: Callable[[Mapping, int, int], L] = _rephrase_result,
) -> dict[Hashable, L]:
    """Records of a ledger by key, each parsed by ``parse(obj, offset,
    length)`` from the line's JSON object, byte offset and length.

    A final line without its newline (crash mid-write) is ignored, as
    ``CheckpointWriter`` cuts it, even when it holds a whole record, so
    no record is kept that the next append overwrites; a torn header
    thus reads as an empty ledger, like an absent file.  A complete line
    that is not JSON is skipped too, as a line a kill tore.  A complete
    line that is JSON but not an object, or a result record that
    ``parse`` refuses, raises ``CorpusError`` naming the ledger and the
    line.  Later records win over earlier ones for the same key, so a
    job that failed and then succeeded replays its success.
    """
    path = Path(path)
    if not path.exists():
        return {}
    records: dict[Hashable, L] = {}
    with path.open("rb") as handle:
        first = handle.readline()
        if not first.endswith(b"\n"):
            return {}
        _verify_checkpoint_header(path, first, fingerprint)
        offset = len(first)
        for lineno, line in enumerate(handle, start=2):
            length = len(line)
            if not line.endswith(b"\n"):
                break
            try:
                try:
                    obj = parse_line(line)
                except ValueError:
                    # Not JSON, or not UTF-8: a line torn by a kill.
                    obj = {}
                if obj.get("kind") == _CHECKPOINT_RESULT:
                    record = parse(obj, offset, length)
                    records[record.key] = record
            except BAD_RECORD as exc:
                raise CorpusError(f"{path}: line {lineno}: {exc!r}") from exc
            offset += length
    return records


def resume(
    checkpoint_path: Path | str,
    fingerprint: str,
    parse: Callable[[Mapping, int, int], L] = _rephrase_result,
) -> dict[Hashable, L]:
    """Records a run can replay from the ledger instead of re-issuing,
    loaded as ``load_checkpoint`` loads them.

    Failed records are left out, so that work runs again.
    """
    recorded = load_checkpoint(checkpoint_path, fingerprint, parse)
    return {key: record for key, record in recorded.items() if not record.failed}


def _run_one(job: RephraseJob, backend: CompletionBackend, cfg: BackendConfig) -> RephraseResult:
    prompt = job.render()
    clock = Stopwatch()
    attempts = 0

    def request() -> Completion:
        nonlocal attempts
        attempts += 1
        return backend.complete(
            prompt.text,
            temperature=prompt.temperature,
            stop=prompt.stop,
            max_tokens=cfg.max_output_tokens,
        )

    try:
        completion = with_retries(request, cfg)
    except AuthError:
        raise
    except BackendError as exc:
        latency, busy = clock.read()
        return RephraseResult(
            key=job.key,
            text=f"{type(exc).__name__}: {exc}",
            finish=FINISH_ERROR,
            attempts=attempts,
            latency_s=latency,
            busy_s=busy,
        )
    latency, busy = clock.read()
    return RephraseResult(
        key=job.key,
        text=completion.text,
        finish=completion.finish,
        model_id=completion.model_id,
        attempts=attempts,
        latency_s=latency,
        busy_s=busy,
    )


class _PoolStopped(BaseException):
    """Raised on a pool thread that wakes from a backoff after the pool
    stopped, so that no retry is sent.  A ``BaseException``, like an
    interrupt, so that an ``except Exception`` in ``fn`` cannot turn it
    into a request sent after the stop."""


# On a pull_map worker thread, ``pool`` is the thread's _Pool.
_worker = threading.local()


class _Pool:
    """The threads and request slots of one ``pull_map`` call.

    Each of ``slots`` request slots is held by at most one thread, and
    only a slot holder pulls an item or runs ``fn`` outside a backoff.
    Slots change hands only when a backoff starts (``release``), when a
    thread back from one waits for a slot (``reclaim``), and when a
    thread exits, so a run without retries takes no lock per item
    beyond the pull lock and the report lock.
    """

    def __init__(self, fn, items, slots: int, on_done) -> None:
        self.fn = fn
        self.on_done = on_done
        self.source = iter(items)
        # The pull lock guards pulls, the slot counts below and
        # ``threads``.  Threads that need a slot wait on ``slot_freed``,
        # a condition on the same lock; taking the plain lock keeps the
        # per-item path free of the condition's Python-level methods.
        self.pull = threading.Lock()
        self.slot_freed = threading.Condition(self.pull)
        # Guards errors and on_done.
        self.lock = threading.Lock()
        self.errors: list[BaseException] = []
        self.exhausted = False
        self.free = 0  # slots no thread holds
        self.waiting = 0  # threads back from a backoff, waiting for a slot
        self.idle = 0  # spare threads waiting for a slot
        self.threads = [threading.Thread(target=self.work, args=(True,)) for _ in range(slots)]
        self.max_threads = 2 * slots

    def run(self) -> None:
        for thread in list(self.threads):
            thread.start()
        try:
            # Spares are appended while this loop runs.  Each is appended
            # and started by a live thread listed before it, so the loop
            # reaches it only after it has started.
            for thread in self.threads:
                thread.join()
        except BaseException as exc:
            with self.lock:
                self.errors.append(exc)
            with self.pull:
                self.slot_freed.notify_all()
            for thread in self.threads:
                thread.join()
            raise
        if self.errors:
            raise self.errors[0]

    def work(self, held: bool) -> None:
        """Run items until the pool is done, then free the slot held."""
        _worker.pool = self
        try:
            held = self._work(held)
        finally:
            with self.pull:
                if held:
                    self.free += 1
                self.slot_freed.notify_all()

    def _work(self, held: bool) -> bool:
        """Returns whether this thread still holds a slot."""
        # Locals for the per-item path; none of these is rebound.
        pull, lock, source, fn, on_done = self.pull, self.lock, self.source, self.fn, self.on_done
        errors = self.errors
        while True:
            with pull:
                if held and self.waiting > self.free:
                    # A request back from its backoff goes before a new item.
                    self.free += 1
                    held = False
                    self.slot_freed.notify_all()
                while not held:
                    if errors or self.exhausted:
                        return False
                    if self.free and not self.waiting:
                        self.free -= 1
                        held = True
                    else:
                        self.idle += 1
                        self.slot_freed.wait()
                        self.idle -= 1
                if errors or self.exhausted:
                    return True
                try:
                    item = next(source)
                except StopIteration:
                    self.exhausted = True
                    return True
                except BaseException as exc:
                    with lock:
                        errors.append(exc)
                    return True
            # A backoff inside fn gives the slot up and takes one back
            # (release, reclaim), so fn returns holding a slot.
            try:
                result = fn(item)
            except _PoolStopped:
                return False
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return True
            with lock:
                if errors:
                    return True
                try:
                    on_done(result)
                except BaseException as exc:
                    # Recorded before the lock is released, so no
                    # other result is reported after this one.
                    errors.append(exc)
                    return True

    def release(self) -> None:
        """Give the calling thread's slot up for a backoff.

        A thread back from its own backoff takes it first, then an idle
        spare; failing both, a new spare is started while the pool has
        fewer than ``max_threads`` threads.
        """
        spare = None
        with self.pull:
            self.free += 1
            if (
                self.free > self.waiting + self.idle
                and len(self.threads) < self.max_threads
                and not (self.errors or self.exhausted)
            ):
                spare = threading.Thread(target=self.work, args=(False,))
                self.threads.append(spare)
            self.slot_freed.notify_all()
        if spare is not None:
            spare.start()

    def reclaim(self) -> None:
        """Take the next free slot after a backoff, ahead of new items;
        raise ``_PoolStopped`` instead once the pool has stopped."""
        with self.pull:
            self.waiting += 1
            while not self.free and not self.errors:
                self.slot_freed.wait()
            self.waiting -= 1
            if self.errors:
                raise _PoolStopped
            self.free -= 1
            if self.free:
                # Idle spares may take the slots no retry is waiting for.
                self.slot_freed.notify_all()


def pull_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    max_workers: int,
    on_done: Callable[[R], None],
) -> None:
    """Apply ``fn`` to every item, with at most ``max_workers`` running,
    and report each result to ``on_done``, in the order they finish.

    ``max_workers`` request slots are held by worker threads, and only a
    slot holder pulls the next item from ``items`` (under a pull lock)
    or runs ``fn``.  Items are thus taken lazily and in order, and at
    most ``max_workers`` are taken and unfinished at once, plus one for
    each item whose request is waiting out a retry backoff: an iterator
    streams through without being held.  A thread in a ``with_retries``
    backoff gives its slot to a spare thread, which pulls the next item;
    when the backoff ends the thread takes the next free slot, ahead of
    any new item.  At most ``2 * max_workers`` threads run.

    Errors and ``on_done(result)`` take a second lock, so a pull (which
    may parse its item) and the report of a result (which may write a
    checkpoint) never wait on each other; ``on_done`` runs on the worker
    thread and its calls never overlap.  No result is kept once
    ``on_done`` has seen it.  The first exception -- from ``fn``, from
    ``on_done``, from the iterator itself, or an interrupt in the
    joining thread -- stops the pool: no item is pulled and no retry is
    sent after it, results that finish after it are dropped without
    ``on_done``, and the exception is re-raised once every thread has
    been joined.
    """
    slots = min(max_workers, len(items)) if isinstance(items, Sized) else max_workers
    _Pool(fn, items, slots, on_done).run()


def run_batch(
    jobs: Sequence[RephraseJob],
    backend: CompletionBackend,
    cfg: BackendConfig,
    *,
    plan: ExecutionPlan | None = None,
    on_result: Callable[[RephraseResult], None] | None = None,
) -> list[RephraseResult] | None:
    """Execute jobs with bounded concurrency.

    Every job runs (a resume passes only those its ledger lacks), pulled
    in plan order through ``pull_map`` with ``cfg.max_in_flight`` request
    slots, so at most ``cfg.max_in_flight`` requests are outstanding at
    any instant, and a job waiting out a retry backoff lends its slot to
    the next job.  A job's ``render()`` runs on the worker thread that
    pulled it, outside the pull lock.  Each finished job is passed to
    ``on_result``, on the worker thread and serialised with every other
    ``on_result`` call, so it may append the result to a
    ``CheckpointWriter`` and read ``position`` to find its line.  The
    first exception, including one raised by ``on_result``, stops the
    run from issuing more jobs and retries and is re-raised once the
    in-flight ones return; their results are discarded unreported, and
    a stop wastes at most ``cfg.max_in_flight - 1`` requests.

    With ``on_result`` no result is kept once it is reported, and
    ``None`` comes back.  Without it, every job's result comes back in
    job order.
    """
    order = (plan or schedule(jobs)).order if jobs else ()
    if on_result is not None:
        pull_map(lambda i: _run_one(jobs[i], backend, cfg), order, cfg.max_in_flight, on_result)
        return None
    results: list = [None] * len(jobs)

    def keep(tagged: tuple[int, RephraseResult]) -> None:
        results[tagged[0]] = tagged[1]

    pull_map(lambda i: (i, _run_one(jobs[i], backend, cfg)), order, cfg.max_in_flight, keep)
    return results
