"""Drive an external completion endpoint at high throughput.

Jobs are sorted longest prompt first, so the short jobs fill the tail of
a batch, and pulled in that order through ``max_in_flight`` request
slots.  Each finished job is appended to an append-only checkpoint and
only then reported, so the checkpoint always holds exactly the results
reported so far, and preempted runs resume without re-issuing them and
still produce byte-identical output.  A stop discards at most
``max_in_flight - 1`` results of requests in flight, and sends no retry
and no new job.  Transient backend errors are retried by one helper,
``with_retries``, wherever a request is sent; on a pool thread a
request waiting out its retry backoff gives its slot to the next job.
With a checkpoint the ledger is the result store and no result stays in
memory; without one, results come back in the original job order
regardless of scheduling.

The wire protocol is a plain-text completion interface (prompt in,
completion out, with stop sequences and temperature) as served by
vLLM-style servers; the prompts embed their own chat framing, so no
chat-message interface is needed.  Requests go through ``JsonClient``,
a pool of standard-library keep-alive connections.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import re
import select
import ssl
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, Iterable, Mapping, Sequence, Sized, TypeVar

from .corpus import BAD_RECORD, CorpusError, encode_json
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
    """Busy time summed and the longest latency over timed calls, in O(1)
    memory; ``add`` may be called from any thread."""

    def __init__(self) -> None:
        self.busy_s = 0.0
        self.latency_max_s = 0.0
        self._lock = threading.Lock()

    def add(self, latency_s: float, busy_s: float) -> None:
        with self._lock:
            self.busy_s += busy_s
            if latency_s > self.latency_max_s:
                self.latency_max_s = latency_s

    def report(self, slots: int, wall_s: float) -> dict:
        """``busy_s``, ``latency_max_s`` and ``slot_utilisation``, the
        busy share of ``slots`` request slots over ``wall_s``."""
        return {
            "busy_s": round(self.busy_s, 6),
            "latency_max_s": round(self.latency_max_s, 6),
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
        return JobKey(str(obj[0]), int(obj[1]), str(obj[2]))


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
        return RephraseResult(
            key=JobKey.from_obj(obj["key"]),
            text=str(obj["text"]),
            finish=str(obj["finish"]),
            model_id=str(obj.get("model_id", "")),
            attempts=int(obj.get("attempts", 1)),
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


@dataclass(frozen=True)
class MockRule:
    pattern: str
    response: str


class MockBackend(CompletionBackend):
    """Script-driven backend for tests and dry runs.

    ``rules`` map prompt regexes to response templates; the first match
    wins and the template may reference capture groups (``\\1`` style).
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
        self._rules = [(re.compile(r.pattern, re.DOTALL), r.response) for r in rules]
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

    @staticmethod
    def from_config(obj: Mapping) -> "MockBackend":
        return MockBackend(
            rules=[MockRule(r["pattern"], r["response"]) for r in obj.get("rules", [])],
            default_response=obj.get("default_response", ""),
            fail_first=int(obj.get("fail_first", 0)),
            auth_fail=bool(obj.get("auth_fail", False)),
            model_id=obj.get("model_id", "mock"),
            logprob_rules=[
                (r["pattern"], float(r["yes"]), float(r["no"]))
                for r in obj.get("logprob_rules", [])
            ],
        )

    def _respond(self, prompt: str) -> str:
        for pattern, response in self._rules:
            match = pattern.search(prompt)
            if match:
                return match.expand(response)
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


def parse_endpoint(url: str) -> urllib.parse.SplitResult:
    """Split an endpoint URL; ValueError unless it is http(s) with a host."""
    parts = urllib.parse.urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"endpoint {url!r} is not an http:// or https:// URL with a host")
    parts.port  # raises ValueError on a malformed port
    return parts


class JsonClient:
    """JSON POSTs to one http(s) endpoint over pooled keep-alive connections.

    A request takes an idle connection, or opens one when none is idle,
    and hands it back once the response is read, so the pool never
    holds more connections than requests were in flight at once.  An
    idle connection the peer has closed is reopened before use, so it
    costs no retry.  Connection and protocol errors discard the
    connection and raise ``TransientBackendError``; retrying is left to
    ``with_retries``.  Status 401/403 raise ``AuthError``, 429 and 5xx
    ``TransientBackendError``, any other status or a 200 whose body is
    not a JSON object ``BackendError``.  ``timeout_s`` bounds the connect
    and every socket read.  ``http.client`` sets TCP_NODELAY on every
    connection.  HTTPS verifies against the system trust store; proxy
    variables are not read.
    """

    def __init__(self, url: str, *, timeout_s: float, headers: Mapping[str, str] | None = None):
        parts = parse_endpoint(url)
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._headers = {"Content-Type": "application/json", **(headers or {})}
        if parts.scheme == "https":
            context = ssl.create_default_context()
            self._open = lambda: http.client.HTTPSConnection(
                parts.hostname, parts.port, timeout=timeout_s, context=context
            )
        else:
            self._open = lambda: http.client.HTTPConnection(
                parts.hostname, parts.port, timeout=timeout_s
            )
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def _checkout(self) -> http.client.HTTPConnection:
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            return self._open()
        if select.select([conn.sock], [], [], 0)[0]:
            # Readable while idle: the peer closed it, or sent bytes no
            # request asked for.  A closed HTTPConnection reconnects on
            # its next request.
            conn.close()
        return conn

    def post(self, payload: Mapping) -> dict:
        body = json.dumps(payload).encode("utf-8")
        conn = self._checkout()
        try:
            conn.request("POST", self._target, body, self._headers)
            with conn.getresponse() as response:
                data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise TransientBackendError(f"{type(exc).__name__}: {exc}") from exc
        except BaseException:
            conn.close()
            raise
        # http.client has already closed a connection the response ends.
        if not response.will_close:
            with self._lock:
                self._idle.append(conn)
        status = response.status
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
        for conn in idle:
            conn.close()


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
    index of the k-th job to execute; the permutation is inverted on
    output so results return in input order.
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
_RESULT_PREFIX = '{"kind": "result", '

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
            header = {"kind": _CHECKPOINT_HEADER, "fingerprint": fingerprint}
            data = (json.dumps(header) + "\n").encode("utf-8")
            self._handle.write(data)
            self._handle.flush()
            size = len(data)
        self._end = size
        self.position: tuple[int, int] | None = None

    def append(self, result) -> None:
        data = (_RESULT_PREFIX + encode_json(result.to_obj())[1:] + "\n").encode("utf-8")
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
    return b"{" + ledger_line[len(_RESULT_PREFIX) :]  # an ASCII prefix


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
    def from_obj(obj: Mapping, offset: int, length: int) -> "LedgerLine":
        key = JobKey.from_obj(obj["key"])
        return LedgerLine(key, obj["finish"], len(obj["text"]), obj["attempts"], offset, length)


def load_checkpoint(
    path: Path | str,
    fingerprint: str,
    parse: Callable[..., L] = RephraseResult.from_obj,
    *,
    located: bool = False,
) -> dict[Hashable, L]:
    """Records of a ledger by key, each parsed by ``parse(obj)``, or with
    ``located`` by ``parse(obj, offset, length)`` from the line's byte
    offset and length.

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
                obj = json.loads(line.decode("utf-8"))
            except ValueError:
                # Not JSON, or not UTF-8: a line torn by a kill.
                obj = {}
            try:
                if not isinstance(obj, dict):
                    raise CorpusError("line is not a JSON object")
                if obj.get("kind") == _CHECKPOINT_RESULT:
                    record = parse(obj, offset, length) if located else parse(obj)
                    records[record.key] = record
            except BAD_RECORD as exc:
                raise CorpusError(f"{path}: line {lineno}: {exc!r}") from exc
            offset += length
    return records


def resume(
    checkpoint_path: Path | str,
    fingerprint: str,
    parse: Callable[..., L] = RephraseResult.from_obj,
    *,
    located: bool = False,
) -> dict[Hashable, L]:
    """Records a run can replay from the ledger instead of re-issuing,
    loaded as ``load_checkpoint`` loads them.

    Failed records are left out, so that work runs again.
    """
    recorded = load_checkpoint(checkpoint_path, fingerprint, parse, located=located)
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
    beyond the pull lock and the result lock.
    """

    def __init__(self, fn, items, slots: int, on_done, keep: bool) -> None:
        self.fn = fn
        self.on_done = on_done
        self.source = iter(items)
        # Grown under ``pull``, filled in under ``lock``: list.append and
        # item assignment are each atomic.  None when results are not kept.
        self.results: list | None = [] if keep else None
        # The pull lock guards pulls, the slot counts below and
        # ``threads``.  Threads that need a slot wait on ``slot_freed``,
        # a condition on the same lock; taking the plain lock keeps the
        # per-item path free of the condition's Python-level methods.
        self.pull = threading.Lock()
        self.slot_freed = threading.Condition(self.pull)
        # Guards results, errors and on_done.
        self.lock = threading.Lock()
        self.errors: list[BaseException] = []
        self.exhausted = False
        self.free = 0  # slots no thread holds
        self.waiting = 0  # threads back from a backoff, waiting for a slot
        self.idle = 0  # spare threads waiting for a slot
        self.threads = [threading.Thread(target=self.work, args=(True,)) for _ in range(slots)]
        self.max_threads = 2 * slots

    def run(self) -> list | None:
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
        return self.results

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
        results, errors = self.results, self.errors
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
                if results is not None:
                    index = len(results)
                    results.append(None)
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
                if results is not None:
                    results[index] = result
                if on_done is not None:
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
    on_done: Callable[[R], None] | None = None,
    *,
    keep: bool = True,
) -> list[R] | None:
    """Apply ``fn`` to every item, with at most ``max_workers`` running.

    ``max_workers`` request slots are held by worker threads, and only a
    slot holder pulls the next item from ``items`` (under a pull lock)
    or runs ``fn``.  Items are thus taken lazily and in order, and at
    most ``max_workers`` are taken and unfinished at once, plus one for
    each item whose request is waiting out a retry backoff: an iterator
    streams through without being held.  A thread in a ``with_retries``
    backoff gives its slot to a spare thread, which pulls the next item;
    when the backoff ends the thread takes the next free slot, ahead of
    any new item.  At most ``2 * max_workers`` threads run.

    Results, errors and ``on_done(result)`` take a second lock, so a
    pull (which may parse its item) and the recording of a result (which
    may write a checkpoint) never wait on each other; ``on_done`` runs
    on the worker thread and its calls never overlap.  The first
    exception -- from ``fn``, from ``on_done``, from the iterator
    itself, or an interrupt in the joining thread -- stops the pool: no
    item is pulled and no retry is sent after it, results that finish
    after it are dropped without ``on_done``, and the exception is
    re-raised once every thread has been joined.  Results come back in
    item order; with ``keep=False`` none is kept once ``on_done`` has
    seen it, and ``None`` comes back.
    """
    slots = min(max_workers, len(items)) if isinstance(items, Sized) else max_workers
    return _Pool(fn, items, slots, on_done, keep).run()


def run_batch(
    jobs: Sequence[RephraseJob],
    backend: CompletionBackend,
    cfg: BackendConfig,
    *,
    plan: ExecutionPlan | None = None,
    checkpoint: CheckpointWriter | None = None,
    on_result: Callable[[RephraseResult], None] | None = None,
) -> list[RephraseResult] | None:
    """Execute jobs with bounded concurrency.

    Every job runs (a resume passes only those its ledger lacks), pulled
    in plan order through ``pull_map`` with ``cfg.max_in_flight`` request
    slots, so at most ``cfg.max_in_flight`` requests are outstanding at
    any instant, and a job waiting out a retry backoff lends its slot to
    the next job.  A job's ``render()`` runs on the worker thread that
    pulled it, outside the pull lock.  Each finished job is appended to
    the checkpoint and then passed to ``on_result``, on the worker thread
    and serialised with every other append and ``on_result`` call, so
    ``on_result`` may read ``checkpoint.position`` to find its result's
    line.  The first exception, including one raised by ``on_result``,
    stops the run from issuing more jobs and retries and is re-raised once
    the in-flight ones return; their results are discarded unrecorded, so
    the checkpoint holds exactly the results ``on_result`` saw, and a stop
    wastes at most ``cfg.max_in_flight - 1`` requests.

    Without a checkpoint, returns every job's result in job order.  With
    one, the ledger is the result store: no result is kept once it is
    appended and reported, and ``None`` comes back.
    """
    order = (plan or schedule(jobs)).order if jobs else ()
    todo = [jobs[i] for i in order]
    results = None if checkpoint is not None else {}

    def record(result: RephraseResult) -> None:
        if results is None:
            checkpoint.append(result)
        else:
            results[result.key] = result
        if on_result is not None:
            on_result(result)

    pull_map(lambda job: _run_one(job, backend, cfg), todo, cfg.max_in_flight, record, keep=False)
    return None if results is None else [results[job.key] for job in jobs]
