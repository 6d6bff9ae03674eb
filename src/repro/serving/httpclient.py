"""Retrying HTTP client for the revision service — the first real
network client in the repo.

:class:`RevisionHTTPClient` speaks to a
:class:`~repro.serving.http.RevisionHTTPFrontend` over stdlib
``http.client`` and wraps every request in the retry discipline a
flaky network demands:

* **Per-request timeouts** — every socket operation is bounded by
  ``timeout_s``; a stalled server read becomes a retryable
  ``TimeoutError``, never a hung client.
* **Capped exponential backoff with full jitter** — transport faults
  (connection refused/reset, truncated body, torn status line) and
  retryable statuses (408/500/502/504) sleep
  ``uniform(0, min(backoff_cap_s, backoff_base_s * 2**attempt))``
  before the next attempt, so a thundering herd of clients decorrelates
  instead of synchronising on the cap.
* **Retry-After honored** — a ``429`` (admission control) or ``503``
  (overload/drain) with a ``Retry-After`` header sleeps what the server
  asked for; the honored seconds are recorded in
  :attr:`ServingMetrics.retry_after_honored_s`.
* **Total retry budget** — at most ``max_attempts`` tries per request;
  spending the budget raises a typed
  :class:`~repro.errors.RetryBudgetExceededError` carrying the final
  underlying error as ``__cause__``.  Client errors (400/404/413) are
  never retried — retrying a malformed request cannot fix it.

**Persistent connections** — the client keeps its HTTP/1.1 connection
open and reuses it after every cleanly read response that does not say
``Connection: close``; any other failure drops it.  A thread checks the
connection out for its request, so threads sharing one client never
write to one socket (a thread finding none free opens its own).  A
*reused* connection may have been closed by the server while idle: a
request that fails on one before any response byte arrives
(``RemoteDisconnected``, ``BrokenPipeError``, ``ConnectionResetError``
or ``ConnectionAbortedError`` from the send or the status-line read) is
resent once, at once, on a fresh connection — inside the same attempt,
with no backoff and no retry counted.  :meth:`RevisionHTTPClient.close`
(or ``with``) releases kept connections; ``stream_revise`` uses its own
connection, closed at the end of the stream.

Retries are **at-least-once** on the wire — a reset after the server
read the request means the work happens even though the reply was lost.
The service makes the composition effectively **exactly-once**: results
are keyed by pair content in the server's LRU/dedup cache, so the retry
finds the finished result (or attaches to the in-flight computation)
instead of decoding again.  ``tests/test_fuzz_network.py`` pins this:
under random connection faults every pair resolves exactly once with
token parity and zero server-side duplicates.

The façade mirrors :class:`~repro.serving.client.InProcessRevisionClient`
(``revise_pairs`` / ``score_pairs`` / ``revise_dataset``), so the
crash-safe :class:`~repro.serving.journal.RunJournal` composes here too:
pass ``journal=`` and every result is journaled as it arrives, and a
resumed run serves journaled pairs without touching the network.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from urllib.parse import urlsplit

import numpy as np

from ..core.coachlm import RevisionStats
from ..data.dataset import InstructionDataset
from ..data.instruction_pair import InstructionPair, Origin
from ..errors import RetryBudgetExceededError, ServingError
from .journal import dataset_fingerprint, run_config_hash
from .metrics import ServingMetrics
from .requests import SOURCE_JOURNAL, RevisionResult

#: Statuses worth retrying: the request may succeed verbatim later.
RETRYABLE_STATUSES = frozenset({408, 429, 500, 502, 503, 504})
#: Statuses that honor ``Retry-After`` when the server sends one.
RETRY_AFTER_STATUSES = frozenset({429, 503})


#: Failures of a *reused* connection before any response byte arrived:
#: the server closed it while idle, so the request is resent for free.
#: (``http.client.RemoteDisconnected`` is a ``ConnectionResetError``.)
_STALE_ERRORS = (
    http.client.RemoteDisconnected,
    BrokenPipeError,
    ConnectionResetError,
    ConnectionAbortedError,
)


def _exchange(
    conn: http.client.HTTPConnection, path: str, body: bytes
) -> http.client.HTTPResponse:
    """Send one POST and read its status line and headers."""
    conn.request("POST", path, body, {"Content-Type": "application/json"})
    return conn.getresponse()


def _parse_retry_after(value: str | None) -> float | None:
    """Seconds from a ``Retry-After`` header (delta form only), or None."""
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return max(0.0, seconds)


class RevisionHTTPClient:
    """Retrying JSON/HTTP client for one revision front-end.

    ``base_url`` is the front-end's address (see
    :attr:`RevisionHTTPFrontend.address`).  ``metrics`` aggregates the
    client's retry counters — pass the service's own
    :class:`ServingMetrics` to see client and server behaviour on one
    dashboard, or leave the default for a private collector.  ``seed``
    makes the jittered backoff reproducible (fuzz harnesses pin it).

    Non-streamed requests reuse kept-alive connections (see the module
    docstring for the reuse and stale-resend rules); :meth:`close`, or
    leaving a ``with`` block, closes the idle ones.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 30.0,
        max_attempts: int = 5,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        metrics: ServingMetrics | None = None,
        seed: int = 0,
    ):
        parts = urlsplit(base_url)
        if parts.scheme != "http" or parts.hostname is None:
            raise ServingError(f"unsupported base_url {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self._host = parts.hostname
        self._port = parts.port or 80
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self._rng = np.random.default_rng(seed)
        #: Kept-alive connections no thread has checked out.
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()

    # -- connections ---------------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self._host, self._port, timeout=self.timeout_s
        )

    def close(self) -> None:
        """Close the kept-alive connections (the client stays usable)."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "RevisionHTTPClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- one request with retries ------------------------------------------------
    def _backoff_s(self, attempt: int) -> float:
        """Full-jitter backoff: uniform over [0, min(cap, base * 2^n))."""
        ceiling = min(self.backoff_cap_s, self.backoff_base_s * (2 ** attempt))
        return float(self._rng.uniform(0.0, ceiling))

    def _attempt(self, path: str, body: bytes) -> tuple[int, str | None, bytes]:
        """One HTTP round trip → (status, retry_after_header, raw_body)."""
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        try:
            if conn is None:
                conn = self._connect()
                response = _exchange(conn, path, body)
            else:
                try:
                    response = _exchange(conn, path, body)
                except _STALE_ERRORS:
                    # The server closed the idle connection: resend once
                    # on a fresh one, free of the retry discipline.
                    conn.close()
                    conn = self._connect()
                    response = _exchange(conn, path, body)
            raw = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            with self._idle_lock:
                self._idle.append(conn)
        return response.status, response.getheader("Retry-After"), raw

    def _request(self, path: str, payload: dict) -> dict:
        """POST with the full retry discipline; returns the 200 payload."""
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            retry_after: float | None = None
            try:
                status, retry_after_header, raw = self._attempt(path, body)
            except (OSError, http.client.HTTPException) as error:
                # Transport fault: refused, reset, stalled (timeout),
                # truncated body (IncompleteRead), torn status line
                # (BadStatusLine/RemoteDisconnected).  All retryable.
                last_error = error
            else:
                if status == 200:
                    try:
                        return json.loads(raw.decode("utf-8"))
                    except (ValueError, UnicodeDecodeError) as error:
                        # A 200 with an unparseable body is a truncation
                        # the length check missed — treat as transport.
                        last_error = ServingError(
                            f"corrupt 200 body from {path}: {error}"
                        )
                elif status in RETRYABLE_STATUSES:
                    if status in RETRY_AFTER_STATUSES:
                        retry_after = _parse_retry_after(retry_after_header)
                    last_error = ServingError(
                        f"HTTP {status} from {path}: "
                        f"{raw[:200].decode('utf-8', 'replace')}"
                    )
                else:
                    # 400/404/413...: retrying cannot fix the request.
                    raise ServingError(
                        f"HTTP {status} from {path}: "
                        f"{raw[:200].decode('utf-8', 'replace')}"
                    )
            if attempt + 1 >= self.max_attempts:
                break
            delay = (
                retry_after
                if retry_after is not None
                else self._backoff_s(attempt)
            )
            self.metrics.record_retry(
                retry_after if retry_after is not None else 0.0
            )
            if delay > 0.0:
                time.sleep(delay)
        self.metrics.record_gave_up()
        assert last_error is not None
        raise RetryBudgetExceededError(
            f"request to {path} failed after {self.max_attempts} attempts"
        ) from last_error

    # -- streaming ---------------------------------------------------------------
    def stream_revise(self, pair: InstructionPair, priority: int = 0):
        """Revise one pair with incremental token delivery (a generator).

        Yields ``("tokens", [ids...])`` events as the server produces
        them, then exactly one ``("done", RevisionResult)``.  A server
        preemption of the sequence appears as a pause between token
        events, never as an error.  Unlike :meth:`revise_pair` this is a
        **single attempt with no retries**: a stream's side effects are
        observable as they happen, so replaying one is not transparent —
        transport faults and terminal ``error`` events raise
        :class:`ServingError` and the caller decides whether the request
        is safe to resubmit (the server's dedup cache makes a fresh
        non-streamed retry find finished work).
        """
        body = json.dumps(
            {**self._pair_payload(pair), "stream": True, "priority": priority},
            sort_keys=True,
        ).encode("utf-8")
        conn = self._connect()
        try:
            try:
                conn.request(
                    "POST", "/revise", body,
                    {"Content-Type": "application/json"},
                )
                response = conn.getresponse()
            except (OSError, http.client.HTTPException) as error:
                raise ServingError(f"stream transport fault: {error}") from error
            if response.status != 200:
                raw = response.read()
                raise ServingError(
                    f"HTTP {response.status} from /revise (stream): "
                    f"{raw[:200].decode('utf-8', 'replace')}"
                )
            for payload in self._iter_sse(response):
                event = payload.get("event")
                if event == "tokens":
                    yield "tokens", list(payload.get("token_ids", []))
                elif event == "done":
                    revised = pair
                    if payload.get("outcome") == "revised":
                        revised = pair.with_text(
                            payload["instruction"],
                            payload["response"],
                            Origin.COACHLM_REVISED,
                        )
                    yield "done", RevisionResult(
                        pair=revised,
                        outcome=str(payload.get("outcome", "")),
                        source=str(payload.get("source", "")),
                        latency_s=float(payload.get("latency_s", 0.0)),
                        generated_tokens=int(
                            payload.get("generated_tokens", 0)
                        ),
                    )
                    return
                else:
                    raise ServingError(
                        f"stream error event: {payload.get('error', '?')}"
                    )
            raise ServingError(
                "stream ended without a terminal done/error event"
            )
        finally:
            conn.close()

    @staticmethod
    def _iter_sse(response):
        """Yield decoded ``data: {json}`` SSE payloads until EOF."""
        try:
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if not line or not line.startswith(b"data: "):
                    continue
                try:
                    yield json.loads(line[len(b"data: "):].decode("utf-8"))
                except (ValueError, UnicodeDecodeError) as error:
                    raise ServingError(
                        f"corrupt stream event: {error}"
                    ) from error
        except (OSError, http.client.HTTPException) as error:
            raise ServingError(f"stream transport fault: {error}") from error

    # -- single-pair façade ------------------------------------------------------
    def revise_pair(self, pair: InstructionPair) -> RevisionResult:
        """Revise one pair over HTTP (retrying); returns the terminal result."""
        payload = self._request("/revise", self._pair_payload(pair))
        revised = pair
        if payload.get("outcome") == "revised":
            revised = pair.with_text(
                payload["instruction"],
                payload["response"],
                Origin.COACHLM_REVISED,
            )
        return RevisionResult(
            pair=revised,
            outcome=str(payload.get("outcome", "")),
            source=str(payload.get("source", "")),
            latency_s=float(payload.get("latency_s", 0.0)),
            generated_tokens=int(payload.get("generated_tokens", 0)),
        )

    def score_pair(self, pair: InstructionPair) -> RevisionResult:
        """Teacher-force score one pair over HTTP (retrying)."""
        payload = self._request("/score", self._pair_payload(pair))
        score = None
        if payload.get("n_tokens") is not None:
            score = {
                key: payload.get(key)
                for key in (
                    "conditioned_nll",
                    "unconditioned_nll",
                    "ifd",
                    "response_perplexity",
                    "n_tokens",
                )
            }
        return RevisionResult(
            pair=pair,
            outcome=str(payload.get("outcome", "")),
            source=str(payload.get("source", "")),
            latency_s=float(payload.get("latency_s", 0.0)),
            score=score,
        )

    def _pair_payload(self, pair: InstructionPair) -> dict:
        return {
            "instruction": pair.instruction,
            "response": pair.response,
            "pair_id": pair.pair_id,
            "timeout_s": self.timeout_s,
        }

    # -- batch façade (journal-composable) ---------------------------------------
    def _journal_hash(self, kind: str, run_hash: str | None) -> str:
        """Journal identity for a remote run.

        A remote client cannot fingerprint the server's model, so the
        default hash only pins the operation kind (the dataset
        fingerprint still guards the inputs).  Callers revising the same
        dataset against *different* deployments should pass ``run_hash``
        (e.g. the coach's ``revision_run_hash()`` obtained out of band).
        """
        if run_hash is not None:
            return run_hash
        return run_config_hash({"kind": kind})

    def _run_pairs(
        self,
        pairs: list[InstructionPair],
        one,
        kind: str,
        journal=None,
        run_hash: str | None = None,
    ) -> list[RevisionResult]:
        completed = {}
        if journal is not None:
            replay = journal.open_run(
                self._journal_hash(kind, run_hash), dataset_fingerprint(pairs)
            )
            completed = replay.completed
            self.metrics.record_journal_replay(
                replay.records_replayed, replay.pairs_skipped
            )
            journal.record_submitted(
                [i for i in range(len(pairs)) if i not in completed]
            )
        results: list[RevisionResult] = []
        for index, pair in enumerate(pairs):
            if index in completed:
                done = completed[index]
                results.append(RevisionResult(
                    pair=done.apply(pair),
                    outcome=done.outcome,
                    source=SOURCE_JOURNAL,
                    latency_s=0.0,
                    generated_tokens=0,
                    score=done.score,
                ))
                continue
            try:
                result = one(pair)
            except ServingError as error:
                if journal is not None:
                    journal.record_failed(index, str(error))
                raise
            results.append(result)
            if journal is not None:
                journal.record_done(
                    index,
                    result.pair,
                    result.outcome,
                    result.generated_tokens,
                    result.score,
                )
        return results

    def revise_pairs(
        self, pairs: list[InstructionPair], journal=None,
        run_hash: str | None = None,
    ) -> list[RevisionResult]:
        """Revise pairs in order over HTTP; journal-composable."""
        return self._run_pairs(
            pairs, self.revise_pair, "http_revise", journal, run_hash
        )

    def score_pairs(
        self, pairs: list[InstructionPair], journal=None,
        run_hash: str | None = None,
    ) -> list[RevisionResult]:
        """Teacher-force score pairs in order over HTTP; journal-composable."""
        return self._run_pairs(
            pairs, self.score_pair, "http_score", journal, run_hash
        )

    def revise_dataset(
        self, dataset: InstructionDataset, journal=None,
        run_hash: str | None = None,
    ) -> tuple[InstructionDataset, RevisionStats]:
        """Drop-in for :meth:`CoachLM.revise_dataset`, served over HTTP."""
        pairs = list(dataset)
        results = self.revise_pairs(pairs, journal=journal, run_hash=run_hash)
        stats = RevisionStats()
        for result in results:
            stats.record(result.outcome)
        return (
            InstructionDataset(
                [result.pair for result in results],
                name=f"{dataset.name}-coachlm",
            ),
            stats,
        )
