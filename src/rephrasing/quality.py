"""Quality scoring and score-threshold filtering.

Documents are judged by prompting an LLM with the informative-signal
question and normalizing the log-probabilities of the affirmative and
negative options at the ``Choice:`` position, or by one vote at
temperature 0 when the backend gives no log-probabilities; one run uses
one of the two for every document.  Externally computed
scores (an educational-value classifier, for instance) can be ingested
from score shards and thresholded the same way.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .corpus import CorpusError, Document, ShardReader
from .inference import (
    AuthError,
    BackendConfig,
    BackendError,
    CompletionBackend,
    TransientBackendError,
    with_retries,
)
from .prompts import PromptTemplate, load_builtin
from .tokens import TokenEstimator

# Scoring reads at most this many estimated tokens from the front of a
# document; long documents are cut by a character budget derived from
# the calibrated ratio instead of being tokenized twice.
SCORING_MAX_TOKENS = 10_000

OPTION_AFFIRMATIVE = "yes"
OPTION_NEGATIVE = "no"

SCORER_ASK_LLM = "ask_llm"
SCORER_ASK_LLM_VOTE = "ask_llm_vote"
# filter.scorer value: threshold the scores in filter.external_scores.
SCORER_EXTERNAL = "external"


class QualityError(Exception):
    """Scoring or filtering failure."""


class MissingScoresError(QualityError):
    """Documents lack scores under the selected scorer."""

    def __init__(self, doc_ids: Sequence[str]):
        self.doc_ids = list(doc_ids)
        shown = ", ".join(self.doc_ids[:10])
        more = "" if len(self.doc_ids) <= 10 else f" (+{len(self.doc_ids) - 10} more)"
        super().__init__(f"missing scores for {len(self.doc_ids)} document(s): {shown}{more}")


@dataclass(frozen=True, slots=True)
class ScoredDocument:
    """One document's score, and a record of the score ledger.

    A run builds its ``scorer`` string once and every score shares it;
    ``from_obj`` interns it, so replayed scores share one string too.
    """

    doc_id: str
    score: float
    scorer: str

    # A score is never recorded failed: scoring errors stop the stage.
    failed = False

    def __post_init__(self) -> None:
        if self.score < 0:
            raise QualityError(f"negative score for {self.doc_id!r}")
        if self.scorer.startswith(SCORER_ASK_LLM) and not 0.0 <= self.score <= 1.0:
            raise QualityError(f"ask-llm score for {self.doc_id!r} outside [0, 1]")

    @property
    def key(self) -> str:
        return self.doc_id

    def to_obj(self) -> dict:
        return {"doc_id": self.doc_id, "score": self.score, "scorer": self.scorer}

    @staticmethod
    def from_obj(obj: Mapping) -> "ScoredDocument":
        scorer = sys.intern(str(obj["scorer"]))
        try:
            return ScoredDocument(str(obj["doc_id"]), float(obj["score"]), scorer)
        except QualityError as exc:  # a recorded score out of its range
            raise CorpusError(str(exc)) from exc


def score_from_logprobs(lp_affirmative: float, lp_negative: float) -> float:
    """Two-way normalization p(yes) / (p(yes) + p(no)).

    Computed from the difference of the log-probabilities, so adding a
    constant to both leaves the score unchanged and the result always
    lies in [0, 1].  Equal log-probabilities (including both -inf) give
    exactly 0.5.
    """
    if lp_affirmative == lp_negative:
        return 0.5
    diff = lp_affirmative - lp_negative
    if diff >= 0:
        return 1.0 / (1.0 + math.exp(-diff))
    weight = math.exp(diff)
    return weight / (1.0 + weight)


def truncate_for_scoring(
    text: str, estimator: TokenEstimator, lang: str | None = None
) -> str:
    return text[: estimator.char_budget(SCORING_MAX_TOKENS, lang)]


def render_scoring_prompt(
    doc_text: str,
    template: PromptTemplate | None = None,
    options: Sequence[str] = (OPTION_AFFIRMATIVE, OPTION_NEGATIVE),
) -> str:
    template = template or load_builtin("ask_llm")
    return template.body.replace("{document}", doc_text).replace("{options}", "\n".join(options))


def askllm_score(
    doc: Document,
    backend: CompletionBackend,
    estimator: TokenEstimator,
    *,
    scorer: str,
    backend_cfg: BackendConfig = BackendConfig(),
) -> ScoredDocument:
    """Score one document under the run's ``scorer``.

    An ``ask_llm_vote:`` scorer sends one completion at temperature 0,
    retried under ``backend_cfg``, and scores 1.0 when it answers the
    affirmative option and 0.0 otherwise: further votes at temperature 0
    would only repeat it.  An ``ask_llm:`` scorer normalizes the option
    log-probabilities, which the backend retries itself.  Every error
    propagates: the scorer never changes within a run.
    """
    if not doc.text.strip():
        raise QualityError(f"cannot score empty document {doc.id!r}")
    prompt = render_scoring_prompt(truncate_for_scoring(doc.text, estimator, doc.lang))
    if scorer.startswith(SCORER_ASK_LLM_VOTE):
        completion = with_retries(
            lambda: backend.complete(prompt, temperature=0.0, stop=("\n",), max_tokens=8),
            backend_cfg,
        )
        vote = completion.text.strip().lower().startswith(OPTION_AFFIRMATIVE)
        return ScoredDocument(doc.id, float(vote), scorer)
    lp_yes, lp_no = backend.option_logprobs(prompt, [OPTION_AFFIRMATIVE, OPTION_NEGATIVE])
    return ScoredDocument(doc.id, score_from_logprobs(lp_yes, lp_no), scorer)


def askllm_score_first(
    doc: Document,
    backend: CompletionBackend,
    estimator: TokenEstimator,
    *,
    model_id: str,
    backend_cfg: BackendConfig = BackendConfig(),
) -> ScoredDocument:
    """Score a run's first document, which fixes the run's scorer.

    The scorer is ``ask_llm:<model_id>`` when the backend gives option
    log-probabilities, and ``ask_llm_vote:<model_id>`` when it refuses
    them with a permanent ``BackendError``; that refused request is the
    only one the choice costs.  Transient and auth errors propagate, so
    a busy backend never switches a run to voting.
    """

    def score(scorer: str) -> ScoredDocument:
        return askllm_score(doc, backend, estimator, scorer=scorer, backend_cfg=backend_cfg)

    try:
        return score(f"{SCORER_ASK_LLM}:{model_id}")
    except (AuthError, TransientBackendError):
        raise
    except BackendError:
        return score(f"{SCORER_ASK_LLM_VOTE}:{model_id}")


@dataclass(frozen=True)
class FilterReport:
    threshold: float
    kept: int
    dropped: int
    kept_tokens: float
    dropped_tokens: float

    def to_obj(self) -> dict:
        return {
            "threshold": self.threshold,
            "kept": self.kept,
            "dropped": self.dropped,
            "kept_tokens": self.kept_tokens,
            "dropped_tokens": self.dropped_tokens,
        }


class ThresholdFilter:
    """Stream the documents whose score is strictly greater than the threshold.

    Iterating yields the kept documents in input order and holds none of
    them.  Every document must have a score: once the input is exhausted,
    missing ids abort with ``MissingScoresError`` listing all of them, so
    the operator can re-queue them; otherwise ``report`` holds the counts.
    """

    def __init__(
        self,
        docs: Iterable[Document],
        scores: Mapping[str, float],
        threshold: float,
        estimator: TokenEstimator | None = None,
    ):
        self.docs = docs
        self.scores = scores
        self.threshold = threshold
        self.estimator = estimator or TokenEstimator()
        self.report: FilterReport | None = None

    def __iter__(self) -> Iterator[Document]:
        missing: list[str] = []
        kept = dropped = 0
        kept_tokens = dropped_tokens = 0.0
        for doc in self.docs:
            score = self.scores.get(doc.id)
            if score is None:
                missing.append(doc.id)
                continue
            if score > self.threshold:
                kept += 1
                kept_tokens += self.estimator.estimate_text(doc.text, doc.lang)
                yield doc
            else:
                dropped += 1
                dropped_tokens += self.estimator.estimate_text(doc.text, doc.lang)
        if missing:
            raise MissingScoresError(missing)
        self.report = FilterReport(self.threshold, kept, dropped, kept_tokens, dropped_tokens)


def threshold_filter(
    docs: Iterable[Document],
    scores: Mapping[str, float],
    threshold: float,
    estimator: TokenEstimator | None = None,
) -> tuple[list[Document], FilterReport]:
    """``ThresholdFilter`` collected into a list, with its report."""
    kept = ThresholdFilter(docs, scores, threshold, estimator)
    return list(kept), kept.report


def _score_record(obj: dict) -> tuple[str, float]:
    """One line of a score file: a string ``doc_id`` and a finite JSON
    number ``score``; ``true``/``false`` are not numbers."""
    doc_id, score = obj["doc_id"], obj["score"]
    if not isinstance(doc_id, str):
        raise CorpusError(f"doc_id is {type(doc_id).__name__}, not a string")
    if type(score) not in (int, float) or not math.isfinite(score):
        raise CorpusError(f"score {score!r} is not a finite number")
    return doc_id, float(score)


def ingest_external_scores(path: Path | str) -> dict[str, float]:
    """Scores by document id from a score file, one
    ``{"doc_id": ..., "score": ...}`` line per document, read by
    ``ShardReader``: a line with a non-string ``doc_id`` or a ``score``
    that is not a finite number is a bad line, and a duplicate id aborts.
    Negative scores are accepted, as logit-style classifiers give them.
    """
    table: dict[str, float] = {}
    reader = ShardReader(path, _score_record)
    for doc_id, score in reader:
        if doc_id in table:
            raise QualityError(f"{path}:{reader.n_lines}: duplicate doc_id {doc_id!r}")
        table[doc_id] = score
    return table
