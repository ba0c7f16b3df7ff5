"""Score documents, filter by threshold, and mix datasets 1:1.

The quality score normalizes the log-probabilities of "yes"/"no" at the
Choice: position of the informative-signal prompt.  Filtering keeps
strictly-greater scores.  Mixing gives each source a weight-proportional
quota; undersized sources repeat (full passes plus a sampled remainder).
"""

import math
import tempfile
from pathlib import Path

from rephrasing.corpus import Document, write_corpus
from rephrasing.inference import MockBackend
from rephrasing.mixing import MixSource, MixSpec, execute_mix, plan_mix
from rephrasing.quality import askllm_score, askllm_score_first, threshold_filter
from rephrasing.tokens import TokenEstimator

est = TokenEstimator(tokens_per_char=0.25, calibrated=True)

# -- scoring ---------------------------------------------------------
backend = MockBackend(
    logprob_rules=[
        ("astronomy", math.log(0.60), math.log(0.02)),   # clearly informative
        ("buy now", math.log(0.05), math.log(0.70)),     # clearly junk
    ]
)
docs = [
    Document("sci", "An essay on astronomy and stellar lifecycles. " * 5, "en"),
    Document("spam", "buy now limited offer click here but also " * 5, "en"),
]
# The first document fixes the scorer (log-probabilities here, a vote on
# a backend without them); every later document is scored the same way.
first = askllm_score_first(docs[0], backend, est, model_id="demo")
scores = {}
for doc in docs:
    scored = first if doc is docs[0] else askllm_score(doc, backend, est, scorer=first.scorer)
    scores[doc.id] = scored.score
    print(f"{doc.id:5} score {scored.score:.3f}  ({scored.scorer})")

kept, report = threshold_filter(docs, scores, threshold=0.6, estimator=est)
print(f"threshold 0.6 keeps: {[d.id for d in kept]} "
      f"(kept {report.kept}, dropped {report.dropped})\n")

# -- mixing ----------------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)

    def source(name: str, n_docs: int) -> MixSource:
        corpus = [Document(f"{name}-{i}", "x" * 400, "en") for i in range(n_docs)]
        write_corpus(corpus, tmp / name, stage="input", fingerprint="demo", estimator=est)
        return MixSource(name, tmp / name / "manifest.json", 1.0)

    # 100k tokens of "original", 30k of "rephrased", mixed 1:1 at 120k:
    # the small source is used twice, per the repeat rule.
    spec = MixSpec(sources=(source("original", 1000), source("rephrased", 300)),
                   target=120_000.0, seed=42)
    plan = plan_mix(spec)
    for draw in plan.draws:
        print(f"{draw.name:9} size {draw.size:9.0f}  quota {draw.quota:9.0f}  "
              f"full passes {draw.full_passes}  remainder {draw.remainder:.0f}")

    manifest, report = execute_mix(spec, tmp / "mixed", estimator=est)
    print(f"\nmixed corpus: {manifest.total_docs} docs, "
          f"{manifest.total_est_tokens:.0f} est tokens")
    print(report.table())
