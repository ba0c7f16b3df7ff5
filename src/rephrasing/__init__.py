"""Corpus rephrasing pipeline for LLM pre-training data.

Converts raw web-text shards into synthetic pre-training data: split
documents into passages, render them into styled prompt templates, run
them through a completion endpoint, clean and reassemble the outputs,
filter by quality score, and mix datasets by weight with exact
accounting.
"""

from .corpus import (
    CorpusError,
    CorpusStats,
    Document,
    Provenance,
    ShardManifest,
    corpus_stats,
    load_shard,
    write_corpus,
    write_shard,
)
from .inference import (
    BackendConfig,
    BackendError,
    HttpBackend,
    JobKey,
    MockBackend,
    RephraseJob,
    RephraseResult,
    resume,
    run_batch,
    schedule,
)
from .mixing import MixSource, MixSpec, execute_mix, plan_mix
from .postprocess import (
    CleanedPassage,
    assemble_document,
    clean_legacy,
    extract_tagged,
    filter_verdict,
)
from .prompts import PromptTemplate, RenderedPrompt, TemplateRegistry, list_templates, render
from .quality import (
    ScoredDocument,
    askllm_score,
    askllm_score_first,
    score_from_logprobs,
    threshold_filter,
)
from .splitting import Passage, SplitConfig, merge_chunks, split_document
from .tokens import TokenEstimator, calibrate

__version__ = "0.1.0"
