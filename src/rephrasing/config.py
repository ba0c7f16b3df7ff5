"""One config file drives every pipeline stage.

The config is a YAML document; relative paths resolve against the
config file's directory.  A fingerprint over the output-determining
sections is stamped into every manifest and checkpoint so resumed runs
refuse artifacts produced under different parameters.  Operational
knobs (endpoint address, concurrency, timeouts) stay outside the
fingerprint; auth tokens are referenced by environment variable name
and never appear inline.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import yaml

from .corpus import DEFAULT_LANGUAGES
from .inference import BackendConfig, parse_endpoint
from .prompts import (
    EOS_BY_FRAMING,
    LEGACY,
    TAGGED,
    PromptTemplate,
    TemplateRegistry,
    default_stop,
)
from .splitting import SplitConfig
from .tokens import DEFAULT_SAMPLE_SIZE, DEFAULT_TOKENS_PER_CHAR


class ConfigError(Exception):
    """Malformed or internally inconsistent configuration."""


def _check_keys(obj: Mapping, allowed: Sequence[str], section: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {sorted(unknown)}")


@dataclass(frozen=True)
class EstimatorSettings:
    default_ratio: float = DEFAULT_TOKENS_PER_CHAR
    sample_size: int = DEFAULT_SAMPLE_SIZE
    per_language: bool = True
    # Optional HTTP endpoint of an exact tokenizer used only during
    # calibration: POST {"text": ...} -> {"tokens": n}.
    exact_endpoint: str | None = None

    def to_obj(self) -> dict:
        return {
            "default_ratio": self.default_ratio,
            "sample_size": self.sample_size,
            "per_language": self.per_language,
            "exact_endpoint": self.exact_endpoint,
        }


@dataclass(frozen=True)
class CustomTemplateSettings:
    template_id: str
    file: Path
    language: str
    framing: str
    extraction: str
    completion_prefix: str = ""
    # None derives the stop list from framing and extraction mode.
    stop: tuple[str, ...] | None = None

    def load(self) -> PromptTemplate:
        if self.framing not in EOS_BY_FRAMING:
            raise ConfigError(f"custom template {self.template_id!r}: unknown framing {self.framing!r}")
        if self.extraction not in (LEGACY, TAGGED):
            raise ConfigError(
                f"custom template {self.template_id!r}: unknown extraction {self.extraction!r}"
            )
        return PromptTemplate(
            template_id=self.template_id,
            language=self.language,
            framing=self.framing,
            extraction=self.extraction,
            body=self.file.read_bytes().decode("utf-8"),
            stop=self.stop if self.stop is not None else default_stop(self.framing, self.extraction),
            completion_prefix=self.completion_prefix,
        )


@dataclass(frozen=True)
class PostprocessSettings:
    # None derives the regime from the selected template.
    regime: str | None = None
    pattern_file: Path | None = None


@dataclass(frozen=True)
class FilterSettings:
    scorer: str = "ask_llm"
    threshold: float = 0.6
    external_scores: Path | None = None
    external_name: str = "external"
    vote_k: int = 8


@dataclass(frozen=True)
class MixSourceSettings:
    name: str
    manifest: Path
    weight: float = 1.0


@dataclass(frozen=True)
class MixSettings:
    sources: tuple[MixSourceSettings, ...] = ()
    unit: str = "tokens"
    target: float | None = None
    # None uses the pipeline seed.
    seed: int | None = None


@dataclass(frozen=True)
class PipelineConfig:
    config_dir: Path
    work_dir: Path
    input_manifest: Path | None = None
    languages: tuple[str, ...] = DEFAULT_LANGUAGES
    seed: int = 0
    split: SplitConfig = SplitConfig()
    estimator: EstimatorSettings = EstimatorSettings()
    # Either one template for the whole corpus or a per-language
    # selection ({en: qa_opt_en, de: qa_opt_de, ...}).
    template_id: str = "qa_opt_en"
    template_by_lang: tuple[tuple[str, str], ...] = ()
    custom_templates: tuple[CustomTemplateSettings, ...] = ()
    temperature: float = 0.7
    backend_kind: str = "mock"
    backend: BackendConfig = BackendConfig()
    mock_backend: Mapping = field(default_factory=dict)
    postprocess: PostprocessSettings = PostprocessSettings()
    filter: FilterSettings = FilterSettings()
    mix: MixSettings | None = None
    shard_size: int = 50_000

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")

    def registry(self) -> TemplateRegistry:
        return TemplateRegistry(t.load() for t in self.custom_templates)

    def selected_template_ids(self) -> tuple[str, ...]:
        if self.template_by_lang:
            return tuple(dict.fromkeys(tid for _, tid in self.template_by_lang))
        return (self.template_id,)

    def template_id_for(self, lang: str) -> str:
        if not self.template_by_lang:
            return self.template_id
        for selected_lang, template_id in self.template_by_lang:
            if selected_lang == lang:
                return template_id
        raise ConfigError(f"no template selected for language {lang!r}")

    def template(self) -> PromptTemplate:
        """The single selected template (single-template configs only)."""
        ids = self.selected_template_ids()
        if len(ids) != 1:
            raise ConfigError("config selects one template per language; pass a lang")
        return self.registry().get(ids[0])

    def regime(self) -> str:
        if self.postprocess.regime:
            return self.postprocess.regime
        registry = self.registry()
        modes = {registry.get(tid).extraction for tid in self.selected_template_ids()}
        return next(iter(modes))

    def validate(self) -> None:
        registry = self.registry()
        modes = {}
        for tid in self.selected_template_ids():
            modes[tid] = registry.get(tid).extraction
        if len(set(modes.values())) > 1:
            raise ConfigError(
                f"selected templates mix extraction modes: {sorted(modes.items())}"
            )
        mode = next(iter(modes.values()))
        if self.postprocess.regime and self.postprocess.regime != mode:
            raise ConfigError(
                f"postprocess regime {self.postprocess.regime!r} does not match "
                f"the selected templates' extraction mode {mode!r}"
            )
        if self.template_by_lang:
            selected = {lang for lang, _ in self.template_by_lang}
            missing = set(self.languages) - selected
            if missing:
                raise ConfigError(
                    f"template selection covers no template for language(s) {sorted(missing)}"
                )
        if self.backend_kind not in ("mock", "http"):
            raise ConfigError(f"unknown backend kind {self.backend_kind!r}")
        if self.backend_kind == "http" and not self.backend.endpoint:
            raise ConfigError("http backend requires an endpoint address")
        for key, url in (
            ("backend.endpoint", self.backend.endpoint),
            ("estimator.exact_endpoint", self.estimator.exact_endpoint),
        ):
            if url:
                try:
                    parse_endpoint(url)
                except ValueError as exc:
                    raise ConfigError(f"{key}: {exc}") from exc

    def fingerprint(self) -> str:
        """Stable hash over every output-determining setting."""
        custom = [
            {
                "id": t.template_id,
                "checksum": hashlib.sha256(t.file.read_bytes()).hexdigest(),
                "language": t.language,
                "framing": t.framing,
                "extraction": t.extraction,
                "completion_prefix": t.completion_prefix,
                "stop": list(t.stop) if t.stop is not None else None,
            }
            for t in self.custom_templates
        ]
        payload = {
            "languages": list(self.languages),
            "seed": self.seed,
            "split": self.split.to_obj(),
            "estimator": self.estimator.to_obj(),
            "template_id": self.template_id,
            "template_by_lang": sorted(self.template_by_lang),
            "custom_templates": custom,
            "temperature": self.temperature,
            "backend": {
                "kind": self.backend_kind,
                "model": self.backend.model,
                "max_output_tokens": self.backend.max_output_tokens,
                "max_retries": self.backend.max_retries,
                "mock": _canonical(self.mock_backend) if self.backend_kind == "mock" else None,
            },
            "postprocess": {
                "regime": self.regime(),
                "patterns": _pattern_fingerprint(self.postprocess.pattern_file),
            },
            "filter": {
                "scorer": self.filter.scorer,
                "threshold": self.filter.threshold,
                "external_name": self.filter.external_name,
                "vote_k": self.filter.vote_k,
            },
            "mix": None
            if self.mix is None
            else {
                "unit": self.mix.unit,
                "target": self.mix.target,
                "seed": self.mix.seed,
                "sources": [[s.name, s.weight] for s in self.mix.sources],
            },
            "shard_size": self.shard_size,
        }
        canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _canonical(obj):
    if isinstance(obj, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def _pattern_fingerprint(path: Path | None) -> str | None:
    if path is None:
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


_TOP_KEYS = (
    "languages",
    "seed",
    "work_dir",
    "input_manifest",
    "split",
    "estimator",
    "template",
    "custom_templates",
    "temperature",
    "backend",
    "postprocess",
    "filter",
    "mix",
    "shard_size",
)


def load_config(path: Path | str) -> PipelineConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        obj = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(obj, Mapping):
        raise ConfigError(f"config root must be a mapping, got {type(obj).__name__}")
    try:
        cfg = config_from_obj(obj, path.parent)
        cfg.validate()
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config {path}: {exc}") from exc
    return cfg


def config_from_obj(obj: Mapping, base_dir: Path) -> PipelineConfig:
    _check_keys(obj, _TOP_KEYS, "config")

    def resolve(p) -> Path:
        p = Path(p)
        return p if p.is_absolute() else base_dir / p

    split_obj = dict(obj.get("split", {}))
    _check_keys(split_obj, ("max_tokens", "min_tokens", "linebreak", "sentence_end"), "split")
    split = SplitConfig(
        max_tokens=float(split_obj.get("max_tokens", 350)),
        min_tokens=float(split_obj.get("min_tokens", 50)),
        linebreak=split_obj.get("linebreak", "\n"),
        sentence_end=split_obj.get("sentence_end", SplitConfig().sentence_end),
    )

    est_obj = dict(obj.get("estimator", {}))
    _check_keys(
        est_obj, ("default_ratio", "sample_size", "per_language", "exact_endpoint"), "estimator"
    )
    estimator = EstimatorSettings(
        default_ratio=float(est_obj.get("default_ratio", DEFAULT_TOKENS_PER_CHAR)),
        sample_size=int(est_obj.get("sample_size", DEFAULT_SAMPLE_SIZE)),
        per_language=bool(est_obj.get("per_language", True)),
        exact_endpoint=est_obj.get("exact_endpoint"),
    )

    customs = []
    for entry in obj.get("custom_templates", []) or []:
        _check_keys(
            entry,
            ("id", "file", "language", "framing", "extraction", "completion_prefix", "stop"),
            "custom_templates",
        )
        customs.append(
            CustomTemplateSettings(
                template_id=str(entry["id"]),
                file=resolve(entry["file"]),
                language=str(entry.get("language", "en")),
                framing=str(entry.get("framing", "mistral_inst")),
                extraction=str(entry.get("extraction", "tagged")),
                completion_prefix=str(entry.get("completion_prefix", "")),
                stop=tuple(entry["stop"]) if entry.get("stop") is not None else None,
            )
        )

    backend_obj = dict(obj.get("backend", {}))
    _check_keys(
        backend_obj,
        (
            "kind",
            "endpoint",
            "auth_token_env",
            "model",
            "max_in_flight",
            "max_output_tokens",
            "max_retries",
            "timeout_s",
            "retry_backoff_s",
            "mock",
        ),
        "backend",
    )
    backend = BackendConfig(
        endpoint=str(backend_obj.get("endpoint", "")),
        auth_token_env=str(backend_obj.get("auth_token_env", "")),
        model=str(backend_obj.get("model", "")),
        max_in_flight=int(backend_obj.get("max_in_flight", 4)),
        max_output_tokens=int(backend_obj.get("max_output_tokens", 1024)),
        max_retries=int(backend_obj.get("max_retries", 3)),
        timeout_s=float(backend_obj.get("timeout_s", 120.0)),
        retry_backoff_s=float(backend_obj.get("retry_backoff_s", 0.5)),
    )

    post_obj = dict(obj.get("postprocess", {}))
    _check_keys(post_obj, ("regime", "pattern_file"), "postprocess")
    postprocess = PostprocessSettings(
        regime=post_obj.get("regime"),
        pattern_file=resolve(post_obj["pattern_file"]) if post_obj.get("pattern_file") else None,
    )

    filter_obj = dict(obj.get("filter", {}))
    _check_keys(
        filter_obj,
        ("scorer", "threshold", "external_scores", "external_name", "vote_k"),
        "filter",
    )
    filter_settings = FilterSettings(
        scorer=str(filter_obj.get("scorer", "ask_llm")),
        threshold=float(filter_obj.get("threshold", 0.6)),
        external_scores=resolve(filter_obj["external_scores"])
        if filter_obj.get("external_scores")
        else None,
        external_name=str(filter_obj.get("external_name", "external")),
        vote_k=int(filter_obj.get("vote_k", 8)),
    )

    mix = None
    if obj.get("mix"):
        mix_obj = dict(obj["mix"])
        _check_keys(mix_obj, ("sources", "unit", "target", "seed"), "mix")
        sources = tuple(
            MixSourceSettings(
                name=str(s["name"]),
                manifest=resolve(s["manifest"]),
                weight=float(s.get("weight", 1.0)),
            )
            for s in mix_obj.get("sources", [])
        )
        mix = MixSettings(
            sources=sources,
            unit=str(mix_obj.get("unit", "tokens")),
            target=float(mix_obj["target"]) if mix_obj.get("target") is not None else None,
            seed=int(mix_obj["seed"]) if mix_obj.get("seed") is not None else None,
        )

    template_selection = obj.get("template", "qa_opt_en")
    if isinstance(template_selection, Mapping):
        template_id = ""
        template_by_lang = tuple(
            (str(lang), str(tid)) for lang, tid in sorted(template_selection.items())
        )
        if not template_by_lang:
            raise ConfigError("template mapping must select at least one language")
    else:
        template_id = str(template_selection)
        template_by_lang = ()

    return PipelineConfig(
        config_dir=base_dir,
        work_dir=resolve(obj.get("work_dir", "out")),
        input_manifest=resolve(obj["input_manifest"]) if obj.get("input_manifest") else None,
        languages=tuple(obj.get("languages", DEFAULT_LANGUAGES)),
        seed=int(obj.get("seed", 0)),
        split=split,
        estimator=estimator,
        template_id=template_id,
        template_by_lang=template_by_lang,
        custom_templates=tuple(customs),
        temperature=float(obj.get("temperature", 0.7)),
        backend_kind=str(backend_obj.get("kind", "mock")),
        backend=backend,
        mock_backend=dict(backend_obj.get("mock", {})),
        postprocess=postprocess,
        filter=filter_settings,
        mix=mix,
        shard_size=int(obj.get("shard_size", 50_000)),
    )
