"""One config file drives every pipeline stage.

The config is a YAML document; relative paths resolve against the
config file's directory.  Each section is built from its dataclass:
the fields are the keys it accepts, and each value must already have
its field's type, so a mistyped value is refused, never reshaped.  A
fingerprint over the output-determining sections is stamped into every
manifest and checkpoint so resumed runs refuse artifacts produced under
different parameters.  Operational knobs (endpoint address,
concurrency, timeouts) stay outside the fingerprint; auth tokens are
referenced by environment variable name and never appear inline.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import re
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal, Mapping

import yaml

from .corpus import DEFAULT_LANGUAGES
from .inference import BackendConfig, MockSettings, parse_endpoint
from .mixing import UNIT_DOCUMENTS, UNIT_TOKENS
from .postprocess import load_marker_patterns
from .prompts import (
    LEGACY,
    MISTRAL_INST,
    QWEN2_CHATML,
    RAW,
    TAGGED,
    PromptError,
    PromptTemplate,
    TemplateRegistry,
    default_stop,
)
from .quality import SCORER_ASK_LLM, SCORER_EXTERNAL
from .splitting import SENTENCE_END_PATTERN, SplitConfig
from .tokens import DEFAULT_SAMPLE_SIZE, DEFAULT_TOKENS_PER_CHAR


class ConfigError(Exception):
    """Malformed or internally inconsistent configuration."""


@dataclass(frozen=True)
class EstimatorSettings:
    default_ratio: float = DEFAULT_TOKENS_PER_CHAR
    sample_size: int = DEFAULT_SAMPLE_SIZE
    per_language: bool = True
    # Optional HTTP endpoint of an exact tokenizer used only during
    # calibration: POST {"text": ...} -> {"tokens": n}.
    exact_endpoint: str | None = None


@dataclass(frozen=True)
class CustomTemplateSettings:
    id: str
    file: Path
    language: str = "en"
    framing: Literal[MISTRAL_INST, QWEN2_CHATML, RAW] = MISTRAL_INST
    extraction: Literal[LEGACY, TAGGED] = TAGGED
    completion_prefix: str = ""
    # None derives the stop list from framing and extraction mode.
    stop: tuple[str, ...] | None = None

    def load(self) -> PromptTemplate:
        try:
            body = self.file.read_bytes().decode("utf-8")
        except OSError as exc:
            raise ConfigError(
                f"custom template {self.id!r}: cannot read {self.file}: {exc.strerror}"
            ) from exc
        return PromptTemplate(
            template_id=self.id,
            language=self.language,
            framing=self.framing,
            extraction=self.extraction,
            body=body,
            stop=self.stop if self.stop is not None else default_stop(self.framing, self.extraction),
            completion_prefix=self.completion_prefix,
        )


@dataclass(frozen=True)
class PostprocessSettings:
    pattern_file: Path | None = None


@dataclass(frozen=True)
class FilterSettings:
    scorer: Literal[SCORER_ASK_LLM, SCORER_EXTERNAL] = SCORER_ASK_LLM
    threshold: float = 0.6
    external_scores: Path | None = None


@dataclass(frozen=True)
class MixSourceSettings:
    name: str
    manifest: Path
    weight: float = 1.0


@dataclass(frozen=True)
class MixSettings:
    sources: tuple[MixSourceSettings, ...] = ()
    unit: Literal[UNIT_TOKENS, UNIT_DOCUMENTS] = UNIT_TOKENS
    target: float | None = None
    # None uses the pipeline seed.
    seed: int | None = None


@dataclass(frozen=True)
class PipelineConfig:
    config_dir: Path
    # load_config resolves relative paths, this default included,
    # against config_dir.
    work_dir: Path = Path("out")
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
    backend_kind: Literal["mock", "http"] = "mock"
    backend: BackendConfig = BackendConfig()
    mock: MockSettings = MockSettings()
    # backend.mock as written, which the fingerprint hashes.
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

    def regime(self) -> str:
        """The selected templates' extraction mode; `validate` checks they share one."""
        return self.registry().get(self.selected_template_ids()[0]).extraction

    def validate(self) -> None:
        registry = self.registry()
        modes = {tid: registry.get(tid).extraction for tid in self.selected_template_ids()}
        if len(set(modes.values())) > 1:
            raise ConfigError(
                f"selected templates mix extraction modes: {sorted(modes.items())}"
            )
        if self.template_by_lang:
            selected = {lang for lang, _ in self.template_by_lang}
            missing = set(self.languages) - selected
            if missing:
                raise ConfigError(
                    f"template selection covers no template for language(s) {sorted(missing)}"
                )
        if self.shard_size < 1:
            raise ConfigError(f"shard_size must be at least 1, got {self.shard_size}")
        if self.estimator.sample_size < 1:
            raise ConfigError(
                f"estimator.sample_size: must be at least 1, got {self.estimator.sample_size}"
            )
        pattern_file = self.postprocess.pattern_file
        # A missing file is left to the stages that read it.
        if pattern_file is not None and pattern_file.is_file():
            try:
                load_marker_patterns(pattern_file)
            except ValueError as exc:
                raise ConfigError(f"postprocess.pattern_file: {exc}") from exc
        if self.filter.scorer == SCORER_EXTERNAL and self.filter.external_scores is None:
            raise ConfigError("filter.external_scores: required when filter.scorer is external")
        for i, source in enumerate(self.mix.sources if self.mix else ()):
            if source.weight <= 0:
                raise ConfigError(f"mix.sources[{i}].weight: must be above 0, got {source.weight}")
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
                "id": t.id,
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
            # linebreak and sentence_end are no longer settings, as vote_k below.
            "split": {
                **dataclasses.asdict(self.split),
                "linebreak": "\n",
                "sentence_end": SENTENCE_END_PATTERN,
            },
            "estimator": dataclasses.asdict(self.estimator),
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
                # No longer settings; the constants keep the fingerprints of
                # existing manifests and checkpoints valid.
                "external_name": "external",
                "vote_k": 8,
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
    except (KeyError, TypeError, ValueError, PromptError) as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc
    return cfg


@functools.cache
def _field_types(cls: type) -> dict[str, object]:
    return typing.get_type_hints(cls)


def _convert(tp, value, where: str, base_dir: Path):
    """One YAML value as the field's type; a value of another type is refused.

    A dataclass is a section, named by its own key (``mix``, not
    ``config.mix``), and a tuple is a list of its item type.
    """
    if isinstance(tp, types.UnionType):  # X | None
        if value is None:
            return None
        (tp,) = (arg for arg in typing.get_args(tp) if arg is not type(None))
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return _section(tp, value, where.removeprefix("config."), base_dir)
    if origin is Literal:
        if value in args:
            return value
        raise ConfigError(f"{where}: expected one of {list(args)}, got {value!r}")
    if origin is tuple:
        if type(value) is not list:
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return tuple(_convert(args[0], v, f"{where}[{i}]", base_dir) for i, v in enumerate(value))
    if tp is float and type(value) in (int, float):
        if math.isnan(value):
            raise ConfigError(f"{where}: expected a number, got NaN")
        return float(value)
    if tp in (int, bool, str) and type(value) is tp:
        return value
    if tp is Path and type(value) is str and value:
        return base_dir / value
    raise ConfigError(f"{where}: expected {tp.__name__}, got {value!r}")


def _section(cls, mapping, name: str, base_dir: Path, **fixed):
    """Build dataclass ``cls`` from one config section.

    Every field not in ``fixed`` is a key the section may set; absent
    keys keep the field's default, and a field without one must be set.
    ``fixed`` holds the fields the caller builds itself.  An error the
    dataclass raises itself is named by the section.
    """
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{name}: expected a mapping, got {mapping!r}")
    hints = _field_types(cls)
    settable = [f for f in dataclasses.fields(cls) if f.init and f.name not in fixed]
    unknown = set(mapping) - {f.name for f in settable}
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {sorted(unknown)}")
    values = {}
    for f in settable:
        if f.name in mapping:
            values[f.name] = _convert(hints[f.name], mapping[f.name], f"{name}.{f.name}", base_dir)
        elif isinstance(f.default, Path):
            values[f.name] = base_dir / f.default
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{name}: no {f.name!r} key")
    try:
        return cls(**values, **fixed)
    except (ValueError, LookupError, re.error) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def config_from_obj(obj: Mapping, base_dir: Path) -> PipelineConfig:
    # An empty or null mix or custom_templates means none.
    top = {k: v for k, v in obj.items() if v or k not in ("mix", "custom_templates")}
    backend = top.get("backend", {})
    if not isinstance(backend, Mapping):
        raise ConfigError(f"backend: expected a mapping, got {backend!r}")
    # kind and mock are settings of their own next to the BackendConfig.
    top["backend"] = {k: v for k, v in backend.items() if k not in ("kind", "mock")}
    kind_type = _field_types(PipelineConfig)["backend_kind"]
    kind = _convert(kind_type, backend.get("kind", PipelineConfig.backend_kind), "backend.kind", base_dir)
    mock = backend.get("mock", {})

    template = top.pop("template", PipelineConfig.template_id)
    by_lang = template if isinstance(template, Mapping) else {}
    if not all(type(s) is str for s in ([*by_lang, *by_lang.values()] if by_lang else [template])):
        raise ConfigError(
            f"template: expected a template id or a mapping of languages to template ids, "
            f"got {template!r}"
        )

    return _section(
        PipelineConfig,
        top,
        "config",
        base_dir,
        config_dir=base_dir,
        template_id="" if by_lang else template,
        template_by_lang=tuple(sorted(by_lang.items())),
        backend_kind=kind,
        mock=_section(MockSettings, mock, "backend.mock", base_dir),
        mock_backend=mock,
    )
