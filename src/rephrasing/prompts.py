"""Prompt templates and rendering.

Template bodies live as UTF-8 data files under ``templates/`` with exact
bytes significant; a checksum test pins them.  Rendering substitutes the
passage verbatim into the single ``{text}`` placeholder and attaches the
stop sequences and sampling temperature for the completion endpoint.

Two extraction modes exist.  Legacy templates let the model end its
answer with the end-of-sequence marker and rely on pattern cleanup
afterwards.  Tagged templates end their assistant prefix inside an open
``<text>`` region, so the completion is everything up to the first
``</text>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable

from .splitting import Passage

MISTRAL_INST = "mistral_inst"
QWEN2_CHATML = "qwen2_chatml"
RAW = "raw"

LEGACY = "legacy"
TAGGED = "tagged"

TEXT_OPEN = "<text>"
TEXT_CLOSE = "</text>"

EOS_BY_FRAMING = {
    MISTRAL_INST: "</s>",
    QWEN2_CHATML: "<|im_end|>",
    RAW: "</s>",
}

DEFAULT_TEMPERATURE = 0.7


class PromptError(Exception):
    """Unknown template, malformed body, or unrenderable passage."""


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    language: str
    framing: str
    extraction: str
    body: str
    stop: tuple[str, ...]
    # Text the assistant prefix already contains that extraction must
    # restore so the rephrased output is self-contained (Qwen2 QA ends
    # its prefix with "Question:").
    completion_prefix: str = ""
    placeholder: str = "{text}"

    def __post_init__(self) -> None:
        if self.body.count(self.placeholder) != 1:
            raise PromptError(
                f"template {self.template_id!r} must contain {self.placeholder} exactly once"
            )


def default_stop(framing: str, extraction: str) -> tuple[str, ...]:
    eos = EOS_BY_FRAMING[framing]
    if extraction == TAGGED:
        return (TEXT_CLOSE, eos)
    return (eos,)


# template_id -> (language, framing, extraction, completion_prefix, placeholder)
_BUILTIN_SPECS: dict[str, tuple[str, str, str, str, str]] = {
    "toddler": ("en", MISTRAL_INST, LEGACY, "", "{text}"),
    "hard": ("en", MISTRAL_INST, LEGACY, "", "{text}"),
    "wiki": ("en", MISTRAL_INST, LEGACY, "", "{text}"),
    "qa": ("en", MISTRAL_INST, LEGACY, "", "{text}"),
    "qa_opt_en": ("en", MISTRAL_INST, TAGGED, "", "{text}"),
    "qa_opt_de": ("de", MISTRAL_INST, TAGGED, "", "{text}"),
    "qa_opt_it": ("it", MISTRAL_INST, TAGGED, "", "{text}"),
    "qa_opt_es": ("es", MISTRAL_INST, TAGGED, "", "{text}"),
    "qa_opt_qwen2": ("en", QWEN2_CHATML, TAGGED, "Question:\n", "{text}"),
    "ask_llm": ("en", RAW, LEGACY, "", "{document}"),
}

BUILTIN_TEMPLATE_IDS = tuple(_BUILTIN_SPECS)


def builtin_body(template_id: str) -> str:
    """Raw template file contents, exact bytes."""
    if template_id not in _BUILTIN_SPECS:
        raise PromptError(f"unknown template {template_id!r}")
    return (
        resources.files("rephrasing.templates")
        .joinpath(f"{template_id}.txt")
        .read_bytes()
        .decode("utf-8")
    )


@lru_cache(maxsize=None)
def load_builtin(template_id: str) -> PromptTemplate:
    language, framing, extraction, prefix, placeholder = _BUILTIN_SPECS[template_id]
    stop = ("\n",) if template_id == "ask_llm" else default_stop(framing, extraction)
    return PromptTemplate(
        template_id=template_id,
        language=language,
        framing=framing,
        extraction=extraction,
        body=builtin_body(template_id),
        stop=stop,
        completion_prefix=prefix,
        placeholder=placeholder,
    )


class TemplateRegistry:
    """All built-in templates plus any user-registered ones.

    Read-only after startup; register custom templates while wiring the
    pipeline, then share freely across workers.
    """

    def __init__(self, extra: Iterable[PromptTemplate] = ()):
        self._templates: dict[str, PromptTemplate] = {
            tid: load_builtin(tid) for tid in BUILTIN_TEMPLATE_IDS
        }
        for template in extra:
            self.register(template)

    def register(self, template: PromptTemplate) -> None:
        if template.template_id in self._templates:
            raise PromptError(f"template id {template.template_id!r} already registered")
        self._templates[template.template_id] = template

    def get(self, template_id: str) -> PromptTemplate:
        try:
            return self._templates[template_id]
        except KeyError:
            raise PromptError(f"unknown template {template_id!r}") from None

    def __contains__(self, template_id: str) -> bool:
        return template_id in self._templates

    def catalog(self, language: str | None = None) -> list[tuple[str, str, str]]:
        """(template_id, language, extraction mode) rows, optionally filtered."""
        rows = [
            (t.template_id, t.language, t.extraction)
            for t in self._templates.values()
            if language is None or t.language == language
        ]
        return sorted(rows)


def list_templates(
    registry: TemplateRegistry | None = None, language: str | None = None
) -> list[tuple[str, str, str]]:
    return (registry or TemplateRegistry()).catalog(language)


@dataclass(frozen=True)
class RenderedPrompt:
    """A passage inserted into a template, ready for the endpoint."""

    doc_id: str
    index: int
    template_id: str
    text: str
    stop: tuple[str, ...]
    temperature: float


def render(
    passage: Passage,
    template: PromptTemplate | str,
    temperature: float = DEFAULT_TEMPERATURE,
    registry: TemplateRegistry | None = None,
) -> RenderedPrompt:
    """Substitute the passage into the template verbatim."""
    if isinstance(template, str):
        template = (registry or TemplateRegistry()).get(template)
    _check_renderable(passage, template)
    return render_text(passage.doc_id, passage.index, passage.text, template, temperature)


def render_text(
    doc_id: str, index: int, text: str, template: PromptTemplate, temperature: float
) -> RenderedPrompt:
    """``render`` of the passage with these fields, which it takes: its
    text is not empty and the template is checked (``prompt_length``)."""
    return RenderedPrompt(
        doc_id=doc_id,
        index=index,
        template_id=template.template_id,
        text=template.body.replace("{text}", text),
        stop=template.stop,
        temperature=temperature,
    )


def rendered_length(passage: Passage, template: PromptTemplate) -> int:
    """``len(render(passage, template).text)``, refused where ``render``
    refuses, without building the prompt."""
    _check_renderable(passage, template)
    return prompt_length(template, len(passage.text))


def prompt_length(template: PromptTemplate, text_chars: int) -> int:
    """The length of the template's prompt for a text of ``text_chars``
    characters; refused unless it is a rephrasing template."""
    _check_template(template)
    return len(template.body) - len(template.placeholder) + text_chars


def tag_collision(passage: Passage, template: PromptTemplate) -> bool:
    """Whether the passage holds the closing tag a tagged template ends at."""
    return template.extraction == TAGGED and TEXT_CLOSE in passage.text


_TEXT_CLOSE_UTF8 = TEXT_CLOSE.encode("utf-8")


def tag_collision_in_json(quoted: bytes, template: PromptTemplate) -> bool:
    """``tag_collision`` for the passage whose text has the JSON string
    ``quoted`` (UTF-8, as ``json`` writes it with ``ensure_ascii`` off).
    The tag is in the string exactly when it is in the text: ``json``
    escapes none of its characters, and it cannot straddle an escape,
    since it holds no backslash, with which every escape starts, and
    its first character, "<", is none of those an escape goes on with."""
    return template.extraction == TAGGED and _TEXT_CLOSE_UTF8 in quoted


def _check_template(template: PromptTemplate) -> None:
    if template.placeholder != "{text}":
        raise PromptError(f"template {template.template_id!r} is not a rephrasing template")


def _check_renderable(passage: Passage, template: PromptTemplate) -> None:
    _check_template(template)
    if not passage.text:
        raise PromptError(f"passage {passage.doc_id}:{passage.index} has empty text")
