from __future__ import annotations

import hashlib
import random
import string
from pathlib import Path

import pytest

from rephrasing.prompts import (
    BUILTIN_TEMPLATE_IDS,
    LEGACY,
    TAGGED,
    PromptError,
    PromptTemplate,
    TemplateRegistry,
    builtin_body,
    list_templates,
    load_builtin,
    render,
    tag_collision,
)
from rephrasing.quality import render_scoring_prompt
from rephrasing.splitting import Passage

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

SENTINEL = Passage("golden", 0, "The sky is blue. Water is wet.", 7.75)

# Byte checksums of the template files; any drift in the stored
# templates is a regression.
TEMPLATE_SHA256 = {
    "toddler": "2370dd40347acd7a86599b4cc8859a9bb6a24128d2ec7adb72bfb3c526aeaec6",
    "hard": "b45b9e9c54202ba2be18b0c98c4b6c102dfe827d43a92e9dd6f5d2c02a8a6ecd",
    "wiki": "136564c8c08bcaba2601d429e22b7ea09911077fb8487e043fcdf09cf185c223",
    "qa": "eea4c826c294cf2dd7bd6d4a153617109dfa58660439f082c996d8705a0f287e",
    "qa_opt_en": "16ba4b0a5635b7e6e7dc947d441d6eaa49bed7bf4a456ba69608f9bb585265be",
    "qa_opt_de": "f089eca74461e37e7ac0077ef898160f7c91fc9eb281194d17073809063c3bdc",
    "qa_opt_it": "2cb90eaa75e64c6ec72f3da2448fc6e1d102492ad95331d2fd2d8ec178f480ba",
    "qa_opt_es": "1529509d98550003ca07545f2e6a5477fdf7032473be6be319f84a02b2793624",
    "qa_opt_qwen2": "bd26e30822d3f9fd61e2fdce757fa286063883dbd719ba2e29acd80726140222",
    "ask_llm": "49e1abae0130a896acd283942f1ce3eee66c0433f0983b195aab46c58319433f",
}


def golden_prompt(template_id: str) -> str:
    if template_id == "ask_llm":
        return render_scoring_prompt(SENTINEL.text)
    return render(SENTINEL, load_builtin(template_id)).text


class TestTemplateFidelity:
    @pytest.mark.parametrize("template_id", BUILTIN_TEMPLATE_IDS)
    def test_checksums(self, template_id):
        body = builtin_body(template_id)
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        assert digest == TEMPLATE_SHA256[template_id]

    @pytest.mark.parametrize("template_id", BUILTIN_TEMPLATE_IDS)
    def test_golden_render_byte_for_byte(self, template_id):
        expected = (GOLDEN_DIR / f"{template_id}.txt").read_bytes()
        assert golden_prompt(template_id).encode("utf-8") == expected

    def test_placeholder_exactly_once(self):
        for template_id in BUILTIN_TEMPLATE_IDS:
            template = load_builtin(template_id)
            assert template.body.count(template.placeholder) == 1

    def test_ask_llm_has_options_slot(self):
        assert builtin_body("ask_llm").count("{options}") == 1


class TestRender:
    def test_qa_prompt_shape(self):
        prompt = render(Passage("d", 0, "The sky is blue.", 4.0), "qa").text
        assert prompt.startswith("<s>[INST]A chat between a curious user")
        assert (
            'Convert the following paragraph into a conversational format with '
            'multiple tags of "Question:" followed by "Answer":' in prompt
        )
        assert prompt.index("The sky is blue.") > prompt.index('"Answer":')

    def test_qa_opt_en_shape(self):
        prompt = render(SENTINEL, "qa_opt_en").text
        assert "* Rephrase the text into a dialogue format" in prompt
        assert f"<text>\n{SENTINEL.text}\n</text>" in prompt
        assert prompt.endswith("Rephrased text:\n<text>")

    def test_qa_opt_qwen2_assistant_prefix(self):
        prompt = render(SENTINEL, "qa_opt_qwen2").text
        assert "Rephrased text:\n<text>\nQuestion:" in prompt
        assert prompt.startswith("<|im_start|>system")

    def test_passage_text_verbatim(self):
        passage = Passage("d", 0, 'Tricky "quotes" & <tags>\nand a newline.', 10.0)
        for template_id in BUILTIN_TEMPLATE_IDS:
            if template_id == "ask_llm":
                continue
            assert passage.text in render(passage, template_id).text

    def test_temperature_default_and_override(self):
        assert render(SENTINEL, "qa").temperature == 0.7
        assert render(SENTINEL, "qa", temperature=0.0).temperature == 0.0

    def test_stop_sequences_by_mode(self):
        assert render(SENTINEL, "qa").stop == ("</s>",)
        assert render(SENTINEL, "qa_opt_en").stop == ("</text>", "</s>")
        assert render(SENTINEL, "qa_opt_qwen2").stop == ("</text>", "<|im_end|>")

    def test_unknown_template(self):
        with pytest.raises(PromptError):
            render(SENTINEL, "nonexistent")

    def test_empty_passage_rejected(self):
        with pytest.raises(PromptError):
            render(Passage("d", 0, "", 0.0), "qa")

    def test_tag_collision_flagged_but_rendered(self):
        passage = Passage("d", 0, "text with a literal </text> inside.", 9.0)
        assert tag_collision(passage, load_builtin("qa_opt_en"))
        assert passage.text in render(passage, "qa_opt_en").text
        assert not tag_collision(passage, load_builtin("qa"))

    def test_injective_on_passage_text(self):
        rng = random.Random(0)
        texts = {
            "".join(rng.choice(string.ascii_letters + " .") for _ in range(40))
            for _ in range(200)
        }
        prompts = {render(Passage("d", 0, t, 10.0), "qa_opt_en").text for t in texts}
        assert len(prompts) == len(texts)

    def test_tagged_prompts_end_inside_open_text_region(self):
        for template_id in BUILTIN_TEMPLATE_IDS:
            template = load_builtin(template_id)
            if template.extraction != TAGGED:
                continue
            prompt = render(SENTINEL, template).text
            assert prompt.count("<text>") == prompt.count("</text>") + 1
            assert prompt.rfind("<text>") > prompt.rfind("</text>")

    def test_scoring_template_not_renderable_as_rephrase(self):
        with pytest.raises(PromptError):
            render(SENTINEL, "ask_llm")


class TestRegistry:
    def test_ten_builtins(self):
        assert len(list_templates()) == 10

    def test_register_custom_makes_eleven(self):
        registry = TemplateRegistry()
        registry.register(
            PromptTemplate(
                template_id="qa_opt_fr",
                language="fr",
                framing="mistral_inst",
                extraction=TAGGED,
                body="<s>[INST]Reformule:\n<text>\n{text}\n</text>[/INST]\n<text>",
                stop=("</text>", "</s>"),
            )
        )
        assert len(registry.catalog()) == 11
        assert "qa_opt_fr" in registry

    def test_duplicate_registration_rejected(self):
        registry = TemplateRegistry()
        with pytest.raises(PromptError):
            registry.register(load_builtin("qa"))

    def test_language_filter_german(self):
        rows = list_templates(language="de")
        assert [r[0] for r in rows] == ["qa_opt_de"]

    def test_catalog_modes(self):
        modes = dict((tid, mode) for tid, _, mode in list_templates())
        assert modes["qa"] == LEGACY
        assert modes["qa_opt_en"] == TAGGED

    def test_bad_body_rejected(self):
        with pytest.raises(PromptError):
            PromptTemplate(
                template_id="broken",
                language="en",
                framing="mistral_inst",
                extraction=LEGACY,
                body="no placeholder here",
                stop=("</s>",),
            )
