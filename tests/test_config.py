from __future__ import annotations

import math
import re
from pathlib import Path

import pytest
import yaml

from rephrasing.cli import main
from rephrasing.config import ConfigError, load_config

from conftest import make_docs, write_fixture_config


def test_load_defaults(tmp_path):
    cfg = load_config(write_fixture_config(tmp_path, make_docs(3)))
    assert cfg.template_id == "qa_opt_en"
    assert cfg.split.max_tokens == 350
    assert cfg.split.min_tokens == 50
    assert cfg.temperature == 0.7
    assert cfg.regime() == "tagged"
    assert cfg.work_dir == tmp_path / "work"


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("```yaml\n", readme.index("### Config")) + len("```yaml\n")
    example = readme[start : readme.index("```\n", start)]
    path = tmp_path / "config.yaml"
    path.write_text(example, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.work_dir == tmp_path / "out"
    assert cfg.backend_kind == "http"


def test_fingerprint_stable_across_loads(tmp_path):
    path = write_fixture_config(tmp_path, make_docs(3))
    assert load_config(path).fingerprint() == load_config(path).fingerprint()


def test_fingerprint_changes_with_split_params(tmp_path):
    base = load_config(write_fixture_config(tmp_path, make_docs(3)))
    changed = load_config(
        write_fixture_config(
            tmp_path, make_docs(3), extra={"split": {"max_tokens": 300}}, name="other.yaml"
        )
    )
    assert base.fingerprint() != changed.fingerprint()


def test_unknown_key_rejected(tmp_path):
    path = write_fixture_config(tmp_path, make_docs(3), extra={"sparkles": True})
    with pytest.raises(ConfigError, match="sparkles"):
        load_config(path)


def test_vote_k_refused_as_unknown(tmp_path):
    # A vote-scored document costs one request at temperature 0.
    path = write_fixture_config(tmp_path, make_docs(3), extra={"filter": {"vote_k": 8}})
    with pytest.raises(ConfigError, match=r"unknown key\(s\) in filter: \['vote_k'\]"):
        load_config(path)


@pytest.mark.parametrize("key, value", [("linebreak", "\r"), ("sentence_end", r"[.]\s+")])
def test_split_patterns_refused_as_unknown(tmp_path, key, value):
    # Text is always split at "\n" and at SENTENCE_END_PATTERN.
    path = write_fixture_config(tmp_path, make_docs(3), extra={"split": {key: value}})
    with pytest.raises(ConfigError, match=rf"unknown key\(s\) in split: \['{key}'\]"):
        load_config(path)
    assert main(["preprocess", "-c", str(path)]) == 1


def test_postprocess_regime_refused_as_unknown(tmp_path):
    # The regime is always derived from the selected templates.
    path = write_fixture_config(
        tmp_path, make_docs(3), template="qa", extra={"postprocess": {"regime": "legacy"}}
    )
    with pytest.raises(ConfigError, match=r"unknown key\(s\) in postprocess: \['regime'\]"):
        load_config(path)


@pytest.mark.parametrize(
    "where, extra",
    [
        # Each was reshaped by the loader into a value with another meaning.
        ("config.languages", {"languages": "en"}),
        ("config.seed", {"seed": 1.9}),
        ("estimator.per_language", {"estimator": {"per_language": "false"}}),
        ("estimator.exact_endpoint", {"estimator": {"exact_endpoint": 12}}),
        ("config.input_manifest", {"input_manifest": ""}),
        (
            "custom_templates[0].stop",
            {"custom_templates": [{"id": "c1", "file": "c.txt", "stop": "STOP"}]},
        ),
        ("backend.mock.model_id", {"backend": {"kind": "mock", "mock": {"model_id": 7}}}),
        ("backend.mock.auth_fail", {"backend": {"kind": "mock", "mock": {"auth_fail": "false"}}}),
        ("backend.mock.fail_first", {"backend": {"kind": "mock", "mock": {"fail_first": "2"}}}),
        (
            "backend.mock.default_response",
            {"backend": {"kind": "mock", "mock": {"default_response": 5}}},
        ),
        (
            "backend.mock.logprob_rules[0].yes",
            {"backend": {"mock": {"logprob_rules": [{"pattern": "x", "yes": "x", "no": -1.0}]}}},
        ),
        ("custom_templates[0].id", {"custom_templates": [{"id": 7, "file": "c.txt"}]}),
    ],
)
def test_mistyped_value_refused(tmp_path, capsys, where, extra):
    (tmp_path / "c.txt").write_text("{text}", encoding="utf-8")
    path = write_fixture_config(tmp_path, make_docs(3), extra=extra)
    with pytest.raises(ConfigError, match=re.escape(f"{where}: expected ")):
        load_config(path)
    assert main(["preprocess", "-c", str(path)]) == 1
    assert where in capsys.readouterr().err


# Marker pattern files that postprocess cannot use; each passed the
# config and then kept one random line, stripped every space, or
# failed after the paid rephrase.
PATTERN_FILES = {
    "comments.txt": b"# headers of a new model\n\n",
    "empty_match.txt": b"Rewrite\\s*:\n\\s*\n",
    "unclosed.txt": b"(unclosed\n",
    "latin1.txt": "R\u00e9sum\u00e9\\s*:\n".encode("latin-1"),
    "same_group.txt": b"(?P<n>Option)\\s*:\n(?P<n>Version)\\s*:\n",
    "numbered_ref.txt": b"(P)araphrase\\s*:\n(O)ption \\1\\s*:\n",
}


@pytest.mark.parametrize(
    "message, extra",
    [
        (
            "unknown key(s) in backend.mock: ['rule']",
            {"backend": {"kind": "mock", "mock": {"rule": [{"pattern": "a", "response": "b"}]}}},
        ),
        (
            "custom_templates[0].framing: expected one of ",
            {"custom_templates": [{"id": "c1", "file": "c.txt", "framing": "bogus"}]},
        ),
        ("mix.sources[0]: no 'manifest' key", {"mix": {"sources": [{"name": "o"}]}}),
        ("backend: max_in_flight must be >= 1", {"backend": {"max_in_flight": 0}}),
        (
            "backend.mock.logprob_rules[0]: missing ), unterminated subpattern",
            {"backend": {"mock": {"logprob_rules": [{"pattern": "(x", "yes": 0, "no": -1}]}}},
        ),
        (
            "postprocess.pattern_file: no pattern; blank lines and # comments are ignored",
            {"postprocess": {"pattern_file": "comments.txt"}},
        ),
        (
            r"postprocess.pattern_file: line 2: '\\s*' matches the empty string",
            {"postprocess": {"pattern_file": "empty_match.txt"}},
        ),
        (
            "postprocess.pattern_file: line 1: '(unclosed' does not compile: missing ), ",
            {"postprocess": {"pattern_file": "unclosed.txt"}},
        ),
        (
            "postprocess.pattern_file: not UTF-8: 'utf-8' codec can't decode byte 0xe9",
            {"postprocess": {"pattern_file": "latin1.txt"}},
        ),
        (
            "postprocess.pattern_file: the patterns do not compile as one alternation: "
            "redefinition of group name 'n'",
            {"postprocess": {"pattern_file": "same_group.txt"}},
        ),
        (
            r"postprocess.pattern_file: line 2: '(O)ption \\1\\s*:' refers to a group by number",
            {"postprocess": {"pattern_file": "numbered_ref.txt"}},
        ),
        ("filter.threshold: expected a number, got NaN", {"filter": {"threshold": math.nan}}),
        ("config.temperature: expected a number, got NaN", {"temperature": math.nan}),
        (
            "mix.sources[0].weight: expected a number, got NaN",
            {"mix": {"sources": [{"name": "o", "manifest": "input/manifest.json", "weight": math.nan}]}},
        ),
        (
            "backend.mock.logprob_rules[0].no: expected a number, got NaN",
            {"backend": {"mock": {"logprob_rules": [{"pattern": "x", "yes": 0.0, "no": math.nan}]}}},
        ),
    ],
    ids=[
        "unknown_mock_key",
        "framing",
        "no_manifest",
        "post_init",
        "logprob_pattern",
        "pattern_file_comments_only",
        "pattern_file_empty_match",
        "pattern_file_unclosed",
        "pattern_file_not_utf8",
        "pattern_file_group_twice",
        "pattern_file_group_by_number",
        "threshold_nan",
        "temperature_nan",
        "mix_weight_nan",
        "logprob_nan",
    ],
)
def test_bad_list_entry_or_section_refused_before_any_work(tmp_path, capsys, message, extra):
    (tmp_path / "c.txt").write_text("{text}", encoding="utf-8")
    for name, body in PATTERN_FILES.items():
        (tmp_path / name).write_bytes(body)
    path = write_fixture_config(tmp_path, make_docs(3), extra=extra)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path)
    assert main(["run-all", "-c", str(path)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "work").exists()


def test_infinite_numbers_accepted(tmp_path):
    # -inf is a log-probability, and a threshold over external logits.
    extra = {
        "filter": {"threshold": -math.inf},
        "backend": {"mock": {"logprob_rules": [{"pattern": "x", "yes": 0.0, "no": -math.inf}]}},
    }
    cfg = load_config(write_fixture_config(tmp_path, make_docs(3), extra=extra))
    assert cfg.filter.threshold == -math.inf
    assert cfg.mock.logprob_rules[0].no == -math.inf


@pytest.mark.parametrize(
    "extra",
    [{"mix": {}}, {"mix": None}, {"custom_templates": None}, {"custom_templates": []}],
    ids=["mix_empty", "mix_null", "custom_templates_null", "custom_templates_empty"],
)
def test_empty_optional_section_means_absent(tmp_path, extra):
    cfg = load_config(write_fixture_config(tmp_path, make_docs(3), extra=extra))
    assert (cfg.mix, cfg.custom_templates) == (None, ())
    assert cfg.fingerprint() == "4d6691d1a42ffd36"


@pytest.mark.parametrize(
    "where, extra",
    [
        # Each was accepted and failed, or changed a result's meaning, later.
        ("filter.scorer", {"filter": {"scorer": "externl", "threshold": 0.6}}),
        ("mix.unit", {"mix": {"unit": "token", "sources": []}}),
        ("backend.endpoint", {"backend": {"kind": "http", "endpoint": "ftp://example.org/v1"}}),
        ("estimator.sample_size", {"estimator": {"default_ratio": 0.25, "sample_size": 0}}),
        ("filter.external_scores", {"filter": {"scorer": "external", "threshold": 2.5}}),
        (
            "mix.sources[0].weight",
            {"mix": {"sources": [{"name": "o", "manifest": "input/manifest.json", "weight": 0}]}},
        ),
    ],
)
def test_out_of_range_value_refused(tmp_path, capsys, where, extra):
    path = write_fixture_config(tmp_path, make_docs(3), extra=extra)
    with pytest.raises(ConfigError, match=re.escape(f"{where}: ")):
        load_config(path)
    assert main(["preprocess", "-c", str(path)]) == 1
    assert f"config error: {where}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        {"filter": {"scorer": "external", "threshold": 2.5, "external_scores": "s.jsonl"}},
        {"mix": {"unit": "documents", "sources": []}},
        {"estimator": {"sample_size": 1}},
    ],
    ids=["external", "documents", "one_sample"],
)
def test_in_range_values_accepted(tmp_path, extra):
    load_config(write_fixture_config(tmp_path, make_docs(3), extra=extra))


def test_fingerprints_pinned(tmp_path):
    # Manifests and checkpoints written by earlier versions carry these;
    # a loader change that moves them would make every resume start over.
    assert load_config(write_fixture_config(tmp_path, make_docs(3))).fingerprint() == (
        "4d6691d1a42ffd36"
    )
    legacy = write_fixture_config(tmp_path, make_docs(3), template="qa", name="qa.yaml")
    assert load_config(legacy).fingerprint() == "e84d8fefd6bbb711"


def test_missing_pattern_file_left_to_the_stages(tmp_path, capsys):
    extra = {"postprocess": {"pattern_file": "nope.txt"}}
    path = write_fixture_config(tmp_path, make_docs(3), extra=extra)
    load_config(path)
    assert main(["preprocess", "-c", str(path)]) == 2
    assert "data error: " in capsys.readouterr().err


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.yaml")


def test_http_backend_requires_endpoint(tmp_path):
    path = write_fixture_config(tmp_path, make_docs(3), extra={"backend": {"kind": "http"}})
    with pytest.raises(ConfigError, match="endpoint"):
        load_config(path)


@pytest.mark.parametrize(
    "section, key, url",
    [
        ("backend", "endpoint", "localhost:8000/v1/completions"),
        ("backend", "endpoint", "ftp://example.org/v1/completions"),
        ("backend", "endpoint", "http:///v1/completions"),
        ("backend", "endpoint", "http://host:port/v1/completions"),
        ("backend", "endpoint", "http://host/v1/chat completions"),
        ("backend", "endpoint", "http://h\u00f6st/v1/completions"),
        ("estimator", "exact_endpoint", "127.0.0.1:9000/tokenize"),
    ],
)
def test_endpoint_must_be_http_url_with_host(tmp_path, section, key, url):
    extra = {
        "backend": {"kind": "http", "endpoint": "https://llm.example.org/v1/completions"},
        "estimator": {"exact_endpoint": "http://127.0.0.1:9000/tokenize"},
    }
    extra[section][key] = url
    path = write_fixture_config(tmp_path, make_docs(3), extra=extra)
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        load_config(path)
    extra[section][key] = "http://127.0.0.1:9000/ok"
    load_config(write_fixture_config(tmp_path, make_docs(3), extra=extra, name="ok.yaml"))


def test_custom_template_loaded_and_fingerprinted(tmp_path):
    body = "<s>[INST]Riformula:\n<text>\n{text}\n</text>[/INST]\n<text>"
    template_file = tmp_path / "custom.txt"
    template_file.write_text(body, encoding="utf-8")
    path = write_fixture_config(
        tmp_path,
        make_docs(3),
        extra={
            "custom_templates": [
                {
                    "id": "qa_custom",
                    "file": "custom.txt",
                    "language": "it",
                    "framing": "mistral_inst",
                    "extraction": "tagged",
                }
            ],
            "template": "qa_custom",
        },
    )
    cfg = load_config(path)
    assert cfg.registry().get("qa_custom").body == body
    fingerprint = cfg.fingerprint()
    template_file.write_text(body + " ", encoding="utf-8")
    assert load_config(path).fingerprint() != fingerprint


def test_missing_custom_template_file_is_a_config_error(tmp_path):
    path = write_fixture_config(
        tmp_path, make_docs(3), extra={"custom_templates": [{"id": "c", "file": "missing.txt"}]}
    )
    with pytest.raises(ConfigError, match="custom template 'c'") as exc_info:
        load_config(path)
    assert str(tmp_path / "missing.txt") in str(exc_info.value)


@pytest.mark.parametrize(
    "template",
    ["nope", {"en": "qa_opt_en", "de": "nope", "es": "qa_opt_es", "it": "qa_opt_it"}],
    ids=["single", "per_language"],
)
def test_unknown_template_is_a_config_error(tmp_path, template):
    path = write_fixture_config(tmp_path, make_docs(3), extra={"template": template})
    with pytest.raises(ConfigError, match="unknown template 'nope'"):
        load_config(path)


def test_shard_size_below_one_refused(tmp_path):
    path = write_fixture_config(tmp_path, make_docs(3), extra={"shard_size": 0})
    with pytest.raises(ConfigError, match="shard_size must be at least 1"):
        load_config(path)


def test_custom_template_stop_override(tmp_path):
    template_file = tmp_path / "c.txt"
    template_file.write_text("X {text} Y\n<text>", encoding="utf-8")
    path = write_fixture_config(
        tmp_path,
        make_docs(3),
        extra={
            "custom_templates": [
                {
                    "id": "c1",
                    "file": "c.txt",
                    "framing": "raw",
                    "extraction": "tagged",
                    "stop": ["</text>", "STOP"],
                }
            ]
        },
    )
    cfg = load_config(path)
    assert cfg.registry().get("c1").stop == ("</text>", "STOP")


def test_template_mapping_parsed(tmp_path):
    mapping = {"en": "qa_opt_en", "de": "qa_opt_de", "es": "qa_opt_es", "it": "qa_opt_it"}
    path = write_fixture_config(tmp_path, make_docs(3), extra={"template": mapping})
    cfg = load_config(path)
    assert cfg.template_id_for("de") == "qa_opt_de"
    assert set(cfg.selected_template_ids()) == set(mapping.values())
    assert cfg.regime() == "tagged"
    single = load_config(write_fixture_config(tmp_path, make_docs(3), name="s.yaml"))
    assert cfg.fingerprint() != single.fingerprint()


def test_mix_seed_in_fingerprint(tmp_path):
    mix = {
        "sources": [{"name": "a", "manifest": "input/manifest.json", "weight": 1.0}],
        "seed": 5,
    }
    seeded = load_config(
        write_fixture_config(tmp_path, make_docs(3), extra={"mix": mix}, name="m1.yaml")
    )
    mix_other = {**mix, "seed": 6}
    other = load_config(
        write_fixture_config(tmp_path, make_docs(3), extra={"mix": mix_other}, name="m2.yaml")
    )
    assert seeded.fingerprint() != other.fingerprint()


def test_relative_paths_resolve_against_config_dir(tmp_path):
    path = write_fixture_config(tmp_path, make_docs(3))
    cfg = load_config(path)
    assert cfg.input_manifest == tmp_path / "input" / "manifest.json"


def test_yaml_syntax_error(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("foo: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_root_must_be_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text(yaml.safe_dump([1, 2, 3]), encoding="utf-8")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(path)
