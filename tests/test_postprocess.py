from __future__ import annotations

import random
import string

import pytest

from rephrasing.corpus import Provenance
from rephrasing.postprocess import (
    DEFAULT_MARKER_PATTERNS,
    DOC_DROP_NO_PASSAGES,
    DOC_DROP_TOO_SHORT,
    REJECT_EMPTY,
    REJECT_TOO_LONG,
    REJECT_TOO_SHORT,
    REJECT_TRUNCATED_ALPHA,
    CleanedPassage,
    assemble_document,
    clean_legacy,
    clean_passage,
    extract_tagged,
    filter_verdict,
    load_marker_patterns,
)
from rephrasing.postprocess import _line_start_matches, _marker_line_re

REPHRASED = Provenance.rephrased("qa", "mock")


class TestExtractTagged:
    def test_first_close_cuts(self):
        assert extract_tagged("Hello world.\n</text> trailing junk") == "Hello world."

    def test_missing_close_returns_whole(self):
        raw = "no closing tag here"
        text = extract_tagged(raw)
        assert text == raw
        # Downstream the truncation filter rejects it: ends alphabetic.
        assert filter_verdict(text) == REJECT_TOO_SHORT or text[-1].isalpha()

    def test_first_pair_rule(self):
        assert extract_tagged("A.</text>B.</text>") == "A."

    def test_whitespace_trimmed(self):
        assert extract_tagged("  spaced.  \n</text>") == "spaced."

    def test_prefix_reprepended(self):
        raw = "What is X?\nAnswer: Y.\n</text>"
        assert extract_tagged(raw, "Question:\n") == "Question:\nWhat is X?\nAnswer: Y."

    def test_empty_completion_gets_no_prefix(self):
        assert extract_tagged("   </text>", "Question:\n") == ""

    def test_round_trip_property(self):
        rng = random.Random(1)
        alphabet = string.ascii_letters + string.digits + " .!?\n"
        for _ in range(500):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 200))).strip()
            if not s or "</text>" in s:
                continue
            junk = "".join(rng.choice(alphabet) for _ in range(20))
            assert extract_tagged(s + "</text>" + junk) == s


class TestCleanLegacy:
    def test_single_marker_stripped(self):
        assert clean_legacy("Paraphrase: The cat sat.") == "The cat sat."

    def test_eos_artifact_stripped(self):
        assert clean_legacy("The dog ran.</s>") == "The dog ran."

    def test_plain_text_untouched(self):
        assert clean_legacy("Nothing special at all.") == "Nothing special at all."

    def test_two_blocks_deterministic_choice(self):
        raw = "Paraphrase 1: First version.\nParaphrase 2: Second version."
        picks = {clean_legacy(raw, seed=9, doc_id="d", index=0) for _ in range(10)}
        assert len(picks) == 1
        assert picks.pop() in {"First version.", "Second version."}

    def test_choice_varies_with_key(self):
        raw = "Paraphrase 1: AAAA.\nParaphrase 2: BBBB."
        picks = {
            clean_legacy(raw, seed=0, doc_id=f"d{i}", index=i) for i in range(40)
        }
        assert picks == {"AAAA.", "BBBB."}

    def test_named_markers_split(self):
        raw = (
            "Toddler-friendly paraphrase: Simple words.\n"
            "Erudite paraphrase: Sesquipedalian locution."
        )
        out = clean_legacy(raw, seed=1, doc_id="x", index=2)
        assert out in {"Simple words.", "Sesquipedalian locution."}

    def test_marker_inside_survivor_stripped(self):
        raw = "Some text. Paraphrase: more text.</s>"
        assert "Paraphrase:" not in clean_legacy(raw)

    def test_only_marker_yields_empty(self):
        assert clean_legacy("Paraphrase:") == ""

    def test_no_pattern_refused(self):
        with pytest.raises(ValueError, match="no marker pattern"):
            clean_legacy("Paraphrase: text.", patterns=())


class TestLineStartMatches:
    """The marker scan returns exactly what ``finditer`` returns."""

    PIECES = (
        "Paraphrase 1:", "Paraphrase\n3\n:", "Paraphrase:", "Option 2 :", "Erudite paraphrase:",
        "Toddler-friendly paraphrase :", "x", "xa", " ", "\t", " \t", "\n", "\n", "\r\n",
        "Some words.", "ab", ".", "",
    )
    PATTERN_SETS = (
        DEFAULT_MARKER_PATTERNS,
        # Each can match empty: greedy, whitespace-only and lazy.
        ("x?",),
        (r"\s*",),
        ("x??",),
        (r"Paraphrase\s*:", "x?"),
    )

    @staticmethod
    def spans(matches):
        return [(m.span(), m.group()) for m in matches]

    @pytest.mark.parametrize("patterns", PATTERN_SETS, ids=["builtin", "x?", "ws*", "x??", "mixed"])
    def test_fuzzed_completions_match_finditer(self, patterns):
        marker = _marker_line_re(patterns)
        rng = random.Random(17)
        texts = ["", "\n", "xa", "a\nx", "Paraphrase 1: a\nParaphrase\n2\n: b"]
        texts += ["".join(rng.choices(self.PIECES, k=rng.randint(1, 24))) for _ in range(3000)]
        for text in texts:
            expected = self.spans(marker.finditer(text))
            assert self.spans(_line_start_matches(marker, text)) == expected, text


class TestFilterVerdict:
    def test_49_chars_too_short(self):
        assert filter_verdict("x" * 48 + ".") == REJECT_TOO_SHORT

    def test_truncated_alpha(self):
        assert filter_verdict("x" * 60) == REJECT_TRUNCATED_ALPHA

    def test_accepted(self):
        assert filter_verdict("x" * 59 + ".") is None

    def test_boundaries_inclusive(self):
        assert filter_verdict("x" * 49 + ".") is None  # exactly 50
        assert filter_verdict("y" * 4999 + ".") is None  # exactly 5000
        assert filter_verdict("y" * 5000 + ".") == REJECT_TOO_LONG

    def test_unicode_letters_count_as_alphabetic(self):
        assert filter_verdict("x" * 59 + "ñ") == REJECT_TRUNCATED_ALPHA
        assert filter_verdict("x" * 59 + "ß") == REJECT_TRUNCATED_ALPHA

    def test_digits_and_punctuation_accepted_at_end(self):
        assert filter_verdict("x" * 59 + "7") is None
        assert filter_verdict("x" * 59 + "?") is None

    def test_empty(self):
        assert filter_verdict("") == REJECT_EMPTY


class TestCleanPassage:
    def test_tagged_accept(self):
        raw = "Question: Why?\nAnswer: Because of the thing we said.\n</text>"
        cleaned = clean_passage("d", 0, raw, "tagged")
        assert cleaned.accepted
        assert cleaned.text.endswith(".")

    def test_legacy_reject_truncated(self):
        cleaned = clean_passage("d", 0, "Paraphrase: " + "word " * 20 + "cut", "legacy")
        assert cleaned.rejection == REJECT_TRUNCATED_ALPHA

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            clean_passage("d", 0, "raw", "hybrid")

    def test_totality_every_input_gets_one_verdict(self):
        rng = random.Random(3)
        alphabet = string.ascii_letters + " .!?\n<>/"
        for regime in ("tagged", "legacy"):
            for _ in range(300):
                raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 300)))
                cleaned = clean_passage("d", 0, raw, regime)
                assert (cleaned.rejection is None) == cleaned.accepted
                if cleaned.accepted:
                    assert 50 <= len(cleaned.text) <= 5000
                    assert not cleaned.text[-1].isalpha()


class TestAssembleDocument:
    def make(self, i, text, rejection=None):
        return CleanedPassage("doc", i, text, rejection)

    def test_three_80_char_passages(self):
        passages = [self.make(i, "y" * 79 + ".") for i in range(3)]
        doc, reason = assemble_document(passages, lang="en", provenance=REPHRASED)
        assert reason is None
        assert len(doc.text) == 242  # 80*3 + 2 newlines
        assert doc.text.count("\n") == 2
        assert doc.provenance.kind == "rephrased"

    def test_all_rejected_drops(self):
        passages = [self.make(0, "", REJECT_EMPTY), self.make(1, "x", REJECT_TOO_SHORT)]
        doc, reason = assemble_document(passages, lang="en", provenance=REPHRASED)
        assert doc is None
        assert reason == DOC_DROP_NO_PASSAGES

    def test_90_char_doc_dropped(self):
        passages = [self.make(0, "z" * 89 + ".")]
        doc, reason = assemble_document(passages, lang="en", provenance=REPHRASED)
        assert doc is None
        assert reason == DOC_DROP_TOO_SHORT

    def test_passages_ordered_by_index(self):
        passages = [self.make(1, "b" * 79 + "."), self.make(0, "a" * 79 + ".")]
        doc, _ = assemble_document(passages, lang="en", provenance=REPHRASED)
        assert doc.text.startswith("a")

    def test_rejected_passages_excluded_from_text(self):
        passages = [
            self.make(0, "a" * 79 + "."),
            self.make(1, "bad passage", REJECT_TOO_SHORT),
            self.make(2, "c" * 79 + "."),
        ]
        doc, _ = assemble_document(passages, lang="en", provenance=REPHRASED)
        assert "bad passage" not in doc.text
        assert len(doc.text) == 161  # 80*2 + 1 newline


def test_load_marker_patterns(tmp_path):
    path = tmp_path / "patterns.txt"
    path.write_text(
        "# model-specific headers\nRewrite\\s*:\n\nParaphrase\\s*:\n", encoding="utf-8"
    )
    patterns = load_marker_patterns(path)
    assert patterns == ("Rewrite\\s*:", "Paraphrase\\s*:")
    assert clean_legacy("Rewrite: Fresh text.", patterns=patterns) == "Fresh text."


MARKED_TWICE = "Option O: first text.\nOption O: second text."


@pytest.mark.parametrize(
    "second", [r"(O)ption \1\s*:", r"(O)?ption(?(1) O)\s*:"], ids=["backreference", "condition"]
)
def test_later_pattern_referring_to_a_group_by_number_refused(tmp_path, second):
    path = tmp_path / "patterns.txt"
    path.write_text(f"(P)araphrase\\s*:\n{second}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"line 2: .* refers to a group by number"):
        load_marker_patterns(path)
    # Alone, or first, the pattern's numbers are its own.
    path.write_text(f"{second}\n(P)araphrase\\s*:\n", encoding="utf-8")
    assert clean_legacy(MARKED_TWICE, patterns=load_marker_patterns(path)) == "first text."


def test_later_pattern_referring_to_a_group_by_name_splits(tmp_path):
    path = tmp_path / "patterns.txt"
    path.write_text("(P)araphrase\\s*:\n(?P<o>O)ption (?P=o)\\s*:\n", encoding="utf-8")
    assert clean_legacy(MARKED_TWICE, patterns=load_marker_patterns(path)) == "first text."
