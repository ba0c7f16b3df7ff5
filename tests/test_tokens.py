from __future__ import annotations

import json
import random
import re

import pytest

from rephrasing.corpus import CorpusError, Document
from rephrasing.tokens import (
    RATIO_QUANTUM,
    CalibrationError,
    TokenEstimator,
    calibrate,
    quantize_ratio,
)


def doc(text: str, lang: str = "en", i: int = 0) -> Document:
    return Document(id=f"d{i}", text=text, lang=lang)


class TestCalibrate:
    def test_ratio_forced_by_construction(self):
        # Counter returns exactly chars/4 tokens for every doc -> 0.25.
        docs = [doc("x" * 400, i=i) for i in range(10)]
        est = calibrate(docs, lambda t: len(t) // 4, seed=1, sample_size=5)
        assert est.tokens_per_char == 0.25
        assert est.calibrated

    def test_two_doc_pooled_ratio(self):
        # (30 + 70) tokens / (100 + 300) chars = 0.25.
        docs = [doc("a" * 100, i=0), doc("b" * 300, i=1)]
        counts = {100: 30, 300: 70}
        est = calibrate(docs, lambda t: counts[len(t)], sample_size=2, per_language=False)
        assert est.tokens_per_char == 0.25

    def test_deterministic_given_seed(self):
        docs = [doc("y" * (50 + i), i=i) for i in range(200)]
        first = calibrate(docs, lambda t: len(t) // 3, seed=42, sample_size=20)
        second = calibrate(docs, lambda t: len(t) // 3, seed=42, sample_size=20)
        assert first == second

    def test_empty_corpus_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate([], lambda t: len(t), sample_size=10)

    def test_counter_failure_falls_back_uncalibrated(self):
        def broken(text):
            raise ConnectionError("tokenizer away")

        est = calibrate([doc("z" * 100)], broken, sample_size=1, default_ratio=0.3)
        assert not est.calibrated
        assert est.tokens_per_char == 0.3
        assert est.fallback == "ConnectionError: tokenizer away"

    def test_per_language_ratios(self):
        docs = [doc("e" * 100, "en", 0), doc("g" * 100, "de", 1)]
        counts = {"e" * 100: 25, "g" * 100: 50}
        est = calibrate(docs, lambda t: counts[t], sample_size=2)
        assert est.per_language["en"] == 0.25
        assert est.per_language["de"] == 0.5
        assert est.ratio_for("en") == 0.25
        assert est.ratio_for("de") == 0.5
        # Unknown language falls back to the pooled ratio: 75/200.
        assert est.ratio_for("it") == quantize_ratio(0.375)

    def test_convergence_within_0p1_percent(self):
        # Synthetic corpus with a fixed chars-per-token of 3; any sample
        # size must land within 0.1% of exact counts.
        docs = [doc("w" * (3 * (i + 10)), i=i) for i in range(100)]
        exact = lambda t: len(t) // 3
        for sample_size in (1, 2, 10, 100):
            est = calibrate(docs, exact, sample_size=sample_size)
            for d in docs:
                estimate = est.estimate_text(d.text, d.lang)
                assert abs(estimate - exact(d.text)) <= 0.001 * exact(d.text)


class TestEstimate:
    def test_empty_string_is_zero(self, quarter_estimator):
        assert quarter_estimator.estimate_text("") == 0

    def test_derived_1400_chars(self, quarter_estimator):
        assert quarter_estimator.estimate_text("x" * 1400) == 350.0

    def test_linearity_exact(self):
        # estimate(s1 + s2) == estimate(s1) + estimate(s2), exactly, for
        # any calibrated (grid-snapped) ratio.
        rng = random.Random(0)
        for _ in range(2000):
            ratio = quantize_ratio(rng.uniform(0.05, 1.4))
            est = TokenEstimator(tokens_per_char=ratio)
            s1 = "a" * rng.randrange(0, 5000)
            s2 = "b" * rng.randrange(0, 5000)
            assert est.estimate_text(s1 + s2) == est.estimate_text(s1) + est.estimate_text(s2)

    def test_monotone_in_length(self, quarter_estimator):
        assert quarter_estimator.estimate_text("ab") > quarter_estimator.estimate_text("a")

    def test_unicode_counts_code_points_not_bytes(self, quarter_estimator):
        assert quarter_estimator.estimate_text("üüüü") == 1.0

    def test_sanity_band_enforced(self):
        with pytest.raises(ValueError):
            TokenEstimator(tokens_per_char=1.5)
        with pytest.raises(ValueError):
            TokenEstimator(tokens_per_char=0.0)
        with pytest.raises(ValueError):
            TokenEstimator(tokens_per_char=0.25, per_language={"en": 2.0})

    def test_char_budget_inverse(self, quarter_estimator):
        budget = quarter_estimator.char_budget(10_000)
        assert budget == 40_000
        assert quarter_estimator.estimate_chars(budget) <= 10_000


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        est = TokenEstimator(0.25, {"de": 0.5}, sample_size=9, seed=3, calibrated=True)
        est.save(tmp_path / "cal.json")
        assert TokenEstimator.load(tmp_path / "cal.json") == est

    @pytest.mark.parametrize(
        "change",
        [
            {"calibrated": "false"},
            {"sample_size": 2.9},
            {"tokens_per_char": True},
            {"per_language": {"de": "0.5"}},
            {"tokens_per_char": None},
        ],
        ids=["calibrated_str", "sample_size_float", "ratio_bool", "per_language_str", "ratio_null"],
    )
    def test_mistyped_field_refused(self, tmp_path, change):
        path = tmp_path / "cal.json"
        TokenEstimator(0.25, {"de": 0.5}, sample_size=9, seed=3, calibrated=True).save(path)
        obj = {**json.loads(path.read_text(encoding="utf-8")), **change}
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(CorpusError, match=f"calibration report {re.escape(str(path))} "):
            TokenEstimator.load(path)

    def test_quantum_is_exactly_representable(self):
        assert RATIO_QUANTUM == 2.0**-20
        assert quantize_ratio(0.25) == 0.25
