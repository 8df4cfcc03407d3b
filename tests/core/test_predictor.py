"""Unit tests for the page-size + bypass predictor."""

from repro.common.config import PredictorConfig
from repro.common.stats import StatGroup
from repro.core.predictor import SizeBypassPredictor


def make_predictor(entries=512):
    return SizeBypassPredictor(PredictorConfig(entries=entries),
                               StatGroup("pred"))


class TestSizePrediction:
    def test_initial_prediction_is_small(self):
        p = make_predictor()
        assert p.predict_size(0x1234000) is False

    def test_wrong_prediction_flips_entry(self):
        p = make_predictor()
        assert not p.record_size(0xABC000, actual_large=True)  # wrong
        assert p.predict_size(0xABC000) is True
        assert p.record_size(0xABC000, actual_large=True)  # now right

    def test_correct_prediction_keeps_entry(self):
        p = make_predictor()
        p.record_size(0xABC000, actual_large=False)
        assert p.predict_size(0xABC000) is False

    def test_indexing_ignores_page_offset(self):
        p = make_predictor()
        p.record_size(0xABC000, actual_large=True)
        assert p.predict_size(0xABCFFF) is True

    def test_aliasing_across_index_range(self):
        p = make_predictor(entries=512)
        stride = 512 << 12  # wraps the 9 index bits
        p.record_size(0x0, actual_large=True)
        assert p.predict_size(stride) is True  # aliases to the same entry

    def test_accuracy_tracking(self):
        p = make_predictor()
        p.record_size(0x1000, actual_large=False)  # correct (init small)
        p.record_size(0x1000, actual_large=True)   # wrong
        assert p.size_accuracy() == 0.5

    def test_accuracy_empty_is_zero(self):
        assert make_predictor().size_accuracy() == 0.0


class TestBypassPrediction:
    def test_initial_prediction_is_no_bypass(self):
        p = make_predictor()
        assert p.predict_bypass(0x1000) is False

    def test_uncached_line_trains_towards_bypass(self):
        p = make_predictor()
        p.record_bypass(0x1000, line_was_cached=False)
        assert p.predict_bypass(0x1000) is True

    def test_cached_line_trains_towards_probe(self):
        p = make_predictor()
        p.record_bypass(0x1000, line_was_cached=False)
        p.record_bypass(0x1000, line_was_cached=True)
        assert p.predict_bypass(0x1000) is False

    def test_bypass_accuracy(self):
        p = make_predictor()
        # predicted no-bypass, line cached -> correct
        p.record_bypass(0x1000, line_was_cached=True)
        # predicted no-bypass, line not cached -> wrong
        p.record_bypass(0x1000, line_was_cached=False)
        assert p.bypass_accuracy() == 0.5


class TestStorage:
    def test_size_and_bypass_bits_are_independent(self):
        p = make_predictor()
        p.record_size(0x1000, actual_large=True)
        assert p.predict_bypass(0x1000) is False
        p.record_bypass(0x1000, line_was_cached=False)
        assert p.predict_size(0x1000) is True


class TestHysteresis:
    def test_one_bit_flips_immediately(self):
        from repro.common.config import PredictorConfig
        from repro.common.stats import StatGroup
        p = SizeBypassPredictor(PredictorConfig(size_counter_bits=1),
                                StatGroup("p"))
        p.record_size(0x1000, actual_large=True)
        assert p.predict_size(0x1000) is True
        p.record_size(0x1000, actual_large=False)
        assert p.predict_size(0x1000) is False

    def test_two_bit_needs_two_mistakes_to_flip(self):
        from repro.common.config import PredictorConfig
        from repro.common.stats import StatGroup
        p = SizeBypassPredictor(PredictorConfig(size_counter_bits=2),
                                StatGroup("p"))
        # Saturate towards large.
        for _ in range(3):
            p.record_size(0x1000, actual_large=True)
        assert p.predict_size(0x1000) is True
        # One small observation must NOT flip the prediction...
        p.record_size(0x1000, actual_large=False)
        assert p.predict_size(0x1000) is True
        # ...but a second one does.
        p.record_size(0x1000, actual_large=False)
        assert p.predict_size(0x1000) is False

    def test_counter_saturates(self):
        from repro.common.config import PredictorConfig
        from repro.common.stats import StatGroup
        p = SizeBypassPredictor(PredictorConfig(size_counter_bits=2),
                                StatGroup("p"))
        for _ in range(10):
            p.record_size(0x1000, actual_large=True)
        # Two small observations flip it back even after long saturation.
        p.record_size(0x1000, actual_large=False)
        p.record_size(0x1000, actual_large=False)
        assert p.predict_size(0x1000) is False

    def test_rejects_bad_counter_bits(self):
        import pytest
        from repro.common.config import PredictorConfig
        from repro.common.errors import ConfigError
        with pytest.raises(ConfigError):
            PredictorConfig(size_counter_bits=0)
        with pytest.raises(ConfigError):
            PredictorConfig(size_counter_bits=5)
