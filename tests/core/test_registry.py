"""Tests for the named predictor registry."""

from __future__ import annotations

import pytest

from repro.core.blending import BlendedFcmPredictor
from repro.core.fcm import FcmPredictor
from repro.core.hybrid import HybridPredictor
from repro.core.last_value import LastValuePredictor
from repro.core.registry import (
    _REGISTRY,
    PAPER_PREDICTORS,
    available_predictors,
    create_predictor,
    register_predictor,
)
from repro.core.stride import TwoDeltaStridePredictor
from repro.errors import PredictorConfigError, UnknownPredictorError


class TestPaperLineUp:
    def test_paper_predictors_all_available(self):
        for name in PAPER_PREDICTORS:
            assert create_predictor(name) is not None

    def test_paper_line_up_matches_methodology(self):
        assert isinstance(create_predictor("l"), LastValuePredictor)
        assert isinstance(create_predictor("s2"), TwoDeltaStridePredictor)
        for order in (1, 2, 3):
            predictor = create_predictor(f"fcm{order}")
            assert isinstance(predictor, BlendedFcmPredictor)
            assert predictor.order == order

    def test_last_value_uses_always_update_policy(self):
        assert create_predictor("l").hysteresis == "always"


class TestDynamicNames:
    def test_high_order_fcm_resolved_dynamically(self):
        predictor = create_predictor("fcm12")
        assert isinstance(predictor, BlendedFcmPredictor)
        assert predictor.order == 12

    def test_single_order_variant(self):
        predictor = create_predictor("fcm4-single")
        assert isinstance(predictor, FcmPredictor)
        assert predictor.order == 4

    def test_small_counter_variant(self):
        predictor = create_predictor("fcm3-small")
        assert isinstance(predictor, BlendedFcmPredictor)
        assert predictor.counter_max == 16

    def test_full_blending_variant(self):
        predictor = create_predictor("fcm2-full")
        assert predictor.update_policy == "full"


class TestHybrids:
    def test_stride_fcm_hybrid(self):
        predictor = create_predictor("hybrid-s2-fcm3")
        assert isinstance(predictor, HybridPredictor)
        assert [c.name for c in predictor.components] == ["s2", "fcm3"]

    def test_type_based_hybrid(self):
        assert isinstance(create_predictor("hybrid-type-s2-fcm3"), HybridPredictor)

    def test_oracle_hybrid(self):
        predictor = create_predictor("hybrid-oracle")
        assert isinstance(predictor, HybridPredictor)
        assert len(predictor.components) == 3


class TestRegistryMechanics:
    def test_unknown_name_raises(self):
        with pytest.raises(UnknownPredictorError):
            create_predictor("does-not-exist")

    def test_instances_are_fresh(self):
        first = create_predictor("l")
        first.observe(0, 1)
        second = create_predictor("l")
        assert second.table_entries() == 0

    def test_available_names_are_sorted_and_include_paper_set(self):
        names = available_predictors()
        assert list(names) == sorted(names)
        for name in PAPER_PREDICTORS:
            assert name in names

    def test_register_custom_predictor(self):
        register_predictor("custom-lv-test", lambda: LastValuePredictor(hysteresis="counter"))
        try:
            assert create_predictor("custom-lv-test").hysteresis == "counter"
        finally:
            # Re-registering without overwrite must fail, with overwrite must pass.
            with pytest.raises(PredictorConfigError):
                register_predictor("custom-lv-test", LastValuePredictor)
            register_predictor("custom-lv-test", LastValuePredictor, overwrite=True)
            _REGISTRY.pop("custom-lv-test")
