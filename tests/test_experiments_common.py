"""Unit tests for the experiment-harness helpers (no simulation)."""

import math

import pytest

from repro.config import scaled_config
from repro.experiments.common import (
    EQUAL_OVERHEAD_FILTER_COUNTERS,
    ErrorSurvey,
    fairness_of_runs,
    format_table,
    headline_models,
    sampled_models,
    unsampled_models,
)
from repro.harness.runner import QuantumRecord, RunResult
from repro.workloads.mixes import make_mix


def _fake_result(names, actual, estimates):
    mix = make_mix(names, seed=0)
    record = QuantumRecord(
        index=0,
        instructions=[100] * len(names),
        shared_ipc=[1.0] * len(names),
        actual_slowdowns=actual,
        estimates={"asm": estimates},
    )
    return RunResult(mix=mix, config=scaled_config(), records=[record])


def test_error_survey_accumulates_per_app():
    survey = ErrorSurvey(model_names=["asm"])
    result = _fake_result(["mcf", "ft"], [2.0, 2.0], [2.2, 1.8])
    survey.add_run(result)
    assert survey.mean_error("asm") == pytest.approx(10.0)
    means = survey.app_means("asm")
    assert means["mcf"] == pytest.approx(10.0)
    assert means["ft"] == pytest.approx(10.0)
    assert len(survey.per_workload["asm"]) == 1


def test_error_survey_same_app_twice_merges():
    survey = ErrorSurvey(model_names=["asm"])
    survey.add_run(_fake_result(["mcf", "mcf"], [2.0, 4.0], [2.0, 2.0]))
    means = survey.app_means("asm")
    assert means["mcf"] == pytest.approx((0.0 + 50.0) / 2)


def test_error_survey_skips_nan_ground_truth():
    survey = ErrorSurvey(model_names=["asm"])
    survey.add_run(
        _fake_result(["mcf", "ft"], [float("nan"), 2.0], [9.9, 2.0])
    )
    assert survey.mean_error("asm") == pytest.approx(0.0)
    assert "mcf" not in survey.app_means("asm")


def test_error_survey_empty_model():
    survey = ErrorSurvey(model_names=["asm"])
    assert math.isnan(survey.mean_error("asm"))
    assert survey.stdev_across_workloads("asm") == 0.0


def test_model_factory_bundles():
    config = scaled_config()
    for recipe in (unsampled_models(), sampled_models(config), headline_models(config)):
        for name, factory in recipe["model_factories"].items():
            model = factory()
            assert hasattr(model, "attach"), name
    sampled = sampled_models(config)["model_factories"]["asm"]()
    assert sampled.sampled_sets == config.ats_sampled_sets
    unsampled = unsampled_models()["model_factories"]["asm"]()
    assert unsampled.sampled_sets is None
    assert EQUAL_OVERHEAD_FILTER_COUNTERS > 0


def test_fairness_of_runs():
    results = [
        _fake_result(["mcf", "ft"], [2.0, 4.0], [2.0, 4.0]),
        _fake_result(["mcf", "ft"], [1.0, 3.0], [1.0, 3.0]),
    ]
    fairness = fairness_of_runs(results)
    assert fairness["max_slowdown"] == pytest.approx((4.0 + 3.0) / 2)
    assert fairness["harmonic_speedup"] == pytest.approx(
        (2 / 6.0 + 2 / 4.0) / 2
    )


def test_format_table_handles_nan():
    table = format_table(["x"], [[float("nan")]])
    assert "nan" in table
