import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matscale.costs import (
    NasSpec,
    TrainingSpec,
    WorkflowSpec,
    format_bytes,
    nas_budget,
    speedup,
    training_time,
    workflow_estimate,
)

MB = 10**6


def test_workflow_reference_case():
    est = workflow_estimate(WorkflowSpec(30_000, 9, 41, 30 * MB))
    assert est.runs == 270_000
    assert est.files == 11_070_000
    assert est.bytes == 8_100_000_000_000
    assert format_bytes(est.bytes) == "8.1 TB"


def test_workflow_unit_case():
    assert workflow_estimate(WorkflowSpec(1, 1, 1, 1)) == (1, 1, 1)


def test_workflow_small_case():
    est = workflow_estimate(WorkflowSpec(100, 3, 10, 1 * MB))
    assert est == (300, 3_000, 300 * MB)
    assert format_bytes(est.bytes) == "300 MB"


def test_workflow_overflow_is_explicit():
    with pytest.raises(OverflowError):
        workflow_estimate(WorkflowSpec(2**40, 2**40, 1, 1))


@pytest.mark.parametrize("estimate, message", [
    (lambda: training_time(TrainingSpec(1, 1e308, 1e308)), "training time"),
    (lambda: training_time(TrainingSpec(10, 1e308, 0.0)), "training time"),
    (lambda: nas_budget(NasSpec(2, 1e308, 1.0)), "GPU hours"),
    (lambda: nas_budget(NasSpec(1, 1e308, 1e308)), "NAS cost"),
])
def test_float_overflow_is_explicit(estimate, message):
    with pytest.raises(OverflowError, match=message):
        estimate()


def test_an_int_count_must_convert_to_a_float():
    # the largest int that float() takes, and the least that rounds past the float range
    largest = int(sys.float_info.max)
    assert training_time(TrainingSpec(largest, 0.0, 0.0)) == 0.0
    with pytest.raises(ValueError, match="^n_steps must convert to a float, got an integer "
                                         "of 1024 bits$"):
        TrainingSpec(largest + 2**970, 0.0, 0.0)


def test_workflow_rejects_non_positive():
    with pytest.raises(ValueError):
        WorkflowSpec(0, 1, 1, 1)


@given(st.integers(1, 10**6), st.integers(1, 100), st.integers(1, 1000),
       st.integers(1, 10**9))
def test_workflow_linear_in_each_input(n, s, f, b):
    base = workflow_estimate(WorkflowSpec(n, s, f, b))
    doubled = workflow_estimate(WorkflowSpec(2 * n, s, f, b))
    assert doubled.runs == 2 * base.runs
    assert doubled.files == 2 * base.files
    assert doubled.bytes == 2 * base.bytes


@given(st.integers(1, 10**7), st.floats(0, 1), st.floats(0, 1))
def test_training_time_linear_in_steps(steps, tb, tg):
    one = training_time(TrainingSpec(steps, tb, tg))
    two = training_time(TrainingSpec(2 * steps, tb, tg))
    assert two == pytest.approx(2 * one, rel=1e-12)


@given(st.integers(0, 10**5), st.floats(0, 100), st.floats(0, 10))
def test_nas_budget_linear_in_each_input(archs, hours, price):
    base = nas_budget(NasSpec(archs, hours, price))
    assert nas_budget(NasSpec(2 * archs, hours, price)).gpu_hours == pytest.approx(
        2 * base.gpu_hours, rel=1e-12
    )
    assert nas_budget(NasSpec(archs, hours, 2 * price)).cost == pytest.approx(
        2 * base.cost, rel=1e-12
    )


def test_training_time_gpu_reference():
    t = training_time(TrainingSpec(2_000_000, 0.0010, 0.0023))
    assert t == pytest.approx(6_600.0, abs=1e-9)


def test_training_time_cpu_reference():
    t = training_time(TrainingSpec(2_000_000, 0.0012, 0.0177))
    assert t == pytest.approx(37_800.0, abs=1e-9)
    assert t / 3600.0 == pytest.approx(10.5, abs=1e-12)


def test_training_time_degenerate():
    assert training_time(TrainingSpec(1, 0.0, 0.0)) == 0.0


def test_nas_budget_reference():
    budget = nas_budget(NasSpec(2000, 20.0, 3.0))
    assert budget.gpu_hours == 40_000.0
    assert budget.cost == 120_000.0


def test_nas_budget_zero_architectures():
    assert nas_budget(NasSpec(0, 20.0, 3.0)) == (0.0, 0.0)


def test_nas_budget_small():
    assert nas_budget(NasSpec(10, 2.0, 3.0)) == (20.0, 60.0)


def test_speedup_reference_ratio():
    cpu = training_time(TrainingSpec(2_000_000, 0.0012, 0.0177))
    gpu = training_time(TrainingSpec(2_000_000, 0.0010, 0.0023))
    assert speedup(cpu, gpu) == pytest.approx(37_800.0 / 6_600.0, abs=1e-9)


def test_speedup_trivial_cases():
    assert speedup(10.0, 10.0) == 1.0
    assert speedup(100.0, 10.0) == 10.0


def test_speedup_rejects_zero_denominator():
    with pytest.raises(ValueError):
        speedup(10.0, 0.0)


def test_format_bytes_si_and_binary():
    assert format_bytes(0) == "0 B"
    assert format_bytes(999) == "999 B"
    assert format_bytes(30 * MB) == "30 MB"
    assert format_bytes(1_500_000) == "1.5 MB"
    assert format_bytes(1024, binary=True) == "1 KiB"
    assert format_bytes(8 * 1024**4, binary=True) == "8 TiB"
