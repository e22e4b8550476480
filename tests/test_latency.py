"""Tests for latency budget composition."""

import math

import pytest

from qfbsim.fxp import FxpSample
from qfbsim.latency import (
    CLOCK_PERIOD_NS,
    LatencyBudget,
    budget_report,
    cable_length,
    integration_delay_setting,
    tau_eltot,
    total_feedback_latency,
    trigger_to_fb_delay,
)
from qfbsim.pipeline import ADC_WIDTH, PipelineConfig, run_stream


def test_default_budget_totals():
    b = LatencyBudget()
    el, _ = tau_eltot(b)
    fb, _ = total_feedback_latency(b)
    assert el == 219.0
    assert fb == 352.0


def test_quadrature_uncertainty():
    b = LatencyBudget()
    _, el_u = tau_eltot(b)
    _, fb_u = total_feedback_latency(b)
    assert el_u == pytest.approx(math.sqrt(3**2 + 7**2))
    assert fb_u == pytest.approx(math.sqrt(3**2 + 7**2 + 2**2))
    b345 = LatencyBudget(u_adcdio=3.0, u_g=4.0, u_ro=0.0)
    assert tau_eltot(b345)[1] == pytest.approx(5.0)


def test_zero_budget():
    b = LatencyBudget(tau_proc=0, tau_adcdio=0, tau_awg=0, tau_g=0,
                      tau_ro=0, tau_ap=0, u_adcdio=0, u_g=0, u_ro=0)
    assert total_feedback_latency(b) == (0.0, 0.0)


def test_trigger_to_fb_anchor_points():
    assert trigger_to_fb_delay(1) == 110.0
    assert trigger_to_fb_delay(2) == 120.0
    assert trigger_to_fb_delay(14) == 240.0


def test_trigger_to_fb_requires_positive_setting():
    with pytest.raises(ValueError):
        trigger_to_fb_delay(0)


def test_monotone_in_every_component():
    base = total_feedback_latency(LatencyBudget())[0]
    for name in ("tau_proc", "tau_adcdio", "tau_awg", "tau_g", "tau_ro", "tau_ap"):
        bump = 10.0 if name == "tau_proc" else 1.0
        b = LatencyBudget(**{name: getattr(LatencyBudget(), name) + bump})
        assert total_feedback_latency(b)[0] > base


def test_cable_length_values():
    assert cable_length(69.0, 2.0) == pytest.approx(14.6, abs=0.05)
    assert round(cable_length(69.0, 2.0)) == 15 or round(cable_length(69.0, 2.0)) == 14
    assert abs(cable_length(69.0, 2.0) - 14.0) < 1.0
    assert cable_length(0.0, 2.0) == 0.0
    assert cable_length(10.0, 1.0) == pytest.approx(2.998, abs=0.002)


def test_cable_length_validation():
    with pytest.raises(ValueError):
        cable_length(10.0, 0.5)
    with pytest.raises(ValueError):
        cable_length(-1.0, 2.0)


def test_budget_validation():
    with pytest.raises(ValueError):
        LatencyBudget(tau_proc=35.0)
    with pytest.raises(ValueError):
        LatencyBudget(tau_g=-1.0)
    with pytest.raises(ValueError):
        LatencyBudget(u_ro=-0.1)


def test_integration_delay_setting():
    assert integration_delay_setting(105.0) == 10
    assert integration_delay_setting(100.0) == 10
    assert integration_delay_setting(5.0) == 1


def test_report_contains_totals_and_flag():
    text = budget_report(LatencyBudget())
    assert "tau_eltot" in text and "219.0" in text
    assert "tau_fb" in text and "352.0" in text
    assert "inferred" in text
    assert "d = 10" in text


def test_proc_delay_matches_pipeline_measurement():
    # impulse into the pipeline: the filtered output responds 3 ticks
    # after the sample enters, matching the fixed processing delay
    config = PipelineConfig(window_len=4, delay=1)
    impulse_at = 8
    samples = [FxpSample(4000 if n == impulse_at else 0, ADC_WIDTH)
               for n in range(20)]
    trace = run_stream(config, samples, [0] * 20)
    first_response = next(t.cycle for t in trace if t.i != 0)
    measured_cycles = first_response - impulse_at
    assert measured_cycles * CLOCK_PERIOD_NS == LatencyBudget().tau_proc
