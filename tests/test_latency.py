"""Tests for latency budget composition."""

import math

import pytest

from qfbsim.fxp import ConfigError, FxpSample
from qfbsim.latency import (
    BUDGET,
    TAU_ADC,
    budget_report,
    integration_delay_setting,
    tau_eltot,
    total_feedback_latency,
    trigger_to_fb_delay,
)
from qfbsim.experiment import (
    PI_HALF_INIT,
    ExperimentConfig,
    held_state_readout,
)
from qfbsim.pipeline import (
    ADC_WIDTH,
    CLOCK_PERIOD_NS,
    MAX_DELAY,
    SYNC_DEPTH,
    PipelineConfig,
    run_stream,
)
from qfbsim.sigmodel import SAMPLE_PERIOD, STATE_E, DeviceParams, synthesize_adc_stream


def test_default_budget_totals():
    el, _ = tau_eltot()
    fb, _ = total_feedback_latency()
    assert el == 219.0
    assert fb == 352.0


def test_quadrature_uncertainty():
    _, el_u = tau_eltot()
    _, fb_u = total_feedback_latency()
    assert el_u == pytest.approx(math.sqrt(3**2 + 7**2))
    assert fb_u == pytest.approx(math.sqrt(3**2 + 7**2 + 2**2))


def test_zero_budget():
    # without the converter, what is left of tau_proc + tau_adcdio is the
    # machine's own digital chain: 30 ns + (SYNC_DEPTH + 1) clocks = 100 ns,
    # exact since tau_proc is whole clock cycles
    digital = BUDGET["tau_proc"][0] + BUDGET["tau_adcdio"][0] - TAU_ADC
    assert digital == 100.0
    assert BUDGET["tau_proc"][1] == 0.0


def test_trigger_to_fb_anchor_points():
    assert trigger_to_fb_delay(PipelineConfig(delay=1)) == 110.0
    assert trigger_to_fb_delay(PipelineConfig(delay=2)) == 120.0
    assert trigger_to_fb_delay(PipelineConfig(delay=14)) == 240.0


def test_trigger_to_fb_requires_positive_setting():
    for d in (-1, 256):
        with pytest.raises(ConfigError):
            trigger_to_fb_delay(PipelineConfig(delay=d))


def test_integration_delay_setting():
    assert integration_delay_setting(105.0) == 10
    assert integration_delay_setting(100.0) == 10
    assert integration_delay_setting(5.0) == 1


def test_report_contains_totals_and_flag():
    text = budget_report()
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
    assert measured_cycles * CLOCK_PERIOD_NS == BUDGET["tau_proc"][0]


def _fb_rise_after_analog_edge(delay: int, ticks: int = 64) -> int:
    """Clock cycles from the analog readout edge to the registered fb rise.

    The input is a noiseless held-e readout as the synthesizer delivers
    it to the pipeline: the trigger lane marks the sample at which the
    readout pulse reaches the converter, and the ADC data lane carries
    the samples SYNC_DEPTH cycles later.  lut1 fires on every sign pair,
    so fb rises whenever the gated trigger does.
    """
    sched, traj = held_state_readout(STATE_E, ticks - SYNC_DEPTH)
    stream = synthesize_adc_stream(DeviceParams(), sched, traj)
    samples = [FxpSample(r, ADC_WIDTH) for r in stream.raw.tolist()]
    triggers = stream.triggers.tolist()
    edge = round((sched.readout_pulses[0][0] - sched.t_start) / SAMPLE_PERIOD)
    assert triggers.index(1) == edge
    trace = run_stream(PipelineConfig(delay=delay, lut1=(1, 1, 1, 1)),
                       samples, triggers)
    rises = [t.cycle for k, t in enumerate(trace)
             if t.fb and (k == 0 or not trace[k - 1].fb)]
    assert len(rises) == 1
    return rises[0] - edge


def test_trigger_to_fb_measured_on_the_tick_machine():
    # the paper's headline: fb 110 ns after the analog input at d = 1
    measured = {d: TAU_ADC + _fb_rise_after_analog_edge(d) * CLOCK_PERIOD_NS
                for d in range(41)}
    assert measured[1] == 110.0
    for d, ns in measured.items():
        assert ns == 110.0 + (d - 1) * CLOCK_PERIOD_NS
        assert ns == trigger_to_fb_delay(PipelineConfig(delay=d))
    # the budget's digital terms add up to the same delay at every setting
    for d in range(MAX_DELAY + 1):
        assert trigger_to_fb_delay(PipelineConfig(delay=d)) == (
            BUDGET["tau_adcdio"][0] + BUDGET["tau_proc"][0]
            + (d - 1) * CLOCK_PERIOD_NS)


def test_conditional_pi_is_one_clock_after_the_fb_edge():
    # t_pi_ns counts tau_eltot from the integration-window end, but the
    # machine's fb edge follows that end by tau_adcdio + tau_proc minus
    # one clock, so the conditional pi centre sits one clock period
    # later than fb edge + tau_awg + tau_g + tau_ap / 2.  Pinned as it
    # stands; moving t_pi moves every report digest.
    dev = DeviceParams()
    for d in range(4, 13):
        cfg = ExperimentConfig(device=dev, scenario=PI_HALF_INIT, delay=d)
        fb_edge_ns = TAU_ADC + _fb_rise_after_analog_edge(d) * CLOCK_PERIOD_NS
        assert cfg.t_pi_ns == (fb_edge_ns + BUDGET["tau_awg"][0] + BUDGET["tau_g"][0]
                               + BUDGET["tau_ap"][0] / 2 + CLOCK_PERIOD_NS)
        if d == 10:
            assert (fb_edge_ns, cfg.t_pi_ns) == (200.0, 333.0)
