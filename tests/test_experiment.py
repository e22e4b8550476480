"""Tests for the closed-loop experiment orchestration."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qfbsim import experiment
from qfbsim.config import load_file
from qfbsim.experiment import (
    N_SOURCE,
    PI_HALF_INIT,
    THERMAL_INIT,
    TRIG1_TICK,
    CalibrationError,
    ExperimentConfig,
    _McResult,
    _config_echo,
    _run_chunks,
    _run_mc,
    calibrate_noise,
    held_state_readout,
    noiseless_filtered_means,
    optimize_threshold,
    oracle_probabilities,
    overlap_probability,
    readout_fidelity,
    run_feedback_comparison,
)
from qfbsim.fxp import ADC_LSB_VOLTS, ConfigError, quantize
from qfbsim.pipeline import FILTER_WIDTH, run_stream
from qfbsim.sigmodel import (
    STATE_E,
    STATE_G,
    DeviceParams,
    synthesize_adc_stream,
    thermal_population,
)

P_THERM = thermal_population(0.114, 6.148e9)
CONFIG_DIR = Path(experiment.__file__).parent / "configs"


def bench_device(**kw):
    base = dict(t1=1.4e-6, p_therm=P_THERM, amp_ss=0.6, offset_i=0.013)
    base.update(kw)
    return DeviceParams(**base)


def make_config(scenario=PI_HALF_INIT, *, device=None, reps=8192, seed=11,
                threshold=0.016):
    return ExperimentConfig(device=device or bench_device(), scenario=scenario,
                            repetitions=reps, master_seed=seed,
                            threshold_volts=threshold)


def oracle(cfg, feedback=False):
    return oracle_probabilities(cfg, feedback, overlap_probability(cfg))


def calibrated(cfg, target=0.03):
    sigma = calibrate_noise(target, cfg)
    return replace(cfg, device=replace(cfg.device, noise_sigma=sigma))


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ConfigError):
        make_config(scenario="bogus")
    with pytest.raises(ConfigError):
        make_config(reps=0)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ConfigError, match=r"master_seed .* outside 0\.\.2\*\*64-1"):
            make_config(seed=seed)
    assert make_config(seed=0).master_seed == 0
    assert make_config(seed=2 ** 64 - 1).master_seed == 2 ** 64 - 1
    good = make_config()
    with pytest.raises(ConfigError):
        replace(good, delay=20)
    with pytest.raises(ConfigError):
        replace(good, delay=2)
    # the pipeline follows the threshold instead of contradicting it
    assert replace(good, threshold_volts=0.05).pipeline.c_i == quantize(0.05, FILTER_WIDTH)


@pytest.mark.parametrize("name", ["repetitions", "master_seed", "delay",
                                  "window_len", "scale_shift"])
def test_integer_settings_must_be_integers(name):
    good = make_config()
    # a bool passes as an int, a whole float as its value: neither may
    for value in (True, False, float(getattr(good, name)), 1.5, "10"):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            replace(good, **{name: value})


@pytest.mark.parametrize("change", [
    {"threshold_volts": 0.0125},
    {"device": bench_device(offset_q=0.02)},
    {"delay": 8},
    {"window_len": 8},
    {"scale_shift": 2},
], ids=["threshold_volts", "device", "delay", "window_len", "scale_shift"])
def test_replace_rebuilds_the_pipeline(change):
    base = dict(device=bench_device(), scenario=PI_HALF_INIT)
    changed = replace(ExperimentConfig(**base), **change)
    assert changed.pipeline == ExperimentConfig(**{**base, **change}).pipeline
    assert changed.pipeline != ExperimentConfig(**base).pipeline


def test_pipeline_is_derived_not_set():
    cfg = make_config()
    with pytest.raises(ValueError, match="pipeline"):
        replace(cfg, pipeline=cfg.pipeline)
    with pytest.raises(TypeError):
        ExperimentConfig(device=bench_device(), scenario=PI_HALF_INIT,
                         pipeline=cfg.pipeline)


def test_offsets_must_fit_the_filtered_signal_grid():
    # the 15-bit filtered-signal grid spans -2 V .. 2 V - 1 LSB
    good = make_config()
    assert replace(good, threshold_volts=-2.0).pipeline.c_i == -16384
    for volts in (2.0, 3.0, -3.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError, match="threshold_volts"):
            replace(good, threshold_volts=volts)
    with pytest.raises(ConfigError, match="offset_q"):
        replace(good, device=bench_device(offset_q=2.0))


def test_threshold_quantization():
    c_i = make_config(threshold=0.016).pipeline.c_i
    assert c_i == 131
    assert c_i * ADC_LSB_VOLTS == pytest.approx(0.016, abs=1e-4)


def test_default_pipeline_shape():
    cfg = make_config()
    pipe = cfg.pipeline
    assert pipe.window_len == 4 and pipe.delay == 10
    assert pipe.lut1 == (1, 1, 0, 0)
    assert _config_echo(cfg)["pipeline"]["sync_depth"] == 6
    q_mean = 0.3 * bench_device().steady_alpha(0).real
    assert pipe.c_q * ADC_LSB_VOLTS == pytest.approx(q_mean, abs=1e-4)


def test_timing_properties():
    cfg = make_config()
    assert cfg.tau_ro_ns == 100
    assert cfg.window_center_ns == 80.0
    assert cfg.t_pi_ns == pytest.approx(333.0)
    assert cfg.eval_tick(8) == 26
    assert cfg.eval_tick(44) == 62


# ---------------------------------------------------------------------------
# filtered means and overlap calibration


def test_noiseless_means_bracket_threshold():
    cfg = make_config()
    mu_g, mu_e = noiseless_filtered_means(cfg)
    assert mu_g < 0.016 < mu_e
    # conjugate-symmetric envelopes put the midpoint at the static offset
    assert 0.5 * (mu_g + mu_e) == pytest.approx(0.013, abs=1e-3)


@pytest.mark.parametrize("name", ["scenario_pi_half.cfg", "scenario_thermal.cfg"])
def test_noiseless_means_are_the_scalar_machines_register(name):
    # the batch filter on both held-state streams at once == the scalar
    # tick() machine's in-phase register on each, at the readout tick
    cfg, _ = load_file(CONFIG_DIR / name)
    device = replace(cfg.device, noise_sigma=0.0)
    want = []
    for state in (STATE_G, STATE_E):
        stream = synthesize_adc_stream(device, *held_state_readout(state, N_SOURCE))
        trace = run_stream(cfg.pipeline, stream.raw, stream.triggers)
        want.append(trace[cfg.eval_tick(TRIG1_TICK)].i * ADC_LSB_VOLTS)
    assert noiseless_filtered_means(cfg) == tuple(want)


def test_calibrate_noise_hits_target():
    cfg = make_config()
    for target in (0.01, 0.03, 0.1):
        sigma = calibrate_noise(target, cfg)
        assert overlap_probability(cfg.with_noise_sigma(sigma)) == pytest.approx(
            target, abs=1e-3)
    assert calibrate_noise(0.01, cfg) < calibrate_noise(0.03, cfg)


def test_calibrate_noise_remeasured_by_monte_carlo():
    # frozen trajectories isolate the overlap error; the measured misread
    # rates must reproduce the analytic target
    cfg = make_config(device=bench_device(t1=math.inf, p_therm=0.0),
                      reps=1 << 15)
    cfg = calibrated(cfg, 0.03)
    fid = readout_fidelity(cfg)
    measured = 0.5 * (fid.p_e_no_pulse + fid.p_g_pi_pulse)
    assert measured == pytest.approx(0.03, abs=0.003)


def test_calibrate_noise_asymmetry_matches_gaussian_tails():
    cfg = make_config(device=bench_device(t1=math.inf, p_therm=0.0),
                      reps=1 << 15)
    cfg = calibrated(cfg, 0.03)
    mu_g, mu_e = noiseless_filtered_means(cfg)
    c = cfg.pipeline.c_i * ADC_LSB_VOLTS
    sigma_f = cfg.device.noise_sigma / math.sqrt(8)
    fid = readout_fidelity(cfg)
    q = lambda z: 0.5 * math.erfc(z / math.sqrt(2))
    assert fid.p_e_no_pulse == pytest.approx(q((c - mu_g) / sigma_f), abs=0.004)
    assert fid.p_g_pi_pulse == pytest.approx(q((mu_e - c) / sigma_f), abs=0.005)


def test_calibrate_noise_rejects_bad_targets():
    cfg = make_config()
    with pytest.raises(ValueError):
        calibrate_noise(0.0, cfg)
    for target in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            calibrate_noise(target, cfg)
    with pytest.raises(CalibrationError):
        calibrate_noise(0.5, cfg)
    with pytest.raises(CalibrationError):
        calibrate_noise(0.03, make_config(threshold=0.5))


# ---------------------------------------------------------------------------
# analytic oracle


def test_oracle_frozen_perfect_readout():
    dev = bench_device(t1=math.inf, p_therm=0.0, noise_sigma=0.0)
    orc = oracle(make_config(device=dev))
    assert orc["quadrants"] == {"gg": 0.5, "ge": 0.0, "eg": 0.0, "ee": 0.5}
    assert orc["p_e1"] == 0.5 and orc["p_e2"] == 0.5


def test_oracle_thermal_first_measurement():
    cfg = calibrated(make_config(THERMAL_INIT))
    orc = oracle(cfg)
    eps = orc["readout_flip"]
    p = cfg.device.p_therm
    expect = p * (1 - eps) + (1 - p) * eps
    assert orc["p_e1"] == pytest.approx(expect, abs=1e-12)


def test_oracle_swap_identity_without_decay():
    # with frozen populations the conditional flip exchanges the roles of
    # the two first-excited quadrants exactly
    for sigma in (0.02, 0.05, 0.09):
        dev = bench_device(t1=math.inf, p_therm=0.0, noise_sigma=sigma)
        off = oracle(make_config(device=dev), feedback=False)
        on = oracle(make_config(device=dev), feedback=True)
        assert on["quadrants"]["ee"] == off["quadrants"]["eg"]
        assert on["quadrants"]["eg"] == off["quadrants"]["ee"]
        assert on["quadrants"]["gg"] == off["quadrants"]["gg"]
        eps = off["readout_flip"]
        assert off["quadrants"]["eg"] == pytest.approx(eps * (1 - eps), abs=1e-12)


def test_oracle_quadrants_sum_to_one():
    for scenario in (PI_HALF_INIT, THERMAL_INIT):
        for feedback in (False, True):
            cfg = calibrated(make_config(scenario))
            orc = oracle(cfg, feedback)
            assert sum(orc["quadrants"].values()) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Monte Carlo engine


def test_perfect_feedback_removes_excited_population():
    dev = bench_device(t1=math.inf, p_therm=0.0, noise_sigma=0.0)
    (rep,) = run_feedback_comparison(make_config(device=dev, reps=4096),
                                     feedback=(True,)).reports
    assert rep.p_e2 == 0.0
    assert rep.quadrants["ge"] == 0.0 and rep.quadrants["ee"] == 0.0
    assert rep.p_e1 == pytest.approx(0.5, abs=0.03)


def test_noiseless_outputs_match_reference_synthesis():
    # without noise or jumps the scaled first-readout values take exactly
    # the two levels predicted by the standalone waveform model
    dev = bench_device(t1=math.inf, p_therm=0.0, noise_sigma=0.0)
    cfg = make_config(device=dev, reps=512)
    (parts,) = _run_chunks(cfg, "pi_half", 0, 1, (False,))
    res = _run_mc(parts)
    mu_g, mu_e = noiseless_filtered_means(cfg)
    lvl_g = (round(mu_g / ADC_LSB_VOLTS) - 131) << 3
    lvl_e = (round(mu_e / ADC_LSB_VOLTS) - 131) << 3
    assert set(np.unique(res.it1)) == {lvl_g, lvl_e}
    assert res.saturated == 0


def test_report_identities_and_histogram_consistency():
    cfg = calibrated(make_config(reps=8192))
    comp = run_feedback_comparison(cfg, feedback=(True,))
    (rep,) = comp.reports
    assert rep.p_e1 == rep.quadrants["eg"] + rep.quadrants["ee"]
    assert rep.p_e2 == rep.quadrants["ge"] + rep.quadrants["ee"]
    assert sum(rep.quadrants.values()) == pytest.approx(1.0, abs=1e-12)
    # bin 64 is the sign boundary of the scaled output, so the blocks of
    # the joint (i1, i2) histogram split there reproduce the report exactly
    joint = comp.histogram.joint_i1_i2(0)
    blocks = {"gg": joint[:64, :64], "ge": joint[:64, 64:],
              "eg": joint[64:, :64], "ee": joint[64:, 64:]}
    assert {k: int(b.sum()) / rep.repetitions for k, b in blocks.items()} \
        == rep.quadrants
    assert int(comp.histogram.marginal_i1(0).sum()) == rep.repetitions


def test_determinism_and_worker_independence():
    cfg = calibrated(make_config(reps=12288, seed=5))
    a = run_feedback_comparison(cfg, feedback=(True,))
    b = run_feedback_comparison(cfg, feedback=(True,))
    c = run_feedback_comparison(cfg, feedback=(True,), jobs=2)
    assert a.reports[0].to_json() == b.reports[0].to_json() == c.reports[0].to_json()
    assert a.histogram.dump_bytes() == b.histogram.dump_bytes()
    assert a.histogram.dump_bytes() == c.histogram.dump_bytes()
    d = run_feedback_comparison(replace(cfg, master_seed=6), feedback=(True,))
    assert d.reports[0].to_json() != a.reports[0].to_json()


def test_feedback_does_not_touch_first_measurement():
    cfg = calibrated(make_config(reps=8192, seed=3))
    comp = run_feedback_comparison(cfg)
    off, on = comp.reports
    assert off.p_e1 == on.p_e1
    assert off.quadrant_errs.keys() == on.quadrant_errs.keys()
    # shared histogram holds both runs in separate segments
    seg_counts = [int(comp.histogram.marginal_i1(seg).sum()) for seg in (0, 1)]
    assert seg_counts == [cfg.repetitions, cfg.repetitions]
    # report k and segment k follow the order of the arms the run names
    flipped = run_feedback_comparison(cfg, feedback=(True, False))
    assert [r.to_json() for r in flipped.reports] == [on.to_json(), off.to_json()]
    for seg in (0, 1):
        np.testing.assert_array_equal(flipped.histogram.joint_i1_i2(seg),
                                      comp.histogram.joint_i1_i2(1 - seg))


def test_monte_carlo_matches_oracle_within_allowance():
    for scenario in (PI_HALF_INIT, THERMAL_INIT):
        cfg = calibrated(make_config(scenario, reps=1 << 14, seed=21))
        comp = run_feedback_comparison(cfg)
        for rep in comp.reports:
            for key, value in rep.quadrants.items():
                gap = abs(value - rep.oracle["quadrants"][key])
                allow = 0.015 + 3 * rep.quadrant_errs[key]
                assert gap < allow, (scenario, rep.feedback_enabled, key, gap, allow)


def test_mc_swap_identity_without_decay():
    # centered threshold makes the misread rates symmetric, so the
    # feedback flip maps (E, e-kept) records onto (E, g-kept) ones
    dev = bench_device(t1=math.inf, p_therm=0.0)
    cfg = calibrated(make_config(device=dev, reps=1 << 14, seed=9,
                                 threshold=0.013))
    off, on = run_feedback_comparison(cfg).reports
    err = math.sqrt(2) * 3 * off.quadrant_errs["eg"]
    assert abs(on.quadrants["ee"] - off.quadrants["eg"]) < err + 0.002
    assert abs(on.quadrants["eg"] - off.quadrants["ee"]) < err + 0.002


def test_feedback_swaps_quadrant_roles_with_decay():
    cfg = calibrated(make_config(reps=1 << 14, seed=13))
    off, on = run_feedback_comparison(cfg).reports
    assert on.quadrants["ee"] < off.quadrants["ee"] / 2
    assert on.quadrants["eg"] > 2 * off.quadrants["eg"]
    assert on.p_e2 < off.p_e2


def test_report_json_structure():
    cfg = calibrated(make_config(reps=4096))
    (rep,) = run_feedback_comparison(cfg, feedback=(True,)).reports
    doc = json.loads(rep.to_json())
    assert doc["scenario"] == PI_HALF_INIT
    assert "histogram" not in doc
    assert doc["latency"]["tau_fb_ns"][0] == 352.0
    assert doc["latency"]["tau_ro_ns"] == 100
    assert doc["latency"]["conditional_pulse_center_ns"] == pytest.approx(333.0)
    assert doc["config_echo"]["threshold_raw"] == 131
    assert doc["oracle"]["quadrants"]["gg"] > 0
    assert doc["repetitions"] == 4096


# ---------------------------------------------------------------------------
# fidelity and threshold optimization


def test_perfect_readout_fidelity():
    dev = bench_device(t1=math.inf, p_therm=0.0, noise_sigma=0.0)
    fid = readout_fidelity(make_config(device=dev, reps=4096))
    assert fid.f_r == 1.0
    assert fid.p_decay == 0.0 and fid.p_overlap == 0.0


def test_fidelity_band_and_budget_identity():
    cfg = calibrated(make_config(reps=1 << 15, seed=17))
    fid = readout_fidelity(cfg)
    assert 0.74 < fid.f_r < 0.80
    assert fid.p_decay == pytest.approx(1 - math.exp(-80 / 1400), abs=1e-12)
    assert fid.identity_gap < 0.02


def test_optimize_threshold_below_configured_value():
    cfg = calibrated(make_config(reps=1 << 14, seed=19))
    best = optimize_threshold(cfg)
    assert best < 0.016
    assert best > 0.0
    # the optimized threshold applies to the configuration it came from
    assert replace(cfg, threshold_volts=best).pipeline.c_i == quantize(best, FILTER_WIDTH)


def test_optimize_threshold_midpoint_for_symmetric_ensembles():
    dev = bench_device(t1=math.inf, p_therm=0.0, offset_i=0.0)
    cfg = calibrated(make_config(device=dev, reps=1 << 14, seed=23,
                                 threshold=0.0))
    best = optimize_threshold(cfg)
    sigma_f = cfg.device.noise_sigma / math.sqrt(8)
    assert abs(best) < 0.25 * sigma_f


def test_optimize_threshold_shift_is_exact():
    cfg = calibrated(make_config(reps=1 << 13, seed=29))
    delta = 64 * ADC_LSB_VOLTS
    shifted = replace(cfg, device=replace(cfg.device,
                                          offset_i=cfg.device.offset_i + delta))
    assert optimize_threshold(shifted) - optimize_threshold(cfg) == delta


@pytest.mark.parametrize("shift", [-2, 3])
def test_optimize_threshold_midpoint_of_int16_readouts_does_not_wrap(monkeypatch,
                                                                      shift):
    """The ensembles' readouts are int16; the fidelity ties at candidates
    20000 and 31000, whose int16 sum would wrap.  A negative scale shift
    multiplies the midpoint back onto the filter grid."""
    def ensemble(values):
        it1 = np.array(values, dtype=np.int16)
        return _McResult(it1=it1, qt1=it1, fb1=it1 >= 0,
                         it2=None, qt2=None, saturated=0)

    ensembles = (ensemble([0, 30000]), ensemble([20000, 31000]))
    monkeypatch.setattr(experiment, "_calibration_ensembles",
                        lambda cfg, jobs: ensembles)
    cfg = replace(make_config(), scale_shift=shift)
    pipe = cfg.pipeline
    assert pipe.s_i == shift
    assert optimize_threshold(cfg) == (pipe.c_i + 25500 * 2.0 ** -shift) * ADC_LSB_VOLTS


def test_optimize_threshold_flat_signal_errors():
    dev = bench_device(t1=math.inf, p_therm=0.0, amp_ss=0.0, noise_sigma=0.0)
    with pytest.raises(CalibrationError):
        optimize_threshold(make_config(device=dev, reps=1024))
