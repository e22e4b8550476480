"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single summary line with the measured values so a
verbose run doubles as the release checklist.
"""

import json
import math
import time
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from qfbsim.config import load_file, resolve_noise
from qfbsim.experiment import (
    PI_HALF_INIT,
    ExperimentConfig,
    readout_fidelity,
    run_feedback_comparison,
)
from qfbsim.fxp import ADC_LSB_VOLTS, FxpSample, quantize
from qfbsim.histo import (
    RAM_WORDS,
    WORD_MAX,
    HistogramRam,
    pack_correlation_address,
    unpack_correlation_address,
)
from qfbsim.latency import BUDGET, tau_eltot, total_feedback_latency, trigger_to_fb_delay
from qfbsim.pipeline import (
    COS_SEQ,
    NSIN_SEQ,
    MovingAverageBranch,
    PipelineConfig,
    discriminate,
    mixer_fs4,
    run_stream,
    run_stream_batch,
)
from qfbsim.sigmodel import DeviceParams, thermal_population


def _shipped(name):
    return resources.files("qfbsim") / "configs" / name


@pytest.fixture(scope="module")
def pi_half_cfg():
    cfg, target = load_file(_shipped("scenario_pi_half.cfg"))
    return resolve_noise(cfg, target)


@pytest.fixture(scope="module")
def thermal_cfg():
    cfg, target = load_file(_shipped("scenario_thermal.cfg"))
    return resolve_noise(cfg, target)


def _assert_oracle_gate(rep):
    # hard property gate: Monte Carlo within 1.5% + 3 sigma of the
    # rate-equation prediction for every quadrant
    for key, value in rep.quadrants.items():
        gap = abs(value - rep.oracle["quadrants"][key])
        allowance = 0.015 + 3.0 * rep.quadrant_errs[key]
        assert gap < allowance, (key, gap, allowance)


def test_criterion_01_mixer_equivalence_exhaustive():
    start = time.perf_counter()
    for phase in range(4):
        cos_ref = round(math.cos(math.pi * phase / 2))
        nsin_ref = round(-math.sin(math.pi * phase / 2))
        assert (cos_ref, nsin_ref) == (COS_SEQ[phase], NSIN_SEQ[phase])
        for raw in range(-8192, 8192):
            re, im = mixer_fs4(raw, phase)
            assert re == raw * cos_ref
            assert im == raw * nsin_ref
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"[criterion 1] PASS mixer == multiplier reference on 2^14 x 4 "
          f"inputs exactly ({elapsed:.2f} s)")


def test_criterion_02_moving_average_identity():
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    lengths = (2, 4, 8, 16, 32)
    for stream_idx in range(100):
        window = lengths[stream_idx % len(lengths)]
        a = rng.integers(-8192, 8193, size=10_000)
        cums = np.concatenate(([0], np.cumsum(a)))
        sums = cums[1:] - cums[np.maximum(np.arange(10_000) + 1 - window, 0)]
        branch = MovingAverageBranch(PipelineConfig(window_len=window))
        shift = branch.norm_shift
        for n, value in enumerate(a):
            out = branch.step_raw(int(value))
            assert branch.acc == sums[n]
            assert out == sums[n] >> shift
        assert not branch.overflow
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[criterion 2] PASS accumulator == direct windowed sum on 100 "
          f"random 10^4-sample streams, l in {lengths} ({elapsed:.2f} s)")


def test_criterion_03_demodulation_amplitude_phase():
    device = DeviceParams()
    pipe = ExperimentConfig(device=device, scenario=PI_HALF_INIT).pipeline
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        amp = rng.uniform(0.05, 0.95)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        samples = [quantize(amp * math.cos(0.5 * math.pi * k + phi), 14)
                   for k in range(24)]
        trace = run_stream(pipe, samples, [0] * len(samples))
        i_volts = trace[20].i * ADC_LSB_VOLTS
        q_volts = trace[20].q * ADC_LSB_VOLTS
        err = max(abs(i_volts - 0.5 * amp * math.cos(phi)),
                  abs(q_volts - 0.5 * amp * math.sin(phi)))
        worst = max(worst, err)
        assert err <= 2.0 * ADC_LSB_VOLTS
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"[criterion 3] PASS demodulated (I, Q) = (A/2)(cos, sin) within "
          f"2 LSB for 100 random tones; worst {worst / ADC_LSB_VOLTS:.2f} LSB "
          f"({elapsed:.2f} s)")


def test_criterion_04_latency_reproduction():
    assert trigger_to_fb_delay(PipelineConfig(delay=1)) == 110.0
    assert tau_eltot()[0] == 219.0
    assert total_feedback_latency()[0] == 352.0

    # measured digital latency: impulse on the ADC lane to the first
    # filter response
    pipe = ExperimentConfig(device=DeviceParams(), scenario=PI_HALF_INIT).pipeline
    samples = [FxpSample(0, 14)] * 30
    samples[10] = FxpSample(4000, 14)
    trace = run_stream(pipe, samples, [0] * 30)
    first = next(t.cycle for t in trace if t.i != 0)
    cycles = first - 10
    assert cycles == 3
    assert cycles * 10.0 == BUDGET["tau_proc"][0]
    print("[criterion 4] PASS trigger-to-fb 110 ns at d=1, totals 219/352 ns, "
          "measured digital latency 3 cycles = 30 ns")


def test_criterion_05_discrimination_truth_table_and_marker():
    for code in range(16):
        lut = tuple((code >> k) & 1 for k in range(4))
        for x in (0, 1):
            for y in (0, 1):
                assert discriminate(x, y, lut) == lut[(x << 1) | y]

    rng = np.random.default_rng(55)
    pipe = ExperimentConfig(device=DeviceParams(), scenario=PI_HALF_INIT).pipeline
    reps, ticks = 4, 250_000
    raw = rng.integers(-8192, 8192, size=(reps, ticks))
    triggers = (rng.random(ticks) < 0.02).astype(np.int64)
    batch = run_stream_batch(pipe, raw, triggers)
    for lane in (batch.fb, batch.fb2):
        fired = np.nonzero(lane)[1]
        assert np.all(batch.fb_time[fired] == 1)
    total = reps * ticks
    print(f"[criterion 5] PASS 16 LUTs x 4 sign inputs exhaustive; fb implies "
          f"fb_time on {total:.0e} random ticks")


def test_criterion_06_thermal_population():
    p = thermal_population(0.114, 6.148e9)
    assert p == pytest.approx(0.070, abs=0.003)
    print(f"[criterion 6] PASS thermal population {100 * p:.4f}% within "
          f"7.0 +/- 0.3%")


def test_criterion_07_pi_half_scenario(pi_half_cfg):
    assert pi_half_cfg.repetitions == 1 << 17
    start = time.perf_counter()
    off, on = run_feedback_comparison(pi_half_cfg, jobs=1).reports
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0

    reference = {"gg": 0.5074, "ge": 0.0218, "eg": 0.1137, "ee": 0.3571}
    for key, ref in reference.items():
        assert off.quadrants[key] == pytest.approx(ref, abs=0.03), key
    assert 0.08 <= on.p_e2 <= 0.16
    assert on.p_e1 == off.p_e1
    _assert_oracle_gate(off)
    _assert_oracle_gate(on)
    quadrants = {k: f"{100 * v:.2f}" for k, v in off.quadrants.items()}
    print(f"[criterion 7] PASS superposition scenario: feedback-off "
          f"quadrants {quadrants}% within +/-3% of reference; feedback-on "
          f"P[E2] = {100 * on.p_e2:.2f}% in [8, 16]% ({elapsed:.1f} s)")


def test_criterion_08_thermal_scenario(thermal_cfg):
    start = time.perf_counter()
    off, on = run_feedback_comparison(thermal_cfg, jobs=1).reports
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0

    assert off.p_e1 == pytest.approx(0.082, abs=0.015)
    assert -0.0005 <= on.quadrants["ee"] <= 0.0429
    _assert_oracle_gate(off)
    _assert_oracle_gate(on)
    print(f"[criterion 8] PASS thermal scenario: feedback-off "
          f"P[E1] = {100 * off.p_e1:.2f}% within 8.2 +/- 1.5%; "
          f"feedback-on P[EE] = {100 * on.quadrants['ee']:.2f}% within "
          f"band ({elapsed:.1f} s)")


def test_criterion_09_readout_fidelity(pi_half_cfg):
    assert 90 <= pi_half_cfg.tau_ro_ns <= 110
    fid = readout_fidelity(pi_half_cfg)
    assert fid.f_r == pytest.approx(0.77, abs=0.03)
    assert fid.identity_gap < 0.02
    print(f"[criterion 9] PASS F_r = {100 * fid.f_r:.2f}% within 77 +/- 3% at "
          f"tau_RO = {pi_half_cfg.tau_ro_ns} ns; infidelity budget gap "
          f"{100 * fid.identity_gap:.2f}% < 2%")


def test_criterion_10_histogram_integrity():
    rng = np.random.default_rng(7)
    ram = HistogramRam(segment_count=1)
    total = 10_000_000
    for _ in range(100):
        ram.update_addresses(rng.integers(0, RAM_WORDS, size=total // 100))
    assert int(ram.shadow.sum()) == total
    assert np.array_equal(ram.words,
                          np.minimum(ram.shadow, WORD_MAX).astype(np.uint16))

    i2 = rng.integers(0, 128, size=100_000)
    q = rng.integers(0, 32, size=100_000)
    i1 = rng.integers(0, 128, size=100_000)
    seg = rng.integers(0, 4, size=100_000)
    addresses = pack_correlation_address(i2, q, i1, seg)
    for got, want in zip(unpack_correlation_address(addresses), (i2, q, i1, seg)):
        assert np.array_equal(got, want)

    ram2 = HistogramRam(segment_count=4)
    ram2.update_addresses(addresses)
    for segment in range(4):
        mask = seg == segment
        assert np.array_equal(ram2.marginal_i1(segment),
                              np.bincount(i1[mask], minlength=128))
        assert np.array_equal(ram2.marginal_i2(segment),
                              np.bincount(i2[mask], minlength=128))
        joint = ram2.joint_i1_i2(segment)
        assert np.array_equal(joint.sum(axis=1), ram2.marginal_i1(segment))
        assert np.array_equal(joint.sum(axis=0), ram2.marginal_i2(segment))
    print("[criterion 10] PASS shadow counts conserved over 10^7 updates; "
          "address pack/unpack bijective on 10^5 tuples; 2D marginals equal "
          "recomputed 1D histograms word for word")


def test_criterion_11_determinism(pi_half_cfg):
    cfg = replace(pi_half_cfg, repetitions=1 << 14)
    first = run_feedback_comparison(cfg, feedback=(True,))
    second = run_feedback_comparison(cfg, feedback=(True,))
    json_a, json_b = first.reports[0].to_json(), second.reports[0].to_json()
    assert json_a.encode("ascii") == json_b.encode("ascii")
    assert first.histogram.dump_bytes() == second.histogram.dump_bytes()
    assert json.loads(json_a)["master_seed"] == cfg.master_seed
    print("[criterion 11] PASS identical seeds give byte-identical report "
          "JSON and histogram dumps")
