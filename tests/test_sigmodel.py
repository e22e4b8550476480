"""Tests for the stochastic waveform synthesizer."""

import cmath
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qfbsim import experiment as ex
from qfbsim import fxp
from qfbsim.fxp import ConfigError
from qfbsim.pipeline import COS_SEQ, NSIN_SEQ, SYNC_DEPTH
from qfbsim.sigmodel import (
    STATE_E,
    STATE_G,
    DeviceParams,
    PulseSchedule,
    QubitTrajectory,
    analog_waveform,
    carrier_tables,
    envelope_at_times,
    quantize_array,
    synthesize_adc_stream,
    thermal_population,
    trigger_lane,
)

US = 1e-6
NS = 1e-9


def held(state, t0=0.0):
    return QubitTrajectory(((t0, state),))


# ---------------------------------------------------------------------------
# thermal population


def test_thermal_population_frozen_value():
    # two-level Boltzmann ratio at 114 mK for a 6.148 GHz splitting
    assert thermal_population(0.114, 6.148e9) == pytest.approx(0.069859, abs=1e-4)


def test_thermal_population_limits():
    assert thermal_population(1e-3, 6.148e9) < 1e-40
    assert thermal_population(1e3, 6.148e9) == pytest.approx(0.5, abs=1e-3)


def test_thermal_population_invalid():
    for t_env in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t_env"):
            thermal_population(t_env, 6.148e9)


# ---------------------------------------------------------------------------
# qubit trajectories, drawn by the Monte Carlo's jump sampler


def final_states(params, initial, t_end, n, seed):
    """Qubit states at t_end of n repetitions started at 0 in initial,
    and the repetitions that jumped."""
    rng = np.random.default_rng(seed)
    state = np.full(n, initial, dtype=np.uint8)
    rows, _, end = ex._sample_jump_columns([rng], [0, n], state, 0.0, t_end,
                                           params.decay_rate(),
                                           params.excitation_rate())
    return end, rows


def test_excited_survival_probability():
    # P(no decay within 0.36 us) = exp(-0.36/1.4), binomial 3 sigma at n=1e5
    params = DeviceParams(t1=1.4 * US, p_therm=0.0)
    n = 100_000
    state, _ = final_states(params, STATE_E, 0.36 * US, n, 11)
    expect = math.exp(-0.36 / 1.4)
    sigma = math.sqrt(expect * (1 - expect) / n)
    assert abs(np.mean(state == STATE_E) - expect) < 3 * sigma


def test_thermal_equilibrium_from_ground():
    # after 10 T1 the excited population reaches p_therm
    params = DeviceParams(t1=1.4 * US, p_therm=0.07)
    n = 30_000
    state, _ = final_states(params, STATE_G, 14 * US, n, 12)
    sigma = math.sqrt(0.07 * 0.93 / n)
    assert abs(np.mean(state == STATE_E) - 0.07) < 3 * sigma


def test_trajectory_infinite_t1_is_constant():
    params = DeviceParams(t1=math.inf, p_therm=0.0)
    state, rows = final_states(params, STATE_E, 100 * US, 1000, 0)
    assert rows.size == 0
    assert (state == STATE_E).all()


def noiseless_chunk(gate, feedback, reps, seed, **device):
    """The outputs of one Monte Carlo chunk, one per feedback setting, or
    the first readout alone for feedback == (), for a qubit that never
    jumps."""
    dev = DeviceParams(t1=math.inf, amp_ss=0.6, offset_i=0.013, **device)
    cfg = ex.ExperimentConfig(device=dev, scenario=ex.PI_HALF_INIT,
                              repetitions=reps, master_seed=seed)
    return ex._run_chunk(cfg, gate, 0, 0, [reps], feedback)


def test_gates_apply_population_maps():
    # the pi init gate excites every repetition; the conditional pi
    # returns exactly those whose feedback bit fired to the ground state
    off, on = noiseless_chunk("pi", (False, True), 64, 1)
    assert off.fb1.all() and on.fb1.all()
    assert (off.it2 >= 0).all()
    assert (on.it2 < 0).all()


def test_pi_half_gate_is_unbiased():
    n = 40_000
    (arm,) = noiseless_chunk("pi_half", (), n, 2)
    assert abs(np.mean(arm.fb1) - 0.5) < 3 * math.sqrt(0.25 / n)


def test_thermal_initial_state_fraction():
    n = 50_000
    (arm,) = noiseless_chunk("none", (), n, 7, p_therm=0.07)
    assert abs(np.mean(arm.fb1) - 0.07) < 3 * math.sqrt(0.07 * 0.93 / n)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        QubitTrajectory(())
    with pytest.raises(ValueError):
        QubitTrajectory(((0.0, STATE_G), (0.0, STATE_E)))


def test_schedule_validation():
    with pytest.raises(ConfigError):
        PulseSchedule(readout_pulses=((0.0, 200 * NS), (100 * NS, 200 * NS)))
    with pytest.raises(ConfigError):
        PulseSchedule(readout_pulses=((0.0, -1 * NS),))
    with pytest.raises(ConfigError):
        PulseSchedule(readout_pulses=(), repetition_period=0.0)


# ---------------------------------------------------------------------------
# cavity envelope


def test_steady_state_envelope_values():
    params = DeviceParams()
    a_g = params.steady_alpha(STATE_G)
    assert abs(a_g) == pytest.approx(0.94412, abs=1e-4)
    assert a_g.real == pytest.approx(0.89131, abs=1e-4)
    assert a_g.imag == pytest.approx(0.31126, abs=1e-4)
    assert params.steady_alpha(STATE_E) == pytest.approx(a_g.conjugate())


def single_pulse(pulse):
    return PulseSchedule(readout_pulses=(pulse,), repetition_period=10 * US)


def test_envelope_reaches_steady_state():
    params = DeviceParams()
    pulse = (0.0, 2.0 * US)
    alpha = envelope_at_times(params, single_pulse(pulse), held(STATE_G), [1.5 * US])
    assert alpha[0] == pytest.approx(params.steady_alpha(STATE_G), abs=1e-9)


def test_envelope_matches_closed_form_rise():
    # alpha(t) = alpha_ss * (1 - exp(-lambda t)) while the state is held
    params = DeviceParams()
    lam = params.envelope_rate(STATE_E)
    a_ss = params.steady_alpha(STATE_E)
    times = np.array([7, 43, 111, 390]) * NS
    alpha = envelope_at_times(params, single_pulse((0.0, 1.0 * US)), held(STATE_E), times)
    for t, a in zip(times, alpha):
        assert a == pytest.approx(a_ss * (1 - cmath.exp(-lam * t)))


def test_envelope_zero_before_pulse_and_decays_after():
    params = DeviceParams()
    pulse = (100 * NS, 360 * NS)
    early, late = envelope_at_times(params, single_pulse(pulse), held(STATE_G),
                                    [50 * NS, pulse[0] + pulse[1] + 2 * US])
    assert early == 0
    assert abs(late) < 1e-7


def test_envelope_continuous_across_jump():
    params = DeviceParams()
    t_jump = 130 * NS
    traj = QubitTrajectory(((0.0, STATE_E), (t_jump, STATE_G)))
    eps = 1e-15
    before, after, far = envelope_at_times(
        params, single_pulse((0.0, 3.0 * US)), traj,
        [t_jump - eps, t_jump + eps, t_jump + 1.0 * US])
    assert after == pytest.approx(before, abs=1e-6)
    # and it subsequently relaxes toward the ground-state target
    assert far == pytest.approx(params.steady_alpha(STATE_G), abs=1e-8)


def test_envelope_batch_matches_scalar():
    params = DeviceParams()
    sched = PulseSchedule(readout_pulses=((80 * NS, 360 * NS), (440 * NS, 200 * NS)),
                          repetition_period=1.0 * US)
    traj = QubitTrajectory(((0.0, STATE_E), (200 * NS, STATE_G), (700 * NS, STATE_E)))
    times = np.arange(0, 1000, 10) * NS
    batch = envelope_at_times(params, sched, traj, times)
    for t, a in [(times[k], batch[k]) for k in (0, 3, 19, 20, 21, 45, 70, 99)]:
        alpha = 0j
        t_prev = 0.0
        events = sorted(set(sched.edge_times()) | {200 * NS, 700 * NS})
        for ev in [e for e in events if e <= t] + [t]:
            state = traj.state_at(t_prev)
            target = params.steady_alpha(state) if sched.pulse_on(t_prev) else 0.0
            rate = params.envelope_rate(state)
            alpha = target + (alpha - target) * cmath.exp(-rate * (ev - t_prev))
            t_prev = ev
        assert a == pytest.approx(alpha, abs=1e-12)


# ---------------------------------------------------------------------------
# waveform synthesis


def test_waveform_quarter_rate_carrier_pattern():
    # held state, steady envelope, no offsets: V repeats every 4 samples
    # with the (x, -y, -x, y) quadrature pattern, sample n at the mixer
    # phase of tick n + SYNC_DEPTH
    params = DeviceParams(amp_ss=0.6)
    sched = PulseSchedule(readout_pulses=((0.0, 2.0 * US),),
                          repetition_period=2.0 * US)
    v = analog_waveform(params, sched, held(STATE_E))
    b = params.demod_gain() * params.steady_alpha(STATE_E)
    pattern = (2 * b.real, -2 * b.imag, -2 * b.real, 2 * b.imag)
    first = v.size - 40
    for k in range(4):
        want = pattern[(first + k + SYNC_DEPTH) & 3]
        assert v[first + k::4] == pytest.approx(np.full(10, want), abs=1e-9)


def test_waveform_state_separation_sign():
    # the recovered in-phase component is positive for e, negative for g
    params = DeviceParams(amp_ss=0.6)
    sched = PulseSchedule(readout_pulses=((0.0, 2.0 * US),),
                          repetition_period=2.0 * US)
    cos, _ = carrier_tables(200)
    for state, sign in ((STATE_E, 1), (STATE_G, -1)):
        v = analog_waveform(params, sched, held(state))
        i_avg = float(np.mean(v * cos * 2))
        assert sign * i_avg > 0.05


def test_waveform_amplitude_linearity():
    sched = PulseSchedule(readout_pulses=((50 * NS, 300 * NS),),
                          repetition_period=0.5 * US)
    traj = QubitTrajectory(((0.0, STATE_G), (150 * NS, STATE_E)))
    v1 = analog_waveform(DeviceParams(amp_ss=0.3), sched, traj)
    v2 = analog_waveform(DeviceParams(amp_ss=0.6), sched, traj)
    assert v2 == pytest.approx(2.0 * v1, abs=0.0)


def test_waveform_offsets_add_carrier():
    params = DeviceParams(amp_ss=0.0, offset_i=0.013, offset_q=-0.005)
    sched = PulseSchedule(readout_pulses=(), repetition_period=0.2 * US)
    v = analog_waveform(params, sched, held(STATE_G))
    # the first sample at the demodulator's phase 0
    k = -SYNC_DEPTH % 4
    assert v[k::4] == pytest.approx(np.full(5, 2 * 0.013))
    assert v[k + 1::4] == pytest.approx(np.full(5, 2 * 0.005))


def test_carrier_follows_the_mixer_phase_of_the_receiving_tick():
    # sample k reaches the demodulator SYNC_DEPTH ticks after it is taken
    cos, sin = carrier_tables(12)
    for k in range(12):
        assert cos[k] == COS_SEQ[(k + SYNC_DEPTH) & 3]
        assert sin[k] == -NSIN_SEQ[(k + SYNC_DEPTH) & 3]


# ---------------------------------------------------------------------------
# digitization


def test_quantize_array_matches_scalar():
    rng = np.random.default_rng(5)
    volts = rng.uniform(-1.3, 1.3, size=2000)
    raw, clipped = quantize_array(volts)
    expect_clips = 0
    for v, r in zip(volts, raw):
        sample, clip = fxp.quantize_flagged(v, fxp.ADC_WIDTH)
        assert r == sample.raw
        expect_clips += clip
    assert clipped == expect_clips


def _quantize_reference(volts):
    """The quantizer's earlier where/floor/ceil form, kept as its reference."""
    scaled = volts / fxp.ADC_LSB_VOLTS
    rounded = np.where(scaled >= 0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5))
    lo, hi = fxp.raw_bounds(fxp.ADC_WIDTH)
    clipped = int(np.count_nonzero((rounded < lo) | (rounded > hi)))
    return np.clip(rounded, lo, hi).astype(np.int64), clipped


def _assert_quantizes_like_reference(volts):
    before = volts.copy()
    raw, clipped = quantize_array(volts)
    want_raw, want_clipped = _quantize_reference(volts)
    assert raw.dtype == want_raw.dtype
    np.testing.assert_array_equal(raw, want_raw)
    assert clipped == want_clipped
    # the input is left as it was
    assert np.array_equal(volts.view(np.int64), before.view(np.int64))


ADC_LO, ADC_HI = fxp.raw_bounds(fxp.ADC_WIDTH)
LSB = fxp.ADC_LSB_VOLTS


def _ties(k):
    """(k +- 1/2) LSB and k LSB for each code k, each with its two
    floating-point neighbours."""
    ties = np.concatenate([(k - 0.5) * LSB, (k + 0.5) * LSB, k * LSB])
    return np.concatenate([ties, np.nextafter(ties, -np.inf),
                           np.nextafter(ties, np.inf)])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_quantize_array_matches_reference_at_rounding_ties(sign):
    """The ties of every code and a few beyond full scale."""
    volts = sign * _ties(np.arange(ADC_LO - 3, ADC_HI + 4, dtype=float))
    _assert_quantizes_like_reference(volts.reshape(-1, 3))


def test_quantize_array_matches_scalar_at_ties_and_edges():
    """Codes and clip count equal the scalar quantize_flagged's at the
    ties of the codes near zero and near both ends of the range (and
    beyond them), at -0.0, and at +-1 V."""
    k = np.concatenate([np.arange(ADC_LO - 3, ADC_LO + 4), np.arange(-3, 4),
                        np.arange(ADC_HI - 3, ADC_HI + 4)]).astype(float)
    volts = np.concatenate([_ties(k), -_ties(k), [0.0, -0.0, 1.0, -1.0]])
    raw, clipped = quantize_array(volts.reshape(-1, 2))
    want = [fxp.quantize_flagged(v, fxp.ADC_WIDTH) for v in volts]
    assert raw.ravel().tolist() == [sample.raw for sample, _ in want]
    assert clipped == sum(clip for _, clip in want) > 0


def test_quantize_array_matches_reference_at_zero_and_beyond_full_scale():
    edges = [(ADC_HI + 0.5) * LSB, (ADC_LO - 0.5) * LSB, ADC_HI * LSB,
             ADC_LO * LSB, 1e3, 5e-324, np.inf]
    volts = np.array([0.0, -0.0] + edges + [-v for v in edges])
    _assert_quantizes_like_reference(volts)
    raw, clipped = quantize_array(volts)
    assert raw[:2].tolist() == [0, 0]
    assert clipped == 8


# the range edges, in LSBs, with their floating-point neighbours
_EDGES = np.array([ADC_LO - 1, ADC_LO - 0.5, ADC_LO, ADC_HI, ADC_HI + 0.5,
                   ADC_HI + 1], dtype=float)
_NEAR_EDGES = np.concatenate([_EDGES, np.nextafter(_EDGES, -np.inf),
                              np.nextafter(_EDGES, np.inf)])


@pytest.mark.parametrize("k", _NEAR_EDGES)
@pytest.mark.parametrize("scaled", [False, True], ids=["volts", "rounded"])
def test_quantize_array_matches_the_scalar_quantizer_at_the_range_edges(k, scaled):
    """At lo - 1, lo - 1/2, hi + 1/2 and hi + 1 and their neighbours,
    given in LSBs either as the volts or as the rounded value the clip
    count reads (volts + copysign(1/2)): the codes and the clip count
    equal the scalar quantizer's."""
    if scaled:
        k = k - math.copysign(0.5, k)
    volts = np.array([k * LSB, 0.25 * LSB, -3.0 * LSB])
    raw, clipped = quantize_array(volts)
    want = [fxp.quantize_flagged(v, fxp.ADC_WIDTH) for v in volts]
    assert raw.tolist() == [sample.raw for sample, _ in want]
    assert clipped == sum(clip for _, clip in want)


@pytest.mark.parametrize("volts", [[np.nan], [0.0, np.nan, -0.5],
                                   [np.nan, 2.0]])
def test_quantize_array_passes_nan_to_the_cast(volts):
    """A NaN counts as no clip, the cast of the NaN warns, and every
    other code and the clip count equal the reference's."""
    volts = np.array(volts)
    with pytest.warns(RuntimeWarning, match="invalid value"):
        raw, clipped = quantize_array(volts)
    finite = ~np.isnan(volts)
    want_raw, want_clipped = _quantize_reference(volts[finite])
    np.testing.assert_array_equal(raw[finite], want_raw)
    assert clipped == want_clipped


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 64), st.integers(1, 8)),
              elements=st.floats(-1.5, 1.5, allow_nan=False)))
def test_quantize_array_matches_reference_on_random_volts(volts):
    _assert_quantizes_like_reference(volts)


def test_quantize_array_matches_reference_on_a_noisy_chunk():
    volts = np.random.default_rng(8).normal(0.0, 0.4, size=(4096, 8))
    _assert_quantizes_like_reference(volts)
    assert _quantize_reference(volts)[1] > 0


def test_stream_trigger_per_pulse():
    params = DeviceParams()
    sched = PulseSchedule(readout_pulses=((80 * NS, 360 * NS), (440 * NS, 360 * NS)),
                          repetition_period=1.0 * US)
    stream = synthesize_adc_stream(params, sched, held(STATE_G))
    assert stream.raw.dtype == stream.triggers.dtype == np.int64
    assert stream.raw.shape == stream.triggers.shape == (100 + SYNC_DEPTH,)
    assert sum(stream.triggers) == 2
    assert stream.triggers[8] == 1
    assert stream.triggers[44] == 1
    # the data lane runs SYNC_DEPTH ticks behind the trigger lane
    assert not stream.triggers[-SYNC_DEPTH:].any()
    assert not stream.raw[:SYNC_DEPTH].any()
    raw, _ = quantize_array(analog_waveform(params, sched, held(STATE_G)))
    np.testing.assert_array_equal(stream.raw[SYNC_DEPTH:], raw)


def test_stream_saturation_count():
    params = DeviceParams(amp_ss=5.0)
    sched = PulseSchedule(readout_pulses=((0.0, 1.0 * US),),
                          repetition_period=1.0 * US)
    stream = synthesize_adc_stream(params, sched, held(STATE_E))
    assert stream.saturated_count > 0
    lo, hi = fxp.raw_bounds(fxp.ADC_WIDTH)
    assert lo <= stream.raw.min() and stream.raw.max() <= hi


def test_stream_rejects_a_noisy_device():
    params = DeviceParams(noise_sigma=0.01)
    sched = PulseSchedule(readout_pulses=((80 * NS, 360 * NS),),
                          repetition_period=0.72 * US)
    with pytest.raises(ValueError, match="noiseless"):
        synthesize_adc_stream(params, sched, held(STATE_G))


def test_trigger_lane_outside_window_ignored():
    sched = PulseSchedule(readout_pulses=((2.0 * US, 0.1 * US),),
                          repetition_period=1.0 * US)
    assert sum(trigger_lane(sched, 100)) == 0


def test_device_params_validation():
    with pytest.raises(ConfigError):
        DeviceParams(p_therm=0.6)
    with pytest.raises(ConfigError):
        DeviceParams(t1=0.0)
    with pytest.raises(ConfigError):
        DeviceParams(noise_sigma=-1.0)
    # every field must be finite; only t1 may be +inf (no decay)
    for f in fields(DeviceParams):
        for bad in (math.nan, math.inf, -math.inf):
            if f.name == "t1" and bad == math.inf:
                continue
            with pytest.raises(ConfigError, match=f.name):
                DeviceParams(**{f.name: bad})
    assert DeviceParams(t1=math.inf).decay_rate() == 0.0
