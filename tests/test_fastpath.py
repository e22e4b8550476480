"""Differential tests for the Monte Carlo's readout-tick fast path.

The chunk evaluates the pipeline only at the two readout ticks, from the
2 l samples inside the integration windows, skips the envelope before
the first pulse and after the second window (after the first pulse for
a single readout), and runs its first phase once for all feedback
settings.  These tests hold it to the full-stream
batch pipeline, whose filter it shares and which is held to the scalar
machine, each repetition's readouts to the scalar synthesizer and
machine replaying its draws, its batch envelope to the scalar envelope
of each repetition, and a feedback comparison to two separate runs.
The sparse envelope and jump sampler are held bit for bit to the dense
loops they replaced, kept here, and a batch of chunks to the same
chunks run one at a time.
"""

import itertools
import math
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfbsim import experiment as ex
from qfbsim.config import load_file, resolve_noise
from qfbsim.fxp import ADC_LSB_VOLTS, SHIFT_MAX, ConfigError, raw_bounds
from qfbsim.pipeline import (
    CLOCK_PERIOD_NS,
    FILTER_WIDTH,
    PREPROC_WIDTH,
    SYNC_DEPTH,
    PipelineConfig,
    filter_window,
    run_stream,
    run_stream_batch,
    scaled_iq_at,
)
from qfbsim.sigmodel import (
    STATE_E,
    STATE_G,
    DeviceParams,
    PulseSchedule,
    QubitTrajectory,
    analog_waveform,
    envelope_at_times,
    quantize_array,
    thermal_population,
    trigger_lane,
)

ADC_LO, ADC_HI = raw_bounds(14)
FILTER_LO, FILTER_HI = raw_bounds(FILTER_WIDTH)
# clipped samples of 4096 forced-clipping repetitions (seed 11) inside
# the two integration windows, the only samples that get noise
ADC_SATURATED_SIGMA_0_4 = 1680

# ---------------------------------------------------------------------------
# one tick from its window == the whole-stream batch pipeline


@st.composite
def tick_cases(draw):
    l = draw(st.sampled_from([2, 4, 8, 16, 32]))
    first = draw(st.integers(0, 7))
    cfg = PipelineConfig(
        window_len=l,
        c_i=draw(st.integers(FILTER_LO, FILTER_HI)),
        c_q=draw(st.integers(FILTER_LO, FILTER_HI)),
        s_i=draw(st.integers(-7, 7)),
        s_q=draw(st.integers(-7, 7)))
    reps = draw(st.integers(1, 4))
    ticks = first + l + 3 + draw(st.integers(0, 5))
    full_scale = draw(st.booleans())
    values = st.sampled_from([ADC_LO, ADC_HI]) if full_scale \
        else st.integers(ADC_LO, ADC_HI)
    stream = np.array(draw(st.lists(values, min_size=reps * ticks,
                                    max_size=reps * ticks)),
                      dtype=np.int64).reshape(reps, ticks)
    return cfg, stream, first


def _scalar_iq_t(cfg, stream, tick):
    """(i_t, q_t) of each row's stream at tick, from the scalar machine."""
    outs = [run_stream(cfg, row, [0] * len(row))[tick] for row in stream]
    return np.array([o.i_t for o in outs]), np.array([o.q_t for o in outs])


@settings(max_examples=300, deadline=None)
@given(tick_cases())
def test_scaled_iq_at_matches_batch_pipeline(case):
    """scaled_iq_at and run_stream_batch share the vectorized filter, so
    both are held to the scalar machine as well as to each other."""
    cfg, stream, first = case
    tick = first + cfg.window_len + 2
    assert filter_window(cfg, tick) == range(first, first + cfg.window_len)
    bt = run_stream_batch(cfg, stream, np.zeros(stream.shape[1], dtype=np.int64))
    i_t, q_t = scaled_iq_at(cfg, stream[:, first:first + cfg.window_len], first)
    np.testing.assert_array_equal(i_t, bt.i_t[:, tick])
    np.testing.assert_array_equal(q_t, bt.q_t[:, tick])
    want_i, want_q = _scalar_iq_t(cfg, stream, tick)
    np.testing.assert_array_equal(i_t, want_i)
    np.testing.assert_array_equal(q_t, want_q)


@pytest.mark.parametrize("first", range(4))
def test_scaled_iq_at_saturates_like_batch(first):
    lo, hi = raw_bounds(PREPROC_WIDTH)
    cfg = PipelineConfig(window_len=2, s_i=7, s_q=7)
    stream = np.array([[ADC_LO] * 8, [ADC_HI] * 8])
    i_t, q_t = scaled_iq_at(cfg, stream[:, first:first + 2], first)
    bt = run_stream_batch(cfg, stream, np.zeros(8, dtype=np.int64))
    np.testing.assert_array_equal(i_t, bt.i_t[:, first + 4])
    np.testing.assert_array_equal(q_t, bt.q_t[:, first + 4])
    want_i, want_q = _scalar_iq_t(cfg, stream, first + 4)
    np.testing.assert_array_equal(i_t, want_i)
    np.testing.assert_array_equal(q_t, want_q)
    both = np.concatenate([i_t, q_t])
    assert set(both.tolist()) & {lo, hi}


@pytest.mark.parametrize("l", [2, 4, 8, 16, 32])
@pytest.mark.parametrize("first", range(8))
def test_scaled_iq_at_matches_scalar_at_every_phase_and_length(l, first):
    """The filter's column sums at every first & 3 (twice over) and every
    window length equal the scalar machine's mixer and moving average."""
    rng = np.random.default_rng([l, first])
    cfg = PipelineConfig(
        window_len=l,
        c_i=int(rng.integers(FILTER_LO, FILTER_HI)),
        c_q=int(rng.integers(FILTER_LO, FILTER_HI)),
        s_i=int(rng.integers(-3, 1)), s_q=int(rng.integers(-3, 1)))
    stream = rng.integers(ADC_LO, ADC_HI + 1, size=(3, first + l + 3))
    i_t, q_t = scaled_iq_at(cfg, stream[:, first:first + l], first)
    want_i, want_q = _scalar_iq_t(cfg, stream, first + l + 2)
    np.testing.assert_array_equal(i_t, want_i)
    np.testing.assert_array_equal(q_t, want_q)


def test_scaled_iq_at_rejects_bad_windows():
    cfg = PipelineConfig(window_len=4)
    with pytest.raises(ValueError):
        scaled_iq_at(cfg, np.zeros((3, 2), dtype=np.int64), 0)
    with pytest.raises(ValueError):
        scaled_iq_at(cfg, np.zeros((3, 4), dtype=np.int64), -1)


# ---------------------------------------------------------------------------
# one chunk == a full 66-sample synthesis through the 72-tick batch pipeline

P_THERM = thermal_population(0.114, 6.148e9)


def _device(**kw):
    base = dict(t1=1.4e-6, p_therm=P_THERM, amp_ss=0.6, offset_i=0.013,
                noise_sigma=0.06)
    base.update(kw)
    return DeviceParams(**base)


def _full_segments(cfg):
    """Every segment of the repetition window, as (start, end, pulse on):
    the first phase from the grid start to the conditional pi, the
    second from there to the end of the 66-sample window."""
    t_pi = cfg.t_pi_ns * ex.NS
    m1_end = ex.M1_START_NS + ex.PULSE_NS
    m2_end = ex.M2_START_NS + ex.PULSE_NS
    t_end = ex.GRID_START_NS + ex.N_SOURCE * CLOCK_PERIOD_NS
    first = [(ex.GRID_START_NS * ex.NS, ex.M1_START_NS * ex.NS, False),
             (ex.M1_START_NS * ex.NS, m1_end * ex.NS, True),
             (m1_end * ex.NS, t_pi, False)]
    second = [(t_pi, ex.M2_START_NS * ex.NS, False),
              (ex.M2_START_NS * ex.NS, m2_end * ex.NS, True),
              (m2_end * ex.NS, t_end * ex.NS, False)]
    return first, second


@pytest.mark.parametrize("p_therm", [0.0, 0.3])
@pytest.mark.parametrize("initial", [STATE_G, STATE_E])
def test_envelope_filler_matches_scalar_envelope(initial, p_therm):
    """Every grid column of the batch envelope, across the whole segment
    table, equals the scalar envelope of that repetition's trajectory."""
    dev = _device(t1=200e-9, p_therm=p_therm)
    cfg = ex.ExperimentConfig(device=dev, scenario=ex.PI_HALF_INIT)
    reps = 300
    rng = np.random.default_rng(17)
    state = np.full(reps, initial, dtype=np.uint8)
    t0 = ex.GRID_START_NS * ex.NS
    flips = [[(t0, int(s))] for s in state]
    jumps = 0
    filler = ex._EnvelopeFiller(dev, reps, np.arange(ex.N_SOURCE))
    first, second = _full_segments(cfg)
    for k, (a, b, on) in enumerate(first + second):
        if k in (1, len(first)):
            # a gate at the segment start: init gate, conditional pi
            gate = rng.random(reps) < 0.5
            state = np.where(gate, state ^ 1, state)
            for r in np.flatnonzero(gate):
                flips[r].append((a, int(state[r])))
        rows, times, end = ex._sample_jump_columns(
            [rng], [0, reps], state, a, b, dev.decay_rate(), dev.excitation_rate())
        for event in times:
            for r, t in zip(rows, event):
                if np.isfinite(t):
                    flips[r].append((t, flips[r][-1][1] ^ 1))
                    jumps += 1
        filler.run_segment(state, a, b, on, rows, times)
        assert [f[-1][1] for f in flips] == end.tolist()
        state = end
    assert jumps > reps / 2
    sched = PulseSchedule(
        readout_pulses=((ex.M1_START_NS * ex.NS, ex.PULSE_NS * ex.NS),
                        (ex.M2_START_NS * ex.NS, ex.PULSE_NS * ex.NS)),
        t_start=t0, repetition_period=ex.N_SOURCE * CLOCK_PERIOD_NS * ex.NS)
    for r in range(reps):
        want = envelope_at_times(dev, sched, QubitTrajectory(tuple(flips[r])),
                                 ex._grid_times_s())
        np.testing.assert_allclose(filler.out[r], want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the sparse envelope and jump sampler == their dense loops, bit for bit


def _dense_jump_columns(rng, state, a, b, gamma_down, gamma_up):
    """Reference sampler: every repetition's arithmetic in every iteration,
    with one draw per still-active repetition scattered into place.
    Returns chronological (reps,) event columns, +inf where a repetition
    has no further jump, and every repetition's state at b."""
    cols = []
    state = state.copy()
    t = np.full(state.shape, a)
    active = np.ones(state.shape, dtype=bool)
    while True:
        rates = np.where(state == STATE_E, gamma_down, gamma_up)
        u = np.zeros(state.shape)
        u[active] = rng.exponential(1.0, size=active.sum())
        with np.errstate(divide="ignore"):
            dt = np.where(rates > 0, u / np.maximum(rates, 1e-300), np.inf)
        t_next = t + dt
        jump = active & (t_next < b)
        if not jump.any():
            break
        cols.append(np.where(jump, t_next, np.inf))
        state[jump] ^= 1
        t = np.where(jump, t_next, t)
        active = jump
    return cols, state


def _jumps_of(cols):
    """The sampler's (rows, times) layout of dense event columns: the
    repetitions with a finite time in the first column, and their times
    as (events, rows)."""
    if not cols:
        return np.zeros(0, dtype=np.intp), np.zeros((0, 0))
    rows = np.flatnonzero(np.isfinite(cols[0]))
    return rows, np.stack([c[rows] for c in cols])


class _DenseFiller:
    """Reference envelope: every event column x every evaluated column,
    with masks over all repetitions."""

    def __init__(self, device, reps, cols):
        self.a_g = device.steady_alpha(STATE_G)
        self.a_e = device.steady_alpha(STATE_E)
        self.lam_g = device.envelope_rate(STATE_G)
        self.lam_e = device.envelope_rate(STATE_E)
        self.alpha = np.zeros(reps, dtype=complex)
        self.grid = ex._grid_times_s()[cols]
        self.out = np.zeros((reps, self.grid.size), dtype=complex)

    def _step(self, alpha, state, t_from, t_to, pulse_on):
        lam = np.where(state == STATE_G, self.lam_g, self.lam_e)
        if pulse_on:
            target = np.where(state == STATE_G, self.a_g, self.a_e)
        else:
            target = 0.0
        return target + (alpha - target) * np.exp(-lam * (t_to - t_from))

    def run_segment(self, state, a, b, pulse_on, cols):
        state = state.copy()
        idx = np.flatnonzero((self.grid >= a) & (self.grid < b))
        t_cur = np.full(state.shape, a)
        filled = np.zeros((state.shape[0], idx.size), dtype=bool)
        for times in [*cols, None]:
            bound = np.full(state.shape, np.inf) if times is None else times
            for jj, j in enumerate(idx):
                gt = self.grid[j]
                need = (gt < bound) & ~filled[:, jj]
                if need.any():
                    self.out[need, j] = self._step(
                        self.alpha[need], state[need], t_cur[need], gt, pulse_on)
                    filled[:, jj] |= need
            if times is not None:
                valid = np.isfinite(times)
                if valid.any():
                    self.alpha[valid] = self._step(
                        self.alpha[valid], state[valid], t_cur[valid],
                        times[valid], pulse_on)
                    t_cur = np.where(valid, times, t_cur)
                    state = np.where(valid, state ^ 1, state)
        self.alpha = self._step(self.alpha, state, t_cur, b, pulse_on)


GRID_S = ex._grid_times_s()
RATES = [0.0, 1 / 1.4e-6, 1 / 200e-9, 1 / 30e-9]


@st.composite
def segment_bounds(draw):
    """[a, b) on the grid or between grid points: some hold no grid
    point, some start or end exactly on one."""
    first = draw(st.integers(0, ex.N_SOURCE - 1))
    last = draw(st.integers(first, ex.N_SOURCE))
    step = CLOCK_PERIOD_NS * ex.NS
    a = GRID_S[0] + first * step + draw(st.sampled_from([0.0, 0.3, 0.99])) * step
    b = GRID_S[0] + last * step + draw(st.sampled_from([0.0, 0.5, 1.0])) * step
    return (a, b) if a < b else (a, a + 0.5 * step)


@st.composite
def envelope_cases(draw):
    dev = _device(p_therm=draw(st.sampled_from([0.0, 0.3])),
                  t1=draw(st.sampled_from([200e-9, math.inf])))
    reps = draw(st.integers(1, 24))
    a, b = draw(segment_bounds())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    initial = draw(st.sampled_from(["g", "e", "mixed"]))
    state = {"g": np.full(reps, STATE_G, dtype=np.uint8),
             "e": np.full(reps, STATE_E, dtype=np.uint8),
             "mixed": rng.integers(0, 2, reps).astype(np.uint8)}[initial]
    jumps = draw(st.sampled_from(["sampled", "none", "all", "some"]))
    if jumps == "sampled":
        cols, _ = _dense_jump_columns(rng, state, a, b,
                                      dev.decay_rate(), dev.excitation_rate())
    else:
        # jump times on grid points, on both segment edges, repeated,
        # and anywhere in between
        on_grid = GRID_S[(GRID_S >= a) & (GRID_S < b)].tolist()
        pool = st.sampled_from(on_grid + [a, b]) | st.floats(a, b)
        fewest = {"none": 0, "all": 1, "some": 0}[jumps]
        most = 0 if jumps == "none" else 3
        per_rep = [sorted(draw(st.lists(pool, min_size=fewest, max_size=most)))
                   for _ in range(reps)]
        cols = [np.array([t[k] if k < len(t) else np.inf for t in per_rep])
                for k in range(max(map(len, per_rep)))]
    filler_cols = np.array(draw(st.lists(st.integers(0, ex.N_SOURCE - 1),
                                         unique=True, max_size=12)), dtype=int)
    alpha = rng.normal(size=reps) + 1j * rng.normal(size=reps)
    return dev, state, a, b, draw(st.booleans()), cols, filler_cols, alpha


@settings(max_examples=400, deadline=None)
@given(envelope_cases())
def test_envelope_filler_matches_dense_loop_bitwise(case):
    dev, state, a, b, pulse_on, cols, filler_cols, alpha = case
    want = _DenseFiller(dev, state.size, filler_cols)
    got = ex._EnvelopeFiller(dev, state.size, filler_cols)
    want.alpha, got.alpha = alpha.copy(), alpha.copy()
    want.run_segment(state, a, b, pulse_on, cols)
    got.run_segment(state, a, b, pulse_on, *_jumps_of(cols))
    assert np.array_equal(got.out, want.out)
    assert np.array_equal(got.alpha, want.alpha)


def _sampled_per_chunk(seed, sizes, state, a, b, gamma_down, gamma_up):
    """Sample a batch of chunks with one generator each, and check each
    chunk's part against the dense loop run on that chunk alone, from a
    generator seeded alike: the same jumping rows and times (then +inf in
    the batch's further events), the same end states, the same final
    generator state.  Returns each chunk's event count."""
    bounds = np.cumsum([0, *sizes])
    before = state.copy()
    rngs = [np.random.default_rng([seed, k]) for k in range(len(sizes))]
    rows, times, end = ex._sample_jump_columns(rngs, bounds, state, a, b,
                                               gamma_down, gamma_up)
    assert np.all(np.diff(rows) > 0)
    assert times.shape[1] == rows.size
    counts = []
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        rng = np.random.default_rng([seed, k])
        cols, want_end = _dense_jump_columns(rng, state[lo:hi], a, b,
                                             gamma_down, gamma_up)
        want_rows, want_times = _jumps_of(cols)
        mine = (rows >= lo) & (rows < hi)
        assert np.array_equal(rows[mine] - lo, want_rows)
        assert times.shape[0] >= len(cols)
        assert np.array_equal(times[:len(cols), mine], want_times)
        assert np.isinf(times[len(cols):, mine]).all()
        assert np.array_equal(end[lo:hi], want_end)
        assert rngs[k].bit_generator.state == rng.bit_generator.state
        counts.append(len(cols))
    assert times.shape[0] == max(counts)
    assert np.array_equal(state, before)
    return counts


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       sizes=st.lists(st.integers(0, 40), min_size=1, max_size=5),
       gamma_down=st.sampled_from(RATES), gamma_up=st.sampled_from(RATES),
       bounds=segment_bounds())
@example(seed=1, sizes=[40], gamma_down=0.0, gamma_up=1 / 30e-9,
         bounds=(0.0, 200e-9))
@example(seed=2, sizes=[40], gamma_down=1 / 30e-9, gamma_up=0.0,
         bounds=(0.0, 200e-9))
def test_jump_sampler_matches_dense_loop_bitwise(seed, sizes, gamma_down,
                                                 gamma_up, bounds):
    """Each chunk of a batch gets, bit for bit, the columns and the
    generator state of the dense loop run on that chunk alone."""
    a, b = bounds
    state = np.random.default_rng(seed + 1).integers(0, 2, sum(sizes)).astype(np.uint8)
    _sampled_per_chunk(seed, sizes, state, a, b, gamma_down, gamma_up)


def test_jump_sampler_with_one_zero_rate_matches_dense_loop():
    """p_therm = 0 with a finite t1: the ground state's rate is zero, so
    a repetition decays at most once, and never jumps from g."""
    dev = _device(p_therm=0.0)
    assert dev.excitation_rate() == 0.0 < dev.decay_rate()
    state = np.random.default_rng(12).integers(0, 2, 150).astype(np.uint8)
    assert _sampled_per_chunk(6, [60, 0, 90], state, 0.0, 2e-6,
                              dev.decay_rate(), dev.excitation_rate()) == [1, 0, 1]


def test_jump_sampler_covers_ragged_batches():
    """The cases the property test must reach, made certain: no
    repetitions at all, an empty chunk between others, a chunk that
    stops jumping before the others, and zero rates."""
    fast = 1 / 30e-9
    assert _sampled_per_chunk(3, [0], np.zeros(0, dtype=np.uint8),
                              0.0, 200e-9, fast, fast) == [0]
    state = np.random.default_rng(9).integers(0, 2, 66).astype(np.uint8)
    counts = _sampled_per_chunk(4, [40, 0, 1, 25], state, 0.0, 200e-9, fast, fast)
    assert counts[1] == 0
    assert 0 < counts[2] < max(counts)
    assert _sampled_per_chunk(5, [40, 0, 26], state, 0.0, 200e-9, 0.0, 0.0) == [0, 0, 0]


def _readout_schedule(double):
    """The repetition window's readout pulses: the first, and the second
    when double."""
    pulses = ((ex.M1_START_NS * ex.NS, ex.PULSE_NS * ex.NS),
              (ex.M2_START_NS * ex.NS, ex.PULSE_NS * ex.NS))
    return PulseSchedule(
        readout_pulses=pulses if double else pulses[:1],
        t_start=ex.GRID_START_NS * ex.NS,
        repetition_period=ex.N_SOURCE * CLOCK_PERIOD_NS * ex.NS)


def _pipeline_triggers(double):
    """The trigger lane of the N_SOURCE + SYNC_DEPTH pipeline ticks."""
    return np.pad(trigger_lane(_readout_schedule(double), ex.N_SOURCE),
                  (0, SYNC_DEPTH))


def _reference_chunk(cfg, gate, stream_id, chunk_idx, reps, feedback):
    """The chunk as the whole window would compute it: every segment of
    the envelope propagated, every sample synthesized, every tick of the
    72-tick stream run, same draws, the one feedback setting given
    ((False,) or (True,)), or a single readout for ().  The noise is
    drawn for the observed columns only and scattered into a zero
    (reps, N_SOURCE) array, so any draw for another column would shift
    every later one."""
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.master_seed, stream_id, chunk_idx]))
    dev = cfg.device
    double = bool(feedback)
    triggers = [ex.TRIG1_TICK] + ([ex.TRIG2_TICK] if double else [])
    windows = [filter_window(cfg.pipeline, cfg.eval_tick(t)) for t in triggers]
    observed = np.concatenate([np.arange(w.start, w.stop) for w in windows]) - SYNC_DEPTH
    noise = np.zeros((reps, ex.N_SOURCE))
    if dev.noise_sigma > 0:
        noise[:, observed] = rng.normal(0.0, dev.noise_sigma,
                                        size=(reps, observed.size))
    state = (rng.random(reps) < dev.p_therm).astype(np.uint8)
    filler = ex._EnvelopeFiller(dev, reps, np.arange(ex.N_SOURCE))

    def segments(segs, state):
        for a, b, on in segs:
            rows, times, end = ex._sample_jump_columns(
                [rng], [0, reps], state, a, b,
                dev.decay_rate(), dev.excitation_rate())
            filler.run_segment(state, a, b, on, rows, times)
            state = end
        return state

    def volts():
        return ex._waveform_volts(dev, filler.out, slice(None)) + noise

    def pipeline(raw, double):
        # the ADC link's skew: tick n carries source sample n - SYNC_DEPTH
        return run_stream_batch(cfg.pipeline,
                                np.pad(raw, ((0, 0), (SYNC_DEPTH, 0))),
                                _pipeline_triggers(double))

    a_segs, b_segs = _full_segments(cfg)
    if double:
        # a segment draws one exponential per repetition still jumping,
        # so the second pulse is split where the chunk's second phase
        # stops, at the end of the second window, to draw the same numbers
        t_w2 = (ex.GRID_START_NS
                + CLOCK_PERIOD_NS * (windows[-1].stop - SYNC_DEPTH)) * ex.NS
        (m2_start, m2_end, on) = b_segs[1]
        b_segs = [b_segs[0], (m2_start, t_w2, on), (t_w2, m2_end, on), b_segs[2]]
    state = segments(a_segs[:1], state)
    if gate == "pi_half":
        state = (rng.random(reps) < 0.5).astype(np.uint8)
    elif gate == "pi":
        state = state ^ 1
    state = segments(a_segs[1:], state)

    # samples after the conditional pi are not final yet, and cannot
    # reach the first readout: the feedback bit is read from this run
    m1 = cfg.eval_tick(ex.TRIG1_TICK)
    fb1 = pipeline(quantize_array(volts())[0], False).fb[:, m1 + 1]

    if feedback == (True,):
        state = np.where(fb1.astype(bool), state ^ 1, state)
    segments(b_segs if double
             else [(b_segs[0][0], b_segs[-1][1], False)], state)

    v = volts()
    bt = pipeline(quantize_array(v)[0], double)
    clipped = 0
    for ticks in windows:
        clipped += quantize_array(v[:, ticks.start - SYNC_DEPTH:
                                    ticks.stop - SYNC_DEPTH])[1]
    it1, qt1 = bt.i_t[:, m1], bt.q_t[:, m1]
    assert np.array_equal(bt.fb[:, m1 + 1], fb1)
    if not double:
        return ex._McResult(it1, qt1, fb1, None, None, clipped)
    m2 = cfg.eval_tick(ex.TRIG2_TICK)
    return ex._McResult(it1, qt1, fb1, bt.i_t[:, m2], bt.q_t[:, m2], clipped)


# each scenario's init gate, as run_feedback_comparison applies it
GATE = {ex.PI_HALF_INIT: "pi_half", ex.THERMAL_INIT: "none"}
# the feedback arms of a chunk: both, or none for a single readout
BOTH, SINGLE = (False, True), ()
CASES = [
    (ex.PI_HALF_INIT, {}, "pi_half", BOTH),
    (ex.THERMAL_INIT, {}, "none", BOTH),
    (ex.PI_HALF_INIT, {}, "none", SINGLE),
    (ex.PI_HALF_INIT, {}, "pi", SINGLE),
    (ex.PI_HALF_INIT, {"noise_sigma": 0.0}, "pi_half", BOTH),
    (ex.THERMAL_INIT, {"t1": math.inf}, "none", BOTH),
    (ex.PI_HALF_INIT, {"noise_sigma": 0.4}, "pi_half", BOTH),   # ADC clipping
]


def _chunk_both_ways(cfg, gate, stream_id, chunk_idx, reps, feedback):
    """The chunk run for feedback alone, and, for one arm, branched from
    one first phase into both arms; every run must give the same output.
    A single readout (feedback == ()) has no arms to branch into."""
    (alone,) = ex._run_chunk(cfg, gate, stream_id, chunk_idx, [reps], feedback)
    if not feedback:
        return [alone]
    branched = ex._run_chunk(cfg, gate, stream_id, chunk_idx, [reps], BOTH)
    assert len(branched) == 2
    return alone, branched[feedback[0]]


READOUTS = ("it1", "qt1", "fb1", "it2", "qt2")


def _assert_chunk_equal(got, want):
    for name in READOUTS:
        g, w = getattr(got, name), getattr(want, name)
        if w is None:
            assert g is None
        else:
            np.testing.assert_array_equal(g, w)
    assert got.saturated == want.saturated


@pytest.mark.parametrize("scenario,dev_kw,gate,feedback", [
    (scenario, dev_kw, gate, arm) for scenario, dev_kw, gate, arms in CASES
    for arm in [(enabled,) for enabled in arms] or [SINGLE]])
def test_chunk_matches_full_window_reference(scenario, dev_kw, gate, feedback):
    cfg = ex.ExperimentConfig(device=_device(**dev_kw), scenario=scenario,
                              repetitions=300, master_seed=5)
    want = _reference_chunk(cfg, gate, 3, 1, 300, feedback)
    for got in _chunk_both_ways(cfg, gate, 3, 1, 300, feedback):
        _assert_chunk_equal(got, want)
        if dev_kw.get("noise_sigma") == 0.4:
            assert got.saturated > 0


BATCH_CASES = CASES + [(ex.THERMAL_INIT, {"t1": 200e-9}, "none", BOTH)]


@pytest.mark.parametrize("scenario,dev_kw,gate,feedback", BATCH_CASES)
def test_batch_equals_its_chunks_one_at_a_time(scenario, dev_kw, gate, feedback):
    """A batch of chunks 0..3, the last one ragged, equals bit for bit
    the concatenation of each chunk run as a batch of its own, in both
    arms, or in the single readout."""
    sizes = [700, 700, 700, 123]
    cfg = ex.ExperimentConfig(device=_device(**dev_kw), scenario=scenario,
                              repetitions=sum(sizes), master_seed=5)
    batch = ex._run_chunk(cfg, gate, 3, 0, sizes, feedback)
    alone = [ex._run_chunk(cfg, gate, 3, k, [n], feedback)
             for k, n in enumerate(sizes)]
    for arm, got in enumerate(batch):
        parts = [chunk[arm] for chunk in alone]
        want = [None if getattr(parts[0], name) is None
                else np.concatenate([getattr(p, name) for p in parts])
                for name in READOUTS]
        _assert_chunk_equal(got, ex._McResult(*want, sum(p.saturated for p in parts)))
        assert got.n == got.it1.size == sum(sizes)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_chunk_noise_drawn_in_place_equals_normal_draws(monkeypatch):
    """Each chunk's noise is rng.normal(0.0, sigma, size=(n, observed))
    bit for bit, its first l columns in the first window and the rest
    in each arm's second; the in-place draw leaves each generator where
    normal leaves it."""
    cfg = ex.ExperimentConfig(device=_device(), scenario=ex.PI_HALF_INIT)
    l, sigma, sizes = cfg.window_len, cfg.device.noise_sigma, [7, 3, 11]
    noises = []
    read = ex._read_window

    def recording_read(cfg, cls, idx, alpha, noise, cols):
        noises.append(noise.copy())
        return read(cfg, cls, idx, alpha, noise, cols)

    monkeypatch.setattr(ex, "_read_window", recording_read)
    ex._run_chunk(cfg, GATE[cfg.scenario], 1, 2, sizes, BOTH)

    def generators():
        return [np.random.default_rng(np.random.SeedSequence([cfg.master_seed, 1, 2 + k]))
                for k in range(len(sizes))]

    rngs = generators()
    want = np.concatenate([rng.normal(0.0, sigma, size=(n, 2 * l))
                           for rng, n in zip(rngs, sizes)])
    assert len(noises) == 3
    assert np.array_equal(_bits(noises[0]), _bits(want[:, :l]))
    for got in noises[1:]:
        assert np.array_equal(_bits(got), _bits(want[:, l:]))
    in_place = generators()
    ex._per_chunk(in_place, np.cumsum([0, *sizes]),
                  np.random.Generator.standard_normal, 2 * l)
    assert ([rng.bit_generator.state for rng in in_place]
            == [rng.bit_generator.state for rng in rngs])


def _recorded_chunk(monkeypatch, cfg, gate, feedback, reps):
    """Run one chunk of the feedback arms; return its quantizer inputs,
    in call order, and the jumping rows and times it sampled with the
    states they were sampled from."""
    volts, sampled = [], []
    quantize, sample = ex.quantize_array, ex._sample_jump_columns

    def recording_quantize(v):
        volts.append(v.copy())
        return quantize(v)

    def recording_sample(rngs, bounds, state, a, b, gamma_down, gamma_up):
        rows, times, end = sample(rngs, bounds, state, a, b, gamma_down, gamma_up)
        sampled.append((state.copy(), rows, times))
        return rows, times, end

    monkeypatch.setattr(ex, "quantize_array", recording_quantize)
    monkeypatch.setattr(ex, "_sample_jump_columns", recording_sample)
    ex._run_chunk(cfg, gate, 3, 1, [reps], feedback)
    monkeypatch.undo()
    return volts, sampled


CLASS_CASES = [
    (ex.PI_HALF_INIT, {}, "pi_half", BOTH),
    (ex.THERMAL_INIT, {}, "none", BOTH),
    (ex.PI_HALF_INIT, {}, "none", SINGLE),
    (ex.PI_HALF_INIT, {}, "pi", SINGLE),
    (ex.THERMAL_INIT, {"t1": math.inf}, "none", BOTH),
    (ex.PI_HALF_INIT, {"noise_sigma": 0.0}, "pi_half", BOTH),
    (ex.THERMAL_INIT, {"t1": 200e-9}, "none", BOTH),   # most repetitions jump
]


@pytest.mark.parametrize("scenario,dev_kw,gate,feedback", CLASS_CASES)
def test_chunk_window_volts_equal_the_filler_over_every_repetition(
        monkeypatch, scenario, dev_kw, gate, feedback):
    """A chunk's window volts, taken from its class rows and its jumpers'
    own envelopes, equal bit for bit those of the filler run over every
    repetition of the chunk, from the same jump columns, followed by
    _waveform_volts and the same noise.  In the shipped scenarios every
    class row is read: each first-window class s and each second-window
    class (s, s') occurs among the chunk's jump-free repetitions."""
    reps = ex.CHUNK_REPS
    cfg = ex.ExperimentConfig(device=_device(**dev_kw), scenario=scenario,
                              repetitions=reps, master_seed=5)
    got, sampled = _recorded_chunk(monkeypatch, cfg, gate, feedback, reps)

    dev, l = cfg.device, cfg.window_len
    w1, w2 = ex._window_cols(cfg, ex.TRIG1_TICK), ex._window_cols(cfg, ex.TRIG2_TICK)
    observed = np.r_[w1, w2] if feedback else np.r_[w1]
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.master_seed, 3, 1]))
    noise = (rng.normal(0.0, dev.noise_sigma, size=(reps, observed.size))
             if dev.noise_sigma > 0 else np.zeros((reps, observed.size)))
    filler = ex._EnvelopeFiller(dev, reps, observed)
    # a single readout's first phase ends with the first pulse
    segments_a = ex._phase_a_segments(cfg)[1:3 if feedback else 2]
    sampled_a = sampled[1:1 + len(segments_a)]
    for (a, b, on), (state, rows, times) in zip(segments_a, sampled_a):
        filler.run_segment(state, a, b, on, rows, times)
    want = [ex._waveform_volts(dev, filler.out[:, :l], w1) + noise[:, :l]]
    start = sampled[1][0]
    jumped_a = ex._jumped(sampled_a, reps)
    first_classes, second_classes = set(start[~jumped_a].tolist()), set()
    if not feedback:
        assert len(sampled) == 2
    else:
        alpha_pi = filler.alpha
        arms = [sampled[3:5], sampled[5:7]]
        for arm in arms:
            jumped = jumped_a | ex._jumped(arm, reps)
            second_classes |= set((2 * start + arm[0][0])[~jumped].tolist())
            filler.alpha = alpha_pi.copy()
            for (a, b, on), (state, rows, times) in zip(ex._phase_b_segments(cfg),
                                                        arm):
                filler.run_segment(state, a, b, on, rows, times)
            want.append(ex._waveform_volts(dev, filler.out[:, l:], w2)
                        + noise[:, l:])
        assert len(sampled) == 7
        if not dev_kw:
            assert second_classes == {0, 1, 2, 3}
    if not dev_kw:
        assert first_classes == {ex.STATE_G, ex.STATE_E}
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(_bits(g), _bits(w))


@pytest.mark.parametrize("scenario", ex.SCENARIOS)
def test_class_rows_equal_a_jump_free_chunk(scenario):
    """The class rows that _own_envelope appends after the jumpers equal,
    bit for bit, the rows of their class in a 4096-row run of the filler
    without jumps: states g and e in the first window, and in the second
    class 2 s + s' (state s' from class s's envelope at the conditional
    pi), as _run_chunk lays them out."""
    cfg = ex.ExperimentConfig(device=_device(), scenario=scenario)
    dev = cfg.device
    w1, w2 = ex._window_cols(cfg, ex.TRIG1_TICK), ex._window_cols(cfg, ex.TRIG2_TICK)
    none = np.zeros(0, dtype=np.intp)
    classes = np.array([ex.STATE_G, ex.STATE_E], dtype=np.uint8)
    segments_a, segments_b = ex._phase_a_segments(cfg)[1:], ex._phase_b_segments(cfg)
    first = ex._own_envelope(dev, w1, none, classes, segments_a,
                             [(classes, *_jumps_of([]))] * len(segments_a))
    second = ex._own_envelope(dev, w2, none, np.tile(classes, 2), segments_b,
                              [(classes, *_jumps_of([]))] * len(segments_b),
                              first.alpha[[ex.STATE_G, ex.STATE_G,
                                           ex.STATE_E, ex.STATE_E]])
    rng = np.random.default_rng(21)
    start = rng.integers(0, 2, ex.CHUNK_REPS).astype(np.uint8)
    filler = ex._EnvelopeFiller(dev, ex.CHUNK_REPS, np.r_[w1, w2])
    for a, b, on in segments_a:
        filler.run_segment(start, a, b, on, *_jumps_of([]))
    l = cfg.window_len
    assert np.array_equal(
        _bits(ex._waveform_volts(dev, filler.out[:, :l], w1)),
        _bits(ex._waveform_volts(dev, first.out, w1)[start]))
    assert np.array_equal(_bits(filler.alpha), _bits(first.alpha[start]))
    flipped = np.where(rng.random(ex.CHUNK_REPS) < 0.5, start ^ 1, start)
    for a, b, on in segments_b:
        filler.run_segment(flipped, a, b, on, *_jumps_of([]))
    assert np.array_equal(
        _bits(ex._waveform_volts(dev, filler.out[:, l:], w2)),
        _bits(ex._waveform_volts(dev, second.out, w2)[2 * start + flipped]))
    assert set((2 * start + flipped).tolist()) == {0, 1, 2, 3}


def test_saturated_readouts_survive_the_int16_outputs():
    """At the largest scale shift the preprocessor saturates both ways;
    the chunk's int16 readouts still equal the int64 reference."""
    cfg = ex.ExperimentConfig(device=_device(noise_sigma=0.4),
                              scenario=ex.PI_HALF_INIT, repetitions=300,
                              master_seed=5, scale_shift=SHIFT_MAX)
    want = _reference_chunk(cfg, "pi_half", 3, 1, 300, (True,))
    readouts = np.concatenate([want.it1, want.qt1, want.it2, want.qt2])
    assert set(raw_bounds(PREPROC_WIDTH)) <= set(readouts.tolist())
    for got in _chunk_both_ways(cfg, "pi_half", 3, 1, 300, (True,)):
        assert got.it1.dtype == np.int16
        _assert_chunk_equal(got, want)


def test_chunk_with_wider_window_and_longer_delay():
    cfg = ex.ExperimentConfig(device=_device(), scenario=ex.PI_HALF_INIT,
                              repetitions=200, master_seed=9)
    cfg = replace(cfg, window_len=8, delay=12)
    want = _reference_chunk(cfg, "pi_half", 0, 0, 200, (True,))
    for got in _chunk_both_ways(cfg, "pi_half", 0, 0, 200, (True,)):
        _assert_chunk_equal(got, want)


def test_second_phase_ends_with_the_second_window():
    cfg = ex.ExperimentConfig(device=_device(), scenario=ex.PI_HALF_INIT)
    cfg = replace(cfg, window_len=8, delay=12)
    (_, _, _), (a, b, on) = ex._phase_b_segments(cfg)
    assert (a, on) == (ex.M2_START_NS * ex.NS, True)
    # the window covers 40..120 ns into the pulse: its last sample is at
    # 110 ns, the pulse itself ends at 160 ns
    assert b == (ex.M2_START_NS + 120) * ex.NS


@pytest.mark.parametrize("gate", ["none", "pi", "pi_half"])
def test_single_readout_stops_at_the_first_pulse_end(monkeypatch, gate):
    """A run with no feedback arms reads the first window alone: it
    draws no jumps and propagates no envelope past the first pulse's
    end, and its one result has no second readout."""
    cfg = ex.ExperimentConfig(device=_device(t1=200e-9), scenario=ex.THERMAL_INIT,
                              repetitions=700, master_seed=5)
    sampled_to, filled_to = [], []
    sample, run_segment = ex._sample_jump_columns, ex._EnvelopeFiller.run_segment

    def recording_sample(rngs, bounds, state, a, b, gamma_down, gamma_up):
        sampled_to.append(b)
        return sample(rngs, bounds, state, a, b, gamma_down, gamma_up)

    def recording_segment(self, state, a, b, *rest):
        filled_to.append(b)
        return run_segment(self, state, a, b, *rest)

    monkeypatch.setattr(ex, "_sample_jump_columns", recording_sample)
    monkeypatch.setattr(ex._EnvelopeFiller, "run_segment", recording_segment)
    (res,) = ex._run_chunk(cfg, gate, 3, 0, [700], SINGLE)
    pulse_end = (ex.M1_START_NS + ex.PULSE_NS) * ex.NS
    assert sampled_to and max(sampled_to) <= pulse_end
    assert filled_to and max(filled_to) <= pulse_end
    assert res.it2 is None and res.qt2 is None and res.n == 700


# ---------------------------------------------------------------------------
# a chunk's repetitions replayed through the scalar synthesizer and machine

CONFIG_DIR = Path(ex.__file__).parent / "configs"
REPLAY_REPS = 300


def _shipped_config(name, **dev_kw):
    cfg, target = load_file(CONFIG_DIR / name)
    cfg = resolve_noise(cfg, target)
    return replace(cfg, device=replace(cfg.device, **dev_kw))


def _replayed_draws(cfg, reps):
    """A chunk's draws rebuilt in the documented order from its generator
    (stream 0, chunk 0), with the dense sampler: noise, initial states,
    pre-gate jumps, the pi/2 gate draw, the first phase's jumps; then,
    from a snapshot of the generator, each arm's second-phase jumps.
    Returns (initial, noise, events, arm): events[r] lists repetition
    r's (time, new state) changes up to the conditional pi, and
    arm(flip) those after it, flip being a mask of the repetitions the
    conditional pi flips."""
    dev = cfg.device
    rates = (dev.decay_rate(), dev.excitation_rate())
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, 0, 0]))
    observed = 2 * cfg.window_len
    noise = (rng.normal(0.0, dev.noise_sigma, size=(reps, observed))
             if dev.noise_sigma > 0 else np.zeros((reps, observed)))
    initial = (rng.random(reps) < dev.p_therm).astype(np.uint8)

    def jumps(events, state, a, b):
        cols, end = _dense_jump_columns(rng, state, a, b, *rates)
        state = state.copy()
        for col in cols:
            for r in np.flatnonzero(np.isfinite(col)):
                state[r] ^= 1
                events[r].append((col[r], int(state[r])))
        assert np.array_equal(state, end)
        return end

    (t0, t_gate, _), *phase_a = _full_segments(cfg)[0]
    events = [[] for _ in range(reps)]
    state = jumps(events, initial, t0, t_gate)
    if cfg.scenario == ex.PI_HALF_INIT:
        gated = (rng.random(reps) < 0.5).astype(np.uint8)
        for r in np.flatnonzero(gated != state):
            events[r].append((t_gate, int(gated[r])))
        state = gated
    for a, b, _ in phase_a:
        state = jumps(events, state, a, b)
    snapshot = rng.bit_generator.state
    t_pi = cfg.t_pi_ns * ex.NS
    t_m2 = ex.M2_START_NS * ex.NS
    w2 = filter_window(cfg.pipeline, cfg.eval_tick(ex.TRIG2_TICK))
    t_w2 = (ex.GRID_START_NS + CLOCK_PERIOD_NS * (w2.stop - SYNC_DEPTH)) * ex.NS

    def arm(flip):
        rng.bit_generator.state = snapshot
        after = [[(t_pi, int(state[r]) ^ 1)] if flip[r] else [] for r in range(reps)]
        s = np.where(flip, state ^ 1, state)
        for a, b in ((t_pi, t_m2), (t_m2, t_w2)):
            s = jumps(after, s, a, b)
        return after

    return initial, noise, events, arm


def _near_rounding_boundary(volts):
    """Voltages within a few ulp of a half-LSB rounding boundary."""
    x = np.abs(volts / ADC_LSB_VOLTS)
    return np.abs(x - np.floor(x) - 0.5) <= 8 * np.spacing(x)


REPLAY_CASES = [
    ("scenario_pi_half.cfg", {}),
    ("scenario_thermal.cfg", {}),
    ("scenario_pi_half.cfg", {"t1": 200e-9}),
]


@pytest.mark.parametrize("name,dev_kw", REPLAY_CASES)
def test_chunk_repetitions_replay_through_the_scalar_machine(
        monkeypatch, record_property, name, dev_kw):
    """Each repetition of a chunk, both arms, rebuilt from its draws as a
    QubitTrajectory and run through the scalar synthesizer
    (sigmodel.analog_waveform), the same noise, quantize_array, the ADC
    skew and the scalar tick() machine, reads out exactly what the chunk
    reads out.  Nothing here shares the engine's envelope, waveform or
    filter.  An ADC code may differ from the chunk's only where the
    voltage sits within a few ulp of a rounding boundary, since the two
    synthesizers round differently in the last bits; such codes are
    counted (none occur at the shipped seed) and the chunk's code is
    used."""
    cfg = _shipped_config(name, **dev_kw)
    reps = REPLAY_REPS
    engine_volts = []
    quantize = ex.quantize_array

    def recording_quantize(v):
        engine_volts.append(v.copy())
        return quantize(v)

    monkeypatch.setattr(ex, "quantize_array", recording_quantize)
    chunk = ex._run_chunk(cfg, GATE[cfg.scenario], 0, 0, [reps], BOTH)
    monkeypatch.undo()
    fb1 = chunk[0].fb1
    assert np.array_equal(chunk[1].fb1, fb1)

    initial, noise, events_a, arm = _replayed_draws(cfg, reps)
    dev = replace(cfg.device, noise_sigma=0.0)
    t0 = ex.GRID_START_NS * ex.NS
    sched = _readout_schedule(True)
    triggers = _pipeline_triggers(True).tolist()
    cols = np.concatenate([np.arange(w.start, w.stop) - SYNC_DEPTH for w in
                           (filter_window(cfg.pipeline, cfg.eval_tick(t))
                            for t in (ex.TRIG1_TICK, ex.TRIG2_TICK))])
    near = 0
    for k, enabled in enumerate((False, True)):
        second = arm(fb1.astype(bool) & enabled)
        chunk_volts = np.concatenate([engine_volts[0], engine_volts[1 + k]], axis=1)
        chunk_codes, _ = quantize_array(chunk_volts)
        got = np.zeros((5, reps), dtype=np.int64)
        for r in range(reps):
            traj = QubitTrajectory(((t0, int(initial[r])), *events_a[r], *second[r]))
            volts = analog_waveform(dev, sched, traj)
            volts[cols] += noise[r]
            raw, _ = quantize_array(volts)
            differ = raw[cols] != chunk_codes[r]
            if differ.any():
                assert _near_rounding_boundary(volts[cols][differ]).all(), r
                near += int(differ.sum())
                raw[cols] = chunk_codes[r]
            trace = run_stream(cfg.pipeline, np.pad(raw, (SYNC_DEPTH, 0)), triggers)
            m1, m2 = [n - 1 for n, t in enumerate(trace) if t.fb_time]
            got[:, r] = (trace[m1].i_t, trace[m1].q_t, trace[m1 + 1].fb,
                         trace[m2].i_t, trace[m2].q_t)
        for name, g in zip(READOUTS, got):
            assert np.array_equal(g, getattr(chunk[k], name)), (enabled, name)
    record_property("near_boundary_adc_codes", near)


# ---------------------------------------------------------------------------
# a feedback comparison == two separate runs, one per feedback setting


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("dev_kw", [{}, {"noise_sigma": 0.0},
                                    {"t1": math.inf, "p_therm": 0.0}],
                         ids=["default", "noiseless", "no_jumps"])
@pytest.mark.parametrize("scenario", ex.SCENARIOS)
def test_comparison_equals_two_separate_runs(scenario, dev_kw, jobs):
    cfg = ex.ExperimentConfig(device=_device(**dev_kw), scenario=scenario,
                              repetitions=ex.CHUNK_REPS + 1000, master_seed=13)
    comp = ex.run_feedback_comparison(cfg, jobs=jobs)
    for seg, rep in enumerate(comp.reports):
        alone = ex.run_feedback_comparison(cfg, feedback=(rep.feedback_enabled,),
                                           jobs=jobs)
        assert rep.to_json() == alone.reports[0].to_json()
        for marginal in ("marginal_i1", "marginal_i2", "joint_i1_i2"):
            np.testing.assert_array_equal(
                getattr(comp.histogram, marginal)(seg),
                getattr(alone.histogram, marginal)(0))
        np.testing.assert_array_equal(
            comp.histogram.correlation_counts()[..., seg],
            alone.histogram.correlation_counts()[..., 0])


# ---------------------------------------------------------------------------
# thread count


def _assert_same_outputs(got, want):
    for g, w in zip(got.reports, want.reports, strict=True):
        assert g.to_json() == w.to_json()
    assert got.histogram.dump_bytes() == want.histogram.dump_bytes()


@pytest.mark.parametrize("jobs,chunks,workers,batches", [
    pytest.param(64, 2, 2, [1, 1], id="64-2-2"),
    pytest.param(2, 3, 2, [1, 2], id="2-3-2"),
    pytest.param(3, 3, 3, [1, 1, 1], id="3-3-3"),
    pytest.param(2, 2, 2, [1, 1], id="2-2-2"),
    pytest.param(2, 32, 2, [8, 8, 8, 8], id="2-32-2"),
])
def test_pool_starts_no_more_workers_than_chunks(monkeypatch, jobs, chunks,
                                                 workers, batches):
    """The chunks are split evenly into batches of at most BATCH_CHUNKS,
    at least one per thread; each batch runs exactly once, on a pool of
    at most workers threads, none of which outlives the run, and the
    reports and dump equal the serial ones."""
    cfg = ex.ExperimentConfig(device=_device(), scenario=ex.THERMAL_INIT,
                              repetitions=(chunks - 1) * ex.CHUNK_REPS + 7)
    serial = ex.run_feedback_comparison(cfg, jobs=1)
    run_chunk = ex._run_chunk
    ran, alive = [], []

    def recording(cfg, gate, stream_id, first_chunk, sizes, feedback):
        ran.append((threading.get_ident(), (first_chunk, len(sizes))))
        alive.append(threading.active_count())
        return run_chunk(cfg, gate, stream_id, first_chunk, sizes, feedback)

    monkeypatch.setattr(ex, "_run_chunk", recording)
    before = threading.active_count()
    threaded = ex.run_feedback_comparison(cfg, jobs=jobs)
    assert threading.active_count() == before
    firsts = itertools.accumulate(batches[:-1], initial=0)
    assert sorted(task for _, task in ran) == list(zip(firsts, batches))
    assert max(batches) <= ex.BATCH_CHUNKS
    assert len({ident for ident, _ in ran}) <= workers
    assert max(alive) <= before + workers
    _assert_same_outputs(threaded, serial)


@pytest.mark.parametrize("scenario", ex.SCENARIOS)
def test_threads_switched_every_microsecond_give_the_serial_bytes(scenario):
    """With the interpreter switching threads as often as it can, runs
    on 2 and 3 threads, three or more batches each, still give the
    reports and dump of one thread."""
    cfg = ex.ExperimentConfig(device=_device(), scenario=scenario,
                              repetitions=2 * ex.BATCH_CHUNKS * ex.CHUNK_REPS + 5,
                              master_seed=29)
    serial = ex.run_feedback_comparison(cfg, jobs=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = [ex.run_feedback_comparison(cfg, jobs=jobs) for jobs in (2, 3)]
    finally:
        sys.setswitchinterval(interval)
    for got in threaded:
        _assert_same_outputs(got, serial)


@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_are_rejected(jobs):
    cfg = ex.ExperimentConfig(device=_device(), scenario=ex.THERMAL_INIT,
                              repetitions=64)
    with pytest.raises(ConfigError, match="jobs"):
        ex.run_feedback_comparison(cfg, jobs=jobs)


@pytest.mark.parametrize("run", [ex.run_feedback_comparison, ex.readout_fidelity],
                         ids=["comparison", "fidelity"])
@pytest.mark.parametrize("jobs", [2.5, 2.0, True])
def test_jobs_must_be_an_integer(monkeypatch, run, jobs):
    """A float jobs would fail inside range() with three chunks and run
    silently with one, as would a bool; each is rejected by name before
    any chunk runs."""
    cfg = ex.ExperimentConfig(device=_device(), scenario=ex.THERMAL_INIT,
                              repetitions=64)

    def unreachable(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(ex, "_run_chunk", unreachable)
    with pytest.raises(ConfigError, match="jobs must be an integer"):
        run(cfg, jobs=jobs)


@pytest.mark.parametrize("feedback", [(), (False,) * 5], ids=["none", "five"])
def test_arm_count_is_checked_before_any_chunk_runs(monkeypatch, feedback):
    """The histogram RAM holds one to four segments, one per arm; a run
    naming another number of arms fails before the Monte Carlo starts."""
    cfg = ex.ExperimentConfig(device=_device(), scenario=ex.THERMAL_INIT,
                              repetitions=64)

    def unreachable(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(ex, "_run_chunk", unreachable)
    with pytest.raises(ValueError, match="segment_count"):
        ex.run_feedback_comparison(cfg, feedback=feedback)


# ---------------------------------------------------------------------------
# what the fast path leaves out must not be reachable


@pytest.mark.parametrize("delay,ok", [(12, True), (13, False), (16, False)])
def test_conditional_pi_must_land_between_the_readouts(delay, ok):
    cfg = ex.ExperimentConfig(device=_device(), scenario=ex.PI_HALF_INIT)
    if ok:
        assert replace(cfg, delay=delay).t_pi_ns < ex.M2_START_NS
    else:
        with pytest.raises(ConfigError, match="conditional pi"):
            replace(cfg, delay=delay)


def test_adc_saturation_counts_only_integration_windows():
    cfg = ex.ExperimentConfig(device=_device(noise_sigma=0.4),
                              scenario=ex.PI_HALF_INIT, repetitions=4096,
                              master_seed=11)
    (rep,) = ex.run_feedback_comparison(cfg, feedback=(True,)).reports
    assert rep.adc_saturated == ADC_SATURATED_SIGMA_0_4


def test_calibrate_noise_computes_the_means_once(monkeypatch):
    cfg = ex.ExperimentConfig(device=_device(noise_sigma=0.0),
                              scenario=ex.PI_HALF_INIT)
    calls = []
    means = ex.noiseless_filtered_means

    def counted(c):
        calls.append(c)
        return means(c)

    monkeypatch.setattr(ex, "noiseless_filtered_means", counted)
    for target in (0.005, 0.01, 0.02, 0.03, 0.05, 0.1, 0.2, 0.4):
        calls.clear()
        sigma = ex.calibrate_noise(target, cfg)
        assert len(calls) == 1
        # the same bisection on the overlap of means computed once lands
        # on the same float, and overlap_probability agrees at it
        mu = means(cfg)
        lo, hi = 0.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ex._overlap(cfg, mid, *mu) < target:
                lo = mid
            else:
                hi = mid
        assert sigma == 0.5 * (lo + hi)
        assert (ex.overlap_probability(cfg.with_noise_sigma(sigma))
                == ex._overlap(cfg, sigma, *mu))


def test_feedback_comparison_computes_the_overlap_once(monkeypatch):
    cfg = ex.ExperimentConfig(device=_device(), scenario=ex.PI_HALF_INIT,
                              repetitions=256)
    calls = {"means": 0, "oracle": 0}
    means = ex.noiseless_filtered_means
    oracle = ex.oracle_probabilities

    def counted_means(c):
        calls["means"] += 1
        return means(c)

    def counted_oracle(*args):
        calls["oracle"] += 1
        return oracle(*args)

    monkeypatch.setattr(ex, "noiseless_filtered_means", counted_means)
    monkeypatch.setattr(ex, "oracle_probabilities", counted_oracle)
    comp = ex.run_feedback_comparison(cfg)
    assert calls == {"means": 1, "oracle": 2}
    assert comp.reports[1].oracle == oracle(cfg, True, ex.overlap_probability(cfg))
