"""Differential tests for the Monte Carlo's readout-tick fast path.

The chunk evaluates the pipeline only at the two readout ticks, from the
2 l samples inside the integration windows, skips the envelope before
the first pulse and after the second window, and runs its first phase
once for all feedback settings.  These tests hold it to the full-stream
batch pipeline, which is itself held to the scalar machine, its batch
envelope to the scalar envelope of each repetition, and a feedback
comparison to two separate runs.  The sparse envelope and jump sampler
are held bit for bit to the dense loops they replaced, kept here, and a
batch of chunks to the same chunks run one at a time.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfbsim import experiment as ex
from qfbsim.fxp import SHIFT_MAX, ConfigError, FxpSample, raw_bounds
from qfbsim.pipeline import (
    CLOCK_PERIOD_NS,
    FILTER_WIDTH,
    PREPROC_WIDTH,
    SYNC_DEPTH,
    PipelineConfig,
    filter_window,
    run_stream_batch,
    scaled_iq_at,
)
from qfbsim.sigmodel import (
    STATE_E,
    STATE_G,
    DeviceParams,
    PulseSchedule,
    QubitTrajectory,
    envelope_at_times,
    quantize_array,
    thermal_population,
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
        c_i=FxpSample(draw(st.integers(FILTER_LO, FILTER_HI)), FILTER_WIDTH),
        c_q=FxpSample(draw(st.integers(FILTER_LO, FILTER_HI)), FILTER_WIDTH),
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


@settings(max_examples=300, deadline=None)
@given(tick_cases())
def test_scaled_iq_at_matches_batch_pipeline(case):
    cfg, stream, first = case
    tick = first + cfg.window_len + 2
    assert filter_window(cfg, tick) == range(first, first + cfg.window_len)
    bt = run_stream_batch(cfg, stream, np.zeros(stream.shape[1], dtype=np.int64))
    i_t, q_t = scaled_iq_at(cfg, stream[:, first:first + cfg.window_len], first)
    np.testing.assert_array_equal(i_t, bt.i_t[:, tick])
    np.testing.assert_array_equal(q_t, bt.q_t[:, tick])


@pytest.mark.parametrize("first", range(4))
def test_scaled_iq_at_saturates_like_batch(first):
    lo, hi = raw_bounds(PREPROC_WIDTH)
    cfg = PipelineConfig(window_len=2, s_i=7, s_q=7)
    stream = np.array([[ADC_LO] * 8, [ADC_HI] * 8])
    i_t, q_t = scaled_iq_at(cfg, stream[:, first:first + 2], first)
    bt = run_stream_batch(cfg, stream, np.zeros(8, dtype=np.int64))
    np.testing.assert_array_equal(i_t, bt.i_t[:, first + 4])
    np.testing.assert_array_equal(q_t, bt.q_t[:, first + 4])
    both = np.concatenate([i_t, q_t])
    assert set(both.tolist()) & {lo, hi}


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


def _reference_chunk(cfg, protocol, stream_id, chunk_idx, reps, feedback):
    """The chunk as the whole window would compute it: every segment of
    the envelope propagated, every sample synthesized, every tick of the
    72-tick stream run, same draws, the one feedback setting given.  The noise is
    drawn for the observed columns only and scattered into a zero
    (reps, N_SOURCE) array, so any draw for another column would shift
    every later one."""
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.master_seed & 0xFFFFFFFFFFFFFFFF,
                                stream_id, chunk_idx]))
    dev = cfg.device
    triggers = [ex.TRIG1_TICK] + ([ex.TRIG2_TICK] if protocol.double else [])
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
        return run_stream_batch(cfg.pipeline,
                                ex._to_pipeline_stream(raw, ex.N_TICKS),
                                ex._trigger_lane(double, ex.N_TICKS))

    a_segs, b_segs = _full_segments(cfg)
    if protocol.double:
        # a segment draws one exponential per repetition still jumping,
        # so the second pulse is split where the chunk's second phase
        # stops, at the end of the second window, to draw the same numbers
        t_w2 = (ex.GRID_START_NS
                + CLOCK_PERIOD_NS * (windows[-1].stop - SYNC_DEPTH)) * ex.NS
        (m2_start, m2_end, on) = b_segs[1]
        b_segs = [b_segs[0], (m2_start, t_w2, on), (t_w2, m2_end, on), b_segs[2]]
    state = segments(a_segs[:1], state)
    if protocol.init_gate == "pi_half":
        state = (rng.random(reps) < 0.5).astype(np.uint8)
    elif protocol.init_gate == "pi":
        state = state ^ 1
    state = segments(a_segs[1:], state)

    # samples after the conditional pi are not final yet, and cannot
    # reach the first readout: the feedback bit is read from this run
    m1 = cfg.eval_tick(ex.TRIG1_TICK)
    fb1 = pipeline(quantize_array(volts())[0], False).fb[:, m1 + 1]

    if protocol.double and feedback:
        state = np.where(fb1.astype(bool), state ^ 1, state)
    segments(b_segs if protocol.double
             else [(b_segs[0][0], b_segs[-1][1], False)], state)

    v = volts()
    bt = pipeline(quantize_array(v)[0], protocol.double)
    clipped = 0
    for ticks in windows:
        clipped += quantize_array(v[:, ticks.start - SYNC_DEPTH:
                                    ticks.stop - SYNC_DEPTH])[1]
    it1, qt1 = bt.i_t[:, m1], bt.q_t[:, m1]
    assert np.array_equal(bt.fb[:, m1 + 1], fb1)
    if not protocol.double:
        return it1, qt1, fb1, None, None, clipped
    m2 = cfg.eval_tick(ex.TRIG2_TICK)
    return it1, qt1, fb1, bt.i_t[:, m2], bt.q_t[:, m2], clipped


DOUBLE = "double"
CASES = [
    (ex.PI_HALF_INIT, {}, DOUBLE),
    (ex.THERMAL_INIT, {}, DOUBLE),
    (ex.PI_HALF_INIT, {}, ex._Protocol("none", double=False)),
    (ex.PI_HALF_INIT, {}, ex._Protocol("pi", double=False)),
    (ex.THERMAL_INIT, {}, ex._Protocol("none", double=False)),
    (ex.THERMAL_INIT, {}, ex._Protocol("pi", double=False)),
    (ex.PI_HALF_INIT, {"noise_sigma": 0.0}, DOUBLE),
    (ex.THERMAL_INIT, {"t1": math.inf}, DOUBLE),
    (ex.PI_HALF_INIT, {"noise_sigma": 0.4}, DOUBLE),   # ADC clipping
]


def _chunk_both_ways(cfg, protocol, stream_id, chunk_idx, reps, feedback):
    """The chunk run for one feedback setting alone, and branched from
    one first phase into both settings; both must give the same output."""
    (alone,) = ex._run_chunk(cfg, protocol, stream_id, chunk_idx, [reps],
                             (feedback,))
    branched = ex._run_chunk(cfg, protocol, stream_id, chunk_idx, [reps],
                             (False, True))
    assert len(branched) == 2
    return alone, branched[feedback]


def _assert_chunk_equal(got, want):
    for g, w in zip(got[:5], want[:5]):
        if w is None:
            assert g is None
        else:
            np.testing.assert_array_equal(g, w)
    assert got[5] == want[5]


@pytest.mark.parametrize("scenario,dev_kw,protocol", CASES)
@pytest.mark.parametrize("feedback", [False, True])
def test_chunk_matches_full_window_reference(scenario, dev_kw, protocol, feedback):
    cfg = ex.ExperimentConfig(device=_device(**dev_kw), scenario=scenario,
                              repetitions=300, master_seed=5)
    if protocol == DOUBLE:
        protocol = ex._protocol_for(cfg)
    want = _reference_chunk(cfg, protocol, 3, 1, 300, feedback)
    for got in _chunk_both_ways(cfg, protocol, 3, 1, 300, feedback):
        _assert_chunk_equal(got, want)
        if dev_kw.get("noise_sigma") == 0.4:
            assert got[5] > 0


BATCH_CASES = CASES + [(ex.THERMAL_INIT, {"t1": 200e-9}, DOUBLE)]


@pytest.mark.parametrize("scenario,dev_kw,protocol", BATCH_CASES)
def test_batch_equals_its_chunks_one_at_a_time(scenario, dev_kw, protocol):
    """A batch of chunks 0..3, the last one ragged, equals bit for bit
    the concatenation of each chunk run as a batch of its own, in both
    arms."""
    sizes = [700, 700, 700, 123]
    cfg = ex.ExperimentConfig(device=_device(**dev_kw), scenario=scenario,
                              repetitions=sum(sizes), master_seed=5)
    if protocol == DOUBLE:
        protocol = ex._protocol_for(cfg)
    batch = ex._run_chunk(cfg, protocol, 3, 0, sizes, (False, True))
    alone = [ex._run_chunk(cfg, protocol, 3, k, [n], (False, True))
             for k, n in enumerate(sizes)]
    for arm, got in enumerate(batch):
        parts = [chunk[arm] for chunk in alone]
        want = [None if parts[0][f] is None
                else np.concatenate([p[f] for p in parts]) for f in range(5)]
        _assert_chunk_equal(got, (*want, sum(p[5] for p in parts)))
        assert got[0].size == sum(sizes)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _recorded_chunk(monkeypatch, cfg, protocol, reps):
    """Run one chunk of both arms; return its quantizer inputs, in call
    order, and the jumping rows and times it sampled with the states
    they were sampled from."""
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
    ex._run_chunk(cfg, protocol, 3, 1, [reps], (False, True))
    monkeypatch.undo()
    return volts, sampled


CLASS_CASES = [
    (ex.PI_HALF_INIT, {}, DOUBLE),
    (ex.THERMAL_INIT, {}, DOUBLE),
    (ex.PI_HALF_INIT, {}, ex._Protocol("none", double=False)),
    (ex.PI_HALF_INIT, {}, ex._Protocol("pi", double=False)),
    (ex.THERMAL_INIT, {"t1": math.inf}, DOUBLE),
    (ex.PI_HALF_INIT, {"noise_sigma": 0.0}, DOUBLE),
    (ex.THERMAL_INIT, {"t1": 200e-9}, DOUBLE),         # most repetitions jump
]


@pytest.mark.parametrize("scenario,dev_kw,protocol", CLASS_CASES)
def test_chunk_window_volts_equal_the_filler_over_every_repetition(
        monkeypatch, scenario, dev_kw, protocol):
    """A chunk's window volts, taken from its class rows and its jumpers'
    own envelopes, equal bit for bit those of the filler run over every
    repetition of the chunk, from the same jump columns, followed by
    _waveform_volts and the same noise.  In the shipped scenarios every
    class row is read: each first-window class s and each second-window
    class (s, s') occurs among the chunk's jump-free repetitions."""
    reps = ex.CHUNK_REPS
    cfg = ex.ExperimentConfig(device=_device(**dev_kw), scenario=scenario,
                              repetitions=reps, master_seed=5)
    if protocol == DOUBLE:
        protocol = ex._protocol_for(cfg)
    got, sampled = _recorded_chunk(monkeypatch, cfg, protocol, reps)

    dev, l = cfg.device, cfg.window_len
    w1, w2 = ex._window_cols(cfg, ex.TRIG1_TICK), ex._window_cols(cfg, ex.TRIG2_TICK)
    observed = np.r_[w1, w2] if protocol.double else np.r_[w1]
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.master_seed, 3, 1]))
    noise = (rng.normal(0.0, dev.noise_sigma, size=(reps, observed.size))
             if dev.noise_sigma > 0 else np.zeros((reps, observed.size)))
    filler = ex._EnvelopeFiller(dev, reps, observed)
    for (a, b, on), (state, rows, times) in zip(ex._phase_a_segments(cfg)[1:],
                                                sampled[1:3]):
        filler.run_segment(state, a, b, on, rows, times)
    want = [ex._waveform_volts(dev, filler.out[:, :l], w1) + noise[:, :l]]
    start = sampled[1][0]
    jumped_a = ex._jumped(sampled[1:3], reps)
    first_classes, second_classes = set(start[~jumped_a].tolist()), set()
    if protocol.double:
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
            assert first_classes == {ex.STATE_G, ex.STATE_E}
            assert second_classes == {0, 1, 2, 3}
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
    protocol = ex._protocol_for(cfg)
    want = _reference_chunk(cfg, protocol, 3, 1, 300, True)
    readouts = np.concatenate([want[0], want[1], want[3], want[4]])
    assert set(raw_bounds(PREPROC_WIDTH)) <= set(readouts.tolist())
    for got in _chunk_both_ways(cfg, protocol, 3, 1, 300, True):
        assert got[0].dtype == np.int16
        _assert_chunk_equal(got, want)


def test_chunk_with_wider_window_and_longer_delay():
    cfg = ex.ExperimentConfig(device=_device(), scenario=ex.PI_HALF_INIT,
                              repetitions=200, master_seed=9)
    cfg = replace(cfg, window_len=8, delay=12)
    protocol = ex._protocol_for(cfg)
    want = _reference_chunk(cfg, protocol, 0, 0, 200, True)
    for got in _chunk_both_ways(cfg, protocol, 0, 0, 200, True):
        _assert_chunk_equal(got, want)


def test_second_phase_ends_with_the_second_window():
    cfg = ex.ExperimentConfig(device=_device(), scenario=ex.PI_HALF_INIT)
    cfg = replace(cfg, window_len=8, delay=12)
    (_, _, _), (a, b, on) = ex._phase_b_segments(cfg)
    assert (a, on) == (ex.M2_START_NS * ex.NS, True)
    # the window covers 40..120 ns into the pulse: its last sample is at
    # 110 ns, the pulse itself ends at 160 ns
    assert b == (ex.M2_START_NS + 120) * ex.NS


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
# worker count


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
    at least one per worker; each batch is one task, and the pooled
    reports equal the serial ones."""
    started, mapped = [], []

    class RecordingPool:
        """Records max_workers and maps in this process: no worker starts."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            tasks = list(zip(*iterables))
            mapped.append([len(task[4]) for task in tasks])
            return (fn(*task) for task in tasks)

    cfg = ex.ExperimentConfig(device=_device(), scenario=ex.THERMAL_INIT,
                              repetitions=(chunks - 1) * ex.CHUNK_REPS + 7)
    serial = ex.run_feedback_comparison(cfg, jobs=1)
    monkeypatch.setattr(ex, "ProcessPoolExecutor", RecordingPool)
    pooled = ex.run_feedback_comparison(cfg, jobs=jobs)
    assert started == [workers]
    assert mapped == [batches]
    assert max(batches) <= ex.BATCH_CHUNKS
    for got, want in zip(pooled.reports, serial.reports, strict=True):
        assert got.to_json() == want.to_json()
    assert pooled.histogram.dump_bytes() == serial.histogram.dump_bytes()


@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_are_rejected(jobs):
    cfg = ex.ExperimentConfig(device=_device(), scenario=ex.THERMAL_INIT,
                              repetitions=64)
    with pytest.raises(ConfigError, match="jobs"):
        ex.run_feedback_comparison(cfg, jobs=jobs)


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
        # the same bisection on overlap_probability, means recomputed
        # every step, lands on the same float
        lo, hi = 0.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ex.overlap_probability(cfg, mid) < target:
                lo = mid
            else:
                hi = mid
        assert sigma == 0.5 * (lo + hi)


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
