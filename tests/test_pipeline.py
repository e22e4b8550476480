"""Cycle-accurate pipeline tests: mixer, filter, discrimination, timing."""

import copy
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfbsim import pipeline as pl
from qfbsim.fxp import ADC_LSB_VOLTS, ConfigError, quantize, raw_bounds

ADC_LO, ADC_HI = raw_bounds(14)
FILTER_LO, FILTER_HI = raw_bounds(pl.FILTER_WIDTH)


# ---------------------------------------------------------------------------
# Mixer
# ---------------------------------------------------------------------------

def test_mixer_sequences_at_phase_0_and_1():
    assert pl.mixer_fs4(100, 0) == (100, 0)
    assert pl.mixer_fs4(100, 1) == (0, -100)


def test_mixer_full_negation_needs_15_bits():
    re, im = pl.mixer_fs4(ADC_LO, 2)
    assert re == 8192 and re > ADC_HI
    assert raw_bounds(pl.MIXER_WIDTH)[1] >= re


def test_mixer_matches_multiplier_reference_exhaustively():
    # reference: cos(2*pi*n/4) and -sin(2*pi*n/4) as exact integers
    for phase in range(4):
        cref = round(math.cos(2 * math.pi * phase / 4))
        sref = round(-math.sin(2 * math.pi * phase / 4))
        for raw in range(-8192, 8192):
            assert pl.mixer_fs4(raw, phase) == (raw * cref, raw * sref)


def test_mixer_rejects_bad_phase():
    with pytest.raises(ValueError):
        pl.mixer_fs4(0, 4)


# ---------------------------------------------------------------------------
# Moving average
# ---------------------------------------------------------------------------

def direct_window_mean(xs: list[int], n: int, l: int) -> int:
    """Oracle: direct sum over the l most recent samples (zeros before t=0)."""
    total = sum(xs[max(0, n - l + 1): n + 1])
    return total >> (l.bit_length() - 1)


def branch(l: int) -> pl.MovingAverageBranch:
    return pl.MovingAverageBranch(pl.PipelineConfig(window_len=l))


def test_moving_average_constant_input():
    br = branch(4)
    outs = [br.step_raw(120) for _ in range(10)]
    assert outs[3:] == [120] * 7


def test_moving_average_alternating_input():
    br = branch(4)
    xs = [900, 0] * 8
    outs = [br.step_raw(x) for x in xs]
    assert all(o == 450 for o in outs[3:])


def test_moving_average_prefix_matches_zero_padded_oracle():
    rng = random.Random(11)
    for l in (2, 4, 8):
        br = branch(l)
        xs = [rng.randint(-16384, 16383) for _ in range(50)]
        for n, x in enumerate(xs):
            assert br.step_raw(x) == direct_window_mean(xs, n, l)


def test_moving_average_identity_random_streams():
    rng = np.random.default_rng(12)
    for l in (2, 4, 8, 16, 32):
        xs = rng.integers(-16384, 16384, size=2000)
        br = branch(l)
        got = np.array([br.step_raw(int(x)) for x in xs])
        c = np.cumsum(xs)
        w = c.copy()
        w[l:] = c[l:] - c[:-l]
        expected = w >> (l.bit_length() - 1)
        assert np.array_equal(got, expected)
        assert not br.overflow


# ---------------------------------------------------------------------------
# Preprocessing and discrimination
# ---------------------------------------------------------------------------

def test_preprocess_identity():
    assert pl.preprocess_raw(37, 0, 0) == (37, False)


def test_preprocess_exact_cancellation():
    for s in (-3, 0, 3):
        assert pl.preprocess_raw(20, 20, s) == (0, False)


def test_preprocess_offset_and_scale():
    assert pl.preprocess_raw(100, 36, 1) == ((100 - 36) * 2, False)
    # the 16-bit result holds a doubled 15-bit full-scale difference
    assert pl.preprocess_raw(8191, -8192, 1) == (32766, False)


def test_preprocess_saturation_flag():
    raw, clipped = pl.preprocess_raw(16383, -16384, 7)
    assert clipped and raw == 32767


def test_discriminate_lut_example():
    lut_x_is_0 = (1, 1, 0, 0)
    assert pl.discriminate(0, 1, lut_x_is_0) == 1
    assert pl.discriminate(1, 0, lut_x_is_0) == 0


def test_discriminate_all_zero_lut():
    for x in (0, 1):
        for y in (0, 1):
            assert pl.discriminate(x, y, (0, 0, 0, 0)) == 0


def test_discriminate_exhaustive_truth_tables():
    for bits in range(16):
        lut = tuple((bits >> k) & 1 for k in range(4))
        for x in (0, 1):
            for y in (0, 1):
                assert pl.discriminate(x, y, lut) == lut[(x << 1) | y]


def test_sign_bit_zero_is_non_negative():
    assert pl.sign_bit(0) == 0
    assert pl.sign_bit(-1) == 1
    assert pl.sign_bit(1) == 0


# ---------------------------------------------------------------------------
# Full machine timing
# ---------------------------------------------------------------------------

def test_zero_stream_with_trigger_fires_fb_once():
    # Zero signal keeps i_t = 0, whose sign bit is 0, so "1 iff x = 0" fires.
    cfg = pl.PipelineConfig(window_len=4, delay=5, lut1=(1, 1, 0, 0))
    n_e = 10
    n = 40
    triggers = [1 if k == n_e else 0 for k in range(n)]
    trace = pl.run_stream(cfg, [0] * n, triggers)
    fb_cycles = [t.cycle for t in trace if t.fb]
    assert fb_cycles == [n_e + pl.trigger_to_eval_cycles(cfg) + 1]
    for t in trace:
        assert not (t.fb and not t.fb_time)


def test_fb_edge_timing_across_delays_and_sync_depths():
    # the synchronizer depth is fixed at SYNC_DEPTH; the name is historical
    sync = pl.SYNC_DEPTH
    for d in (0, 1, 5, 14):
        cfg = pl.PipelineConfig(window_len=4, delay=d, lut1=(1, 1, 1, 1))
        n_e = 7
        n = n_e + sync + d + 10
        triggers = [1 if k == n_e else 0 for k in range(n)]
        rng = random.Random(d * 100 + sync)
        samples = [rng.randint(-8192, 8191) for _ in range(n)]
        trace = pl.run_stream(cfg, samples, triggers)
        rising = [t.cycle for k, t in enumerate(trace)
                  if t.fb and (k == 0 or not trace[k - 1].fb)]
        assert rising == [n_e + sync + 2 + d + 1]


def test_processing_latency_is_three_cycles():
    cfg = pl.PipelineConfig(window_len=4, delay=0)
    k = 8  # phase k % 4 == 0, so the impulse lands on a +1 mixer coefficient
    n = 20
    samples = [4000 if j == k else 0 for j in range(n)]
    trace = pl.run_stream(cfg, samples, [0] * n)
    first_nonzero = next(t.cycle for t in trace if t.i != 0)
    assert first_nonzero == k + 3
    assert trace[k + 3].i == 4000 >> 2


def test_mixer_phase_stamps_input_sample_index():
    # sample at index k is mixed with cos_seq[k % 4] regardless of latency
    cfg = pl.PipelineConfig(window_len=2, delay=0)
    n = 16
    for k in range(8):
        samples = [1000 if j == k else 0 for j in range(n)]
        trace = pl.run_stream(cfg, samples, [0] * n)
        re = trace[k + 2].re_sm
        im = trace[k + 2].im_sm
        assert re == 1000 * pl.COS_SEQ[k % 4]
        assert im == 1000 * pl.NSIN_SEQ[k % 4]


def test_fb_implies_fb_time_on_random_streams():
    rng = random.Random(99)
    cfg = pl.PipelineConfig(window_len=4, delay=3, lut1=(1, 0, 1, 1),
                            lut2=(0, 1, 1, 0))
    n = 3000
    samples = [rng.randint(-8192, 8191) for _ in range(n)]
    triggers = [1 if rng.random() < 0.05 else 0 for _ in range(n)]
    for t in pl.run_stream(cfg, samples, triggers):
        assert not (t.fb and not t.fb_time)
        assert not (t.fb2 and not t.fb_time)


def test_empty_stream():
    cfg = pl.PipelineConfig()
    assert pl.run_stream(cfg, [], []) == []


def test_run_stream_takes_one_row_of_the_batch_input():
    cfg = pl.PipelineConfig()
    raw = np.array([[5, -7, 0]])
    triggers = np.array([0, 1, 0])
    trace = pl.run_stream(cfg, raw[0], triggers)
    assert trace == pl.run_stream(cfg, [5, -7, 0], [0, 1, 0])
    assert [type(t.adc_raw) for t in trace] == [int] * 3
    for bad_raw, bad_triggers in ((raw, triggers), (raw[0], triggers[:2])):
        with pytest.raises(ValueError, match="1-D and of equal length"):
            pl.run_stream(cfg, bad_raw, bad_triggers)


def test_repeated_runs_are_bit_identical():
    rng = random.Random(5)
    cfg = pl.PipelineConfig(window_len=8, delay=7, s_i=2, s_q=1)
    n = 200
    samples = [rng.randint(-8192, 8191) for _ in range(n)]
    triggers = [1 if k % 60 == 10 else 0 for k in range(n)]
    t1 = pl.run_stream(cfg, samples, triggers)
    t2 = pl.run_stream(cfg, samples, triggers)
    assert t1 == t2


def test_concatenation_resumes_from_saved_state():
    rng = random.Random(6)
    cfg = pl.PipelineConfig(window_len=4, delay=6)
    a = [rng.randint(-8192, 8191) for _ in range(70)]
    b = [rng.randint(-8192, 8191) for _ in range(70)]
    tra = [1 if k == 5 else 0 for k in range(70)]
    trb = [1 if k == 9 else 0 for k in range(70)]

    full = pl.run_stream(cfg, a + b, tra + trb)

    state = pl.PipelineState(cfg)
    head = pl.run_stream(cfg, a, tra, state=state)
    resumed = copy.deepcopy(state)
    pl.run_stream(cfg, [0] * 5, [1] * 5, state=state)  # must not leak
    tail = pl.run_stream(cfg, b, trb, state=resumed)
    assert head + [replace(t, cycle=70 + t.cycle) for t in tail] == full


def test_state_reset_zeroes_everything():
    cfg = pl.PipelineConfig(window_len=4, delay=4)
    st = pl.PipelineState(cfg)
    rng = random.Random(3)
    for k in range(50):
        pl.tick(cfg, st, rng.randint(-8192, 8191), k % 7 == 0)
    st.reset()
    out = pl.tick(cfg, st, 0, 0)
    assert (out.i, out.q, out.re_sm, out.im_sm, out.fb, out.fb2, out.fb_time) \
        == (0, 0, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# Demodulation correctness against a floating-point reference
# ---------------------------------------------------------------------------

def tone_stream(amp: float, phase: float, n: int) -> list[int]:
    """Noiseless 25 MHz tone sampled at 100 MS/s: s_k = A cos(pi k / 2 + phi)."""
    return [quantize(amp * math.cos(math.pi * k / 2 + phase), 14) for k in range(n)]


def test_steady_tone_demodulates_to_half_amplitude():
    rng = random.Random(42)
    cfg = pl.PipelineConfig(window_len=4, delay=0)
    n = 64
    for _ in range(100):
        amp = rng.uniform(0.05, 0.95)
        phi = rng.uniform(0, 2 * math.pi)
        trace = pl.run_stream(cfg, tone_stream(amp, phi, n), [0] * n)
        want_i = (amp / 2) * math.cos(phi) / ADC_LSB_VOLTS
        want_q = (amp / 2) * math.sin(phi) / ADC_LSB_VOLTS
        for t in trace[8:]:
            assert abs(t.i - want_i) <= 2.0
            assert abs(t.q - want_q) <= 2.0


def test_full_stream_matches_float_demodulator_within_2lsb():
    # same check on an arbitrary (non-steady) stream via an aligned
    # floating-point boxcar demodulator
    rng = random.Random(17)
    cfg = pl.PipelineConfig(window_len=8, delay=0)
    n = 120
    raws = [rng.randint(-8192, 8191) for _ in range(n)]
    trace = pl.run_stream(cfg, raws, [0] * n)
    l = cfg.window_len
    for t in trace:
        nn = t.cycle
        lo = nn - 3 - l + 1
        win = [(raws[u] if 0 <= u < n else 0) * pl.COS_SEQ[u % 4]
               for u in range(lo, nn - 2)]
        ref = sum(win) / l
        assert abs(t.i - ref) <= 2.0


# ---------------------------------------------------------------------------
# Trace dump and readout timing
# ---------------------------------------------------------------------------

def test_trace_csv_columns_and_shape():
    cfg = pl.PipelineConfig(delay=2)
    n = 12
    trace = pl.run_stream(cfg, [0] * n, [0] * n)
    csv = pl.dump_trace(trace)
    lines = csv.strip().split("\n")
    assert lines[0] == "cycle,adc_raw,tr,re_sm,im_sm,i,q,i_t,q_t,fb_time,fb,fb2"
    assert len(lines) == n + 1
    assert lines[1].startswith("0,0,0")


def test_readout_events_pair_evaluation_cycle_with_fb():
    cfg = pl.PipelineConfig(window_len=4, delay=5, lut1=(1, 1, 0, 0))
    n_e = 4
    n = 40
    triggers = [1 if k == n_e else 0 for k in range(n)]
    # a constant input demodulates to i_t = 0, whose sign bit 0 fires lut1
    samples = [2000] * n
    trace = pl.run_stream(cfg, samples, triggers)
    # the discriminator acts during the evaluation cycle; the registered
    # fb_time and fb rise together one tick later
    m_star = n_e + pl.SYNC_DEPTH + 2 + cfg.delay
    assert pl.trigger_to_eval_cycles(cfg) == m_star - n_e
    rises = [k for k in range(1, n) if trace[k].fb_time and not trace[k - 1].fb_time]
    assert rises == [m_star + 1]
    ev = trace[m_star]
    assert pl.discriminate(pl.sign_bit(ev.i_t), pl.sign_bit(ev.q_t), cfg.lut1) == 1
    assert (ev.fb, trace[m_star + 1].fb) == (0, 1)


# ---------------------------------------------------------------------------
# Batch implementation equivalence
# ---------------------------------------------------------------------------

def test_batch_matches_scalar_bit_exactly():
    rng = np.random.default_rng(2024)
    for l, d, s_i, s_q in ((2, 0, 0, 0), (4, 10, 2, 2), (8, 3, -2, 1), (4, 6, 7, -7)):
        cfg = pl.PipelineConfig(
            window_len=l, delay=d, s_i=s_i, s_q=s_q,
            c_i=131, c_q=-77,
            lut1=(1, 1, 0, 0), lut2=(0, 1, 1, 0),
        )
        reps, m = 6, 90
        raw = rng.integers(-8192, 8192, size=(reps, m))
        triggers = np.zeros(m, dtype=np.int64)
        triggers[[7, 45]] = 1
        batch = pl.run_stream_batch(cfg, raw, triggers)
        for b in range(reps):
            trace = pl.run_stream(cfg, raw[b], triggers)
            for n, t in enumerate(trace):
                assert batch.i[b, n] == t.i
                assert batch.q[b, n] == t.q
                assert batch.i_t[b, n] == t.i_t
                assert batch.q_t[b, n] == t.q_t
                assert batch.fb[b, n] == t.fb
                assert batch.fb2[b, n] == t.fb2
                assert batch.fb_time[n] == t.fb_time


BATCH_FIELDS = ("i", "q", "i_t", "q_t", "fb", "fb2")


@st.composite
def stream_cases(draw):
    """A random configuration, sample streams and a trigger lane of
    pulses packed near tick 0, long enough for the last evaluation."""
    bits = st.tuples(*[st.integers(0, 1)] * 4)
    cfg = pl.PipelineConfig(
        window_len=draw(st.sampled_from([2, 4, 8, 16, 32])),
        delay=draw(st.integers(0, pl.MAX_DELAY)),
        c_i=draw(st.integers(FILTER_LO, FILTER_HI)),
        c_q=draw(st.integers(FILTER_LO, FILTER_HI)),
        s_i=draw(st.integers(-7, 7)),
        s_q=draw(st.integers(-7, 7)),
        lut1=draw(bits),
        lut2=draw(bits))
    # (low ticks, high ticks) pairs: a gap of 0 puts the first pulse at
    # tick 0 and merges a later one into its predecessor, a gap of 1
    # makes back-to-back pulses
    lane = []
    for gap, high in draw(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 4)),
                                   max_size=5)):
        lane += [0] * gap + [1] * high
    ticks = len(lane) + pl.trigger_to_eval_cycles(cfg) + draw(st.integers(-3, 8))
    lane = (lane + [0] * ticks)[:max(ticks, 0)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reps = draw(st.integers(1, 3))
    if draw(st.booleans()):
        # full scale drives the preprocessor into saturation
        raw = rng.choice([ADC_LO, ADC_HI], size=(reps, len(lane)))
    else:
        raw = rng.integers(ADC_LO, ADC_HI + 1, size=(reps, len(lane)))
    return cfg, raw, lane


@settings(max_examples=200, deadline=None)
@given(stream_cases())
def test_batch_matches_scalar_on_random_configs_and_trigger_lanes(case):
    cfg, raw, lane = case
    batch = pl.run_stream_batch(cfg, raw, np.array(lane, dtype=np.int64))
    for b in range(raw.shape[0]):
        trace = pl.run_stream(cfg, raw[b], lane)
        for name in BATCH_FIELDS:
            np.testing.assert_array_equal(
                getattr(batch, name)[b], [getattr(t, name) for t in trace],
                err_msg=name)
        np.testing.assert_array_equal(batch.fb_time, [t.fb_time for t in trace])


@pytest.mark.parametrize("bad", [2, -1])
def test_batch_rejects_non_bit_triggers(bad):
    cfg = pl.PipelineConfig(delay=1)
    lane = [0] * 16
    lane[2] = bad
    with pytest.raises(ValueError, match="trigger must be a bit"):
        pl.run_stream(cfg, [0] * 16, lane)
    with pytest.raises(ValueError, match="trigger must be a bit"):
        pl.run_stream_batch(cfg, np.zeros((1, 16), dtype=np.int64), lane)


def test_config_validation():
    with pytest.raises(ConfigError):
        pl.PipelineConfig(window_len=0)
    with pytest.raises(ConfigError):
        pl.PipelineConfig(window_len=3)
    with pytest.raises(ConfigError):
        pl.PipelineConfig(window_len=6)  # even but not a power of two
    with pytest.raises(ConfigError):
        pl.PipelineConfig(delay=-1)
    with pytest.raises(ConfigError):
        pl.PipelineConfig(delay=256)
    with pytest.raises(ConfigError):
        pl.PipelineConfig(s_i=8)
    with pytest.raises(ConfigError):
        pl.PipelineConfig(lut1=(2, 0, 0, 0))
    # the offsets load the 15-bit filtered-signal register
    pl.PipelineConfig(c_i=FILTER_HI, c_q=FILTER_LO)
    with pytest.raises(ConfigError, match="c_i: raw 16384 does not fit in 15 bits"):
        pl.PipelineConfig(c_i=16384)
    with pytest.raises(ConfigError, match="c_q: raw -16385 does not fit in 15 bits"):
        pl.PipelineConfig(c_q=-16385)
    for bad in (True, 1.0):
        with pytest.raises(ConfigError, match="c_i must be an integer"):
            pl.PipelineConfig(c_i=bad)


@pytest.mark.parametrize("raw", [ADC_HI + 1, ADC_LO - 1])
def test_tick_rejects_a_code_beyond_the_adc_width(raw):
    cfg = pl.PipelineConfig()
    with pytest.raises(ValueError, match=f"raw {raw} does not fit in 14 bits"):
        pl.tick(cfg, pl.PipelineState(cfg), raw, 0)
    with pytest.raises(ValueError, match=f"raw {raw} does not fit in 14 bits"):
        pl.run_stream(cfg, [0, raw], [0, 0])
