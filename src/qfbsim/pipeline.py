"""Cycle-accurate model of the feedback signal processor.

CLOCK_PERIOD_NS, SYNC_DEPTH and PROC_CYCLES state the machine's timing
once; the latency budget, the synthesizer and the experiment derive
theirs from them.  One `tick()` call advances the machine one clock:

    ADC register -> fs/4 mixer (registered) -> moving average (registered)
    -> offset/scale preprocessing (combinational) -> sign-bit LUT
    discrimination (combinational) -> registered fb/fb2/fb_time outputs

The trigger input runs through its own chain: a fixed synchronization
delay line that compensates the ADC-vs-trigger interface skew, one
register per pipeline stage, a rising-edge detector, and a user delay of
`d` cycles whose output (fb_time) marks the cycle at which the
discriminator result is gated into the feedback triggers.

Outputs of `tick()` follow register semantics: the returned values are
what is observable *during* the cycle, i.e. the state the registers held
when the cycle began; the sample and trigger passed in are captured at
the end of the cycle and influence later ticks only.  Consequently the
filtered output at tick n depends on input samples up to n-3 (the
PROC_CYCLES registered stages).  A trigger rising edge at the input
reaches its evaluation tick trigger_to_eval_cycles(config) ticks later,
and the registered fb rising edge lands one tick after that.

`tick()` is the reference.  The fast side has one vectorized filter,
which mixes and averages each tick's filter_window of samples:
`scaled_iq_at` applies it to a single tick's window, and the batch
machine `run_stream_batch` to every tick of arrays of independent
streams.  The test suite holds both to the scalar machine element by
element.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import fxp
from .fxp import ADC_WIDTH, ConfigError, FxpSample

# Datapath widths.  A full-scale 14-bit sample negated by the mixer needs
# 15 bits (-(-8192) = +8192); the accumulator holds up to 40 mixer
# outputs (40 * 8192 < 2**20) so 21 bits can never overflow; the
# normalized average fits back into 15 bits; preprocessing grows by the
# offset subtraction and shift into 16 bits.
MIXER_WIDTH = 15
ACCUMULATOR_WIDTH = 21
FILTER_WIDTH = 15
PREPROC_WIDTH = 16

# fs/4 mixer coefficient sequences: cos(2*pi*n/4) and -sin(2*pi*n/4).
COS_SEQ = (1, 0, -1, 0)
NSIN_SEQ = (0, -1, 0, 1)

CLOCK_PERIOD_NS = 10
# The ADC link delivers each sample SYNC_DEPTH clocks after the trigger
# lane carries its edge; the trigger synchronizer is that deep to match.
SYNC_DEPTH = 6
# ADC, mixer and moving-average registers between a sample and the
# filtered value that contains it.
PROC_CYCLES = 3

MAX_WINDOW = 40
MAX_DELAY = 255


@dataclass(frozen=True)
class PipelineConfig:
    """Run-time knobs of the processor.

    window_len: moving-average length l (even, 2..40; the cycle-accurate
        normalizer requires a power of two).
    delay: trigger-to-evaluation delay d in clock cycles; d clock
        periods are the readout time covered by the integration window.
    c_i, c_q: offsets subtracted from the filtered I/Q before scaling.
    s_i, s_q: power-of-two scale exponents (-7..+7).
    lut1, lut2: 4-entry truth tables indexed by (x << 1) | y where x, y
        are the sign bits of the preprocessed I/Q.
    """

    window_len: int = 4
    delay: int = 10
    c_i: FxpSample = FxpSample(0, FILTER_WIDTH)
    c_q: FxpSample = FxpSample(0, FILTER_WIDTH)
    s_i: int = 0
    s_q: int = 0
    lut1: tuple[int, int, int, int] = (1, 1, 0, 0)  # 1 iff x = 0
    lut2: tuple[int, int, int, int] = (1, 0, 1, 0)  # 1 iff y = 0

    def __post_init__(self) -> None:
        l = self.window_len
        if l < 2 or l > MAX_WINDOW or l % 2:
            raise ConfigError(f"window_len {l} must be even and within 2..{MAX_WINDOW}")
        if l & (l - 1):
            raise ConfigError(
                f"window_len {l} is not a power of two; the shift normalizer "
                "cannot realize 1/l"
            )
        if not 0 <= self.delay <= MAX_DELAY:
            raise ConfigError(f"delay {self.delay} outside 0..{MAX_DELAY}")
        for name, s in (("s_i", self.s_i), ("s_q", self.s_q)):
            if not fxp.SHIFT_MIN <= s <= fxp.SHIFT_MAX:
                raise ConfigError(f"{name}={s} outside {fxp.SHIFT_MIN}..{fxp.SHIFT_MAX}")
        for name, lut in (("lut1", self.lut1), ("lut2", self.lut2)):
            if len(lut) != 4 or any(b not in (0, 1) for b in lut):
                raise ConfigError(f"{name} must be four bits, got {lut!r}")

    @property
    def norm_shift(self) -> int:
        return self.window_len.bit_length() - 1


class PipelineState:
    """Every register of the machine; reset() zeroes all of them."""

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        self.reset()

    def reset(self) -> None:
        cfg = self.config
        self.phase = 0                      # 2-bit counter stamping input samples
        self.adc_raw = 0
        self.adc_phase = 0
        self.mix_re = 0
        self.mix_im = 0
        self.ma_re = MovingAverageBranch(cfg)
        self.ma_im = MovingAverageBranch(cfg)
        self.i_reg = 0
        self.q_reg = 0
        self.sync = [0] * SYNC_DEPTH        # trigger synchronization stages
        self.tr_a = 0                       # per-pipeline-stage trigger registers
        self.tr_b = 0
        self.tr_b_prev = 0                  # rising-edge history bit
        self.dline = [0] * cfg.delay        # user delay z^-d
        self.fb_reg = 0
        self.fb2_reg = 0
        self.fbtime_reg = 0
        self.overflow = {"i_t": False, "q_t": False}


@dataclass(frozen=True)
class TickOutput:
    """Signals observable during one clock cycle (raw integer values)."""

    cycle: int
    adc_raw: int
    tr: int
    re_sm: int
    im_sm: int
    i: int
    q: int
    i_t: int
    q_t: int
    fb_time: int
    fb: int
    fb2: int


def mixer_fs4(raw: int, phase: int) -> tuple[int, int]:
    """Multiplier-less fs/4 down-conversion of one raw ADC sample.

    The cosine sequence (1, 0, -1, 0) and negated sine sequence
    (0, -1, 0, 1) take only values in {-1, 0, 1}, so the product reduces
    to selection and negation.  The outputs are MIXER_WIDTH (15) bits
    wide because -(-8192) is not a 14-bit value.
    """
    if phase not in (0, 1, 2, 3):
        raise ValueError(f"phase {phase} outside 0..3")
    return raw * COS_SEQ[phase], raw * NSIN_SEQ[phase]


class MovingAverageBranch:
    """Delay line + subtractor + accumulator + output adder for one branch.

    step_raw() performs one clock of the recursive update
    sum_n = acc + a_n - a_{n-l}; the accumulator keeps the running window
    sum and the normalized output is an arithmetic right shift by
    log2(l).  Registers start at zero, so the first l-1 outputs equal
    direct sums over the available samples with implicit leading zeros.
    l and its shift are the config's, which PipelineConfig validates.
    """

    def __init__(self, config: PipelineConfig) -> None:
        self.window_len = config.window_len
        self.norm_shift = config.norm_shift
        self.dly = [0] * self.window_len
        self.pos = 0
        self.acc = 0
        self.overflow = False

    def step_raw(self, a: int) -> int:
        oldest = self.dly[self.pos]
        self.dly[self.pos] = a
        self.pos = (self.pos + 1) % self.window_len
        total = self.acc + a - oldest
        total, clipped = fxp.saturate(total, ACCUMULATOR_WIDTH)
        self.overflow |= clipped
        self.acc = total
        out, clipped = fxp.saturate(total >> self.norm_shift, FILTER_WIDTH)
        self.overflow |= clipped
        return out


def preprocess_raw(v_raw: int, c_raw: int, s: int) -> tuple[int, bool]:
    """(v - c) scaled by 2**s, saturated to the 16-bit preprocessed width."""
    return fxp.shift_raw(v_raw - c_raw, s, PREPROC_WIDTH)


def discriminate(x: int, y: int, lut: tuple[int, int, int, int]) -> int:
    """Look up the feedback bit for sign bits (x, y)."""
    if x not in (0, 1) or y not in (0, 1):
        raise ValueError("sign bits must be 0 or 1")
    return lut[(x << 1) | y]


def sign_bit(raw: int) -> int:
    """Hardware sign bit: 0 for non-negative values, 1 for negative."""
    return 1 if raw < 0 else 0


def tick(config: PipelineConfig, state: PipelineState, adc_sample: FxpSample,
         tr: int, cycle: int = 0) -> TickOutput:
    """Advance the machine one clock cycle; returns the observable signals."""
    if adc_sample.width != ADC_WIDTH:
        raise ValueError(f"ADC samples must be {ADC_WIDTH}-bit")
    if tr not in (0, 1):
        raise ValueError("trigger must be a bit")

    # Combinational logic fed by the current register state.
    i_t, clip_i = preprocess_raw(state.i_reg, config.c_i.raw, config.s_i)
    q_t, clip_q = preprocess_raw(state.q_reg, config.c_q.raw, config.s_q)
    state.overflow["i_t"] |= clip_i
    state.overflow["q_t"] |= clip_q
    x = sign_bit(i_t)
    y = sign_bit(q_t)
    edge = state.tr_b & (1 - state.tr_b_prev)
    fbt_comb = state.dline[-1] if config.delay else edge
    fb_comb = discriminate(x, y, config.lut1) & fbt_comb
    fb2_comb = discriminate(x, y, config.lut2) & fbt_comb

    out = TickOutput(
        cycle=cycle,
        adc_raw=adc_sample.raw,
        tr=tr,
        re_sm=state.mix_re,
        im_sm=state.mix_im,
        i=state.i_reg,
        q=state.q_reg,
        i_t=i_t,
        q_t=q_t,
        fb_time=state.fbtime_reg,
        fb=state.fb_reg,
        fb2=state.fb2_reg,
    )

    # Clock edge: every register captures its input, computed from the
    # pre-edge values (order below only uses old values on the right).
    state.fb_reg = fb_comb
    state.fb2_reg = fb2_comb
    state.fbtime_reg = fbt_comb

    # Moving average consumes the current mixer registers.
    state.i_reg = state.ma_re.step_raw(state.mix_re)
    state.q_reg = state.ma_im.step_raw(state.mix_im)

    # Mixer consumes the current ADC register and its captured phase.
    state.mix_re, state.mix_im = mixer_fs4(state.adc_raw, state.adc_phase)

    # ADC register captures the new sample, stamped with the running phase.
    state.adc_raw = adc_sample.raw
    state.adc_phase = state.phase
    state.phase = (state.phase + 1) & 3

    # Trigger chain shifts one stage.
    if config.delay:
        state.dline = [edge] + state.dline[:-1]
    state.tr_b_prev = state.tr_b
    state.tr_b = state.tr_a
    state.tr_a = state.sync[-1]
    state.sync = [tr] + state.sync[:-1]

    return out


def run_stream(config: PipelineConfig, samples: list[FxpSample],
               triggers: list[int],
               state: PipelineState | None = None) -> list[TickOutput]:
    """Fold tick() over a sample/trigger stream from reset or from state;
    the returned cycles count from 0."""
    if len(samples) != len(triggers):
        raise ValueError("samples and triggers must have equal length")
    if state is None:
        state = PipelineState(config)
    return [
        tick(config, state, s, t, cycle=n)
        for n, (s, t) in enumerate(zip(samples, triggers))
    ]


def dump_trace(trace: list[TickOutput]) -> str:
    """CSV rendering of a trace, one row per clock cycle and one column
    per TickOutput field, in declaration order."""
    columns = [f.name for f in fields(TickOutput)]
    lines = [",".join(columns)]
    for t in trace:
        lines.append(",".join(str(getattr(t, c)) for c in columns))
    return "\n".join(lines) + "\n"


def trigger_to_eval_cycles(config: PipelineConfig) -> int:
    """Ticks from a trigger rising edge at the input to its evaluation tick.

    The edge crosses the SYNC_DEPTH synchronizer stages, the two
    per-stage trigger registers and the d-cycle user delay.  During the
    evaluation tick the discriminator result is gated into fb/fb2; the
    registered fb, fb2 and fb_time outputs rise one tick later.
    """
    return SYNC_DEPTH + 2 + config.delay


# ---------------------------------------------------------------------------
# Vectorized filter and batch machine (bit-exact twins of the scalar machine)
# ---------------------------------------------------------------------------

@dataclass
class BatchTrace:
    """Arrays of shape (reps, ticks) mirroring the scalar TickOutput fields."""

    i: np.ndarray
    q: np.ndarray
    i_t: np.ndarray
    q_t: np.ndarray
    fb: np.ndarray
    fb2: np.ndarray
    fb_time: np.ndarray  # shape (ticks,): trigger path is shared per batch


def _trigger_path(config: PipelineConfig, triggers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fb_time of the (shared) trigger chain, in closed form.

    Returns (fbt_comb, fbt_reg): the combinational fb_time value during
    each tick, which is the trigger lane's rising edges moved to their
    evaluation ticks, and the registered output, one tick behind it.
    The registers start at zero, so a trigger high at tick 0 is a
    rising edge.
    """
    m = len(triggers)
    prev = np.concatenate(([0], triggers[:-1])).astype(np.uint8)
    rising = triggers.astype(np.uint8) & (1 - prev)
    k = trigger_to_eval_cycles(config)
    fbt_comb = np.zeros(m, dtype=np.uint8)
    fbt_comb[k:] = rising[:max(m - k, 0)]
    fbt_reg = np.zeros(m, dtype=np.uint8)
    fbt_reg[1:] = fbt_comb[:-1]
    return fbt_comb, fbt_reg


def preprocess_array(v: np.ndarray, c_raw: int, s: int) -> np.ndarray:
    """Vectorized preprocess_raw: (v - c) * 2**s, saturated to 16 bits."""
    t = v - c_raw
    if s >= 0:
        t <<= s
    else:
        t >>= -s
    lo, hi = fxp.raw_bounds(PREPROC_WIDTH)
    return np.clip(t, lo, hi, out=t)


def lut_bits(lut: tuple[int, int, int, int], i_t: np.ndarray,
             q_t: np.ndarray) -> np.ndarray:
    """Vectorized discriminate() on the sign bits of preprocessed I/Q."""
    x = (i_t < 0).view(np.uint8)
    y = (q_t < 0).view(np.uint8)
    return np.array(lut, dtype=np.uint8)[(x << 1) | y]


def filter_window(config: PipelineConfig, tick: int) -> range:
    """Stream indices of the samples the filter register holds during tick.

    A sample passes the ADC and mixer registers before it enters the
    moving average, whose register shows the sum up to the previous
    tick: the window during tick n is samples n - l - 2 .. n - 3, the
    last one PROC_CYCLES ticks back.
    """
    last = tick - PROC_CYCLES
    return range(last - config.window_len + 1, last + 1)


def _filter_registers(config: PipelineConfig, windows: np.ndarray,
                      first: int) -> tuple[np.ndarray, np.ndarray]:
    """Filter registers (i, q) of filter windows of any leading shape.

    windows[..., k] holds stream sample first + k.  Each sample is mixed
    by the coefficient of its stamped phase (stream index & 3), summed
    over the window and shifted by log2(l): the fs/4 mixer and the
    moving average.  The coefficients are +-1 or 0 (COS_SEQ, NSIN_SEQ),
    so each register is a difference of two sums of the columns of one
    phase.  The sums are exact and never reach the saturating widths
    (see the datapath widths above), so they equal the scalar machine's
    registers.
    """
    sums = []
    for p in range(4):
        # the samples of phase p: every fourth column (none when l = 2
        # and p is not one of the two phases the window holds)
        cols = range((p - first) & 3, windows.shape[-1], 4)
        total = windows[..., cols[0]] if cols else 0
        for k in cols[1:]:
            total = total + windows[..., k]
        sums.append(total)
    i = sums[0] - sums[2]       # COS_SEQ = (1, 0, -1, 0)
    q = sums[3] - sums[1]       # NSIN_SEQ = (0, -1, 0, 1)
    i >>= config.norm_shift
    q >>= config.norm_shift
    return i, q


def scaled_iq_at(config: PipelineConfig, window: np.ndarray,
                 first: int) -> tuple[np.ndarray, np.ndarray]:
    """Preprocessed (i_t, q_t) of a single tick from its filter window.

    window has shape (reps, l) and holds stream samples first ..
    first + l - 1, i.e. filter_window(config, first + l + 2).  The result
    equals the scalar machine's i_t/q_t during tick first + l + 2 for
    any stream carrying these samples, and costs l samples per
    repetition instead of the whole stream.
    """
    window = np.asarray(window, dtype=np.int64)
    if window.ndim != 2 or window.shape[1] != config.window_len:
        raise ValueError(f"window must be a (reps, {config.window_len}) array")
    if first < 0:
        raise ValueError("the window must start at or after stream sample 0")
    i, q = _filter_registers(config, window, first)
    return (preprocess_array(i, config.c_i.raw, config.s_i),
            preprocess_array(q, config.c_q.raw, config.s_q))


def run_stream_batch(config: PipelineConfig, raw: np.ndarray,
                     triggers: np.ndarray) -> BatchTrace:
    """Vectorized equivalent of run_stream over (reps, ticks) sample arrays.

    Every tick's filter window is a view of the stream behind leading
    zeros, which stand for the registers' reset state.
    """
    raw = np.asarray(raw, dtype=np.int64)
    if raw.ndim != 2:
        raise ValueError("raw must be a (reps, ticks) array")
    triggers = np.asarray(triggers)
    if raw.shape[1] != len(triggers):
        raise ValueError("triggers length must equal the tick count")
    if not np.isin(triggers, (0, 1)).all():
        raise ValueError("trigger must be a bit")

    m = raw.shape[1]
    start = filter_window(config, 0).start
    windows = sliding_window_view(np.pad(raw, ((0, 0), (-start, 0))),
                                  config.window_len, axis=1)[:, :m]
    # tick n's window starts at stream sample start + n: the ticks of one
    # residue mod 4 share their column phases, so one call serves each
    i_arr = np.empty(raw.shape, dtype=np.int64)
    q_arr = np.empty(raw.shape, dtype=np.int64)
    for r in range(4):
        i_arr[:, r::4], q_arr[:, r::4] = _filter_registers(
            config, windows[:, r::4], start + r)
    i_t = preprocess_array(i_arr, config.c_i.raw, config.s_i)
    q_t = preprocess_array(q_arr, config.c_q.raw, config.s_q)
    fbt_comb, fbt_reg = _trigger_path(config, triggers)
    fb_comb = lut_bits(config.lut1, i_t, q_t) & fbt_comb
    fb2_comb = lut_bits(config.lut2, i_t, q_t) & fbt_comb
    fb = np.zeros_like(fb_comb)
    fb2 = np.zeros_like(fb2_comb)
    fb[:, 1:] = fb_comb[:, :-1]
    fb2[:, 1:] = fb2_comb[:, :-1]
    return BatchTrace(i=i_arr, q=q_arr, i_t=i_t, q_t=q_t, fb=fb, fb2=fb2,
                      fb_time=fbt_reg)
