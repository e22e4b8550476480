"""Closed-loop qubit-initialization experiment on top of the DSP model.

One repetition spans a 660 ns window sampled once per pipeline clock
(pipeline.CLOCK_PERIOD_NS):

    t < 0        idle, qubit in its initial state
    t = 0        optional init gate, first readout pulse M1 starts (160 ns)
    t = tau_RO   first integration window (l samples) ends; threshold
                 comparison produces the feedback bit
    t = t_pi     conditional pi pulse center: applied iff the feedback
                 bit fired and the run's arm has feedback on
    t = 360 ns   second readout pulse M2, second integration window

The ADC stream reaching the pipeline lags the trigger lane by the ADC
link's transport skew of pipeline.SYNC_DEPTH samples, the depth of the
trigger synchronizer that matches it; that is what lines the
integration window up with the readout pulse.  sigmodel applies the
skew; the chunks map each filter window back onto the source grid.

run_feedback_comparison drives a vectorized Monte Carlo of the full
loop, once for each feedback arm the run names (exact exponential jump
times from _sample_jump_columns, the package's one jump sampler, which
hands out only the repetitions that jump, their times and every
repetition's state after a segment; closed-form cavity envelope
propagation; the bit-exact pipeline), and reports quadrant statistics
per arm next to an independent analytic rate-equation prediction.  The
Monte Carlo only draws noise for, and synthesizes, the 2 l samples
inside the two integration windows, draws jump times only for the
repetitions still jumping, and evaluates the pipeline only at the two
readout ticks (scaled_iq_at), which lie
pipeline.trigger_to_eval_cycles after the triggers, so the feedback bit
needs no trigger-chain simulation.  The scalar tick() machine is the
reference it is tested against; the noiseless calibration runs the
whole stream through run_stream_batch, the whole-stream form of the
same vectorized filter.

The repetitions come in chunks of CHUNK_REPS, each drawing from its own
generator, so the draws do not depend on how the chunks are run.  The
chunks run BATCH_CHUNKS at a time: only the draws loop over a batch's
chunks, and every other stage runs once over the whole batch.

The envelope is not propagated before the first pulse (it is exactly
zero there), the second phase stops at the end of the second integration
window, and each batch's first phase runs once and branches into the
run's feedback arms from a snapshot of it.  A run with no feedback arms
is a single readout, such as the calibration ensembles: it stops at the
first pulse's end.

Until its first jump after the first pulse starts, a repetition's
noiseless windows are fixed by its history class: its state at the
pulse start for the first window, that and its state after the arm's
conditional flip for the second.  A batch still draws every
repetition's jumps in the same order as if each had its own envelope,
but propagates the envelope and synthesizes the waveform only for the
repetitions that jump plus one jump-free row per class (2 in the first
phase, 4 in each arm's second), and takes every other window from its
class's row.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import sigmodel
from .fxp import (
    ADC_LSB_VOLTS,
    SHIFT_MAX,
    SHIFT_MIN,
    ConfigError,
    quantize_flagged,
)
from .histo import HistogramRam, check_segment_count, correlation_addresses
from .latency import BUDGET, budget_summary, tau_eltot
from .pipeline import (
    CLOCK_PERIOD_NS,
    FILTER_WIDTH,
    SYNC_DEPTH,
    PipelineConfig,
    filter_window,
    lut_bits,
    run_stream_batch,
    scaled_iq_at,
    trigger_to_eval_cycles,
)
from .sigmodel import STATE_E, STATE_G, DeviceParams, carrier_tables, quantize_array

NS = 1e-9
GRID_START_NS = -80
N_SOURCE = 66               # samples per repetition window
PULSE_NS = 160
M1_START_NS = 0
M2_START_NS = 360
TRIG1_TICK = (M1_START_NS - GRID_START_NS) // CLOCK_PERIOD_NS
TRIG2_TICK = (M2_START_NS - GRID_START_NS) // CLOCK_PERIOD_NS
CHUNK_REPS = 4096
# chunks that run as one vectorized batch; more would cut per-call
# overhead little further and hold more chunks' arrays at once
BATCH_CHUNKS = 8

PI_HALF_INIT = "pi_half_init"
THERMAL_INIT = "thermal_init"
SCENARIOS = (PI_HALF_INIT, THERMAL_INIT)

QUADRANT_KEYS = ("gg", "ge", "eg", "ee")

# fb fires on a non-negative in-phase value regardless of quadrature;
# fb2 is its complement (ground-state identification)
FEEDBACK_LUT = (1, 1, 0, 0)
COMPLEMENT_LUT = (0, 0, 1, 1)


class CalibrationError(RuntimeError):
    """A calibration target cannot be reached with this configuration."""


def _filter_offset(volts: float, name: str) -> int:
    """An offset quantized onto the filtered-signal grid, which it must fit."""
    if not math.isfinite(volts):
        raise ConfigError(f"{name} ({volts:g} V) must be finite")
    code, clipped = quantize_flagged(volts, FILTER_WIDTH)
    if clipped:
        full_scale = 2 ** (FILTER_WIDTH - 1) * ADC_LSB_VOLTS
        raise ConfigError(f"{name} ({volts:g} V) lies outside the filtered-signal "
                          f"range of +-{full_scale:g} V")
    return code


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one experiment; `pipeline` is derived from them.

    The pipeline setup matches the experiment's demodulation frame: the
    threshold becomes the in-phase offset (so the sign bit of the scaled
    output is the state decision) and the quadrature offset cancels the
    state-independent component of the filtered signal.

    Feedback is not a setting: each run names its arms (the feedback
    argument of run_feedback_comparison).  Nor is the latency budget:
    t_pi_ns reads the measured setup's fixed table, latency.BUDGET.
    """

    device: DeviceParams
    scenario: str
    repetitions: int = 1 << 17
    master_seed: int = 1
    threshold_volts: float = 0.016
    delay: int = PipelineConfig.delay
    window_len: int = PipelineConfig.window_len
    scale_shift: int = 3
    pipeline: PipelineConfig = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        for name in ("repetitions", "master_seed", "delay", "window_len", "scale_shift"):
            value = getattr(self, name)
            # a bool is an int to Python, and a float fails only inside the chunks
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        # the chunks' generators take the seed as one 64-bit word
        if not 0 <= self.master_seed < 2 ** 64:
            raise ConfigError(f"master_seed {self.master_seed} outside 0..2**64-1")
        if not SHIFT_MIN <= self.scale_shift <= SHIFT_MAX:
            raise ConfigError(f"scale_shift {self.scale_shift} outside "
                              f"{SHIFT_MIN}..{SHIFT_MAX}")
        dev = self.device
        q_mean = (dev.amp_ss / 2.0) * dev.steady_alpha(STATE_G).real + dev.offset_q
        object.__setattr__(self, "pipeline", PipelineConfig(
            window_len=self.window_len, delay=self.delay,
            c_i=_filter_offset(self.threshold_volts, "threshold_volts"),
            c_q=_filter_offset(q_mean, "quadrature offset set by device.amp_ss"
                                       " and device.offset_q"),
            s_i=self.scale_shift, s_q=self.scale_shift,
            lut1=FEEDBACK_LUT, lut2=COMPLEMENT_LUT))
        if self.tau_ro_ns > PULSE_NS:
            raise ConfigError(f"integration end ({self.tau_ro_ns} ns) falls beyond the pulse")
        if self.delay < self.window_len:
            raise ConfigError("integration window starts before the pulse")
        # t_pi_ns is tau_ro_ns + 233 ns, always past the first pulse's
        # end; a long enough delay can still push it into the second
        if self.t_pi_ns >= M2_START_NS:
            raise ConfigError(
                f"conditional pi at {self.t_pi_ns:g} ns must fall before the "
                f"second readout pulse starts ({M2_START_NS} ns)")

    @property
    def tau_ro_ns(self) -> int:
        """Readout duration: pulse start to integration-window end."""
        return self.delay * CLOCK_PERIOD_NS

    @property
    def window_center_ns(self) -> float:
        """Integration-window center, relative to the pulse start."""
        return self.tau_ro_ns - self.window_len * CLOCK_PERIOD_NS / 2.0

    @property
    def t_pi_ns(self) -> float:
        """Conditional pulse center: readout end plus the electronic
        chain, halfway into the actuator pulse."""
        el, _ = tau_eltot()
        return self.tau_ro_ns + el + BUDGET["tau_ap"][0] / 2.0

    def with_noise_sigma(self, sigma: float) -> ExperimentConfig:
        """This configuration at noise level sigma."""
        return replace(self, device=replace(self.device, noise_sigma=sigma))

    def eval_tick(self, trigger_tick: int) -> int:
        """Pipeline tick whose outputs form a readout event for a
        trigger asserted at trigger_tick."""
        return trigger_tick + trigger_to_eval_cycles(self.pipeline)


@dataclass(frozen=True)
class _McResult:
    """One Monte Carlo ensemble, or one batch's share of it.  The
    readouts it1, qt1, it2 and qt2 are int16, as the preprocessor
    saturates them (_read_window); code that does arithmetic on them
    widens them first.  it2 and qt2 are None for a single readout;
    saturated counts the ADC samples the quantizer clipped."""

    it1: np.ndarray
    qt1: np.ndarray
    fb1: np.ndarray
    it2: np.ndarray | None
    qt2: np.ndarray | None
    saturated: int

    @property
    def n(self) -> int:
        return self.it1.size


# ---------------------------------------------------------------------------
# vectorized trajectory + envelope engine


def _grid_times_s() -> np.ndarray:
    return (GRID_START_NS + CLOCK_PERIOD_NS * np.arange(N_SOURCE)) * NS


def _sample_jump_columns(rngs, bounds, state: np.ndarray, a: float, b: float,
                         gamma_down: float, gamma_up: float):
    """Exact exponential jump times for every repetition within [a, b).

    The repetitions are a batch of chunks: chunk c holds the rows
    bounds[c]:bounds[c + 1] and draws from its own generator rngs[c]
    (one chunk is ([rng], [0, reps])).  Returns (rows, times, end):
    rows are the repetitions that jump at least once, ascending; times
    is (events, rows), each row's jump times in time order with +inf
    after its last; end is every repetition's state at b.  Each
    iteration, each chunk draws one exponential per repetition of its
    own still jumping, in repetition order: all of them at first, after
    that only the few that jumped in the previous iteration.  A chunk
    with none left draws nothing, so each chunk's draws, rows and times
    are those of the chunk sampled alone (with +inf events after its
    own last one).  end is state itself when nothing jumps; no caller
    writes to either.
    """
    rate = np.array([gamma_up, gamma_down])     # by state: STATE_G, STATE_E
    end = state
    events = []
    active = np.arange(state.shape[0])
    t = a
    while True:
        # active is sorted, so each chunk's jumpers are one run of it
        u = _per_chunk(rngs, np.searchsorted(active, bounds),
                       np.random.Generator.standard_exponential)
        # u becomes the next jump time; a zero rate gives inf (nan for a
        # zero draw), and neither lies before b
        with np.errstate(divide="ignore", invalid="ignore"):
            u /= np.take(rate, state)
        u += t
        hit = np.flatnonzero(u < b)
        if not hit.size:
            break
        active, t, state = active[hit], u[hit], state[hit] ^ 1
        if not events:
            end = end.copy()
        end[active] = state
        events.append((active, t))
    rows = events[0][0] if events else np.zeros(0, dtype=np.intp)
    times = np.full((len(events), rows.size), np.inf)
    for k, (jumpers, tk) in enumerate(events):
        times[k, np.searchsorted(rows, jumpers)] = tk
    return rows, times, end


class _EnvelopeFiller:
    """Propagates the batch cavity envelope of reps repetitions across
    one repetition window.

    Only the grid columns named in cols are evaluated (out[:, k] is grid
    column cols[k]); alpha still advances through every jump and pulse
    edge, so each evaluated column is the same whichever others are
    evaluated.

    Every value is one relaxation step from the repetition's last event
    (segment start or jump): target + (alpha - target) exp(-lam dt),
    with lam and target set by the qubit state.  Repetitions without a
    jump in a segment take all of its values in one closed-form step;
    only those that jump step through their events.  A value depends
    on its own repetition's operands only, not on how many rows run
    with it, so the chunk gives the filler only the repetitions that
    jump, followed by one row per jump-free history class
    (_own_envelope).
    """

    def __init__(self, device: DeviceParams, reps: int, cols: np.ndarray):
        # indexed by qubit state (STATE_G = 0, STATE_E = 1)
        self.target = np.array([device.steady_alpha(s) for s in range(2)])
        self.lam = np.array([device.envelope_rate(s) for s in range(2)])
        self.alpha = np.zeros(reps, dtype=complex)
        self.grid = _grid_times_s()[cols]
        self.out = np.zeros((reps, self.grid.size), dtype=complex)

    def _decay(self, state, elapsed):
        return np.exp(-self.lam[state] * elapsed)

    def _step(self, alpha, state, decay, pulse_on):
        """One relaxation step; alpha and decay have the same shape.

        numpy may round a complex product's last bit differently on
        broadcast operands.  Equal shapes keep a row's value independent
        of the rows beside it on one host, which the class rows rely on;
        they do not make numpy's kernel sets agree (the 14-bit quantizer
        absorbs those last-bit differences).  The sum is taken in place:
        numpy would inspect the call stack before reusing a large
        temporary, which costs more than the sum.
        """
        target = self.target[state] if pulse_on else 0.0
        value = (alpha - target) * decay
        value += target
        return value

    def run_segment(self, state: np.ndarray, a: float, b: float,
                    pulse_on: bool, jumpers, times) -> None:
        """Fill the evaluated grid points inside [a, b); advance alpha to b.

        state is each row's qubit state at a.  jumpers are the positions
        of the rows that jump in the segment, ascending, and times their
        jump times as _sample_jump_columns returns them.  Each grid point is
        stepped from the last event at or before it.  Rows without a
        jump take every evaluated point and the segment end in one step
        from a, with one decay per qubit state and point; the few that
        jump take theirs from _jumper_values.  Values are laid out
        (point, row) so that every operation runs along the rows.
        """
        idx = np.flatnonzero((self.grid >= a) & (self.grid < b))
        ends = np.append(self.grid[idx], b)
        decay = self._decay(np.arange(2)[:, None], ends - a)
        vals = self._step(np.tile(self.alpha, (ends.size, 1)), state,
                          np.take(decay.T, state, axis=1), pulse_on)
        if jumpers.size:
            vals[:, jumpers] = self._jumper_values(
                self.alpha[jumpers], state[jumpers], a, ends, times, pulse_on)
        self.out[:, idx] = vals[:-1].T
        self.alpha = vals[-1].copy()

    def _jumper_values(self, alpha, state, a, ends, times, pulse_on):
        """(point, jumper) envelope values at ends of repetitions that
        jump in the segment.

        times is (events, jumpers), chronological per jumper with +inf
        after its last jump.  The envelope, state and start time after
        each jump are stacked by event count, and each point is stepped
        from the entry that its count of events at or before it selects:
        one step for all points.
        """
        n_ev, n = times.shape
        states = state ^ (np.arange(n_ev + 1)[:, None] & 1)
        # a jumper's entries past its last jump are never selected; they
        # step to the segment end so that every entry stays finite
        starts = np.concatenate([np.full((1, n), a), np.minimum(times, ends[-1])])
        alphas = np.empty((n_ev + 1, n), dtype=complex)
        alphas[0] = alpha
        for k in range(n_ev):
            alphas[k + 1] = self._step(
                alphas[k], states[k],
                self._decay(states[k], starts[k + 1] - starts[k]), pulse_on)
        at = (times <= ends[:, None, None]).sum(axis=1)
        rep = np.arange(n)
        st = states[at, rep]
        return self._step(alphas[at, rep], st,
                          self._decay(st, ends[:, None] - starts[at, rep]),
                          pulse_on)


def _phase_a_segments(cfg: ExperimentConfig):
    t_pi = cfg.t_pi_ns * NS
    return [(GRID_START_NS * NS, M1_START_NS * NS, False),
            (M1_START_NS * NS, (M1_START_NS + PULSE_NS) * NS, True),
            ((M1_START_NS + PULSE_NS) * NS, t_pi, False)]


def _phase_b_segments(cfg: ExperimentConfig):
    """From the conditional pi to the end of the second integration
    window: no result reads the rest of the repetition.  The bounds are
    part of the draw layout, since a segment draws one exponential per
    repetition still jumping in it."""
    t_pi = cfg.t_pi_ns * NS
    w2_end = (GRID_START_NS + CLOCK_PERIOD_NS * _window_cols(cfg, TRIG2_TICK).stop) * NS
    return [(t_pi, M2_START_NS * NS, False),
            (M2_START_NS * NS, w2_end, True)]


def _sample_segments(rngs, bounds, state: np.ndarray, segments, rates):
    """Jumps of consecutive segments, one (start state, rows, times) per
    segment (_sample_jump_columns), and the qubit state after the last."""
    sampled = []
    for a, b, _ in segments:
        rows, times, end = _sample_jump_columns(rngs, bounds, state, a, b, *rates)
        sampled.append((state, rows, times))
        state = end
    return sampled, state


def _jumped(sampled, reps: int) -> np.ndarray:
    """Mask of the repetitions with a jump in any of the sampled segments."""
    mask = np.zeros(reps, dtype=bool)
    for _, rows, _ in sampled:
        mask[rows] = True
    return mask


def _waveform_volts(device: DeviceParams, alpha: np.ndarray,
                    cols: slice) -> np.ndarray:
    """ADC voltages of the grid columns cols from their envelope values."""
    cos, sin = carrier_tables(N_SOURCE)
    b = device.demod_gain() * alpha + complex(device.offset_i, device.offset_q)
    return 2.0 * (b.real * cos[cols] - b.imag * sin[cols])


def _own_envelope(device: DeviceParams, window: slice, idx: np.ndarray,
                  classes: np.ndarray, segments, sampled, alpha=None):
    """The filler run over the repetitions idx, followed by one row per
    entry of classes that stays in that qubit state and never jumps,
    from their (default zero) envelopes at the first segment's start;
    it evaluates the grid columns of window.  sampled is
    _sample_segments' list for segments, and idx holds every row that
    jumps in it.  A value depends only on its own row's operands, so a
    class row equals, bit for bit, the rows of its class in a filler run
    over every repetition."""
    filler = _EnvelopeFiller(device, idx.size + classes.size,
                             np.arange(window.start, window.stop))
    if alpha is not None:
        filler.alpha = alpha
    for (a, b, on), (start, rows, times) in zip(segments, sampled):
        filler.run_segment(np.concatenate([start[idx], classes]), a, b, on,
                           np.searchsorted(idx, rows), times)
    return filler


def _window_cols(cfg: ExperimentConfig, trigger_tick: int) -> slice:
    """Source-grid columns in the filter window of a readout's eval tick."""
    ticks = filter_window(cfg.pipeline, cfg.eval_tick(trigger_tick))
    return slice(ticks.start - SYNC_DEPTH, ticks.stop - SYNC_DEPTH)


def _read_window(cfg: ExperimentConfig, cls: np.ndarray, idx: np.ndarray,
                 alpha: np.ndarray, noise: np.ndarray, cols: slice):
    """Digitize one integration window and evaluate the pipeline on it.

    alpha holds the envelope values of the rows idx, followed by one
    row per history class (_own_envelope); all of them are synthesized
    in one call.  The rows idx take their own volts, every other row
    its class row's, picked by cls; then noise is added.  Every array
    holds the window's columns only (column k is grid column
    cols.start + k).  Returns (i_t, q_t, clipped) at the readout's
    evaluation tick, i_t and q_t as int16: the preprocessor saturates
    them to PREPROC_WIDTH = 16 bits, and an ensemble holds a quarter of
    the bytes that int64 would take.
    """
    synthesized = _waveform_volts(cfg.device, alpha, cols)
    volts = np.take(synthesized[idx.size:], cls, axis=0)
    volts[idx] = synthesized[:idx.size]
    volts += noise
    raw, clipped = quantize_array(volts)
    i_t, q_t = scaled_iq_at(cfg.pipeline, raw, cols.start + SYNC_DEPTH)
    return i_t.astype(np.int16), q_t.astype(np.int16), clipped


def _per_chunk(rngs, bounds, draw, *shape) -> np.ndarray:
    """One array of (bounds[-1], *shape) draws, chunk c's rows
    bounds[c]:bounds[c + 1] filled in place by draw(rngs[c], out=...),
    e.g. draw = np.random.Generator.random.  A chunk with no rows draws
    nothing."""
    out = np.empty((bounds[-1], *shape))
    for rng, lo, hi in zip(rngs, bounds[:-1], bounds[1:]):
        draw(rng, out=out[lo:hi])
    return out


def _run_chunk(cfg: ExperimentConfig, init_gate: str, stream_id: int,
               first_chunk: int, sizes, feedback: tuple):
    """A batch of consecutive chunks, once per feedback setting.

    init_gate is applied at the first pulse's start: "none", "pi" or
    "pi_half" (a fresh uniform state).  Chunk first_chunk + k holds
    sizes[k] repetitions.  Returns one _McResult for each entry of
    feedback (True: the conditional pi fires on fb1), its arrays holding
    the chunks' repetitions in order.  No entries (feedback == ()) is a
    single readout: the one _McResult holds the first readout, with it2
    and qt2 None.

    Each chunk draws from its own generator, seeded by (master seed,
    stream_id, chunk index), and its draws and outputs do not depend on
    the batch it runs in: only the draws loop over the chunks, each into
    its own rows; every other stage runs once over the whole batch, and
    each of its values depends on its own repetition's operands only.

    A chunk's draw order is fixed: noise on the observed samples,
    initial states, first-phase jumps (with the init-gate draw at t =
    0), then - after the feedback bit is known from the pipeline - the
    conditional pi and the second-phase jumps.  Nothing after the first
    phase influences the first readout, so the first phase runs once:
    each generator's state is snapshotted after it, and each feedback
    setting runs the second phase from those snapshots, drawing exactly
    what a run for that setting alone would draw.  A single readout
    stops the first phase at the first pulse's end: its draws after that
    would come after every draw it reads.

    Only the samples inside the integration windows (both, or the first
    for a single readout) reach a result, so only those get noise, are
    synthesized and digitized, and the pipeline is evaluated only at the
    readout ticks.  A chunk's noise draw is one (reps, observed) array
    whose first l columns belong to the first window.  The jump sampler
    gives every repetition's state after each segment, and the rows that
    jump with their times; only those get their own envelope, from the
    first pulse's start (the envelope is exactly zero before it): in the
    first phase those that jump after that start, in each arm those and
    the arm's second-phase jumpers, the latter from their class's
    envelope at the conditional pi.  Each filler run also carries one
    jump-free row per history class: states g and e in the first phase;
    in each arm's second, states g and e from class g's envelope at the
    conditional pi, then g and e from class e's.  Every other window is
    its class's row; the draws are the same either way.
    """
    rngs = [np.random.default_rng(np.random.SeedSequence([cfg.master_seed,
                                                          stream_id, idx]))
            for idx in range(first_chunk, first_chunk + len(sizes))]
    bounds = np.cumsum([0, *sizes])
    reps = int(bounds[-1])
    dev = cfg.device
    pipe = cfg.pipeline
    l = pipe.window_len
    w1 = _window_cols(cfg, TRIG1_TICK)
    observed = 2 * l if feedback else l
    if dev.noise_sigma > 0:
        # rng.normal(0.0, sigma) per chunk, drawn in place: normal returns
        # 0.0 + sigma z, which differs from sigma z only in the sign of a
        # zero, and no ADC code depends on that sign
        noise = _per_chunk(rngs, bounds, np.random.Generator.standard_normal,
                           observed)
        noise *= dev.noise_sigma
    else:
        noise = np.zeros((reps, observed))
    # the states are uint8 views of the comparisons' 0/1 bytes
    state = (_per_chunk(rngs, bounds, np.random.Generator.random)
             < dev.p_therm).view(np.uint8)

    rates = (dev.decay_rate(), dev.excitation_rate())
    segments = _phase_a_segments(cfg)
    (a, b, _), *segments_a = segments if feedback else segments[:2]
    _, _, state = _sample_jump_columns(rngs, bounds, state, a, b, *rates)
    if init_gate == "pi_half":
        state = (_per_chunk(rngs, bounds, np.random.Generator.random)
                 < 0.5).view(np.uint8)
    elif init_gate == "pi":
        state = state ^ 1
    start = state
    sampled_a, state = _sample_segments(rngs, bounds, start, segments_a, rates)
    own_a = _jumped(sampled_a, reps)
    idx_a = np.flatnonzero(own_a)
    classes = np.array([STATE_G, STATE_E], dtype=np.uint8)
    filler_a = _own_envelope(dev, w1, idx_a, classes, segments_a, sampled_a)

    # first readout: the whole first window precedes the conditional pi,
    # and fb_time is high at its evaluation tick by construction
    it1, qt1, sat = _read_window(cfg, start, idx_a, filler_a.out,
                                 noise[:, :l], w1)
    fb1 = lut_bits(pipe.lut1, it1, qt1)

    if not feedback:
        return (_McResult(it1, qt1, fb1, None, None, sat),)

    w2 = _window_cols(cfg, TRIG2_TICK)
    own_alpha, alpha_pi = np.split(filler_a.alpha, [idx_a.size])
    # second-window class 2 s + s' (s the state when the first pulse
    # starts, s' the state after the arm's conditional flip): a row in
    # state s' from class s's envelope at the conditional pi
    classes = np.tile(classes, 2)
    class_alpha = alpha_pi[[STATE_G, STATE_G, STATE_E, STATE_E]]
    after_a = [rng.bit_generator.state for rng in rngs]
    segments_b = _phase_b_segments(cfg)
    arms = []
    for enabled in feedback:
        for rng, snapshot in zip(rngs, after_a):
            rng.bit_generator.state = snapshot
        arm_state = state ^ fb1 if enabled else state
        sampled_b, _ = _sample_segments(rngs, bounds, arm_state, segments_b, rates)
        idx_b = np.flatnonzero(own_a | _jumped(sampled_b, reps))
        # the first phase's jumpers go on from their own envelope, the
        # others and the class rows from their class's
        alpha = np.concatenate([alpha_pi[start[idx_b]], class_alpha])
        alpha[:idx_b.size][own_a[idx_b]] = own_alpha
        filler_b = _own_envelope(dev, w2, idx_b, classes, segments_b,
                                 sampled_b, alpha)
        it2, qt2, sat2 = _read_window(cfg, 2 * state + arm_state, idx_b,
                                      filler_b.out, noise[:, l:], w2)
        arms.append(_McResult(it1, qt1, fb1, it2, qt2, sat + sat2))
    return tuple(arms)


def _run_chunks(cfg: ExperimentConfig, init_gate: str, stream_id: int,
                jobs: int, feedback: tuple) -> list:
    """Every chunk of one Monte Carlo, each branched into the feedback
    settings (or a single readout for feedback == (), _run_chunk);
    returns, per setting, the list of its per-batch results.

    The chunks are split evenly into contiguous batches of at most
    BATCH_CHUNKS, and into at least as many batches as there are
    threads (with no more threads than chunks).  With jobs > 1 the
    batches run on a pool of threads: a batch builds its own generators
    and arrays, so the threads share nothing, and numpy releases the
    GIL in the draws and the large array operations, which is where
    they run in parallel.  The outputs do not depend on the split.
    """
    # a bool is an int to Python, and a float fails only inside range()
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ConfigError(f"jobs must be an integer of at least 1, got {jobs!r}")
    sizes = []
    remaining = cfg.repetitions
    while remaining > 0:
        sizes.append(min(CHUNK_REPS, remaining))
        remaining -= sizes[-1]
    count = max(math.ceil(len(sizes) / BATCH_CHUNKS), min(jobs, len(sizes)))
    firsts = [len(sizes) * k // count for k in range(count + 1)]
    args = [(cfg, init_gate, stream_id, lo, sizes[lo:hi], feedback)
            for lo, hi in zip(firsts[:-1], firsts[1:])]
    if jobs > 1 and len(args) > 1:
        with ThreadPoolExecutor(max_workers=min(jobs, len(args))) as pool:
            batches = list(pool.map(_run_chunk, *zip(*args)))
    else:
        batches = [_run_chunk(*a) for a in args]
    return list(zip(*batches))


def _run_mc(parts: list) -> _McResult:
    """One arm's Monte Carlo ensemble from its per-batch results, as
    _run_chunks returns them for that arm: each readout array joined in
    batch order, the clipped samples summed."""

    def joined(name):
        arrays = [getattr(p, name) for p in parts]
        return None if arrays[0] is None else np.concatenate(arrays)

    return _McResult(joined("it1"), joined("qt1"), joined("fb1"),
                     joined("it2"), joined("qt2"),
                     sum(p.saturated for p in parts))


# ---------------------------------------------------------------------------
# analytic oracle


def _propagate_excited(pe: float, dt_s: float, device: DeviceParams) -> float:
    """Excited-state population after dt of free evolution."""
    if math.isinf(device.t1) or dt_s <= 0:
        return pe
    g_tot = device.decay_rate() + device.excitation_rate()
    p_eq = device.p_therm
    return p_eq + (pe - p_eq) * math.exp(-g_tot * dt_s)


def held_state_readout(state: int, n_source: int
                       ) -> tuple[sigmodel.PulseSchedule, sigmodel.QubitTrajectory]:
    """Schedule and trajectory of the first readout pulse alone, with the
    qubit held in state, on n_source samples of the repetition grid."""
    t_start = GRID_START_NS * NS
    sched = sigmodel.PulseSchedule(
        readout_pulses=((M1_START_NS * NS, PULSE_NS * NS),),
        t_start=t_start,
        repetition_period=n_source * CLOCK_PERIOD_NS * NS)
    return sched, sigmodel.QubitTrajectory(((t_start, state),))


def noiseless_filtered_means(cfg: ExperimentConfig) -> tuple[float, float]:
    """Filtered in-phase means (volts) for held ground/excited qubits.

    Runs the actual pipeline on the noiseless synthesized stream, so the
    demodulation transient across the integration window is included.
    """
    dev = replace(cfg.device, noise_sigma=0.0)
    g, e = (sigmodel.synthesize_adc_stream(dev, *held_state_readout(state, N_SOURCE))
            for state in (STATE_G, STATE_E))
    bt = run_stream_batch(cfg.pipeline, np.stack([g.raw, e.raw]), g.triggers)
    i = bt.i[:, cfg.eval_tick(TRIG1_TICK)]
    return float(i[0]) * ADC_LSB_VOLTS, float(i[1]) * ADC_LSB_VOLTS


def _gauss_tail(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def overlap_probability(cfg: ExperimentConfig) -> float:
    """Expected state-misidentification probability from noise overlap.

    The filtered noise is Gaussian with std sigma / sqrt(2 l) (only half
    of the window samples carry each quadrature); the overlap is the
    equal-prior average of the two tail masses across the threshold.
    """
    sigma = cfg.device.noise_sigma
    if sigma == 0:
        return 0.0
    return _overlap(cfg, sigma, *noiseless_filtered_means(cfg))


def _overlap(cfg: ExperimentConfig, sigma: float, mu_g: float,
             mu_e: float) -> float:
    """overlap_probability for a positive sigma and precomputed means."""
    c = cfg.pipeline.c_i * ADC_LSB_VOLTS
    sigma_f = sigma / math.sqrt(2 * cfg.pipeline.window_len)
    return 0.5 * (_gauss_tail((c - mu_g) / sigma_f)
                  + _gauss_tail((mu_e - c) / sigma_f))


def check_overlap_target(target_overlap: float) -> None:
    """Reject an overlap target that is not a positive finite number."""
    if not 0 < target_overlap < math.inf:
        raise ValueError("target overlap must be positive and finite, "
                         f"got {target_overlap!r}")


def calibrate_noise(target_overlap: float, cfg: ExperimentConfig) -> float:
    """Per-sample noise std that produces the requested overlap error.

    Bisection against the analytic overlap, on noiseless means computed
    once; the result reproduces the target within 0.001 absolute.
    """
    check_overlap_target(target_overlap)
    if target_overlap >= 0.5:
        raise CalibrationError("overlap targets of 50% or more are unattainable")
    mu_g, mu_e = noiseless_filtered_means(cfg)
    c = cfg.pipeline.c_i * ADC_LSB_VOLTS
    if not mu_g < c < mu_e:
        raise CalibrationError(
            "threshold lies outside the g/e separation; overlap cannot be tuned")
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _overlap(cfg, mid, mu_g, mu_e) < target_overlap:
            lo = mid
        else:
            hi = mid
    sigma = 0.5 * (lo + hi)
    if abs(_overlap(cfg, sigma, mu_g, mu_e) - target_overlap) > 1e-3:
        raise CalibrationError("noise calibration did not converge")
    return sigma


def oracle_probabilities(cfg: ExperimentConfig, feedback: bool,
                         overlap: float) -> dict:
    """Rate-equation prediction of the report probabilities.

    Populations propagate with the total relaxation rate toward the
    thermal equilibrium, the first measurement projects the state at the
    integration-window center, readout misidentification enters as a
    symmetric flip with probability overlap/2, and the conditional pi
    acts as an ideal population swap when feedback is on.  overlap is
    overlap_probability(cfg), computed by the caller.
    """
    dev = cfg.device
    eps = overlap / 2.0
    c1 = cfg.window_center_ns * NS
    c2 = (M2_START_NS + cfg.window_center_ns) * NS
    t_pi = cfg.t_pi_ns * NS

    pe0 = 0.5 if cfg.scenario == PI_HALF_INIT else dev.p_therm
    pe_c1 = _propagate_excited(pe0, c1, dev)

    quadrants = dict.fromkeys(QUADRANT_KEYS, 0.0)
    for actual_e, p_actual in ((True, pe_c1), (False, 1.0 - pe_c1)):
        for read_e in (True, False):
            p_read = (1.0 - eps) if read_e == actual_e else eps
            branch = p_actual * p_read
            if branch == 0.0:
                continue
            pe = 1.0 if actual_e else 0.0
            pe = _propagate_excited(pe, t_pi - c1, dev)
            if feedback and read_e:
                pe = 1.0 - pe
            pe = _propagate_excited(pe, c2 - t_pi, dev)
            # both read probabilities are formed the same way so that the
            # feedback swap identity holds bit for bit
            p_read_e2 = pe * (1.0 - eps) + (1.0 - pe) * eps
            p_read_g2 = (1.0 - pe) * (1.0 - eps) + pe * eps
            first = "e" if read_e else "g"
            quadrants[first + "e"] += branch * p_read_e2
            quadrants[first + "g"] += branch * p_read_g2
    return {
        "p_e1": quadrants["eg"] + quadrants["ee"],
        "p_e2": quadrants["ge"] + quadrants["ee"],
        "quadrants": quadrants,
        "readout_flip": eps,
    }


# ---------------------------------------------------------------------------
# reports


@dataclass
class ExperimentReport:
    scenario: str
    feedback_enabled: bool
    repetitions: int
    master_seed: int
    p_e1: float
    p_e1_err: float
    p_e2: float
    p_e2_err: float
    quadrants: dict
    quadrant_errs: dict
    oracle: dict
    latency: dict
    config_echo: dict
    # ADC samples clipped by the quantizer, counted over the 2 l samples of
    # the two integration windows; window 1's quadrature-phase samples feed
    # only qt1, which no result reads
    adc_saturated: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def _binomial_err(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _latency_echo(cfg: ExperimentConfig) -> dict:
    return {
        **budget_summary(),
        "tau_awg_inferred": True,
        "tau_ro_ns": cfg.tau_ro_ns,
        "conditional_pulse_center_ns": cfg.t_pi_ns,
    }


def _config_echo(cfg: ExperimentConfig) -> dict:
    pipe = cfg.pipeline
    return {
        "device": {k: (v if not isinstance(v, float) or math.isfinite(v) else "inf")
                   for k, v in asdict(cfg.device).items()},
        "pipeline": {
            "window_len": pipe.window_len,
            "delay": pipe.delay,
            "c_i_raw": pipe.c_i,
            "c_q_raw": pipe.c_q,
            "s_i": pipe.s_i,
            "s_q": pipe.s_q,
            "lut1": list(pipe.lut1),
            "lut2": list(pipe.lut2),
            "sync_depth": SYNC_DEPTH,
        },
        "threshold_volts": cfg.threshold_volts,
        "threshold_raw": pipe.c_i,
    }


def _assemble_report(cfg: ExperimentConfig, feedback: bool, res: _McResult,
                     overlap: float) -> ExperimentReport:
    n = res.n
    e1 = res.it1 >= 0
    e2 = res.it2 >= 0
    counts = {
        "gg": int(np.count_nonzero(~e1 & ~e2)),
        "ge": int(np.count_nonzero(~e1 & e2)),
        "eg": int(np.count_nonzero(e1 & ~e2)),
        "ee": int(np.count_nonzero(e1 & e2)),
    }
    quadrants = {k: counts[k] / n for k in QUADRANT_KEYS}
    p_e1 = quadrants["eg"] + quadrants["ee"]
    p_e2 = quadrants["ge"] + quadrants["ee"]
    return ExperimentReport(
        scenario=cfg.scenario,
        feedback_enabled=feedback,
        repetitions=n,
        master_seed=cfg.master_seed,
        p_e1=p_e1,
        p_e1_err=_binomial_err(p_e1, n),
        p_e2=p_e2,
        p_e2_err=_binomial_err(p_e2, n),
        quadrants=quadrants,
        quadrant_errs={k: _binomial_err(quadrants[k], n) for k in QUADRANT_KEYS},
        oracle=oracle_probabilities(cfg, feedback, overlap),
        latency=_latency_echo(cfg),
        config_echo=_config_echo(cfg),
        adc_saturated=res.saturated,
    )


@dataclass
class FeedbackComparison:
    """One report per feedback arm of a run, and the one histogram RAM
    they fill: reports[k] is arm feedback[k] and fills segment k."""

    reports: tuple[ExperimentReport, ...]
    histogram: HistogramRam


def run_feedback_comparison(cfg: ExperimentConfig, *,
                            feedback: tuple[bool, ...] = (False, True),
                            jobs: int = 1) -> FeedbackComparison:
    """Simulate the two-measurement protocol once per feedback arm
    (True: the conditional pi fires on the first readout's feedback bit).

    Every arm comes out of one pass over the chunks: each chunk's first
    phase runs once and branches into the arms, so an arm's report is
    the same whichever arms run beside it.  The readout overlap does not
    depend on the arm, so every oracle shares one computation of it.
    """
    # the arms are checked before any chunk runs; the RAM is allocated
    # after them, where it can reuse the chunks' freed memory
    check_segment_count(len(feedback))
    gate = "pi_half" if cfg.scenario == PI_HALF_INIT else "none"
    per_arm = _run_chunks(cfg, gate, 0, jobs, feedback)
    overlap = overlap_probability(cfg)
    ram = HistogramRam(segment_count=len(feedback))
    reports = []
    for seg, (enabled, parts) in enumerate(zip(feedback, per_arm)):
        res = _run_mc(parts)
        ram.update_addresses(correlation_addresses(res.it1, res.it2, res.qt2,
                                                   seg=seg))
        reports.append(_assemble_report(cfg, enabled, res, overlap))
    return FeedbackComparison(reports=tuple(reports), histogram=ram)


# ---------------------------------------------------------------------------
# fidelity and threshold calibration


@dataclass
class ReadoutFidelity:
    f_r: float
    p_e_no_pulse: float
    p_g_pi_pulse: float
    p_decay: float
    p_overlap: float
    p_therm: float
    budget_sum: float
    identity_gap: float


def _calibration_ensembles(cfg: ExperimentConfig,
                           jobs: int) -> tuple[_McResult, _McResult]:
    """The single-readout ensembles both calibrations read: no pulse
    (stream id 1) and a pi pulse at the first pulse's start (stream id 2).
    Each runs no feedback arms, so its chunks stop after the first
    pulse."""
    ensembles = []
    for stream_id, gate in ((1, "none"), (2, "pi")):
        (parts,) = _run_chunks(cfg, gate, stream_id, jobs, ())
        ensembles.append(_run_mc(parts))
    return tuple(ensembles)


def readout_fidelity(cfg: ExperimentConfig, *, jobs: int = 1) -> ReadoutFidelity:
    """Single-shot fidelity from the two single-measurement ensembles.

    The no-pulse ensemble leaves the qubit in its thermal state; the
    pi-pulse ensemble inverts it at the pulse start.  Decisions use the
    pipeline threshold.
    """
    res_g, res_e = _calibration_ensembles(cfg, jobs)
    p_e_no = float(np.count_nonzero(res_g.it1 >= 0)) / res_g.n
    p_g_pi = float(np.count_nonzero(res_e.it1 < 0)) / res_e.n
    f_r = 1.0 - p_e_no - p_g_pi
    p_decay = 1.0 - math.exp(-(cfg.window_center_ns * NS) / cfg.device.t1) \
        if math.isfinite(cfg.device.t1) else 0.0
    p_overlap = overlap_probability(cfg)
    budget_sum = 2.0 * cfg.device.p_therm + p_decay + p_overlap
    return ReadoutFidelity(
        f_r=f_r,
        p_e_no_pulse=p_e_no,
        p_g_pi_pulse=p_g_pi,
        p_decay=p_decay,
        p_overlap=p_overlap,
        p_therm=cfg.device.p_therm,
        budget_sum=budget_sum,
        identity_gap=abs((1.0 - f_r) - budget_sum),
    )


def optimize_threshold(cfg: ExperimentConfig, *, jobs: int = 1) -> float:
    """Threshold (volts) maximizing single-shot readout fidelity.

    Scans every decision boundary realized by the calibration ensembles
    at the scaled output's full resolution; ties resolve to the midpoint
    of the tied candidate range.
    """
    res_g, res_e = _calibration_ensembles(cfg, jobs)
    # int64: the midpoint's sum of two int16 candidates would wrap
    candidates = np.unique(np.concatenate([res_g.it1, res_e.it1], dtype=np.int64))
    sorted_g = np.sort(res_g.it1)
    sorted_e = np.sort(res_e.it1)
    p_e_no = (res_g.n - np.searchsorted(sorted_g, candidates, side="left")) / res_g.n
    p_g_pi = np.searchsorted(sorted_e, candidates, side="left") / res_e.n
    fidelity = 1.0 - p_e_no - p_g_pi
    if candidates.size < 2 or np.ptp(fidelity) == 0:
        raise CalibrationError("fidelity is flat; no usable signal to optimize on")
    best = np.flatnonzero(fidelity == fidelity.max())
    t_scaled = 0.5 * (candidates[best[0]] + candidates[best[-1]])
    pipe = cfg.pipeline
    # ldexp scales exactly, and by a negative shift too
    return (pipe.c_i + math.ldexp(t_scaled, -pipe.s_i)) * ADC_LSB_VOLTS
