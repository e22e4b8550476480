"""Stochastic synthesizer of the analog waveform arriving at the ADC.

Models one dispersive-readout channel: a two-level qubit with T1 decay
and thermal excitation, a linear cavity whose complex envelope relaxes
toward a qubit-state-dependent steady state while a square readout pulse
drives it (and toward zero otherwise), and a detection chain collapsed
into a full-scale amplitude, static I/Q offsets and additive white
Gaussian noise.  The waveform is sampled once per pipeline clock and the
carrier sits at a quarter of that rate, so four consecutive samples
step the carrier phase by 90 degrees.  The ADC link delivers sample n
at tick n + SYNC_DEPTH (pipeline.SYNC_DEPTH), so its carrier follows the
mixer phase of that tick, and synthesize_adc_stream applies that skew.

The qubit's trajectory is an input here (a QubitTrajectory of
piecewise-constant states); DeviceParams supplies the decay and
excitation rates from which the experiment module's Monte Carlo draws
the jumps.

The global demodulation phase is chosen such that the ground/excited
separation of the steady-state envelope lies entirely in the in-phase
component recovered by the digital pipeline, with the excited state on
the non-negative side.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from . import fxp
from .fxp import ADC_WIDTH, ConfigError
from .pipeline import CLOCK_PERIOD_NS, COS_SEQ, NSIN_SEQ, SYNC_DEPTH

PLANCK = 6.62607015e-34      # J s
BOLTZMANN = 1.380649e-23     # J / K

STATE_G = 0
STATE_E = 1

SAMPLE_PERIOD = CLOCK_PERIOD_NS * 1e-9  # s: one ADC sample per clock


@dataclass(frozen=True)
class DeviceParams:
    """Physical device and detection-chain parameters (SI units).

    kappa and chi are angular rates (rad/s); chi is signed, carrying the
    direction of the dispersive shift.  offset_i/offset_q are static
    offsets of the detected envelope, the source the pipeline's offset
    subtraction exists to cancel.
    """

    f_q: float = 6.148e9
    kappa: float = 2 * math.pi * 6.3e6
    chi: float = -2 * math.pi * 1.1e6
    t1: float = 1.4e-6
    p_therm: float = 0.0
    amp_ss: float = 0.6
    noise_sigma: float = 0.0
    offset_i: float = 0.0
    offset_q: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # t1 = +inf is a qubit that never decays; past 1e300 in
            # magnitude the synthesizer's arithmetic would overflow
            if not (abs(value) <= 1e300 or f.name == "t1" and value == math.inf):
                raise ConfigError(f"{f.name} must be within +-1e300, got {value!r}")
        if not 0.0 <= self.p_therm < 0.5:
            raise ConfigError("p_therm must be within [0, 0.5)")
        # a qubit relaxing within one sample leaves nothing to read, and
        # the jumps to sample grow as 1/t1
        if not self.t1 >= SAMPLE_PERIOD:
            raise ConfigError("t1 must be at least one sample period, "
                              f"{CLOCK_PERIOD_NS} ns")
        if not self.kappa > 0:
            raise ConfigError("kappa must be positive")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be non-negative")

    def decay_rate(self) -> float:
        """Energy relaxation rate (1/s)."""
        return 0.0 if math.isinf(self.t1) else 1.0 / self.t1

    def excitation_rate(self) -> float:
        """Thermal excitation rate keeping the equilibrium at p_therm."""
        if self.p_therm == 0.0:
            return 0.0
        return self.decay_rate() * self.p_therm / (1.0 - self.p_therm)

    def steady_alpha(self, state: int) -> complex:
        """Steady-state envelope during a pulse for a held qubit state."""
        sigma = 1.0 if state == STATE_G else -1.0
        half_k = self.kappa / 2.0
        return half_k / (half_k + 1j * sigma * self.chi)

    def envelope_rate(self, state: int) -> complex:
        """Complex relaxation rate of the envelope for a held state."""
        sigma = 1.0 if state == STATE_G else -1.0
        return self.kappa / 2.0 + 1j * sigma * self.chi

    def demod_gain(self) -> complex:
        """Maps the cavity envelope onto the detected complex baseband."""
        return 1j * (self.amp_ss / 2.0)


@dataclass(frozen=True)
class PulseSchedule:
    """Square readout pulses of one repetition window."""

    readout_pulses: tuple[tuple[float, float], ...]
    t_start: float = 0.0
    repetition_period: float = 1e-6

    def __post_init__(self) -> None:
        prev_end = -math.inf
        for start, duration in self.readout_pulses:
            if duration <= 0:
                raise ConfigError("pulse durations must be positive")
            if start < prev_end:
                raise ConfigError("readout pulses must be ordered and non-overlapping")
            prev_end = start + duration
        if self.repetition_period <= 0:
            raise ConfigError("repetition_period must be positive")

    def pulse_on(self, t: float) -> bool:
        return any(s <= t < s + d for s, d in self.readout_pulses)

    def edge_times(self) -> list[float]:
        edges = []
        for s, d in self.readout_pulses:
            edges += [s, s + d]
        return edges


@dataclass(frozen=True)
class QubitTrajectory:
    """Piecewise-constant qubit state over one repetition window.

    segments: (start_time, state) pairs, contiguous and alternating,
    the first starting at the window start.
    """

    segments: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("trajectory needs at least one segment")
        for (t0, s0), (t1, s1) in zip(self.segments, self.segments[1:]):
            if t1 <= t0:
                raise ValueError("segments must be strictly time-ordered")

    def state_at(self, t: float) -> int:
        idx = bisect.bisect_right([seg[0] for seg in self.segments], t) - 1
        return self.segments[max(idx, 0)][1]

    def flip_times(self) -> list[tuple[float, int]]:
        """(time, new_state) for every state change after the window start."""
        return [(t, s) for (t, s) in self.segments[1:]]


def thermal_population(t_env: float, f_q: float) -> float:
    """Equilibrium excited-state population of a two-level system."""
    if not 0 < t_env < math.inf:
        raise ValueError("t_env must be positive and finite")
    if not f_q > 0:
        raise ValueError("f_q must be positive")
    kt = BOLTZMANN * t_env
    # a k T that underflows to 0 leaves no excited population
    x = math.exp(-PLANCK * f_q / kt) if kt > 0 else 0.0
    return x / (1.0 + x)


def _propagate(alpha: complex, target: complex, rate: complex, dt: float) -> complex:
    return target + (alpha - target) * cmath.exp(-rate * dt)


def envelope_at_times(params: DeviceParams, schedule: PulseSchedule,
                      trajectory: QubitTrajectory, times) -> np.ndarray:
    """Cavity envelope alpha(t) at sorted query times (exact propagation).

    The envelope relaxes toward the state-dependent steady target while
    a pulse drives the cavity and toward zero otherwise, with the
    state-dependent complex rate; qubit jumps and pulse edges split the
    integration into intervals on which the solution is closed-form.
    alpha is continuous across every event.
    """
    events = sorted(
        [(t, None) for t in schedule.edge_times() if t > schedule.t_start]
        + [(t, s) for t, s in trajectory.flip_times()],
        key=lambda e: e[0],
    )
    out = np.empty(len(times), dtype=complex)
    alpha = 0.0 + 0.0j
    t_prev = schedule.t_start
    state = trajectory.state_at(schedule.t_start)
    k = 0

    def step_to(t_query: float) -> complex:
        target = params.steady_alpha(state) if schedule.pulse_on(t_prev) else 0.0
        return _propagate(alpha, target, params.envelope_rate(state), t_query - t_prev)

    for n, t_q in enumerate(times):
        while k < len(events) and events[k][0] <= t_q:
            ev_t, ev_state = events[k]
            alpha = step_to(ev_t)
            t_prev = ev_t
            if ev_state is not None:
                state = ev_state
            k += 1
        out[n] = step_to(t_q)
    return out


def carrier_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin of the quarter-rate carrier at sample indices 0..n-1: the
    demodulator's local oscillator, pipeline.COS_SEQ and -NSIN_SEQ, at
    the mixer phase of tick k + SYNC_DEPTH, where sample k reaches it."""
    idx = (np.arange(n) + SYNC_DEPTH) & 3
    cos = np.array(COS_SEQ)[idx]
    sin = -np.array(NSIN_SEQ)[idx]
    return cos, sin


def analog_waveform(params: DeviceParams, schedule: PulseSchedule,
                    trajectory: QubitTrajectory) -> np.ndarray:
    """Noiseless pre-quantization ADC voltage at every sample instant.

    V(t_n) = Re[2 b(t_n) e^{i pi (n + SYNC_DEPTH) / 2}] where b is the
    detected complex baseband: the cavity envelope scaled into the
    in-phase separation convention plus the static offsets.  The carrier
    phase is the demodulator's at tick n + SYNC_DEPTH, when the ADC link
    delivers sample n.
    """
    n = round(schedule.repetition_period / SAMPLE_PERIOD)
    times = schedule.t_start + np.arange(n) * SAMPLE_PERIOD
    alpha = envelope_at_times(params, schedule, trajectory, times)
    b = params.demod_gain() * alpha + complex(params.offset_i, params.offset_q)
    cos, sin = carrier_tables(n)
    return 2.0 * (b.real * cos - b.imag * sin)


@dataclass
class AdcStream:
    """The digitized waveform as the pipeline receives it, int64 per tick:
    raw opens with the ADC link's SYNC_DEPTH reset zeros, and triggers
    marks each pulse's first sample and closes with as many zeros."""

    raw: np.ndarray
    triggers: np.ndarray
    saturated_count: int


def quantize_array(volts: np.ndarray) -> tuple[np.ndarray, int]:
    """Vectorized 14-bit ADC quantization; returns (raw, clip_count)."""
    # rounds half away from zero, leaving volts as it is: x + copysign(0.5, x)
    # truncates to floor(x + 0.5) for x >= +0 and to ceil(x - 0.5) for
    # x < 0 (-0.0 gives code 0); clipping first and truncating in astype
    # gives the same codes, and a code clips exactly when x reaches a
    # whole step past the range.  Multiplying by 2**13 is dividing by
    # the LSB, exactly.
    x = volts * (1.0 / fxp.ADC_LSB_VOLTS)
    x += np.copysign(0.5, x)
    lo, hi = fxp.raw_bounds(ADC_WIDTH)
    clipped = int(np.count_nonzero(x <= lo - 1)) + int(np.count_nonzero(x >= hi + 1))
    np.clip(x, lo, hi, out=x)
    return x.astype(np.int64), clipped


def trigger_lane(schedule: PulseSchedule, n: int) -> np.ndarray:
    """1 during the first sample of each readout pulse, else 0."""
    triggers = np.zeros(n, dtype=np.int64)
    for start, _ in schedule.readout_pulses:
        j = round((start - schedule.t_start) / SAMPLE_PERIOD)
        if 0 <= j < n:
            triggers[j] = 1
    return triggers


def synthesize_adc_stream(params: DeviceParams, schedule: PulseSchedule,
                          trajectory: QubitTrajectory) -> AdcStream:
    """Digitize the noiseless synthesized waveform and emit the trigger
    lane, as AdcStream; quantizer saturation events are counted, not fatal."""
    if params.noise_sigma > 0:
        raise ValueError("the synthesized ADC stream is noiseless; "
                         f"noise_sigma must be 0, got {params.noise_sigma:g}")
    raw, clipped = quantize_array(analog_waveform(params, schedule, trajectory))
    return AdcStream(raw=np.pad(raw, (SYNC_DEPTH, 0)),
                     triggers=np.pad(trigger_lane(schedule, raw.size), (0, SYNC_DEPTH)),
                     saturated_count=clipped)
