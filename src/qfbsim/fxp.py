"""Signed fixed-point arithmetic with explicit widths, saturation and rounding.

Every digital signal in the pipeline is carried as a two's-complement
integer of a declared bit width; quantize maps volts onto it in steps
of one ADC LSB (ADC_LSB_VOLTS).
All width boundaries saturate (never wrap); saturation events are
reported to the caller so that stream-level overflow flags can latch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MIN_WIDTH = 4
MAX_WIDTH = 32

# The ADC encodes a nominal +-1 V range into 14 bits.  +1.0 V itself is
# unrepresentable (two's-complement asymmetry) and saturates to +8191.
ADC_WIDTH = 14
ADC_LSB_VOLTS = 2.0 ** -13

SHIFT_MIN = -7
SHIFT_MAX = 7


class ConfigError(ValueError):
    """A structurally invalid configuration value."""


def raw_bounds(width: int) -> tuple[int, int]:
    """Inclusive two's-complement range of a `width`-bit signal."""
    if not MIN_WIDTH <= width <= MAX_WIDTH:
        raise ConfigError(f"width {width} outside {MIN_WIDTH}..{MAX_WIDTH}")
    half = 1 << (width - 1)
    return -half, half - 1


def saturate(value: int, width: int) -> tuple[int, bool]:
    """Clamp an integer to `width` bits; returns (clamped, did_clip)."""
    lo, hi = raw_bounds(width)
    if value < lo:
        return lo, True
    if value > hi:
        return hi, True
    return value, False


def round_half_away(x: float) -> int:
    """Round to nearest integer, halves away from zero."""
    if x >= 0.0:
        return math.floor(x + 0.5)
    return math.ceil(x - 0.5)


@dataclass(frozen=True)
class FxpSample:
    """A signed fixed-point value: raw two's-complement integer in ADC LSBs."""

    raw: int
    width: int

    def __post_init__(self) -> None:
        lo, hi = raw_bounds(self.width)
        if not lo <= self.raw <= hi:
            raise ValueError(f"raw {self.raw} does not fit in {self.width} bits")


def quantize(volts: float, width: int) -> FxpSample:
    """Quantize a voltage: round half away from zero, then saturate."""
    sample, _ = quantize_flagged(volts, width)
    return sample


def quantize_flagged(volts: float, width: int) -> tuple[FxpSample, bool]:
    """Like quantize() but also reports whether the value saturated."""
    if not math.isfinite(volts):
        raise ValueError(f"cannot quantize non-finite voltage {volts!r}")
    # clamped past every width's range, so an LSB count of inf saturates too
    lsbs = min(max(volts / ADC_LSB_VOLTS, -2.0 ** MAX_WIDTH), 2.0 ** MAX_WIDTH)
    raw, clipped = saturate(round_half_away(lsbs), width)
    return FxpSample(raw, width), clipped


def shift_raw(raw: int, s: int, width: int) -> tuple[int, bool]:
    """Scale a raw integer by 2**s.

    s >= 0 multiplies (saturating); s < 0 is an arithmetic right shift,
    i.e. floor division by 2**-s, matching a hardware shifter on
    two's-complement values.
    """
    if not SHIFT_MIN <= s <= SHIFT_MAX:
        raise ConfigError(f"shift exponent {s} outside {SHIFT_MIN}..{SHIFT_MAX}")
    if s >= 0:
        return saturate(raw << s, width)
    return saturate(raw >> (-s), width)
