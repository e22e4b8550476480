"""Signed fixed-point arithmetic with explicit widths, saturation and rounding.

Every digital signal in the pipeline is a plain int (or int array) of the
two's-complement width of the signal it sits on; quantize maps volts onto
it in steps of one ADC LSB (ADC_LSB_VOLTS).
All width boundaries saturate (never wrap); saturation events are
reported to the caller so that stream-level overflow flags can latch.
"""

from __future__ import annotations

import math

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


def check_fits(raw: int, width: int) -> None:
    """Reject a value that does not fit the `width`-bit register it enters."""
    lo, hi = raw_bounds(width)
    if not lo <= raw <= hi:
        raise ValueError(f"raw {raw} does not fit in {width} bits")


def quantize(volts: float, width: int) -> int:
    """Quantize a voltage: round half away from zero, then saturate."""
    code, _ = quantize_flagged(volts, width)
    return code


def quantize_flagged(volts: float, width: int) -> tuple[int, bool]:
    """Like quantize() but also reports whether the value saturated."""
    if not math.isfinite(volts):
        raise ValueError(f"cannot quantize non-finite voltage {volts!r}")
    # clamped past every width's range, so an LSB count of inf saturates too
    lsbs = min(max(volts / ADC_LSB_VOLTS, -2.0 ** MAX_WIDTH), 2.0 ** MAX_WIDTH)
    return saturate(round_half_away(lsbs), width)


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
