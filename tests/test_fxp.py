"""Fixed-point substrate tests: rounding, saturation, shift semantics."""

import math
import random
from fractions import Fraction

import pytest

from qfbsim import fxp
from qfbsim.fxp import ConfigError, FxpSample, quantize, shift_raw


def oracle_quantize_raw(volts: float, width: int, lsb: float) -> int:
    """Independent quantizer: exact rational division, half away from zero."""
    q = Fraction(volts) / Fraction(lsb)
    n = math.floor(q)
    frac = q - n
    if frac > Fraction(1, 2):
        n += 1
    elif frac == Fraction(1, 2):
        n = n + 1 if q > 0 else n  # away from zero: +x.5 -> up, -x.5 -> down
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    return min(max(n, lo), hi)


def test_quantize_zero():
    assert quantize(0.0, 14).raw == 0


def test_quantize_full_scale_saturates():
    # +1.0 V would need raw 8192, unrepresentable in 14 bits
    assert quantize(1.0, 14).raw == 8191
    assert quantize(-1.0, 14).raw == -8192
    assert quantize(1.0, 14).raw == oracle_quantize_raw(1.0, 14, fxp.ADC_LSB_VOLTS)
    assert quantize(-1.0, 14).raw == oracle_quantize_raw(-1.0, 14, fxp.ADC_LSB_VOLTS)


def test_quantize_matches_rational_oracle():
    rng = random.Random(101)
    for _ in range(2000):
        v = rng.uniform(-1.5, 1.5)
        got = quantize(v, 14).raw
        assert got == oracle_quantize_raw(v, 14, fxp.ADC_LSB_VOLTS), v


def test_quantize_half_lsb_ties():
    lsb = fxp.ADC_LSB_VOLTS
    assert quantize(0.5 * lsb, 14).raw == 1
    assert quantize(-0.5 * lsb, 14).raw == -1
    assert quantize(1.5 * lsb, 14).raw == 2
    assert quantize(-1.5 * lsb, 14).raw == -2


def test_quantize_roundtrip_error_within_half_lsb():
    lsb = fxp.ADC_LSB_VOLTS
    rng = random.Random(7)
    for _ in range(1000):
        v = rng.uniform(-1.0 + lsb, 1.0 - 2 * lsb)
        s = quantize(v, 14)
        assert abs(s.raw * lsb - v) <= lsb / 2 + 1e-15


def test_quantize_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            quantize(bad, 14)


def test_quantize_flagged_reports_saturation():
    _, clipped = fxp.quantize_flagged(2.0, 14)
    assert clipped
    _, clipped = fxp.quantize_flagged(0.25, 14)
    assert not clipped


def add_sat(x: int, y: int, width: int) -> int:
    """Saturating adder as the filter accumulator builds it from saturate()."""
    return fxp.saturate(x + y, width)[0]


def test_add_sat_inverse_pair():
    assert add_sat(5, -5, 14) == 0


def test_add_sat_width_boundary():
    assert fxp.saturate(8191 + 1, 14) == (8191, True)  # saturates
    assert fxp.saturate(8191 + 1, 15) == (8192, False)  # width growth keeps it exact
    assert fxp.saturate(-8192 - 1, 14) == (-8192, True)


def test_add_sat_commutative_and_monotone():
    rng = random.Random(202)
    for _ in range(500):
        x = rng.randint(-8192, 8191)
        y = rng.randint(-8192, 8191)
        assert add_sat(x, y, 14) == add_sat(y, x, 14)
        # monotone in each argument even under saturation
        if y < 8191:
            assert add_sat(x, y + 1, 14) >= add_sat(x, y, 14)


def test_add_sat_associative_without_saturation():
    rng = random.Random(303)
    for _ in range(500):
        a, b, c = (rng.randint(-1000, 1000) for _ in range(3))
        left = add_sat(add_sat(a, b, 14), c, 14)
        right = add_sat(a, add_sat(b, c, 14), 14)
        assert left == right == a + b + c


def test_shift_scale_identity():
    assert shift_raw(12, 0, 14) == (12, False)


def test_shift_scale_exact_down():
    assert shift_raw(12, -2, 14) == (3, False)


def test_shift_scale_negative_floors():
    # arithmetic right shift floors toward -inf: floor(-5/2) = -3
    assert shift_raw(-5, -1, 14)[0] == math.floor(-5 / 2) == -3


def test_shift_scale_matches_floor_division_oracle():
    rng = random.Random(404)
    lo, hi = fxp.raw_bounds(32)
    for _ in range(5000):
        raw = rng.randint(lo, hi)
        k = rng.randint(1, 7)
        assert shift_raw(raw, -k, 32) == (raw // (1 << k), False)


def test_shift_scale_saturates_up_shifts():
    assert shift_raw(8191, 1, 14) == (8191, True)
    assert shift_raw(8191, 1, 15) == (16382, False)
    assert shift_raw(-8192, 2, 15) == (-16384, True)
    assert shift_raw(-8192, 2, 14) == (-8192, True)


def test_shift_scale_exponent_range():
    for s in (-8, 8):
        with pytest.raises(ConfigError):
            shift_raw(1, s, 14)


def test_fxp_sample_validates():
    with pytest.raises(ValueError):
        FxpSample(8192, 14)
    with pytest.raises(ConfigError):
        FxpSample(0, 2)


def test_adc_constants():
    assert fxp.ADC_WIDTH == 14
    assert fxp.ADC_LSB_VOLTS == 2.0 ** -13
