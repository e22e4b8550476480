"""Canaries for the numpy layers the golden digests rest on.

NumPy keeps its bit generators' streams across releases but lets the
Generator methods change (NEP 19).  These pin the draws the Monte Carlo
chunks make and the complex exponential of the envelope engine, so a
numpy upgrade that moves a golden digest fails here first, naming the
layer.  Each digest was taken on numpy's dispatched SIMD kernels and on
its baseline kernels alike.
"""

import hashlib

import numpy as np
import pytest

from qfbsim.sigmodel import DeviceParams

SEED = 20260825  # the shipped scenarios' master seed


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


@pytest.mark.parametrize("method,digest", [
    ("standard_normal",
     "e1af3dc03f359182d70d5e2ea8b044677a8c3848fa310a332347cd888bf9910b"),
    ("standard_exponential",
     "380b09ddc3e15e29912b0923fa5d555460196c66962d6f0a81e4b4a7bf5296f3"),
    ("random",
     "3afefbebd4de5cfe67575b11e2058412af9ab2c5d16f22387e45ecb43686ee2a"),
])
def test_generator_draws_are_pinned(method, digest):
    # seeded as a chunk seeds its generator: (master seed, stream, chunk),
    # and drawn in place as the chunks draw
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 0, 0]))
    out = np.empty(4096)
    getattr(rng, method)(out=out)
    assert _digest(out) == digest


def test_complex_exp_of_the_envelope_decay_is_pinned():
    # the default device's kappa and chi are the shipped scenarios'
    device = DeviceParams()
    lam = np.array([device.envelope_rate(s) for s in range(2)])
    decay = np.exp(-lam[:, None] * (np.arange(4096) * 1e-9))
    assert _digest(decay) == (
        "a2f6e0f1dea54cc36c5d5de38009560ab2d05755944f7750748570b59f463248")
