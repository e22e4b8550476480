"""Emulation of the histogram module in correlation mode.

The hardware stores 16-bit saturating counters in a 2^21-word (4 MB)
RAM.  In correlation mode each repetition counts one word whose 21-bit
address packs its two readouts: the 7-bit bin of the second in-phase
value, the second quadrature's bin truncated to 5 bits, the 7-bit bin of
the first in-phase value and a 2-bit segment tagging the experimental
scenario (CORR_FIELDS).  This module is the only place that knows that
layout.  A 64-bit host-side shadow mirrors every update so exact
statistics survive counter saturation; the RAM words are what the
hardware would transfer, the shadow is what analysis uses.
"""

from __future__ import annotations

import struct

import numpy as np

from .pipeline import PREPROC_WIDTH

WORD_MAX = 0xFFFF

DUMP_MAGIC = b"QFBHISTO"
DUMP_VERSION = 1
DUMP_HEADER_BYTES = 64
# the hardware's code for correlation mode (2D is 1, time-resolved 3)
DUMP_MODE_CORRELATION = 2

# The correlation layout, most significant field first: (name, bits).
# Every width, shift, mask and size below derives from this table.
CORR_FIELDS = (("i2", 7), ("q", 5), ("i1", 7), ("seg", 2))
_BITS = dict(CORR_FIELDS)
ADDRESS_BITS = sum(_BITS.values())
RAM_WORDS = 1 << ADDRESS_BITS
CORR_LAYOUT = "|".join(f"{name}:{bits}" for name, bits in CORR_FIELDS)


def bin7_raw_array(raw: np.ndarray) -> np.ndarray:
    """Map 16-bit preprocessed values onto 128 bins.

    Takes the top 7 bits of the two's-complement value and inverts the
    MSB (offset binary): a monotone truncation of the full scale onto
    0..127 with zero landing on bin 64.
    """
    return (raw >> (PREPROC_WIDTH - 7)) + 64


def _check_field(name: str, value, bits: int) -> None:
    value = np.asarray(value)
    bad = (value < 0) | (value >= 1 << bits)
    if bad.any():
        raise ValueError(f"{name}={value[bad].flat[0]} does not fit in {bits} bits")


def pack_correlation_address(i2, q, i1, seg):
    """Bijective packing of (i2, q, i1, seg) into 21-bit addresses.

    Takes integers or integer arrays (broadcast against each other).
    """
    for (name, bits), value in zip(CORR_FIELDS, (i2, q, i1, seg)):
        _check_field(name, value, bits)
    # one expression, so that numpy reuses each temporary in place
    return ((i2 << _BITS["q"] | q) << _BITS["i1"] | i1) << _BITS["seg"] | seg


def unpack_correlation_address(addr):
    """(i2, q, i1, seg) of an address or an array of addresses."""
    _check_field("address", addr, ADDRESS_BITS)
    shifts = [sum(b for _, b in CORR_FIELDS[k + 1:]) for k in range(len(CORR_FIELDS))]
    return tuple((addr >> s) & ((1 << b) - 1) for s, (_, b) in zip(shifts, CORR_FIELDS))


def correlation_addresses(it1: np.ndarray, it2: np.ndarray, qt2: np.ndarray,
                          seg) -> np.ndarray:
    """Addresses of repetitions with preprocessed readouts (it1, it2, qt2).

    All three values are binned to 7 bits; the second quadrature keeps
    only the top 5 bits of its bin.  The readouts may be int16, which
    the packing would overflow, so they are widened to int64 first.
    """
    i2, q, i1 = (bin7_raw_array(np.asarray(v, dtype=np.int64))
                 for v in (it2, qt2, it1))
    return pack_correlation_address(i2, q >> (_BITS["i2"] - _BITS["q"]), i1, seg)


def check_segment_count(segment_count: int) -> None:
    """Reject a segment count the 2-bit segment field cannot address."""
    if not 1 <= segment_count <= 1 << _BITS["seg"]:
        raise ValueError(f"segment_count must be within 1..{1 << _BITS['seg']}")


class HistogramRam:
    """2^21 saturating 16-bit counters plus an exact 64-bit shadow."""

    def __init__(self, segment_count: int = 1) -> None:
        check_segment_count(segment_count)
        self.segment_count = segment_count
        self.words = np.zeros(RAM_WORDS, dtype=np.uint16)
        self.shadow = np.zeros(RAM_WORDS, dtype=np.int64)

    def update_addresses(self, addrs: np.ndarray) -> None:
        """Count one event at every address; words saturate at WORD_MAX."""
        touched, counts = np.unique(np.asarray(addrs, dtype=np.int64),
                                    return_counts=True)
        if touched.size and not 0 <= touched[0] <= touched[-1] < RAM_WORDS:
            raise ValueError(f"addresses must lie within 0..{RAM_WORDS - 1}")
        self.shadow[touched] += counts
        self.words[touched] = np.minimum(self.words[touched] + counts, WORD_MAX)

    # -- analysis -------------------------------------------------------------

    def correlation_counts(self) -> np.ndarray:
        """Shadow counts reshaped to (i2, q, i1, seg)."""
        return self.shadow.reshape([1 << bits for _, bits in CORR_FIELDS])

    def joint_i1_i2(self, seg: int) -> np.ndarray:
        """Joint counts over (i1, i2) bins of one segment."""
        return self.correlation_counts()[:, :, :, seg].sum(axis=1).T  # -> [i1, i2]

    def marginal_i1(self, seg: int) -> np.ndarray:
        return self.joint_i1_i2(seg).sum(axis=1)

    def marginal_i2(self, seg: int) -> np.ndarray:
        return self.joint_i1_i2(seg).sum(axis=0)

    # -- serialization --------------------------------------------------------

    def dump_bytes(self) -> bytes:
        """Binary dump: 64-byte header followed by 2^21 little-endian words."""
        layout = CORR_LAYOUT.encode()
        header = struct.pack(
            "<8sHHHH", DUMP_MAGIC, DUMP_VERSION, DUMP_MODE_CORRELATION,
            self.segment_count, len(layout),
        )
        header += layout
        header += b"\x00" * (DUMP_HEADER_BYTES - len(header))
        # one copy of the words: on a little-endian host astype is a view
        return b"".join((header, self.words.astype("<u2", copy=False)))
