"""Histogram RAM tests: binning, address layout, counting, serialization."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfbsim import histo
from qfbsim.histo import (HistogramRam, bin7_raw_array, correlation_addresses,
                          pack_correlation_address, unpack_correlation_address)

FIELDS = (("i2", 7), ("q", 5), ("i1", 7), ("seg", 2))


def _bin(v):
    """Reference 7-bit offset-binary bin of a 16-bit value."""
    return (np.asarray(v, dtype=np.int64) + 32768) // 512


def _addresses(i2, q, i1, seg):
    """One repetition per address, binned straight into a correlation RAM."""
    ram = HistogramRam(segment_count=4)
    ram.update_addresses(pack_correlation_address(i2, q, i1, seg))
    return ram


# ---------------------------------------------------------------------------
# Binning
# ---------------------------------------------------------------------------

def test_bin7_boundaries():
    bins = bin7_raw_array(np.array([-32768, 0, 32767, -1]))
    assert bins.tolist() == [0, 64, 127, 63]


def test_bin7_monotone_exhaustive():
    raws = np.arange(-32768, 32768, dtype=np.int64)
    bins = bin7_raw_array(raws)
    assert bins.min() == 0 and bins.max() == 127
    assert np.all(np.diff(bins) >= 0)
    np.testing.assert_array_equal(bins, _bin(raws))


def test_bin7_threshold_matches_sign():
    # bin >= 64 exactly when the value is non-negative
    raws = np.array([-32768, -512, -1, 0, 1, 511, 32767])
    np.testing.assert_array_equal(bin7_raw_array(raws) >= 64, raws >= 0)


def test_q5_truncation():
    # the second quadrature keeps the top 5 bits of its 7-bit bin
    qt2 = np.array([-32768, 32767, 0, -1])
    addrs = correlation_addresses(np.zeros(4, np.int64), np.zeros(4, np.int64),
                                  qt2, 0)
    assert unpack_correlation_address(addrs)[1].tolist() == [0, 31, 16, 15]


# ---------------------------------------------------------------------------
# Address packing
# ---------------------------------------------------------------------------

def test_pack_corners():
    assert pack_correlation_address(0, 0, 0, 0) == 0
    assert pack_correlation_address(127, 31, 127, 3) == (1 << 21) - 1
    assert pack_correlation_address(127, 31, 127, 3) == \
        ((127 * 2 ** 5 + 31) * 2 ** 7 + 127) * 2 ** 2 + 3
    assert unpack_correlation_address((1 << 21) - 1) == (127, 31, 127, 3)


def test_pack_unpack_roundtrip_random():
    rng = np.random.default_rng(88)
    fields = [rng.integers(0, 1 << bits, 100000) for _, bits in FIELDS]
    addrs = pack_correlation_address(*fields)
    assert addrs.max() < histo.RAM_WORDS
    np.testing.assert_array_equal(addrs, np.ravel_multi_index(
        fields, [1 << bits for _, bits in FIELDS]))
    for got, want in zip(unpack_correlation_address(addrs), fields):
        np.testing.assert_array_equal(got, want)


def test_pack_field_range_checks():
    with pytest.raises(ValueError):
        pack_correlation_address(128, 0, 0, 0)
    with pytest.raises(ValueError):
        pack_correlation_address(0, 32, 0, 0)
    with pytest.raises(ValueError):
        pack_correlation_address(0, 0, np.array([0, -1]), 0)
    with pytest.raises(ValueError):
        unpack_correlation_address(1 << 21)
    with pytest.raises(ValueError):
        unpack_correlation_address(np.array([0, 1 << 21]))


full_scale = st.integers(-32768, 32767)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(full_scale, full_scale, full_scale, st.integers(0, 3)),
                min_size=1, max_size=64))
def test_every_repetition_lands_on_its_bins(reps):
    it1, it2, qt2, seg = (np.array(col, dtype=np.int64) for col in zip(*reps))
    addrs = correlation_addresses(it1, it2, qt2, seg)
    fields = (_bin(it2), _bin(qt2) >> 2, _bin(it1), seg)
    for got, want in zip(unpack_correlation_address(addrs), fields):
        np.testing.assert_array_equal(got, want)
    ram = HistogramRam(segment_count=4)
    ram.update_addresses(addrs)
    counts = ram.correlation_counts()
    tuples = list(zip(*(f.tolist() for f in fields)))
    for t in tuples:
        assert counts[t] == tuples.count(t)


def test_int16_readouts_pack_like_int64_ones():
    # the Monte Carlo hands its readouts over as int16, whose range the
    # packing overflows; full scale packs to the top addresses
    edges = np.array([-32768, -32767, -513, -512, -1, 0, 511, 512, 32766, 32767])
    it1, it2, qt2 = np.meshgrid(edges, edges, edges, indexing="ij")
    want = correlation_addresses(*(v.ravel() for v in (it1, it2, qt2)), seg=3)
    got = correlation_addresses(*(v.ravel().astype(np.int16)
                                  for v in (it1, it2, qt2)), seg=3)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    assert want.max() == histo.RAM_WORDS - 1


out_of_range = dict(pos=st.integers(0, 7), offset=st.integers(0, 1 << 20),
                    below=st.booleans())


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from(range(len(FIELDS))), **out_of_range)
def test_pack_rejects_out_of_range_fields_in_array_form(field, pos, offset, below):
    name, bits = FIELDS[field]
    args = [np.zeros(8, np.int64) for _ in FIELDS]
    args[field][pos] = -1 - offset if below else (1 << bits) + offset
    with pytest.raises(ValueError, match=f"^{name}="):
        pack_correlation_address(*args)


@settings(max_examples=50, deadline=None)
@given(**out_of_range)
def test_unpack_rejects_out_of_range_addresses_in_array_form(pos, offset, below):
    addrs = np.zeros(8, np.int64)
    addrs[pos] = -1 - offset if below else histo.RAM_WORDS + offset
    with pytest.raises(ValueError, match="^address="):
        unpack_correlation_address(addrs)


def test_segment_count_must_fit_the_segment_field():
    for count in (1, 4):
        assert HistogramRam(segment_count=count).segment_count == count
    for count in (0, 5):
        with pytest.raises(ValueError):
            HistogramRam(segment_count=count)


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------

def test_update_2d_single():
    ram = HistogramRam()
    ram.update_addresses(np.array([0]))
    assert ram.words[0] == 1
    assert ram.shadow[0] == 1
    assert ram.shadow.sum() == 1


@pytest.mark.parametrize("addr", [-1, histo.RAM_WORDS])
def test_update_rejects_addresses_outside_the_ram(addr):
    ram = HistogramRam()
    with pytest.raises(ValueError):
        ram.update_addresses(np.array([0, addr]))
    assert ram.shadow.sum() == 0
    assert ram.words.sum() == 0


def test_update_2d_saturates_at_word_max():
    ram = HistogramRam()
    addr = pack_correlation_address(5, 3, 9, 0)
    ram.update_addresses(np.full(65536, addr))
    assert ram.words[addr] == 65535
    assert ram.shadow[addr] == 65536
    assert np.flatnonzero(ram.words == histo.WORD_MAX).tolist() == [addr]


def test_update_2d_conservation():
    rng = np.random.default_rng(3)
    ram = HistogramRam()
    n = 200000
    ram.update_addresses(rng.integers(0, histo.RAM_WORDS, n))
    assert ram.shadow.sum() == n
    np.testing.assert_array_equal(ram.words, ram.shadow)


def test_merge_equals_single_pass_including_saturation():
    # two batches into one RAM (as a feedback comparison writes its two
    # segments) saturate exactly like one pass over both
    rng = np.random.default_rng(7)
    two = HistogramRam()
    one = HistogramRam()
    n = 160000
    addrs1 = rng.integers(0, 4, n)  # few addresses: force saturation
    addrs2 = rng.integers(0, 4, n)
    two.update_addresses(addrs1)
    two.update_addresses(addrs2)
    one.update_addresses(np.concatenate([addrs1, addrs2]))
    np.testing.assert_array_equal(two.shadow, one.shadow)
    np.testing.assert_array_equal(two.words, one.words)
    assert two.words[:4].max() == histo.WORD_MAX


# ---------------------------------------------------------------------------
# Correlation counts
# ---------------------------------------------------------------------------

def test_correlation_pair_counts_one_word():
    ram = HistogramRam()
    ram.update_addresses(correlation_addresses(
        np.array([-27648]), np.array([-22528]), np.array([0]), 0))
    addr = pack_correlation_address(20, 16, 10, 0)
    assert ram.shadow[addr] == 1
    assert ram.shadow.sum() == 1


def test_correlation_segment_alternation():
    # repetitions tagged 0, 1, 0, 1 count in alternating segments
    n = 8
    seg = np.arange(n) % 2
    i1 = np.arange(n) * 10
    ram = _addresses(np.zeros(n, np.int64), 0, i1, seg)
    counts = ram.correlation_counts()
    for k in range(n):
        assert counts[0, 0, i1[k], seg[k]] == 1
    for s in (0, 1):
        np.testing.assert_array_equal(ram.marginal_i1(s),
                                      np.bincount(i1[s::2], minlength=128))


def test_correlation_marginal_matches_event_log():
    rng = np.random.default_rng(4)
    n = 500
    i1s = rng.integers(0, 128, n)
    i2s = rng.integers(0, 128, n)
    qs = rng.integers(0, 32, n)
    segs = rng.integers(0, 2, n)
    ram = _addresses(i2s, qs, i1s, segs)
    # marginals over the other fields reproduce the 1D histograms of
    # each readout, recomputed independently from the repetitions
    for s in (0, 1):
        np.testing.assert_array_equal(ram.marginal_i1(s),
                                      np.bincount(i1s[segs == s], minlength=128))
        np.testing.assert_array_equal(ram.marginal_i2(s),
                                      np.bincount(i2s[segs == s], minlength=128))


# ---------------------------------------------------------------------------
# Quadrants: blocks of the joint (i1, i2) histogram split at bin 64
# ---------------------------------------------------------------------------

def _quadrants(joint):
    return {"gg": int(joint[:64, :64].sum()), "ge": int(joint[:64, 64:].sum()),
            "eg": int(joint[64:, :64].sum()), "ee": int(joint[64:, 64:].sum())}


def test_quadrants_single_quadrant():
    # first readout bin 10 (G), second readout bin 100 (E)
    ram = _addresses(np.full(5, 100), 0, np.full(5, 10), 0)
    assert _quadrants(ram.joint_i1_i2(0)) == {"gg": 0, "ge": 5, "eg": 0, "ee": 0}


def test_quadrants_sum_to_one():
    rng = np.random.default_rng(6)
    ram = _addresses(rng.integers(0, 128, 400), rng.integers(0, 32, 400),
                     rng.integers(0, 128, 400), 0)
    assert sum(_quadrants(ram.joint_i1_i2(0)).values()) == 400


def test_quadrants_per_segment():
    # seg 0 repetition: (G, G); seg 1 repetition: (E, E)
    ram = _addresses(np.array([10, 100]), 0, np.array([10, 100]), np.array([0, 1]))
    assert _quadrants(ram.joint_i1_i2(0)) == {"gg": 1, "ge": 0, "eg": 0, "ee": 0}
    assert _quadrants(ram.joint_i1_i2(1)) == {"gg": 0, "ge": 0, "eg": 0, "ee": 1}


# ---------------------------------------------------------------------------
# Dumps
# ---------------------------------------------------------------------------

def test_dump_roundtrip_and_header():
    ram = HistogramRam(segment_count=2)
    ram.update_addresses(pack_correlation_address(70, 16, 64, np.array([0, 1])))
    blob = ram.dump_bytes()
    assert len(blob) == histo.DUMP_HEADER_BYTES + 2 * (1 << 21)
    magic, version, mode, segs, n = struct.unpack_from("<8sHHHH", blob)
    assert (magic, version, mode, segs) == (histo.DUMP_MAGIC, 1, 2, 2)
    layout = blob[16:16 + n]
    # the layout string derives from CORR_FIELDS; readers of old dumps
    # parse these bytes
    assert layout == b"i2:7|q:5|i1:7|seg:2"
    assert not any(blob[16 + n:histo.DUMP_HEADER_BYTES])
    words = np.frombuffer(blob[histo.DUMP_HEADER_BYTES:], dtype="<u2")
    np.testing.assert_array_equal(words, ram.words)


def test_dump_deterministic():
    def build() -> bytes:
        ram = HistogramRam(segment_count=2)
        rng = np.random.default_rng(123)
        ram.update_addresses(rng.integers(0, histo.RAM_WORDS, 5000))
        return ram.dump_bytes()

    assert build() == build()
