"""Counter-based stream: bit-exactness, determinism, statistical sanity."""

import numpy as np
import pytest

from indexlaw.montecarlo import CHUNK
from indexlaw.rng import GAMMA, mix64, stream_seed, uniforms


def _mix64_reference(z: int) -> int:
    """Independent pure-int SplitMix64 finalizer for bit-exactness checks."""
    mask = (1 << 64) - 1
    z &= mask
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
    return (z ^ (z >> 31)) & mask


def test_mix64_matches_reference():
    for z in (0, 1, 42, 2**63, 0xDEADBEEFCAFEBABE):
        assert int(mix64(np.uint64(z))) == _mix64_reference(z)


def test_stream_matches_reference():
    seed = stream_seed(42, 3, channel=1)
    # reference: seed derivation and counter outputs in pure ints
    mask = (1 << 64) - 1
    g = 0x9E3779B97F4A7C15
    s = _mix64_reference((42 + 4 * g) & mask)
    s = _mix64_reference((s + 2 * g) & mask)
    assert seed == s
    u = uniforms(seed, 4)
    want = [( _mix64_reference((s + (j + 1) * g) & mask) >> 11) * 2.0**-53 + 0.5 * 2.0**-53
            for j in range(4)]
    assert np.allclose(u, want, rtol=0, atol=0)


def test_determinism_and_prefix_stability():
    a = uniforms(stream_seed(7, 0), 100)
    b = uniforms(stream_seed(7, 0), 100)
    assert np.array_equal(a, b)
    assert np.array_equal(a[:10], uniforms(stream_seed(7, 0), 10))


def test_streams_differ_by_index_and_channel():
    assert stream_seed(7, 0) != stream_seed(7, 1)
    assert stream_seed(7, 0, channel=0) != stream_seed(7, 0, channel=1)
    assert stream_seed(7, 0) != stream_seed(8, 0)


def test_open_interval():
    u = uniforms(stream_seed(1, 0), 100000)
    assert u.min() > 0.0 and u.max() < 1.0


def test_rough_uniformity():
    u = uniforms(stream_seed(1, 0), 100000)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(np.mean(u < 0.25) - 0.25) < 0.005


def test_gamma_constant():
    assert int(GAMMA) == 0x9E3779B97F4A7C15


@pytest.mark.parametrize("master", [0, 2**64 - 1])
@pytest.mark.parametrize("channel", [0, 1])
@pytest.mark.parametrize("rows", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_block_rows_are_the_single_streams(master, channel, rows):
    # a block of streams gives each stream's bits, whatever the block size
    start = 5
    seeds = stream_seed(master, np.arange(start, start + rows), channel=channel)
    assert seeds.dtype == np.uint64 and seeds.shape == (rows,)
    block = uniforms(seeds, 33)
    assert block.shape == (rows, 33)
    for i, r in enumerate(range(start, start + rows)):
        seed = stream_seed(master, r, channel=channel)
        assert int(seeds[i]) == seed
        assert block[i].tobytes() == uniforms(seed, 33).tobytes()


def test_block_row_matches_reference():
    mask = (1 << 64) - 1
    g = 0x9E3779B97F4A7C15
    block = uniforms(stream_seed(2**64 - 1, np.arange(3), channel=1), 5)
    s = _mix64_reference((2**64 - 1 + 3 * g) & mask)   # index 2
    s = _mix64_reference((s + 2 * g) & mask)
    want = [((_mix64_reference((s + (j + 1) * g) & mask) >> 11) + 0.5) * 2.0**-53
            for j in range(5)]
    assert block[2].tolist() == want
