"""The runtime's generator is numpy's ``default_rng``, draw for draw."""

import pytest

from repro.sim.rng import PCG64, seed_words

#: (seed, index, raw 64-bit output) from numpy's own PCG64 test vectors
#: (``numpy/random/tests/data/pcg64-testset-{1,2}.csv``).
KNOWN = [(0xDEADBEAF, 0, 0x60D24054E17A0698),
         (0xDEADBEAF, 1, 0xD5E79D89856E4F12),
         (0xDEADBEAF, 999, 0xA5CB380B8DE10D10),
         (0, 0, 0xA30FEBCFD9C2825F),
         (0, 2, 0x0A7D3DA94ECDE8B8),
         (0, 999, 0x6148329042F743B0)]

#: A draw of each kind the runtime makes, and each arm of ``integers``:
#: one value (no draw), a 32-bit Lemire range, exactly 2**32 values, a
#: 64-bit Lemire range, exactly 2**64 values.  The two ranges of
#: ``3 * 2**k + 1`` values reject about one draw in four, so both
#: rejection loops run (int64 bounds: the 64-bit one starts at -2**63).
REJECTING = [(0, 3 * 2**30 + 1), (-2**63, 2**62 + 1)]
DRAWS = [("random",), (0, 2_000_000), (1, 2), (0, 3), (0, 2**32),
         (-5, 2**40), (-2**63, 2**63 - 1), (-2**63, 2**63), (1, 8_000_000),
         *REJECTING]

SEEDS = [0, 1, 3, 5, 7, 42, 2**32, 2**32 + 5, 2**70 + 3, 2**200 + 11]


def _draw(rng, how):
    return rng.random() if how == ("random",) else int(rng.integers(*how))


@pytest.mark.parametrize("seed,index,raw", KNOWN)
def test_raw_outputs_match_numpys_test_vectors(seed, index, raw):
    rng = PCG64(seed)
    for _ in range(index):
        rng.next64()
    assert rng.next64() == raw


@pytest.mark.parametrize("seed", SEEDS)
def test_every_draw_is_numpys(seed):
    """Interleaved draws of every kind: a 64-bit draw between two 32-bit
    halves must keep the buffered half, as numpy's PCG64 does."""
    np_random = pytest.importorskip("numpy.random")
    assert seed_words(seed, 8) == [
        int(w) for w in np_random.SeedSequence(seed).generate_state(8)]
    ours, ref = PCG64(seed), np_random.default_rng(seed)
    for i in range(600):
        how = DRAWS[(i * 7 + seed) % len(DRAWS)]
        assert _draw(ours, how) == _draw(ref, how), (i, how)


class _Counting(PCG64):
    """Counts the calls ``integers`` makes out to ``next32``/``next64``."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def next32(self):
        self.calls += 1
        return super().next32()

    def next64(self):
        self.calls += 1
        return super().next64()


@pytest.mark.parametrize("how,calls_per_draw", zip(REJECTING, (0, 1)))
def test_the_rejecting_ranges_redraw(how, calls_per_draw):
    """A 32-bit draw is inline and calls out only to redraw; a 64-bit
    one calls ``next64`` once, and again per redraw."""
    rng = _Counting(0)
    for _ in range(200):
        rng.integers(*how)
    assert rng.calls > 200 * calls_per_draw + 20


def test_bad_ranges_and_seeds_raise():
    rng = PCG64(0)
    with pytest.raises(ValueError):
        rng.integers(5, 5)
    with pytest.raises(ValueError):
        rng.integers(0, 2**64 + 1)
    with pytest.raises(ValueError):
        PCG64(-1)
