"""Codec: enumeration, byte mapping, margin sensing, soft correction."""

import re
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from norsim.channel import LevelGrid, NoiseModel, RngStream, five_level_grid, sample_read
from norsim.codec import (
    CodeBook,
    decode,
    encode,
    enumerate_codewords,
    margin_sense,
    parity_ok,
    read_byte,
    soft_correct,
)


@pytest.fixture(scope="module")
def book():
    return CodeBook.build(5)


@pytest.fixture(scope="module")
def grid():
    return five_level_grid(delta0=1.0, width=0.2)


def brute_nearest(volts, grid, allowed_sums=None):
    """Independent exhaustive L1 search with lexicographic tie-break."""
    best, best_d = None, None
    for w in product(range(5), repeat=4):
        if sum(w) % 2 != 0:
            continue
        if allowed_sums is not None and sum(w) not in allowed_sums:
            continue
        d = sum(abs(volts[j] - (grid.l0 + grid.pitch * w[j])) for j in range(4))
        if best_d is None or d < best_d - 1e-12:
            best, best_d = w, d
    return best, best_d


def l1(volts, grid, words):
    """L1 distance from a read to each row of ``words``."""
    level_v = grid.l0 + grid.pitch * np.asarray(words)
    return np.abs(np.asarray(volts, dtype=float) - level_v).sum(axis=-1)


def masked_search(volts, grid, book):
    """Full-codebook decode: the sensed word if it passes parity, else the
    L1-nearest word with sum = sensed sum +/- 1, lowest index on ties (the
    codebook is in lexicographic order)."""
    sensed = margin_sense(volts, grid)
    s = int(sensed.sum())
    if s % 2 == 0:
        return tuple(sensed.tolist()), None
    sums = book.words.sum(axis=1)
    dist = np.where(np.abs(sums - s) == 1, l1(volts, grid, book.words), np.inf)
    return tuple(book.words[dist.argmin()].tolist()), dist


def decode_one(volts, grid):
    sensed, decoded, passed = decode(np.asarray(volts, dtype=float)[None], grid)
    assert bool(passed[0]) == (int(sensed[0].sum()) % 2 == 0)
    return tuple(decoded[0].tolist())


def reference_decode(reads, grid):
    """``decode`` as of norsim 0.6.0, kept frozen: the 8 one-level moves of
    each failing row laid out along the last axis of a (k, 8) array, and
    the first cheapest one picked by argmin."""
    v = np.asarray(reads, dtype=float)
    sensed = margin_sense(v, grid)
    passed = sensed.sum(axis=1) % 2 == 0
    decoded = sensed.copy()
    if not passed.all():
        move_cell = np.array([0, 1, 2, 3, 3, 2, 1, 0])
        move_step = np.array([-1, -1, -1, -1, 1, 1, 1, 1])
        fail = np.flatnonzero(~passed)
        t = ((v[fail] - grid.l0) / grid.pitch)[:, move_cell]
        s = sensed[fail][:, move_cell]
        moved = s + move_step
        cost = np.abs(t - moved) - np.abs(t - s)
        cost[(moved < 0) | (moved >= grid.n_levels)] = np.inf
        best = cost.argmin(axis=1)
        decoded[fail, move_cell[best]] += move_step[best]
    return sensed, decoded, passed


def wild_reads(grid, m, rng):
    """m reads in pitch units around the grid: a quarter of the cells on
    exact half-pitch points, a fiftieth far outside the grid."""
    n = grid.n_levels
    t = rng.uniform(-3.0, n + 2.0, (m, 4))
    ties = rng.random((m, 4)) < 0.25
    t[ties] = np.floor(t[ties]) + 0.5
    far = rng.random((m, 4)) < 0.02
    t[far] = rng.choice([-1e6, -40.0, n + 40.0, 1e6, 1e17], far.sum())
    return grid.l0 + grid.pitch * t


# Grids whose pitch is a power of two: reads on a 1/32-pitch lattice then
# make every distance exact in binary, so exact ties are exercised too.
DYADIC_GRIDS = (
    LevelGrid(n_levels=5, margin=0.75, width=0.25),
    LevelGrid(n_levels=5, margin=1.5, width=0.5, l0=-3.0),
    LevelGrid(n_levels=5, margin=0.5, width=0.0, l0=2.0),
)


class TestEnumeration:
    def test_five_levels_gives_313(self):
        assert len(enumerate_codewords(5)) == 313

    def test_first_word_all_zero(self):
        assert tuple(enumerate_codewords(5)[0]) == (0, 0, 0, 0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_against_brute_force(self, n):
        words = enumerate_codewords(n)
        brute = [w for w in product(range(n), repeat=4) if sum(w) % 2 == 0]
        assert words.dtype == np.int64
        assert [tuple(w) for w in words.tolist()] == brute

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_level_closed_form(self, n):
        assert len(enumerate_codewords(n)) == (n**4 + 1) // 2

    @pytest.mark.parametrize("n", [2, 4])
    def test_even_level_closed_form(self, n):
        assert len(enumerate_codewords(n)) == n**4 // 2

    def test_lexicographic_order(self):
        words = [tuple(w) for w in enumerate_codewords(5)]
        assert words == sorted(words)

    def test_all_even_parity(self):
        assert all(parity_ok(w) for w in enumerate_codewords(5))


class TestParity:
    def test_cases(self):
        assert parity_ok((0, 0, 0, 0))
        assert not parity_ok((1, 0, 0, 0))
        assert parity_ok((4, 3, 2, 1))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            parity_ok((1, 2, 3))

    def test_integral_floats_accepted(self):
        assert parity_ok((1.0, 1.0, 0.0, 0.0))
        assert not parity_ok(np.array([2.0, 2.0, 2.0, 1.0]))

    @pytest.mark.parametrize("symbols", [
        (0.3, 0.3, 0.0, 0.0),  # sums to an even integer after truncation
        (1.5, 0.5, 0.0, 0.0),
        (np.nan, 0.0, 0.0, 0.0),
        (np.inf, 1.0, 0.0, 0.0),
        (-np.inf, 0.0, 0.0, 0.0),
    ])
    def test_non_integral_symbols_rejected(self, symbols):
        with pytest.raises(ValueError, match="finite integers"):
            parity_ok(symbols)


class TestEncode:
    def test_byte_zero(self, book):
        assert encode(0, book) == (0, 0, 0, 0)

    def test_injective_and_even(self, book):
        words = {encode(b, book) for b in range(256)}
        assert len(words) == 256
        assert all(parity_ok(w) for w in words)

    def test_roundtrip_through_byte_map(self, book):
        for b in (0, 1, 17, 128, 255):
            assert book.byte_for_word(encode(b, book)) == b

    def test_byte_map_is_first_256_words(self, book):
        want = {tuple(w): b for b, w in enumerate(book.words[:256].tolist())}
        for w in product(range(5), repeat=4):
            assert book.byte_for_word(w) == want.get(w)
            assert book.byte_for_word(np.array(w)) == want.get(w)

    @pytest.mark.parametrize("word", [
        (5, 0, 0, 1), (0, -1, 1, 0), (0, 0, 0), (0, 0, 0, 0, 0),
        (0.5, 0, 0, 0), (0, 0, 1.25, 1), (1, 1, 0, 0.999),  # non-integral symbols
    ])
    def test_byte_map_rejects_non_words(self, book, word):
        assert book.byte_for_word(word) is None

    def test_small_book_rejected(self):
        with pytest.raises(ValueError):
            encode(5, CodeBook.build(3))

    def test_byte_range_checked(self, book):
        with pytest.raises(ValueError):
            encode(256, book)

    @pytest.mark.parametrize("bad", [True, False, np.True_, 3.5, 0.25, np.float64(254.5)])
    def test_bools_and_fractions_rejected(self, book, bad):
        # a bool indexed the codewords as a mask, a fraction raised IndexError
        with pytest.raises(ValueError, match=re.escape(f"whole number, got {bad!r}")):
            encode(bad, book)

    def test_integral_floats_map_like_ints(self, book):
        assert encode(5.0, book) == encode(np.float64(5.0), book) == encode(5, book)


class TestMarginSense:
    def test_exact_levels(self, grid):
        for x in range(5):
            v = np.full(4, grid.levels[x])
            assert list(margin_sense(v, grid)) == [x] * 4

    def test_clamps_below(self, grid):
        v = np.full(4, grid.l0 - 10 * grid.pitch)
        assert list(margin_sense(v, grid)) == [0, 0, 0, 0]

    def test_clamps_above(self, grid):
        v = np.full(4, grid.l0 + 99 * grid.pitch)
        assert list(margin_sense(v, grid)) == [4, 4, 4, 4]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("far, level", [(1e19, 4), (-1e30, 0), (1e300, 4), (-1e300, 0)])
    def test_far_out_read_clamps(self, grid, far, level):
        v = np.array([far, grid.levels[1], grid.levels[1], grid.levels[0]])
        assert list(margin_sense(v, grid)) == [level, 1, 1, 0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_read(self, grid, bad):
        with pytest.raises(ValueError):
            margin_sense([0.0, bad, 0.0, 0.0], grid)

    def test_just_under_half_pitch(self, grid):
        v = grid.levels[np.array([0, 1, 2, 3])] + 0.49 * grid.pitch
        assert list(margin_sense(v, grid)) == [0, 1, 2, 3]

    def test_half_pitch_tie_rounds_down(self):
        # pitch exactly 1.0 so the half-pitch points are exact in binary
        g = LevelGrid(n_levels=5, margin=0.75, width=0.25)
        v = g.levels[np.array([0, 1, 2, 3])] + 0.5
        assert list(margin_sense(v, g)) == [0, 1, 2, 3]


class TestSoftCorrect:
    def test_small_overshoot_recovers_written(self, grid, book):
        volts = grid.levels[[0, 0, 0, 0]].astype(float)
        volts[0] = grid.l0 + 0.6 * grid.pitch
        sensed = margin_sense(volts, grid)
        assert not parity_ok(sensed)
        assert soft_correct(volts, sensed, grid, book) == (0, 0, 0, 0)

    def test_sensed_must_match_read(self, grid, book):
        # read sits exactly on L2, so (1,0,0,0) is not its sensed word
        volts = grid.levels[[0, 0, 0, 0]].astype(float)
        volts[0] = grid.levels[2]
        with pytest.raises(ValueError):
            soft_correct(volts, (1, 0, 0, 0), grid, book)

    def test_parity_passing_input_rejected(self, grid, book):
        volts = grid.levels[[1, 1, 0, 0]].astype(float)
        with pytest.raises(ValueError):
            soft_correct(volts, (1, 1, 0, 0), grid, book)

    def test_tie_breaks_to_lexicographic_low(self, grid, book):
        # exact levels of the non-codeword (1,0,0,0): five words tie at
        # one pitch; the lexicographically lowest one wins
        volts = grid.levels[[1, 0, 0, 0]].astype(float)
        sensed = margin_sense(volts, grid)
        assert soft_correct(volts, sensed, grid, book) == (0, 0, 0, 0)

    def test_agrees_with_brute_force(self, grid, book):
        noise = NoiseModel(a=0.8, tail=1.0, width=0.2)
        rng = RngStream(77)
        checked = 0
        for _ in range(400):
            written = book.words[rng.gen.integers(0, len(book.words))]
            volts = sample_read(written, grid, noise, rng)
            sensed = margin_sense(volts, grid)
            if parity_ok(sensed):
                continue
            checked += 1
            s = int(sensed.sum())
            expect, _ = brute_nearest(volts, grid, allowed_sums={s - 1, s + 1})
            assert soft_correct(volts, sensed, grid, book) == expect
        assert checked > 100

    def test_dominates_soft_correct(self, grid, book):
        noise = NoiseModel(a=0.8, tail=1.0, width=0.2)
        rng = RngStream(81)
        strict = 0
        for _ in range(500):
            written = book.words[rng.gen.integers(0, len(book.words))]
            volts = sample_read(written, grid, noise, rng)
            sensed = margin_sense(volts, grid)
            if parity_ok(sensed):
                continue
            d_soft = l1(volts, grid, soft_correct(volts, sensed, grid, book))
            ow, d_full = brute_nearest(volts, grid)
            assert d_full <= d_soft + 1e-12
            if d_full < d_soft - 1e-12:
                strict += 1
                gap = abs(sum(ow) - int(sensed.sum()))
                assert gap % 2 == 1 and gap != 1
        # strict wins are possible but rare at this noise level
        assert strict < 50

    def test_output_always_even_parity(self, grid, book):
        rng = RngStream(78)
        for _ in range(200):
            volts = rng.gen.uniform(-2.0, grid.levels[-1] + 2.0, 4)
            sensed = margin_sense(volts, grid)
            if parity_ok(sensed):
                continue
            assert parity_ok(soft_correct(volts, sensed, grid, book))


class TestDecode:
    @settings(max_examples=400, deadline=None)
    @given(
        grid=st.sampled_from(DYADIC_GRIDS),
        ticks=st.lists(st.integers(-96, 224), min_size=4, max_size=4),
    )
    def test_matches_masked_search_on_exact_lattice(self, book, grid, ticks):
        # reads from 3 pitches below level 0 to 3 pitches above level 4
        volts = grid.l0 + grid.pitch * (np.array(ticks) / 32.0)
        expect, _ = masked_search(volts, grid, book)
        assert decode_one(volts, grid) == expect

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.floats(-3.0, 7.0), min_size=4, max_size=4))
    def test_matches_masked_search_on_floats(self, book, grid, t):
        volts = grid.l0 + grid.pitch * np.array(t)
        expect, dist = masked_search(volts, grid, book)
        got = decode_one(volts, grid)
        if dist is None or np.sort(dist)[1] - dist.min() > 1e-9:
            assert got == expect
        else:  # a near-tie: rounding may pick either word
            assert abs(sum(got) - int(margin_sense(volts, grid).sum())) == 1
            assert l1(volts, grid, got) <= dist.min() + 1e-9

    @pytest.mark.parametrize("offsets", [
        (0.0, 0.0, 0.0, 0.0),
        (0.5, 0.5, 0.5, 0.5),
        (0.25, -0.375, 0.5, -0.125),
        (-0.46875, 0.4375, 0.0, 0.25),
        (0.125, 0.125, -0.25, -0.25),
    ])
    @pytest.mark.parametrize("clamped", [False, True])
    def test_every_parity_failing_sensed_word(self, book, offsets, clamped):
        grid = DYADIC_GRIDS[0]
        failing = [w for w in product(range(5), repeat=4) if sum(w) % 2 == 1]
        assert len(failing) == 312
        for w in failing:
            t = np.array(w) + np.array(offsets)
            if clamped:  # push edge cells far outside the grid
                t = np.where(np.array(w) == 0, -2.25, np.where(np.array(w) == 4, 6.5, t))
            volts = grid.l0 + grid.pitch * t
            assert tuple(margin_sense(volts, grid).tolist()) == w
            expect, _ = masked_search(volts, grid, book)
            assert decode_one(volts, grid) == expect

    def test_batch_outputs(self, grid):
        volts = grid.levels[np.array([[0, 0, 0, 0], [1, 0, 0, 0], [2, 1, 1, 0]])]
        sensed, decoded, passed = decode(volts, grid)
        assert sensed.tolist() == [[0, 0, 0, 0], [1, 0, 0, 0], [2, 1, 1, 0]]
        assert decoded.tolist() == [[0, 0, 0, 0], [0, 0, 0, 0], [2, 1, 1, 0]]
        assert passed.tolist() == [True, False, True]

    def test_rejects_bad_shape(self, grid):
        with pytest.raises(ValueError):
            decode(np.zeros(4), grid)
        with pytest.raises(ValueError):
            decode(np.zeros((2, 3)), grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_reads(self, grid, bad):
        volts = grid.levels[np.array([[0, 0, 0, 0], [1, 1, 0, 0]])].astype(float)
        volts[1, 2] = bad
        with pytest.raises(ValueError):
            decode(volts, grid)


# even-sum words whose symbols avoid the outer levels 0 and 4
INTERIOR_WORDS = [w for w in product(range(1, 4), repeat=4) if sum(w) % 2 == 0]


class TestReflection:
    """Reflect one cell's read about its written level: ``decode`` then
    reflects that cell's decoded symbol and leaves the other cells and the
    parity flag unchanged, since the even-sum lattice maps to itself and
    sensing and the flip rule commute with the reflection.  It holds when
    every sensed level, before and after, lies in 1..n-2 (an outer level
    clamps, so its mirror image is not sensed) and, ties aside, as margin
    sensing rounds a half-pitch read down and the flip rule breaks cost ties
    in a fixed order."""

    @staticmethod
    def mirror(t, written, cell):
        """Read positions ``t`` (pitch units above l0) with each row's
        ``cell`` reflected about its written level."""
        rows = np.arange(len(t))
        out = t.copy()
        out[rows, cell] = 2 * written[rows, cell] - t[rows, cell]
        return out

    @staticmethod
    def decode_pair(t, mirrored, written, cell, grid):
        """(interior, holds) per row: every sensed level of both reads in
        1..n-2, and the identity holding."""
        rows = np.arange(len(t))
        sensed, decoded, passed = decode(grid.l0 + grid.pitch * t, grid)
        m_sensed, m_decoded, m_passed = decode(grid.l0 + grid.pitch * mirrored, grid)
        expect = decoded.copy()
        expect[rows, cell] = 2 * written[rows, cell] - decoded[rows, cell]
        inner = np.concatenate((sensed, m_sensed), axis=1)
        interior = ((inner >= 1) & (inner <= grid.n_levels - 2)).all(axis=1)
        holds = (m_decoded == expect).all(axis=1) & (m_passed == passed)
        return interior, holds

    def test_on_laplace_reads(self, grid):
        rng = np.random.default_rng(1)
        m = 1 << 16
        written = np.array(INTERIOR_WORDS)[rng.integers(0, len(INTERIOR_WORDS), m)]
        t = written + rng.laplace(0.0, 0.3, (m, 4))
        cell = rng.integers(0, 4, m)
        interior, holds = self.decode_pair(t, self.mirror(t, written, cell), written, cell, grid)
        assert interior.mean() > 0.5 and holds[interior].all()
        # outside the condition it fails: clamping at an outer level breaks it
        assert not holds[~interior].all()

    @settings(max_examples=300, deadline=None)
    @given(
        grid=st.sampled_from(DYADIC_GRIDS),
        written=st.sampled_from(INTERIOR_WORDS),
        ticks=st.lists(st.integers(-320, 320), min_size=4, max_size=4),
        cell=st.integers(0, 3),
    )
    def test_on_exact_lattice(self, grid, written, ticks, cell):
        # reads 1/256 of a pitch apart, so that the reflection is exact
        w = np.array([written])
        t = w + np.array([ticks]) / 256.0
        residual = np.abs(t - np.round(t))
        # ties aside: no half-pitch read, and one cell farthest from its level
        assume((residual < 0.5).all() and (residual == residual.max()).sum() == 1)
        interior, holds = self.decode_pair(t, self.mirror(t, w, [cell]), w, [cell], grid)
        assume(interior[0])
        assert holds[0]


class TestBatchDecode:
    """``decode`` on whole batches is bit-identical to the frozen 0.6.0
    decoder and to decoding row by row, with passing and failing rows mixed."""

    @staticmethod
    def assert_same(got, want):
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("n_levels", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("width, l0", [(0.0, 0.0), (0.25, -3.0), (1.0, 0.7)])
    def test_matches_reference(self, n_levels, width, l0):
        grid = LevelGrid(n_levels, 0.75, width, l0)
        rng = np.random.default_rng(1000 * n_levels + int(8 * width))
        for m in (0, 1, 2, 7, 2048, 2500):
            reads = wild_reads(grid, m, rng)
            got = decode(reads, grid)
            self.assert_same(got, reference_decode(reads, grid))
            if m >= 2048:
                assert 0 < got[2].sum() < m  # passing and failing rows both occur

    @pytest.mark.parametrize("n_levels", [2, 5, 7])
    def test_matches_row_by_row(self, n_levels):
        grid = LevelGrid(n_levels, 0.75, 0.25)
        reads = wild_reads(grid, 600, np.random.default_rng(n_levels))
        sensed, decoded, passed = decode(reads, grid)
        for i in range(len(reads)):
            row = decode(reads[i : i + 1], grid)
            self.assert_same(row, (sensed[i : i + 1], decoded[i : i + 1], passed[i : i + 1]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_reads_beyond_float_range_in_pitches(self):
        # reads whose pitch-unit value overflows to +-inf give NaN move
        # costs; the first such move wins, as under argmin
        grid = LevelGrid(5, 1e-300, 0.0, 0.0)
        reads = np.array([
            [1e10, 1e-300, 0.0, 0.0], [1e-300, 1e10, 0.0, 0.0], [0.0, 0.0, 1e-300, -1e10],
            [1e10, -1e10, 1e-300, 0.0], [3e-300, 1e-300, 2.4e-300, 1e10],
        ])
        self.assert_same(decode(reads, grid), reference_decode(reads, grid))


class TestReadByte:
    def test_zero_noise_roundtrip_all_bytes(self, grid, book):
        for b in range(256):
            volts = grid.l0 + grid.pitch * np.array(encode(b, book), dtype=float)
            out = read_byte(volts, grid, book)
            assert out.parity_passed and out.byte == b
            assert out.sensed == out.word == encode(b, book)

    def test_exact_codeword_recovered(self, grid, book):
        volts = grid.levels[[2, 1, 1, 0]].astype(float)
        out = read_byte(volts, grid, book)
        assert out.word == (2, 1, 1, 0)
        assert l1(volts, grid, out.word) == pytest.approx(0.0, abs=1e-12)

    def test_small_deviations_recover_codeword(self, grid, book):
        rng = RngStream(80)
        for _ in range(300):
            w = book.words[rng.gen.integers(0, len(book.words))]
            volts = grid.l0 + grid.pitch * w + rng.gen.uniform(
                -0.49 * grid.pitch, 0.49 * grid.pitch, 4
            )
            assert read_byte(volts, grid, book).word == tuple(int(x) for x in w)

    def test_type_ii_pattern_reported(self, grid, book):
        # overshoot past a full pitch: senses one level up, corrects two up
        volts = grid.levels[[0, 0, 0, 0]].astype(float)
        volts[0] = grid.l0 + 1.2 * grid.pitch
        out = read_byte(volts, grid, book)
        assert not out.parity_passed
        assert out.sensed == (1, 0, 0, 0)
        assert out.word == (2, 0, 0, 0)
        assert out.byte == book.byte_for_word((2, 0, 0, 0))
        assert l1(volts, grid, out.word) == pytest.approx(0.8 * grid.pitch, abs=1e-12)

    def test_opposite_shift_pair_goes_undetected(self, grid, book):
        # write (1,1,0,0); read lands exactly on the levels of (0,2,0,0):
        # parity passes on the wrong word
        volts = grid.levels[[0, 2, 0, 0]].astype(float)
        out = read_byte(volts, grid, book)
        assert out.parity_passed
        assert out.word == (0, 2, 0, 0)
        assert out.byte != book.byte_for_word((1, 1, 0, 0))

    def test_translation_invariance(self, book):
        g0 = five_level_grid(delta0=1.0, width=0.2, l0=0.0)
        g1 = five_level_grid(delta0=1.0, width=0.2, l0=7.25)
        rng = RngStream(82)
        for _ in range(100):
            volts = rng.gen.uniform(-1.0, g0.levels[-1] + 1.0, 4)
            o0 = read_byte(volts, g0, book)
            o1 = read_byte(volts + 7.25, g1, book)
            assert o0.sensed == o1.sensed
            assert o0.parity_passed == o1.parity_passed
            assert o0.word == o1.word
            assert o0.byte == o1.byte

    def test_unmapped_decode_is_data_not_failure(self, grid, book):
        # the last codeword (4,4,4,4) is outside the 256-byte map
        volts = grid.levels[[4, 4, 4, 4]].astype(float)
        out = read_byte(volts, grid, book)
        assert out.parity_passed and out.word == (4, 4, 4, 4) and out.byte is None

    @pytest.mark.filterwarnings("error")
    def test_far_out_read_senses_top_level(self, grid, book):
        out = read_byte([1e19, 0.0, 0.0, 0.0], grid, book)
        assert out.sensed == out.word == (4, 0, 0, 0)
        assert out.parity_passed and out.byte == book.byte_for_word((4, 0, 0, 0))

    def test_rejects_bad_read_vector(self, grid, book):
        with pytest.raises(ValueError):
            read_byte([0.0, 1.0, np.nan, 2.0], grid, book)
        with pytest.raises(ValueError):
            read_byte([0.0, np.inf, 1.0, 2.0], grid, book)
        with pytest.raises(ValueError):
            read_byte([0.0, 1.0], grid, book)
