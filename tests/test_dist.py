"""Tests for the exact distribution toolkit.

Oracles here are written independently of the library: entropy is recomputed
with mpmath at 50 digits, min-entropy smoothing is cross-checked by bisection
on the trim function, and max-entropy smoothing against exhaustive subset
removal.
"""

import math
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclab import dist

import oracles

ENTROPY_TOL = 1e-9


def entropy_oracle(probs):
    """Shannon entropy via mpmath at 50 significant digits."""
    with mp.workdps(50):
        total = mp.mpf(0)
        for p in probs:
            if p > 0:
                q = mp.mpf(repr(p)) if not isinstance(p, Fraction) else mp.mpf(p.numerator) / p.denominator
                total -= q * mp.log(q) / mp.log(2)
        return float(total)


def water_filling_oracle(probs, eps):
    """Solve sum((p - lam)+) = eps for lam by bisection, return -log2(lam)."""
    def trimmed(lam):
        return sum(max(p - lam, 0.0) for p in probs)

    lo, hi = 0.0, max(probs)
    if eps == 0.0:
        return -math.log2(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if trimmed(mid) > eps:
            lo = mid
        else:
            hi = mid
    return -math.log2(hi)


def greedy_removal_oracle(pmf, eps):
    """Best max sample entropy over every atom subset of mass <= eps."""
    items = pmf.items_sorted()
    best = None
    for mask in range(2 ** len(items)):
        removed = [items[i] for i in range(len(items)) if mask >> i & 1]
        if sum(p for _, p in removed) > eps:
            continue
        kept = [p for i, (_, p) in enumerate(items) if not mask >> i & 1]
        if not kept:
            continue
        value = -math.log2(min(kept))
        if best is None or value < best:
            best = value
    return best


def simple_pmfs():
    weights = st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=10)
    return weights.map(
        lambda ws: dist.Pmf({(i & 1, i >> 1 & 1, i >> 2 & 1, i >> 3 & 1): w / sum(ws) for i, w in enumerate(ws)})
    )


class TestPmfValidation:
    """Constructor contracts."""

    def test_mass_must_be_one(self):
        with pytest.raises(ValueError, match="mass"):
            dist.Pmf({(0,): 0.5, (1,): 0.4})

    def test_subnormal_flag_allows_deficit(self):
        p = dist.Pmf({(0,): 0.5}, subnormal=True)
        assert p.subnormal
        assert p.total() == 0.5

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            dist.Pmf({(0,): 1.2, (1,): -0.2})

    def test_nan_probability_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            dist.Pmf({(0,): math.nan, (1,): 1.0})
        with pytest.raises(ValueError, match="NaN"):
            dist.Pmf({(0,): math.nan})

    def test_nan_probability_rejected_when_subnormal(self):
        with pytest.raises(ValueError, match="NaN"):
            dist.Pmf({(0,): math.nan, (1,): 0.5}, subnormal=True)

    def test_zero_atoms_dropped(self):
        p = dist.Pmf({(0,): 1.0, (1,): 0.0})
        assert p.support() == ((0,),)

    def test_fraction_probabilities_kept_exact(self):
        p = dist.Pmf({(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
        assert p.prob((0,)) == Fraction(1, 3)


class TestEntropy:
    def test_shannon_dyadic(self):
        p = dist.Pmf({(0, 0): 0.5, (0, 1): 0.25, (1, 0): 0.125, (1, 1): 0.125})
        assert abs(dist.shannon_entropy(p) - 1.75) < ENTROPY_TOL

    def test_shannon_matches_extended_precision(self):
        rng_weights = [3, 7, 1, 9, 22, 5, 13]
        total = sum(rng_weights)
        p = dist.Pmf({(i & 1, i >> 1, i >> 2): w / total for i, w in enumerate(rng_weights)})
        assert abs(dist.shannon_entropy(p) - entropy_oracle(p.probs())) < ENTROPY_TOL

    def test_min_max_entropy(self):
        p = dist.Pmf({(0,): 0.5, (1,): 0.25, (2 % 2, 1): 0.25})
        assert abs(dist.min_entropy(p) - 1.0) < ENTROPY_TOL
        assert abs(dist.max_entropy(p) - 2.0) < ENTROPY_TOL

    def test_max_entropy_is_max_sample_entropy_not_support_size(self):
        # 3 atoms but the lightest one pins the value at 3 bits, not log2(3)
        p = dist.Pmf({(0,): 0.5, (1,): 0.375, (0, 0): 0.125})
        assert abs(dist.max_entropy(p) - 3.0) < ENTROPY_TOL

    def test_entropy_rejects_subnormal(self):
        p = dist.Pmf({(0,): 0.5}, subnormal=True)
        with pytest.raises(ValueError):
            dist.shannon_entropy(p)

    @given(simple_pmfs())
    @settings(max_examples=60, deadline=None)
    def test_entropy_sandwich(self, p):
        h = dist.shannon_entropy(p)
        assert dist.min_entropy(p) - ENTROPY_TOL <= h <= dist.max_entropy(p) + ENTROPY_TOL


class TestSmoothMinEntropy:
    def test_frozen_half_half(self):
        p = dist.Pmf({(0,): 0.5, (1,): 0.5})
        assert abs(dist.smooth_min_entropy(p, 0.25) - 1.4150374992788437) < 1e-12

    def test_frozen_point_mass(self):
        p = dist.Pmf({(0,): 1.0})
        assert abs(dist.smooth_min_entropy(p, 0.5) - 1.0) < 1e-12

    def test_eps_zero_is_min_entropy(self):
        p = dist.Pmf({(0,): 0.7, (1,): 0.3})
        assert abs(dist.smooth_min_entropy(p, 0.0) - dist.min_entropy(p)) < 1e-12

    def test_matches_bisection_oracle(self):
        p = dist.Pmf({(0, 0): 0.4, (0, 1): 0.3, (1, 0): 0.2, (1, 1): 0.1})
        for eps in (0.05, 0.1, 0.25, 0.33):
            got = dist.smooth_min_entropy(p, eps)
            want = water_filling_oracle(p.probs(), eps)
            assert abs(got - want) < 1e-9, (eps, got, want)

    def test_invalid_eps(self):
        p = dist.Pmf({(0,): 1.0})
        with pytest.raises(ValueError):
            dist.smooth_min_entropy(p, 1.0)
        with pytest.raises(ValueError):
            dist.smooth_min_entropy(p, -0.1)

    @given(simple_pmfs(), st.floats(min_value=0.0, max_value=0.6), st.floats(min_value=0.0, max_value=0.39))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_eps(self, p, eps, bump):
        lo = dist.smooth_min_entropy(p, eps)
        hi = dist.smooth_min_entropy(p, eps + bump)
        assert hi >= lo - ENTROPY_TOL
        assert lo >= dist.min_entropy(p) - ENTROPY_TOL


class TestWaterFillingEdges:
    """An eps that reaches the total mass leaves no positive level: that is
    bad input, reported as ValueError naming eps and the mass."""

    SHORT = 0.5 - 5e-13  # the pair's mass falls 5e-13 short of one

    def test_pmf_eps_above_float_mass(self):
        p = dist.Pmf({(0,): 0.5, (1,): self.SHORT})
        with pytest.raises(ValueError, match="smoothing parameter .* total mass"):
            dist.smooth_min_entropy(p, 1 - 1e-13)

    def test_spectrum_eps_above_float_mass(self):
        with pytest.raises(ValueError, match="smoothing parameter .* total mass"):
            dist.smooth_min_entropy_spectrum([(0.5, 1), (self.SHORT, 1)], 1 - 1e-13)

    def test_pmf_eps_at_float_mass(self):
        # the level computes to exactly zero, which has no log
        p = dist.Pmf({(0,): 0.5, (1,): self.SHORT})
        with pytest.raises(ValueError, match="no positive water-filling level"):
            dist.smooth_min_entropy(p, 0.5 + self.SHORT)

    def test_spectrum_eps_at_float_mass(self):
        with pytest.raises(ValueError, match="no positive water-filling level"):
            dist.smooth_min_entropy_spectrum([(0.5, 1), (self.SHORT, 1)],
                                             0.5 + self.SHORT)

    @given(simple_pmfs(), st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @settings(max_examples=100, deadline=None)
    def test_level_found_or_value_error(self, p, eps):
        try:
            got = dist.smooth_min_entropy(p, eps)
        except ValueError as exc:
            assert "no positive water-filling level" in str(exc)
            assert eps >= sum(p.probs()) - 1e-12
            return
        if eps < 0.999:
            assert got == pytest.approx(water_filling_oracle(p.probs(), eps), abs=1e-6)
        spectrum = sorted({q: None for q in p.probs()})
        counts = [(q, sum(1 for r in p.probs() if r == q)) for q in spectrum]
        assert dist.smooth_min_entropy_spectrum(counts, eps) == pytest.approx(got, abs=1e-9)


class TestSmoothMaxEntropy:
    def test_frozen_ladder(self):
        p = dist.Pmf({(0, 0): 0.5, (0, 1): 0.25, (1, 0): 0.125, (1, 1): 0.125})
        assert dist.smooth_max_entropy(p, 0.25) == pytest.approx(2.0, abs=1e-12)
        assert dist.smooth_max_entropy(p, 0.125) == pytest.approx(3.0, abs=1e-12)
        assert dist.smooth_max_entropy(p, 0.0) == pytest.approx(3.0, abs=1e-12)

    def test_matches_subset_oracle(self):
        p = dist.Pmf({(0, 0): 0.4, (0, 1): 0.3, (1, 0): 0.17, (1, 1): 0.13})
        for eps in (0.0, 0.1, 0.13, 0.2, 0.31):
            assert dist.smooth_max_entropy(p, eps) == pytest.approx(greedy_removal_oracle(p, eps), abs=1e-9)

    def test_tie_break_is_lexicographic(self):
        # both light atoms weigh 1/8; only one may go at eps = 1/8 and it must be the lexicographically smaller
        p = dist.Pmf({(0,): 0.75, (1, 0): 0.125, (0, 1): 0.125})
        assert dist.smooth_max_entropy(p, 0.125) == pytest.approx(3.0, abs=1e-12)
        kept = oracles.smooth_max_support(p, 0.125)
        assert (0, 1) not in kept and (1, 0) in kept

    @given(simple_pmfs(), st.floats(min_value=0.0, max_value=0.6), st.floats(min_value=0.0, max_value=0.39))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_eps(self, p, eps, bump):
        hi = dist.smooth_max_entropy(p, eps)
        lo = dist.smooth_max_entropy(p, eps + bump)
        assert lo <= hi + ENTROPY_TOL
        assert hi <= dist.max_entropy(p) + ENTROPY_TOL

    def test_float_and_fraction_masses_agree(self):
        # the per-atom running sum 0.05 + 0.05 + 0.1 + 0.1 overshoots 0.3 in
        # floats and spared one atom of 0.1; the exact deletion removes both
        weights = [2, 3, 3, 2, 5, 1, 1, 3]
        atoms = [tuple(int(b) for b in f"{i:03b}") for i in range(8)]
        as_float = dist.Pmf({a: w / 20 for a, w in zip(atoms, weights)})
        as_fraction = dist.Pmf({a: Fraction(w, 20) for a, w in zip(atoms, weights)})
        want = -math.log2(0.15)
        assert dist.smooth_max_entropy(as_float, 0.3) == want
        assert dist.smooth_max_entropy(as_fraction, 0.3) == want
        assert dist.smooth_max_entropy(as_fraction, Fraction(3, 10)) == want
        spectrum = [(0.05, 2), (0.1, 2), (0.15, 3), (0.25, 1)]
        assert dist.smooth_max_entropy_spectrum(spectrum, 0.3) == want

    @given(simple_pmfs(), st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @settings(max_examples=100, deadline=None)
    def test_support_and_entropy_share_one_deletion(self, p, eps):
        try:
            want = dist.smooth_max_entropy(p, eps)
        except ValueError:
            with pytest.raises(ValueError):
                oracles.smooth_max_support(p, eps)
            return
        kept = oracles.smooth_max_support(p, eps)
        assert list(kept) == sorted(kept, key=dist._atom_key)
        assert -math.log2(min(p.prob(a) for a in kept)) == want
        assert sum(p.prob(a) for a in p.support() if a not in kept) <= eps + 1e-12


class TestStatisticalDistance:
    def test_disjoint_supports(self):
        p = dist.Pmf({(0,): 1.0})
        q = dist.Pmf({(1,): 1.0})
        assert oracles.statistical_distance(p, q) == pytest.approx(1.0)

    def test_uniform_vs_point(self):
        u = dist.Pmf({(i & 1, i >> 1): 0.25 for i in range(4)})
        point = dist.Pmf({(0, 0): 1.0})
        assert oracles.statistical_distance(u, point) == pytest.approx(0.75)

    def test_exact_rational(self):
        p = dist.Pmf({(0,): Fraction(2, 3), (1,): Fraction(1, 3)})
        q = dist.Pmf({(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
        sd = oracles.statistical_distance(p, q)
        assert isinstance(sd, Fraction) and sd == Fraction(1, 3)

    @given(simple_pmfs(), simple_pmfs(), simple_pmfs())
    @settings(max_examples=40, deadline=None)
    def test_metric(self, p, q, r):
        dpq = oracles.statistical_distance(p, q)
        assert 0.0 <= dpq <= 1.0 + 1e-12
        assert oracles.statistical_distance(p, p) == pytest.approx(0.0, abs=1e-12)
        assert dpq == pytest.approx(oracles.statistical_distance(q, p), abs=1e-12)
        assert dpq <= oracles.statistical_distance(p, r) + oracles.statistical_distance(r, q) + 1e-12

    @given(simple_pmfs(), simple_pmfs())
    @settings(max_examples=40, deadline=None)
    def test_data_processing(self, p, q):
        collapse = lambda atom: (atom[0],)
        fp = dist.push_forward(p, collapse)
        fq = dist.push_forward(q, collapse)
        assert oracles.statistical_distance(fp, fq) <= oracles.statistical_distance(p, q) + 1e-12


class TestJointAndTransforms:
    def test_condition_and_chain_rule(self):
        j = dist.JointPmf({((0,), (0,)): 0.25, ((1,), (0,)): 0.25, ((0,), (1,)): 0.5})
        cond0 = j.condition_on_puzzle((0,))
        assert cond0.prob((0,)) == pytest.approx(0.5)
        h_joint = dist.shannon_entropy(j.as_pmf())
        h_puzzle = dist.shannon_entropy(j.marginal_puzzles())
        h_cond = sum(
            j.marginal_puzzles().prob(s) * dist.shannon_entropy(j.condition_on_puzzle(s))
            for s in j.marginal_puzzles().support()
        )
        assert h_joint == pytest.approx(h_puzzle + h_cond, abs=ENTROPY_TOL)
        assert h_joint == pytest.approx(1.5, abs=ENTROPY_TOL)

    def test_condition_unknown_puzzle(self):
        j = dist.JointPmf({((0,), (0,)): 1.0})
        with pytest.raises(ValueError):
            j.condition_on_puzzle((1,))

    def test_flat_bits_flattens_any_depth(self):
        assert dist.flat_bits(((0, 1), ((1,), (0, 0)))) == (0, 1, 1, 0, 0)
        with pytest.raises(ValueError):
            dist.flat_bits(((0, 2),))

    def test_product_power(self):
        p = dist.Pmf({(0,): 0.5, (1,): 0.5})
        sq = dist.product_power(p, 2)
        assert len(sq.support()) == 4
        assert dist.shannon_entropy(sq) == pytest.approx(2.0, abs=ENTROPY_TOL)

    def test_product_power_overflow_guard(self):
        p = dist.Pmf({(i & 1, i >> 1, i >> 2, i >> 3, i >> 4): 1 / 32 for i in range(32)})
        with pytest.raises(ValueError, match="atoms"):
            dist.product_power(p, 5)

    def test_product_spectrum_counts(self):
        p = dist.Pmf({(0,): 0.5, (1,): 0.25, (0, 1): 0.25})
        spectrum = dist.product_spectrum(p, 2)
        as_map = {round(v, 12): c for v, c in spectrum}
        assert as_map == {0.25: 1, 0.125: 4, 0.0625: 4}
        assert sum(v * c for v, c in spectrum) == pytest.approx(1.0, abs=1e-12)

    def test_product_spectrum_matches_fraction_product(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            weights = rng.integers(1, 9, size=k).tolist()
            p = dist.Pmf({(i & 1, i >> 1): Fraction(w, sum(weights))
                          for i, w in enumerate(weights)})
            for t in range(1, 5):
                want = Counter(dist.product_power(p, t).as_dict().values())
                got = dist.product_spectrum(p, t)
                assert dict(got) == want
                assert all(isinstance(v, Fraction) for v, _ in got)

    def test_product_spectrum_walk_limit(self):
        # 4 values at power 12 walk C(15, 3) = 455 compositions, the
        # concentration default; 16 values at power 12 walk C(27, 15)
        p4 = dist.Pmf({(i & 1, i >> 1): w / 10 for i, w in enumerate([1, 2, 3, 4])})
        assert sum(c for _, c in dist.product_spectrum(p4, 12)) == 4 ** 12
        p16 = dist.Pmf({tuple(int(b) for b in f"{i:04b}"): (i + 1) / 136 for i in range(16)})
        assert math.comb(27, 15) > dist.SPECTRUM_WALK_LIMIT
        with pytest.raises(ValueError, match="out of range"):
            dist.product_spectrum(p16, 12)
        with pytest.raises(ValueError, match="out of range"):
            dist.product_spectrum(p4, 4096)

    def test_spectrum_entropies_match_materialized(self):
        p = dist.Pmf({(0,): 0.5, (1,): 0.3, (0, 1): 0.2})
        cube = dist.product_power(p, 3)
        spectrum = dist.product_spectrum(p, 3)
        for eps in (0.0, 0.05, 0.2):
            assert dist.smooth_min_entropy_spectrum(spectrum, eps) == pytest.approx(
                dist.smooth_min_entropy(cube, eps), abs=1e-9
            )
            assert dist.smooth_max_entropy_spectrum(spectrum, eps) == pytest.approx(
                dist.smooth_max_entropy(cube, eps), abs=1e-9
            )


class TestBitPacking:
    @staticmethod
    def shifted(v, n):
        # bit j of v's n-bit string is the bit worth 2^(n-1-j)
        return tuple((v >> (n - 1 - j)) & 1 for j in range(n))

    def test_index_of_and_bits_of_are_big_endian_inverses(self):
        for n in range(1, 6):
            index = np.arange(2 ** n)
            bits = dist.bits_of(index, n)
            assert [tuple(row) for row in bits.tolist()] == [self.shifted(v, n) for v in index]
            assert np.array_equal(dist.index_of(bits), index)
            assert [dist.index_of(self.shifted(v, n)) for v in index] == index.tolist()

    def test_scalar_round_trip(self):
        for v in range(16):
            bits = dist.bits_of(v, 4)
            assert bits.shape == (4,) and tuple(bits.tolist()) == self.shifted(v, 4)
            assert dist.index_of(bits) == v and dist.index_of(tuple(bits.tolist())) == v

    def test_tables_are_uint8_rows_and_indices_int64(self):
        for width in range(0, 7):
            table = dist.bits_of(np.arange(2 ** width), width)
            assert table.dtype == np.uint8 and table.shape == (2 ** width, width)
            index = dist.index_of(table)
            assert index.dtype == np.int64 and index.tolist() == list(range(2 ** width))


class TestSerialization:
    def test_atom_hex_matches_bytewise_packing(self):
        """The hex fields against a packer that shifts each bit into an
        int, most significant bit first."""
        def packed(field):
            nbytes = (len(field) + 7) // 8
            chunk = 0
            for i, b in enumerate(field):
                chunk |= b << (nbytes * 8 - 1 - i)
            return f"{len(field):04x}" + chunk.to_bytes(nbytes, "big").hex()

        assert dist.encode_atom((1, 0, 1, 1, 0, 0, 0, 0, 1)) == "0009b080"
        rng = np.random.default_rng(11)
        for _ in range(50):
            fields = tuple(tuple(int(b) for b in rng.integers(0, 2, size=int(rng.integers(0, 20))))
                           for _ in range(int(rng.integers(1, 4))))
            atom = fields[0] if len(fields) == 1 else fields
            assert dist.encode_atom(atom) == "".join(map(packed, fields))

    def test_non_bit_atom_rejected(self):
        with pytest.raises(TypeError):
            dist.encode_atom((0, 2))
