"""Tests for GF(2) hashing, extraction, and hardcore-bit decoding.

The extractor sum is cross-checked against a direct loop over all masks, the
hash family against hand-evaluated fixtures, and the decoder against both a
noiseless oracle and a corrupted-table oracle.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclab import dist, gf2


def extractor_distance_slow(p, n):
    """Direct enumeration of 2^-n * sum_r |Pr[<X,r>=1] - 1/2|."""
    total = 0.0
    for r in range(2 ** n):
        r_bits = gf2.bits_from_int(r, n)
        pr_one = sum(q for atom, q in p.as_dict().items() if gf2.inner_product(atom, r_bits) == 1)
        total += abs(pr_one - 0.5)
    return total / 2 ** n


def bit_pmf(masses, n):
    return dist.Pmf({gf2.bits_from_int(v, n): q for v, q in masses.items()})


class TestBitOps:
    def test_xor_and_inner_product(self):
        assert gf2.xor_bits((1, 0, 1), (1, 1, 0)) == (0, 1, 1)
        assert gf2.inner_product((1, 0, 1), (1, 1, 1)) == 0
        assert gf2.inner_product((1, 0, 1), (1, 1, 0)) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gf2.xor_bits((1, 0), (1,))
        with pytest.raises(ValueError):
            gf2.inner_product((1, 0), (1,))

    def test_int_round_trip(self):
        for v in range(16):
            assert gf2.int_from_bits(gf2.bits_from_int(v, 4)) == v


class TestHashSeed:
    def test_fixed_evaluation(self):
        seed = gf2.HashSeed(rows=np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8),
                            offsets=np.array([0, 0, 1], dtype=np.uint8))
        assert gf2.hash_eval(seed, (1, 1), 3) == (1, 1, 1)
        assert gf2.hash_eval(seed, (1, 1), 1) == (1,)
        assert gf2.hash_eval(seed, (1, 1), 0) == ()

    def test_truncation_bounds(self):
        seed = gf2.sample_hash_seed(np.random.default_rng(0), 4)
        assert seed.n_out == 12
        with pytest.raises(ValueError):
            gf2.hash_eval(seed, (0, 0, 0, 0), 13)
        with pytest.raises(ValueError):
            gf2.hash_eval(seed, (0, 0, 0), 1)

    def test_seed_bit_length(self):
        # 3n rows of n bits plus 3n offsets
        n = 5
        seed = gf2.sample_hash_seed(np.random.default_rng(1), n)
        assert gf2.seed_bit_length(n) == 3 * n * (n + 1)
        raw = gf2.seed_to_bytes(seed)
        assert len(raw) == (gf2.seed_bit_length(n) + 7) // 8
        back = gf2.seed_from_bytes(raw, n)
        assert np.array_equal(back.rows, seed.rows)
        assert np.array_equal(back.offsets, seed.offsets)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        seed = gf2.sample_hash_seed(rng, 3)
        xs = rng.integers(0, 2, size=(10, 3), dtype=np.uint8)
        batch = gf2.hash_eval_batch(seed, xs, 5)
        for row, x in zip(batch, xs):
            assert tuple(row) == gf2.hash_eval(seed, tuple(int(b) for b in x), 5)

    def test_toeplitz_structure(self):
        seed = gf2.toeplitz_hash_seed(np.random.default_rng(3), 4)
        rows = seed.rows
        assert rows.shape == (12, 4)
        for i in range(rows.shape[0] - 1):
            for j in range(rows.shape[1] - 1):
                assert rows[i, j] == rows[i + 1, j + 1]


class TestExtractor:
    def test_point_mass_is_half(self):
        p = bit_pmf({5: 1.0}, 3)
        assert gf2.extractor_distance(p, 3) == pytest.approx(0.5, abs=1e-12)

    def test_uniform(self):
        p = bit_pmf({v: 1 / 8 for v in range(8)}, 3)
        assert gf2.extractor_distance(p, 3) == pytest.approx(2 ** -4, abs=1e-12)

    def test_matches_slow_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            support = rng.choice(2 ** n, size=min(2 ** n, 6), replace=False)
            weights = rng.random(len(support))
            weights /= weights.sum()
            p = bit_pmf(dict(zip((int(s) for s in support), weights)), n)
            assert gf2.extractor_distance(p, n) == pytest.approx(extractor_distance_slow(p, n), abs=1e-10)

    def test_bound_holds_on_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            size = int(rng.integers(1, min(2 ** n, 12) + 1))
            support = rng.choice(2 ** n, size=size, replace=False)
            weights = rng.random(size)
            weights /= weights.sum()
            p = bit_pmf(dict(zip((int(s) for s in support), weights)), n)
            k = dist.min_entropy(p)
            assert gf2.extractor_distance(p, n) <= gf2.extractor_bound(k) + 1e-12

    def test_size_guard(self):
        p = bit_pmf({0: 1.0}, 17)
        with pytest.raises(ValueError):
            gf2.extractor_distance(p, 17)


class TestPairwiseIndependence:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_collision_probability_exact(self, n):
        for i in range(3 * n + 1):
            for d in range(1, 2 ** n):
                got = gf2.collision_probability(n, i, gf2.bits_from_int(d, n))
                assert got == Fraction(1, 2 ** i)
                assert isinstance(got, Fraction)

    def test_zero_difference_rejected(self):
        with pytest.raises(ValueError):
            gf2.collision_probability(2, 3, (0, 0))

    def test_range_guard(self):
        with pytest.raises(ValueError):
            gf2.collision_probability(4, 2, (1, 0, 0, 0))


class TestPrefixGroups:
    def test_matches_per_row_hashing(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            xs = rng.integers(0, 2, size=(int(rng.integers(1, 30)), n), dtype=np.uint8)
            seed = gf2.sample_hash_seed(rng, n)
            i = int(rng.integers(0, 3 * n + 1))
            labels, prefixes = gf2.prefix_groups(seed, xs, i)
            ys = [gf2.hash_eval(seed, tuple(int(b) for b in x), i) for x in xs]
            # groups in increasing order of the prefix as a little-endian integer
            order = sorted(set(ys), key=gf2.int_from_bits)
            assert [tuple(int(b) for b in row) for row in prefixes] == order
            assert [order[g] for g in labels] == ys

    def test_zero_prefix_is_one_group(self):
        seed = gf2.sample_hash_seed(np.random.default_rng(4), 3)
        labels, prefixes = gf2.prefix_groups(seed, np.eye(3, dtype=np.uint8), 0)
        assert labels.tolist() == [0, 0, 0]
        assert prefixes.shape == (1, 0)


class TestLhlDistance:
    def test_point_mass_every_seed(self):
        p = dist.Pmf({(0, 1, 1): 1.0})
        mean, radius = gf2.lhl_distance(p, m=2, n_seeds=20, rng=np.random.default_rng(5))
        assert mean == pytest.approx(1 - 2 ** -2, abs=1e-12)
        assert radius == pytest.approx(math.sqrt(math.log(2 / 0.01) / (2 * 20)), abs=1e-12)

    def test_bound_for_flat_source(self):
        # uniform on 2^6 keys, hashed to 2 bits: LHL promises SD <= 2^-(6-2)/2 = 1/4
        n = 6
        p = dist.Pmf({gf2.bits_from_int(v, n): 1 / 2 ** n for v in range(2 ** n)})
        mean, radius = gf2.lhl_distance(p, m=2, n_seeds=200, rng=np.random.default_rng(6))
        assert mean - radius <= 0.25

    def test_long_prefix_builds_no_table(self):
        # a 2^60-entry mass table could not be allocated
        p = dist.Pmf({(1,) * 20: 1.0})
        mean, _ = gf2.lhl_distance(p, m=60, n_seeds=3, rng=np.random.default_rng(7))
        assert mean == 1 - 2 ** -60

    def test_rejects_mixed_lengths(self):
        p = dist.Pmf({(0,): 0.5, (0, 1): 0.5})
        with pytest.raises(ValueError):
            gf2.lhl_distance(p, m=1, n_seeds=5, rng=np.random.default_rng(0))


class TestGlDecode:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(17)
        hits = 0
        for _ in range(30):
            a = tuple(int(b) for b in rng.integers(0, 2, size=8))
            predictor = lambda r: gf2.inner_product(a, r)
            cands = gf2.gl_decode(predictor, 8, 0.25, rng)
            hits += a in cands
        assert hits == 30

    def test_corrupted_table(self):
        rng = np.random.default_rng(19)
        n, eps = 8, 0.15
        hits = 0
        trials = 60
        for _ in range(trials):
            a = tuple(int(b) for b in rng.integers(0, 2, size=n))
            table = np.array([gf2.inner_product(a, gf2.bits_from_int(r, n)) for r in range(2 ** n)], dtype=np.uint8)
            flips = rng.random(2 ** n) < 0.5 - eps
            table[flips] ^= 1
            predictor = lambda r: int(table[gf2.int_from_bits(r)])
            cands = gf2.gl_decode(predictor, n, eps, rng)
            hits += a in cands
        # clean-case guarantee is only 4 eps^2; the decoder does far better
        assert hits / trials >= 4 * eps ** 2

    def test_list_cap_respected(self):
        rng = np.random.default_rng(23)
        predictor = lambda r: 0
        cands = gf2.gl_decode(predictor, 6, 0.3, rng, list_cap=10)
        assert 0 < len(cands) <= 10

    def test_deterministic_under_seed(self):
        predictor = lambda r: r[0] ^ r[1]
        a = gf2.gl_decode(predictor, 5, 0.2, np.random.default_rng(29))
        b = gf2.gl_decode(predictor, 5, 0.2, np.random.default_rng(29))
        assert a == b

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            gf2.gl_decode(lambda r: 0, 4, 0.0, np.random.default_rng(0))

    def test_scored_puts_clean_target_first(self):
        target = (1, 0, 1, 1, 0, 1)
        predictor = lambda r: gf2.inner_product(r, target)
        scored = gf2.gl_decode_scored(predictor, 6, 0.25, np.random.default_rng(31))
        assert scored[0][0] == target
        assert scored[0][1] == 1.0
        assert all(0.0 <= s <= 1.0 for _, s in scored)
        assert [s for _, s in scored] == sorted((s for _, s in scored), reverse=True)

    def test_scored_noise_stays_near_half(self):
        coin = np.random.default_rng(37)
        predictor = lambda r: int(coin.integers(0, 2))
        scored = gf2.gl_decode_scored(predictor, 6, 0.25, np.random.default_rng(41))
        assert all(abs(s - 0.5) < 0.25 for _, s in scored)


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
@settings(max_examples=50, deadline=None)
def test_inner_product_bilinear(x, y):
    xb = gf2.bits_from_int(x, 8)
    yb = gf2.bits_from_int(y, 8)
    zb = gf2.bits_from_int(x ^ y, 8)
    r = gf2.bits_from_int(0b10110101, 8)
    assert gf2.inner_product(zb, r) == gf2.inner_product(xb, r) ^ gf2.inner_product(yb, r)
