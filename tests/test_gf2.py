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

import oracles


def extractor_distance_slow(p, n):
    """Direct enumeration of 2^-n * sum_r |Pr[<X,r>=1] - 1/2|."""
    total = 0.0
    for r in range(2 ** n):
        r_bits = oracles.bit_tuple(r, n)
        pr_one = sum(q for atom, q in p.as_dict().items() if gf2.inner_product(atom, r_bits) == 1)
        total += abs(pr_one - 0.5)
    return total / 2 ** n


def bit_pmf(masses, n):
    return dist.Pmf({oracles.bit_tuple(v, n): q for v, q in masses.items()})


def character_sum_fraction(p, r_bits):
    """E[(-1)^<X,r>] of a Pmf with Fraction masses, exactly."""
    return sum((Fraction(q) * (-1) ** gf2.inner_product(atom, r_bits)
                for atom, q in p.as_dict().items()), Fraction(0))


def random_rational_pmf(rng, n):
    size = int(rng.integers(1, 2 ** n + 1))
    support = rng.choice(2 ** n, size=size, replace=False)
    weights = rng.integers(1, 50, size=size)
    return bit_pmf({int(v): Fraction(int(w), int(weights.sum()))
                    for v, w in zip(support, weights)}, n)


class TestBitOps:
    def test_inner_product(self):
        assert gf2.inner_product((1, 0, 1), (1, 1, 1)) == 0
        assert gf2.inner_product((1, 0, 1), (1, 1, 0)) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gf2.inner_product((1, 0), (1,))


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

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        seed = gf2.sample_hash_seed(rng, 3)
        xs = rng.integers(0, 2, size=(10, 3), dtype=np.uint8)
        batch = gf2.hash_eval_batch(seed, xs, 5)
        for row, x in zip(batch, xs):
            assert tuple(row) == gf2.hash_eval(seed, tuple(int(b) for b in x), 5)

    @pytest.mark.parametrize("n_in,n_out", [(1, None), (4, None), (3, 5), (6, 0)])
    def test_sampled_seed_is_the_rng_bits(self, n_in, n_out):
        # sample_hash_seed skips the constructor's check, so check its output
        seed = gf2.sample_hash_seed(np.random.default_rng(12), n_in, n_out)
        rows_want = 3 * n_in if n_out is None else n_out
        rng = np.random.default_rng(12)
        rows = rng.integers(0, 2, size=(rows_want, n_in), dtype=np.uint8)
        offsets = rng.integers(0, 2, size=rows_want, dtype=np.uint8)
        for got, want in ((seed.rows, rows), (seed.offsets, offsets)):
            assert got.dtype == np.uint8 and got.shape == want.shape
            assert set(got.ravel().tolist()) <= {0, 1}
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("rows,offsets", [([[0, 2]], [0]), ([[0, 1]], [2])])
    def test_constructor_rejects_non_bits(self, rows, offsets):
        with pytest.raises(ValueError, match="bits"):
            gf2.HashSeed(rows, offsets)


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

    def test_walsh_spectrum_matches_fraction_character_sums(self):
        rng = np.random.default_rng(59)
        for n in range(0, 6):
            for _ in range(5):
                p = random_rational_pmf(rng, n)
                w = gf2.walsh_spectrum(p, n)
                want = [character_sum_fraction(p, oracles.bit_tuple(r, n)) for r in range(2 ** n)]
                assert w == pytest.approx([float(v) for v in want], abs=1e-15)

    def test_distance_matches_fraction_oracle(self):
        # 2^-(n+1) sum_r |E[(-1)^<X,r>]|, every term an exact rational
        rng = np.random.default_rng(61)
        for n in range(0, 6):
            for _ in range(5):
                p = random_rational_pmf(rng, n)
                want = sum(abs(character_sum_fraction(p, oracles.bit_tuple(r, n)))
                           for r in range(2 ** n)) / 2 ** (n + 1)
                assert gf2.extractor_distance(p, n) == pytest.approx(float(want), abs=1e-15)


class TestPairwiseIndependence:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_collision_probability_exact(self, n):
        for i in range(3 * n + 1):
            for d in range(1, 2 ** n):
                got = gf2.collision_probability(n, i, oracles.bit_tuple(d, n))
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
            # groups in increasing order of the prefix as an integer, bit 0 most significant
            order = sorted(set(ys), key=dist.index_of)
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
        p = dist.Pmf({oracles.bit_tuple(v, n): 1 / 2 ** n for v in range(2 ** n)})
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
            table = np.array([gf2.inner_product(a, oracles.bit_tuple(r, n)) for r in range(2 ** n)], dtype=np.uint8)
            flips = rng.random(2 ** n) < 0.5 - eps
            table[flips] ^= 1
            predictor = lambda r: int(table[dist.index_of(r)])
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

    @pytest.mark.parametrize("n,eps", [(100_000, 0.5), (6, 1e-5)])
    def test_tables_over_the_limit_rejected_before_any_work(self, n, eps):
        # n = 10^5 needs a 10^10-entry query matrix, eps = 1e-5 2^25 guesses
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state

        def never(queries):
            raise AssertionError("the predictor must not be asked")

        with pytest.raises(ValueError, match="GL tables"):
            gf2.gl_decode(gf2.BatchPredictor(never), n, eps, rng)
        assert rng.bit_generator.state == state

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
    xb = oracles.bit_tuple(x, 8)
    yb = oracles.bit_tuple(y, 8)
    zb = oracles.bit_tuple(x ^ y, 8)
    r = oracles.bit_tuple(0b10110101, 8)
    assert gf2.inner_product(zb, r) == gf2.inner_product(xb, r) ^ gf2.inner_product(yb, r)


def walsh_oracle(vec):
    """The per-block loop butterfly that the reshape transform replaced."""
    h = 1
    n = len(vec)
    while h < n:
        for start in range(0, n, 2 * h):
            a = vec[start : start + h].copy()
            b = vec[start + h : start + 2 * h].copy()
            vec[start : start + h] = a + b
            vec[start + h : start + 2 * h] = a - b
        h *= 2
    return vec


def extractor_oracle(p, n):
    """extractor_distance with one dist.index_of and += per atom."""
    vec = np.zeros(2 ** n, dtype=np.float64)
    for atom, q in p.as_dict().items():
        vec[dist.index_of(atom)] += q
    walsh_oracle(vec)
    return float(np.abs(vec).sum()) / 2 ** (n + 1)


def prefix_groups_oracle(seed, xs, i):
    """One seed's grouping as a call of its own, before seeds were stacked."""
    ys = (xs @ seed.rows[:i].T + seed.offsets[:i]) & 1
    packed = np.packbits(ys, axis=1)
    keys = np.zeros((len(ys), 1 + packed.shape[1]), dtype=np.uint8)
    keys[:, 1:] = packed
    keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    _, first, labels = np.unique(keys, return_index=True, return_inverse=True)
    return labels, ys[first]


def hashed_distance_oracle(seed, xs, probs, m):
    """One seed's hashed distance, before seeds were stacked."""
    if m == 0:
        return 0.0
    labels, _ = prefix_groups_oracle(seed, xs, m)
    mass = np.bincount(labels, weights=probs)
    u = 2.0 ** -m
    return 0.5 * (sum(np.abs(mass - u).tolist(), 0.0) + (1.0 - len(mass) * u))


def gl_oracle(predictor, n, eps, rng, queries=None, list_cap=None):
    """The GL decoder that asked the predictor one query at a time."""
    if queries is None:
        queries = math.ceil(64 * n / eps ** 2)
    if list_cap is None:
        list_cap = math.ceil(4 / eps ** 2)
    t = max(1, int(math.floor(math.log2(list_cap))))
    m = min(2 ** t - 1, max(1, queries // n))
    base = rng.integers(0, 2, size=(t, n), dtype=np.uint8)
    masks = np.arange(1, m + 1, dtype=np.uint64)
    subset = ((masks[:, None] >> np.arange(t - 1, -1, -1, dtype=np.uint64)) & 1).astype(np.uint8)
    refs = (subset @ base) & 1
    answers = np.empty((m, n), dtype=np.uint8)
    for a in range(m):
        for j in range(n):
            q = refs[a].copy()
            q[j] ^= 1
            answers[a, j] = predictor(tuple(int(b) for b in q)) & 1
    guesses = ((np.arange(2 ** t)[:, None] >> np.arange(t - 1, -1, -1)) & 1).astype(np.uint8)
    votes = answers[:, :, None] ^ ((subset @ guesses.T) & 1)[:, None, :]
    candidates = (2 * votes.sum(axis=0) > m).astype(np.uint8).T
    out = []
    for row in candidates:
        key = tuple(int(b) for b in row)
        if key not in out:
            out.append(key)
        if len(out) >= list_cap:
            break
    return out


def random_rows(rng, n, size):
    return rng.integers(0, 2, size=(size, n), dtype=np.uint8)


class TestBatchedKernels:
    """The seed-stacked and one-shot paths against the loops they replaced:
    equal results, not approximately equal ones."""

    def test_walsh_transform_matches_loop_butterfly(self):
        rng = np.random.default_rng(43)
        for n in range(0, 11):
            vec = rng.standard_normal(2 ** n)
            assert np.array_equal(gf2._walsh_transform(vec.copy()),
                                  walsh_oracle(vec.copy()))

    def test_extractor_matches_per_atom_indexing(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            n = int(rng.integers(0, 9))
            size = int(rng.integers(1, 2 ** n + 1))
            support = rng.choice(2 ** n, size=size, replace=False)
            weights = rng.random(size)
            p = bit_pmf(dict(zip((int(s) for s in support), weights / weights.sum())), n)
            assert gf2.extractor_distance(p, n) == extractor_oracle(p, n)

    @pytest.mark.parametrize("atoms", [
        {(0, 2): 1.0},
        {(0, 1): 0.5, (1,): 0.5},
        {((0, 1), (1, 0)): 1.0},
        {(0, 0.5): 1.0},
    ])
    def test_extractor_rejects_atoms_that_are_not_n_bits(self, atoms):
        with pytest.raises(ValueError):
            gf2.extractor_distance(dist.Pmf(atoms), 2)

    def test_stacked_groups_equal_one_seed_groups(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            xs = random_rows(rng, n, int(rng.integers(1, 30)))
            seeds = [gf2.sample_hash_seed(rng, n) for _ in range(int(rng.integers(1, 300)))]
            i = int(rng.integers(0, 3 * n + 1))
            labels, owner, prefixes = gf2.group_prefixes(gf2.hash_eval_stack(seeds, xs, i))
            start = 0
            for s, seed in enumerate(seeds):
                want_labels, want_prefixes = prefix_groups_oracle(seed, xs, i)
                groups = np.flatnonzero(owner == s)
                assert groups.tolist() == list(range(start, start + len(want_prefixes)))
                assert np.array_equal(labels[s] - start, want_labels)
                assert np.array_equal(prefixes[groups], want_prefixes)
                start += len(groups)

    def test_hashed_distances_equal_one_seed_distances(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            xs = np.unique(random_rows(rng, n, int(rng.integers(1, 40))), axis=0)
            probs = rng.random(len(xs)) * rng.choice([1e-3, 1.0, 7.0])
            probs /= probs.sum()
            seeds = [gf2.sample_hash_seed(rng, n) for _ in range(int(rng.integers(1, 200)))]
            for m in range(3 * n + 1):
                got = gf2.hashed_distances(gf2.hash_eval_stack(seeds, xs, m), probs)
                want = [hashed_distance_oracle(seed, xs, probs, m) for seed in seeds]
                assert got.tolist() == want

    def test_wide_prefix_distances_equal_one_seed_distances(self):
        rng = np.random.default_rng(61)
        xs = random_rows(rng, 20, 40)
        probs = rng.random(40)
        probs /= probs.sum()
        seeds = [gf2.sample_hash_seed(rng, 20) for _ in range(25)]
        for m in (59, 60):
            got = gf2.hashed_distances(gf2.hash_eval_stack(seeds, xs, m), probs)
            assert got.tolist() == [hashed_distance_oracle(s, xs, probs, m) for s in seeds]

    def test_stack_checks_widths_and_prefix_length(self):
        rng = np.random.default_rng(67)
        seeds = [gf2.sample_hash_seed(rng, 3), gf2.sample_hash_seed(rng, 3, 5)]
        with pytest.raises(ValueError, match="prefix length 6 outside"):
            gf2.hash_eval_stack(seeds, np.eye(3, dtype=np.uint8), 6)
        with pytest.raises(ValueError):
            gf2.hash_eval_stack(seeds, np.eye(4, dtype=np.uint8), 2)

    @pytest.mark.parametrize("n,eps,noise", [(4, 0.4, 0.1), (6, 0.25, 0.0), (8, 0.2, 0.3)])
    def test_gl_candidates_equal_for_scalar_and_batched_predictors(self, n, eps, noise):
        for trial in range(30):
            rng = np.random.default_rng(trial)
            secret = rng.integers(0, 2, size=n).astype(np.uint8)
            table = np.array([gf2.inner_product(secret, oracles.bit_tuple(r, n))
                              for r in range(2 ** n)], dtype=np.uint8)
            table[rng.random(2 ** n) < noise] ^= 1
            scalar = lambda r: int(table[dist.index_of(r)])
            batched = gf2.BatchPredictor(
                lambda qs: table[dist.index_of(qs)])
            want = gl_oracle(scalar, n, eps, np.random.default_rng(trial + 100))
            for predictor in (scalar, batched):
                got = gf2.gl_decode(predictor, n, eps, np.random.default_rng(trial + 100))
                assert got == want
            assert (gf2.gl_decode_scored(scalar, n, eps, np.random.default_rng(trial))
                    == gf2.gl_decode_scored(batched, n, eps, np.random.default_rng(trial)))

    def test_gl_noise_drawn_per_batch_equals_per_query_draws(self):
        # the cli's noisy predictor draws rng.random(Q) per batch where it
        # drew rng.random() per query; both read one stream
        for q in (1, 7, 48, 1000):
            a, b = np.random.default_rng(q), np.random.default_rng(q)
            assert a.random(q).tolist() == [b.random() for _ in range(q)]
            assert a.random() == b.random()
