"""Tests for the hash-truncation distinguishing pair.

The per-seed statistical distances have a closed form over the observed
hash values; the oracle here recomputes them the long way, by pushing the
source through the hash and materializing the uniform reference.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclab import dist, efi, gf2, puzzles
from qclab._mc import hoeffding_radius

import oracles


def flat_bits(atom):
    out = []
    for field in atom:
        if isinstance(field, tuple):
            out.extend(flat_bits(field))
        else:
            out.append(int(field))
    return tuple(out)


def uniform_pmf(s):
    return dist.Pmf({oracles.bit_tuple(v, s): Fraction(1, 2 ** s)
                     for v in range(2 ** s)})


def sd_oracle(pmf, seed, s):
    """Materialized push-forward against the materialized uniform reference."""
    if s == 0:
        return 0.0
    pushed = dist.push_forward(pmf, lambda a: gf2.hash_eval(seed, flat_bits(a), s))
    return float(oracles.statistical_distance(pushed, uniform_pmf(s)))


def coin(p_one):
    return dist.Pmf({(0,): 1 - p_one, (1,): p_one})


LADDER = dist.Pmf({(0, 0, 0): Fraction(1, 2), (0, 0, 1): Fraction(1, 4),
                   (0, 1, 0): Fraction(1, 8), (0, 1, 1): Fraction(1, 8)})
UNIFORM_16 = dist.Pmf({oracles.bit_tuple(v, 4): Fraction(1, 16) for v in range(16)})
UNIFORM_64 = dist.Pmf({oracles.bit_tuple(v, 6): Fraction(1, 64) for v in range(64)})
HEAVY = dist.Pmf({oracles.bit_tuple(v, 4): Fraction(3, 10) if v == 0
                  else Fraction(7, 10) / 15 for v in range(16)})


class TestEfiParams:
    """efi.truncation_for, next to the crossover it rounds up."""

    def test_from_generator_uniform(self):
        g = dist.Pmf({oracles.bit_tuple(v, 3): Fraction(1, 8) for v in range(8)})
        assert efi.crossover_truncation(g, gap_inst=4.0) == pytest.approx(5.0)
        assert efi.truncation_for(g, gap_inst=4.0) == 5

    def test_from_generator_forgives_noise_up_to_efi_tol(self):
        g = dist.Pmf({oracles.bit_tuple(v, 3): Fraction(1, 8) for v in range(8)})
        for past, truncation in ((dist.ENTROPY_TOL / 10, 5), (dist.ENTROPY_TOL * 10, 6)):
            assert efi.truncation_for(g, gap_inst=4.0 + 2 * past) == truncation

    def test_from_generator_point_mass(self):
        g = dist.Pmf({(1, 1): 1.0})
        assert efi.crossover_truncation(g, gap_inst=0.0) == 0.0
        assert efi.truncation_for(g, gap_inst=0.0) == 0


class TestCrossoverTruncation:
    def test_uniform_with_gap(self):
        g = dist.Pmf({oracles.bit_tuple(v, 3): Fraction(1, 8) for v in range(8)})
        assert efi.crossover_truncation(g, 4.0) == pytest.approx(5.0)

    def test_point_mass_zero_gap(self):
        assert efi.crossover_truncation(dist.Pmf({(0, 1): 1.0}), 0.0) == 0.0

    def test_product_fixture_matches_enumeration(self):
        # worst-case sample entropy of the product, found by brute force
        base = coin(0.75)
        prod = dist.product_power(base, 3)
        worst = max(
            -sum(math.log2(float(base.prob(a))) for a in combo)
            for combo in product(base.support(), repeat=3))
        assert efi.crossover_truncation(prod, 2.0) == pytest.approx(worst + 1.0)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            efi.crossover_truncation(coin(0.5), -1.0)


class TestEfiSample:
    def test_zero_truncation_empty_output_both_branches(self):
        rng = np.random.default_rng(3)
        for b in (0, 1):
            h, y = efi.efi_sample(LADDER, 0, b, rng)
            assert y == ()
            assert h[0].shape == (1, 9, 3)

    def test_reference_branch_is_uniform(self):
        rng = np.random.default_rng(5)
        counts = {}
        trials = 3000
        for _ in range(trials):
            _, y = efi.efi_sample(LADDER, 2, 1, rng)
            counts[y] = counts.get(y, 0) + 1
        assert set(counts) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for c in counts.values():
            assert abs(c / trials - 0.25) < 0.06

    def test_point_mass_output_follows_hash(self):
        k0 = (1, 0, 1, 1)
        pm = dist.Pmf({k0: 1.0})
        rng = np.random.default_rng(7)
        for _ in range(5):
            h, y = efi.efi_sample(pm, 4, 0, rng)
            assert y == gf2.hash_eval(h, k0, 4)

    def test_commit_branch_lands_in_hashed_support(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            h, y = efi.efi_sample(LADDER, 3, 0, rng)
            image = {gf2.hash_eval(h, k, 3) for k in LADDER.support()}
            assert y in image

    def test_fresh_seed_per_draw(self):
        rng = np.random.default_rng(13)
        h1, _ = efi.efi_sample(LADDER, 2, 1, rng)
        h2, _ = efi.efi_sample(LADDER, 2, 1, rng)
        assert not np.array_equal(h1[0], h2[0])

    def test_truncation_beyond_hash_rejected(self):
        with pytest.raises(ValueError):
            efi.efi_sample(LADDER, 10, 0, np.random.default_rng(0))

    def test_branch_flag_validated(self):
        with pytest.raises(ValueError):
            efi.efi_sample(LADDER, 2, 2, np.random.default_rng(0))


class TestHashTruncationSd:
    @pytest.mark.parametrize("pmf", [LADDER, UNIFORM_16])
    def test_matches_push_forward_oracle(self, pmf):
        rng = np.random.default_rng(19)
        width = len(pmf.support()[0])
        for _ in range(8):
            seed = gf2.sample_hash_seed(rng, width)
            for s in (1, 2, 3):
                (got,) = efi.hash_truncation_sd(pmf, seed, s)
                assert got == pytest.approx(sd_oracle(pmf, seed, s), abs=1e-12)

    def test_point_mass_value_exact(self):
        pm = dist.Pmf({(0, 1, 1): 1.0})
        rng = np.random.default_rng(23)
        for _ in range(6):
            seed = gf2.sample_hash_seed(rng, 3)
            assert efi.hash_truncation_sd(pm, seed, 4).tolist() == [1 - 2 ** -4]

    def test_zero_truncation_is_zero(self):
        seed = gf2.sample_hash_seed(np.random.default_rng(29), 3)
        assert efi.hash_truncation_sd(LADDER, seed, 0).tolist() == [0.0]

    def test_support_counting_floor(self):
        # at s = H_max + 3 every seed is within 2^-3 of full distance
        rng = np.random.default_rng(31)
        for _ in range(10):
            seed = gf2.sample_hash_seed(rng, 4)
            (sd,) = efi.hash_truncation_sd(UNIFORM_16, seed, 7)
            assert sd >= 1 - 16 * 2 ** -7 - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.lists(st.integers(min_value=1, max_value=32), min_size=1,
                         max_size=8),
        seed_val=st.integers(min_value=0, max_value=2 ** 32 - 1),
    )
    def test_appending_bits_never_decreases_distance(self, weights, seed_val):
        total = sum(weights)
        pmf = dist.Pmf({oracles.bit_tuple(v, 3): Fraction(w, total)
                        for v, w in enumerate(weights)})
        seed = gf2.sample_hash_seed(np.random.default_rng(seed_val), 3)
        sds = [efi.hash_truncation_sd(pmf, seed, s)[0] for s in range(10)]
        for lo, hi in zip(sds, sds[1:]):
            assert hi >= lo - 1e-12

    def test_nested_product_atoms_flatten(self):
        prod = dist.product_power(coin(0.75), 2)
        rng = np.random.default_rng(37)
        for _ in range(5):
            seed = gf2.sample_hash_seed(rng, 2)
            (got,) = efi.hash_truncation_sd(prod, seed, 2)
            assert got == pytest.approx(sd_oracle(prod, seed, 2), abs=1e-12)


def indexed_pmf(weights):
    total = sum(weights)
    width = max(1, (len(weights) - 1).bit_length())
    return dist.Pmf({oracles.bit_tuple(j, width): Fraction(w, total)
                     for j, w in enumerate(weights) if w})


def dyadic_sds(pmf, seed):
    """Per prefix length m = 0..n_out, the sum over hash groups g of
    max(0, M_g / D - 2^-m) in Fractions: D the masses' common denominator,
    M_g the integer mass of the keys whose first m hash bits are g.  No
    group order enters the sum."""
    masses = {atom: Fraction(q) for atom, q in pmf.as_dict().items()}
    denom = math.lcm(*(q.denominator for q in masses.values()))
    n_out = seed[0].shape[1]
    hashes = {atom: gf2.hash_eval(seed, flat_bits(atom), n_out) for atom in masses}
    out = []
    for m in range(n_out + 1):
        groups = {}
        for atom, q in masses.items():
            groups[hashes[atom][:m]] = groups.get(hashes[atom][:m], 0) + int(q * denom)
        out.append(sum((max(Fraction(0), Fraction(mg, denom) - Fraction(1, 2 ** m))
                        for mg in groups.values()), Fraction(0)))
    return out


class TestExactPerSeedOnDyadicFixtures:
    """With dyadic masses every float step of the per-seed distance is
    exact, so it equals the Fraction sum for every seed and prefix length,
    whatever order the groups are summed in."""

    @pytest.mark.parametrize("pmf", [
        LADDER, UNIFORM_16, UNIFORM_64,
        indexed_pmf([8, 4, 2, 1, 1]),
        indexed_pmf([3, 5, 7, 1, 2, 9, 1, 4]),
        dist.product_power(coin(Fraction(1, 4)), 3),
        *(puzzles.tabulated_puzzles()[name].marginal_keys()
          for name in ("flat", "geometric")),
    ], ids=["ladder", "uniform16", "uniform64", "indexed16", "indexed32", "product",
            "flat-keys", "geometric-keys"])
    def test_hashed_distances_equal_fraction_sum(self, pmf):
        xs, probs = gf2.support_matrix(pmf)
        rng = np.random.default_rng(113)
        seeds = gf2.sample_hash_seed(rng, xs.shape[1], count=40)
        want = [dyadic_sds(pmf, seed) for seed in oracles.one_seed_pairs(seeds)]
        for m in range(3 * xs.shape[1] + 1):
            got = gf2.hashed_distances(gf2.hash_eval_batch(seeds, xs, m), probs)
            assert [Fraction(v) for v in got.tolist()] == [w[m] for w in want]
            assert ([Fraction(v) for v in efi.hash_truncation_sd(pmf, seeds, m).tolist()]
                    == [w[m] for w in want])


class TestEfiDistance:
    """The seed-averaged distance at one truncation: one row of
    efi.distance_sweep."""

    def test_point_mass_exact_mean(self):
        pm = dist.Pmf({(1, 1, 0): 1.0})
        (est,), radius = efi.distance_sweep(pm, [4], 30, np.random.default_rng(41))
        assert est == 1 - 2 ** -4
        assert radius == pytest.approx(math.sqrt(math.log(2 / 0.01) / 60), abs=1e-12)

    def test_short_truncation_stays_close(self):
        # s two bits under min-entropy minus 2c' with c' = 2
        assert 2 <= dist.min_entropy(UNIFORM_64) - 4
        (est,), radius = efi.distance_sweep(UNIFORM_64, [2], 300, np.random.default_rng(43))
        assert est <= 2 ** -2 + radius

    def test_short_truncation_with_smoothing(self):
        eps = 0.1
        h = dist.smooth_min_entropy(HEAVY, eps)
        s = math.floor(h - 1.0)  # c' = 1/2
        assert s >= 1
        (est,), radius = efi.distance_sweep(HEAVY, [s], 300, np.random.default_rng(47))
        assert est <= 2 ** -0.5 + eps + radius

    def test_long_truncation_nearly_full_distance(self):
        (est,), radius = efi.distance_sweep(UNIFORM_16, [10], 200, np.random.default_rng(53))
        assert est >= 1 - 2 ** -6 - 1e-12
        assert est >= 1 - 2 ** -6 - radius

    @pytest.mark.parametrize(
        "pmf,s_low,s_high",
        [
            (UNIFORM_16, 1, 10),
            (dist.Pmf({(0, 0): 0.75, (0, 1): 0.25}), 0, 6),
        ],
    )
    def test_crossover_witness(self, pmf, s_low, s_high):
        (lo,), lo_rad = efi.distance_sweep(pmf, [s_low], 2000, np.random.default_rng(59))
        (hi,), hi_rad = efi.distance_sweep(pmf, [s_high], 2000, np.random.default_rng(61))
        assert lo + lo_rad < 0.1
        assert hi - hi_rad > 0.9

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            efi.distance_sweep(LADDER, [2], 0, np.random.default_rng(0))

    @pytest.mark.parametrize("pmf,s", [(HEAVY, 5), (dist.product_power(coin(0.75), 2), 3)])
    def test_equals_lhl_distance_on_same_stream(self, pmf, s):
        # the leftover-hash distance seed by seed: the same 40 seeds off the
        # same stream, each scored by hash_truncation_sd
        got = efi.distance_sweep(pmf, [s], 40, np.random.default_rng(89))
        rng = np.random.default_rng(89)
        width = gf2.support_matrix(pmf)[0].shape[1]
        values = [efi.hash_truncation_sd(pmf, gf2.sample_hash_seed(rng, width), s)[0]
                  for _ in range(40)]
        assert got == ([float(np.mean(values))], hoeffding_radius(40))

    def test_deterministic_under_seed(self):
        a = efi.distance_sweep(LADDER, [3], 50, np.random.default_rng(67))
        b = efi.distance_sweep(LADDER, [3], 50, np.random.default_rng(67))
        assert a == b


class TestDistanceSweep:
    def test_one_estimate_per_truncation(self):
        ests, radius = efi.distance_sweep(LADDER, (0, 1, 2, 3), 40, np.random.default_rng(71))
        assert len(ests) == 4
        assert all(type(est) is float and 0.0 <= est <= 1.0 for est in ests)
        assert radius > 0

    def test_shared_seed_pool_makes_column_monotone(self):
        ests, _ = efi.distance_sweep(UNIFORM_16, range(9), 100, np.random.default_rng(73))
        for lo, hi in zip(ests, ests[1:]):
            assert hi >= lo - 1e-12

    def test_radius_constant_across_rows(self):
        # every row shares the seed pool, so one radius serves them all
        _, radius = efi.distance_sweep(LADDER, (1, 2, 3), 50, np.random.default_rng(79))
        assert radius == hoeffding_radius(50)

    def test_deterministic(self):
        a = efi.distance_sweep(LADDER, (0, 2, 4), 30, np.random.default_rng(83))
        b = efi.distance_sweep(LADDER, (0, 2, 4), 30, np.random.default_rng(83))
        assert a == b

    def test_rejects_overlong_truncation(self):
        with pytest.raises(ValueError):
            efi.distance_sweep(UNIFORM_16, (1, 13), 10, np.random.default_rng(0))


def sweep_oracle(g0, truncations, seed_samples, rng):
    """distance_sweep with one distance call per seed per row."""
    xs, _ = gf2.support_matrix(g0)
    seeds = [gf2.sample_hash_seed(rng, xs.shape[1]) for _ in range(seed_samples)]
    ests = [float(np.mean([efi.hash_truncation_sd(g0, seed, s)[0] for seed in seeds]))
            for s in truncations]
    return ests, hoeffding_radius(seed_samples)


class TestSweepMatchesPerSeedLoop:
    """One hash per seed at the longest truncation, grouped per row, gives
    the per-seed loop's estimates float for float."""

    @pytest.mark.parametrize("weights", [
        [1] * 16, [8, 4, 2, 1, 1], [3, 5, 7, 1, 2, 9], [1, 0, 0, 5, 11, 2, 0, 13],
    ])
    @pytest.mark.parametrize("seed_samples", [1, 10, 200])
    def test_dyadic_and_non_dyadic_weights(self, weights, seed_samples):
        pmf = indexed_pmf(weights)
        width = len(pmf.support()[0])
        rows = list(range(3 * width + 1))
        for stream in (0, 7):
            got = efi.distance_sweep(pmf, rows, seed_samples, np.random.default_rng(stream))
            assert got == sweep_oracle(pmf, rows, seed_samples, np.random.default_rng(stream))

    def test_unsorted_and_repeated_rows(self):
        rows = [5, 0, 3, 3, 12, 1]
        got = efi.distance_sweep(HEAVY, rows, 30, np.random.default_rng(97))
        assert got == sweep_oracle(HEAVY, rows, 30, np.random.default_rng(97))

    def test_sixty_bit_rows(self):
        rng = np.random.default_rng(101)
        atoms = {tuple(int(b) for b in rng.integers(0, 2, size=20)): float(w)
                 for w in rng.random(12)}
        total = sum(atoms.values())
        pmf = dist.Pmf({a: w / total for a, w in atoms.items()})
        rows = [0, 1, 30, 59, 60]
        got = efi.distance_sweep(pmf, rows, 8, np.random.default_rng(103))
        assert got == sweep_oracle(pmf, rows, 8, np.random.default_rng(103))
