"""Tests for the entropy-slicing generators and their gap estimates.

Expected values come from closed forms where they exist (point masses,
uniform sources, the 1/(3n)-per-instance accounting of an all-point-mass
puzzle) and from independent enumeration oracles built on dist otherwise.
"""

import json
import math
from fractions import Fraction
from itertools import product

import mpmath as mp
import numpy as np
import pytest

from qclab import dist, gf2, pseudoentropy, puzzles
from qclab._mc import hoeffding_radius

import oracles


def bucket_table(pmf, levels):
    """Direct per-bucket masses plus overflow tail, floats."""
    masses = [0.0] * levels
    tail = 0.0
    for atom, p in pmf.as_dict().items():
        h = -math.log2(float(p))
        j = int(math.floor(h + 1e-9))
        if j >= levels:
            tail += float(p)
        else:
            masses[j] += float(p)
    return masses, tail


def filter_oracle(k_s, analysis, density_floor, seed, y):
    """Slice filter by direct enumeration: hash every key on its own and sum
    the conditional and flat-slice masses and the light-key count at y."""
    cond = 0
    flat = 0
    light = 0
    for atom, p in k_s.as_dict().items():
        if gf2.hash_eval(seed, atom, analysis.i_s) != tuple(y):
            continue
        cond += p
        if atom in analysis.g_s:
            flat += p
        if atom in analysis.a_s:
            light += 1
    if cond == 0 or light > 1:
        return False
    return flat / cond >= density_floor


def pair_oracle(k_s, seed, i, r, analysis, density_floor):
    """Rebuild both last-bit conditionals by assembling full (y, bit) joints."""
    g_keys = set(analysis.g_s)
    mass0 = {}
    mass1 = {}
    for k, p in k_s.as_dict().items():
        y = gf2.hash_eval(seed, k, i)
        bit = (gf2.inner_product(k, r),)
        mass0[(y, bit)] = mass0.get((y, bit), Fraction(0)) + p
        fires = (i == analysis.i_s and k in g_keys
                 and filter_oracle(k_s, analysis, density_floor, seed, y))
        if fires:
            for b in ((0,), (1,)):
                mass1[(y, b)] = mass1.get((y, b), Fraction(0)) + p / 2
        else:
            mass1[(y, bit)] = mass1.get((y, bit), Fraction(0)) + p
    out = {}
    ys = {y for y, _ in mass0}
    for y in ys:
        w = sum(p for (yy, _), p in mass0.items() if yy == y)
        p0 = {b: p / w for (yy, b), p in mass0.items() if yy == y}
        p1 = {b: p / w for (yy, b), p in mass1.items() if yy == y}
        out[y] = (dist.Pmf(p0), dist.Pmf(p1))
    return out


def core_gap_oracle(x):
    """Joint-entropy difference via two materialized (r, bit) distributions."""
    n = len(next(iter(x.support())))
    scale = Fraction(1, 2 ** n)
    a0 = {}
    for ridx in range(2 ** n):
        r = oracles.bit_tuple(ridx, n)
        a1_atomp = scale / 2
        for bit in ((0,), (1,)):
            a0.setdefault((r, bit), Fraction(0))
        for atom, p in x.as_dict().items():
            bit = (gf2.inner_product(atom, r),)
            a0[(r, bit)] += Fraction(p) * scale
    a1 = {atom: scale / 2 for atom in a0}
    pm0 = dist.Pmf({a: p for a, p in a0.items() if p > 0})
    pm1 = dist.Pmf(a1)
    return dist.shannon_entropy(pm1) - dist.shannon_entropy(pm0)


def parity_fold_gap(x):
    """core_lemma_gap before the Walsh transform: Pr[<x, r> = 1] from the
    parity of r & x, folded down from 16-bit words, in chunks of masks."""
    support = x.support()
    width = len(support[0])
    ints = np.array([dist.index_of(a) for a in support], dtype=np.uint32)
    probs = np.array([float(x.prob(a)) for a in support])
    total = 0.0
    r_count = 1 << width
    chunk = max(1, min(r_count, (1 << 22) // max(1, len(ints))))
    for start in range(0, r_count, chunk):
        r = np.arange(start, min(start + chunk, r_count), dtype=np.uint32)
        v = np.bitwise_and(r[:, None], ints[None, :])
        for shift in (8, 4, 2, 1):
            v ^= v >> shift
        total += float(np.sum(pseudoentropy._h2((v & 1).astype(np.uint8) @ probs)))
    return 1.0 - total / r_count


def core_gap_fraction_oracle(x):
    """1 - mean_r h(Pr[<X, r> = 1]) with each probability an exact Fraction
    and the binary entropy taken at 50 digits."""
    n = len(next(iter(x.support())))
    total = mp.mpf(0)
    with mp.workdps(50):
        for ridx in range(2 ** n):
            r = oracles.bit_tuple(ridx, n)
            p = sum((Fraction(q) for a, q in x.as_dict().items() if gf2.inner_product(a, r)),
                    Fraction(0))
            for q in (p, 1 - p):
                if q:
                    q = mp.mpf(q.numerator) / q.denominator
                    total -= q * mp.log(q, 2)
        return float(1 - total / 2 ** n)


def flat_slice_loop(k_s, params):
    """find_flat_slice as it kept one list and one running sum per level."""
    buckets = [[] for _ in range(params.levels)]
    masses = [0.0] * params.levels
    for atom, p in k_s.items_sorted():
        j = int(math.floor(-math.log2(float(p)) + 1e-9))
        if j < params.levels:
            buckets[j].append(atom)
            masses[j] += float(p)
    j_s = 0
    for j in range(1, params.levels):
        if masses[j] > masses[j_s]:
            j_s = j
    return j_s, tuple(buckets[j_s]), masses[j_s]


def slicing_oracle(a, b0, b1):
    """Joint-entropy difference computed from materialized (a, b) joints."""
    j0 = {}
    j1 = {}
    for atom, p in a.as_dict().items():
        for b, q in b0[atom].as_dict().items():
            j0[(atom, b)] = Fraction(p) * Fraction(q)
        for b, q in b1[atom].as_dict().items():
            j1[(atom, b)] = Fraction(p) * Fraction(q)
    return dist.shannon_entropy(dist.Pmf(j1)) - dist.shannon_entropy(dist.Pmf(j0))


def geometric_keys():
    return puzzles.tabulated_puzzles()["geometric"].condition_on_puzzle((0,))


def identity_joint(bits=2):
    # every instance pins its key: s = k, uniform over 2^bits pairs
    atoms = {}
    for idx in range(2 ** bits):
        k = oracles.bit_tuple(idx, bits)
        atoms[(k, k)] = Fraction(1, 2 ** bits)
    return dist.JointPmf(atoms)


def coin(p_one):
    return dist.Pmf({(0,): 1 - p_one, (1,): p_one})


P3 = pseudoentropy.SliceParams.default(3)


class TestSliceParams:
    def test_defaults_for_three_bit_keys(self):
        assert (P3.levels, P3.pad, P3.slack) == (6, 4, 3)
        assert P3.density_floor == pytest.approx(1 / 18)
        assert P3.i_max == 9

    def test_defaults_for_two_bit_keys(self):
        p = pseudoentropy.SliceParams.default(2)
        assert (p.levels, p.pad, p.slack, p.i_max) == (4, 3, 2, 6)
        assert p.density_floor == pytest.approx(1 / 12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slack": 4},  # slack must stay below pad
            {"pad": 0},
            {"density_floor": 0.0},
            {"density_floor": -0.1},
            {"density_floor": 1.5},
            {"levels": 0},
            {"i_max": 0},
            {"slack": 0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = dict(levels=6, pad=4, slack=3, density_floor=1 / 18, i_max=9)
        base.update(kwargs)
        with pytest.raises(ValueError):
            pseudoentropy.SliceParams(**base)

    def test_disabled_trigger_floor_is_allowed(self):
        p = pseudoentropy.SliceParams(levels=6, pad=4, slack=3,
                                      density_floor=math.inf, i_max=9)
        assert p.density_floor == math.inf

    def test_describe_pairs_formula_with_value(self):
        d = P3.describe()
        assert set(d) == {"levels", "pad", "slack", "density_floor", "i_max"}
        for field in d.values():
            assert set(field) == {"asymptotic", "value"}
        assert d["levels"]["value"] == 6
        assert "log2" in d["pad"]["asymptotic"]


class TestFindFlatSlice:
    def test_uniform_support_is_one_bucket(self):
        p = dist.Pmf({oracles.bit_tuple(v, 3): Fraction(1, 8) for v in range(8)})
        j, g = pseudoentropy.find_flat_slice(p, P3)
        assert j == 3
        assert set(g) == set(p.support())

    def test_dyadic_ladder(self):
        # surprisals 1, 2, 3, 3: disjoint buckets give C1 = {the 1/2 atom}
        p = dist.Pmf({(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 4),
                      (1, 0): Fraction(1, 8), (1, 1): Fraction(1, 8)})
        j, g = pseudoentropy.find_flat_slice(p, pseudoentropy.SliceParams.default(2))
        assert j == 1
        assert g == ((0, 0),)

    def test_tie_prefers_smaller_index(self):
        # buckets 1 and 2 both hold mass 1/2
        p = dist.Pmf({(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 4),
                      (1, 0): Fraction(1, 4)})
        j, g = pseudoentropy.find_flat_slice(p, pseudoentropy.SliceParams.default(2))
        assert j == 1
        assert g == ((0, 0),)

    def test_matches_direct_bucket_table(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = rng.random(6) + 1e-3
            w /= w.sum()
            p = dist.Pmf({oracles.bit_tuple(v, 3): float(x)
                          for v, x in enumerate(w)})
            masses, tail = bucket_table(p, P3.levels)
            j, g = pseudoentropy.find_flat_slice(p, P3)
            assert masses[j] == pytest.approx(max(masses), abs=1e-12)
            got = sum(float(p.prob(k)) for k in g)
            assert got == pytest.approx(masses[j], abs=1e-12)
            assert sum(masses) + tail == pytest.approx(1.0, abs=1e-12)
            assert got >= (1 - tail) / P3.levels - 1e-12

    def test_geometric_meets_pigeonhole_floor(self):
        j, g = pseudoentropy.find_flat_slice(geometric_keys(), P3)
        assert j == 1
        mass = sum(float(geometric_keys().prob(k)) for k in g)
        assert mass == pytest.approx(0.5)
        assert mass >= 1 / P3.levels

    def test_deep_atoms_count_as_tail(self):
        p = dist.Pmf({(0,) * 3: 1 - 2 ** -10, (1, 1, 1): 2 ** -10})
        j, g = pseudoentropy.find_flat_slice(p, P3)
        assert j == 0
        assert g == ((0, 0, 0),)

    def test_empty_support_rejected(self):
        # a Pmf with no atoms has mass 0, so no key distribution is empty
        with pytest.raises(ValueError, match="mass"):
            dist.Pmf({})

    @pytest.mark.parametrize("levels", [1, 2, 3, 6, 12])
    def test_matches_per_level_loop(self, levels):
        rng = np.random.default_rng(levels)
        params = slice_params(3, levels=levels)
        for _ in range(40):
            w = rng.random(8) ** 6 + 1e-6 * (rng.random(8) < 0.3)
            p = dist.Pmf({oracles.bit_tuple(v, 3): float(x) for v, x in enumerate(w / w.sum())})
            j, g = pseudoentropy.find_flat_slice(p, params)
            want_j, want_g, want_mass = flat_slice_loop(p, params)
            assert (j, g) == (want_j, want_g)
            assert math.fsum(float(p.prob(k)) for k in g) == pytest.approx(want_mass, abs=1e-15)

    def test_levels_far_beyond_the_support_cost_nothing(self):
        # only occupied buckets are summed: 10^8 levels select what 8 do
        huge = pseudoentropy.find_flat_slice(geometric_keys(), slice_params(3, levels=10 ** 8))
        assert huge == pseudoentropy.find_flat_slice(geometric_keys(), slice_params(3, levels=8))


class TestSliceAnalysis:
    def test_geometric_shape(self):
        a = pseudoentropy.slice_analysis(geometric_keys(), P3)
        assert a.j_s == 1
        assert a.i_s == 5
        assert set(a.g_s) <= set(a.a_s) <= set(geometric_keys().support())
        for k in a.g_s:
            h = -math.log2(geometric_keys().prob(k))
            assert a.j_s <= h <= a.j_s + 1

    def test_point_mass_filter_accepts_every_seed(self):
        k0 = (1, 0, 1)
        p = dist.Pmf({k0: 1.0})
        a = pseudoentropy.slice_analysis(p, P3)
        rng = np.random.default_rng(11)
        for _ in range(10):
            seed = gf2.sample_hash_seed(rng, 3)
            y = gf2.hash_eval(seed, k0, a.i_s)
            assert a.f_s(seed, [y]).tolist() == [True]

    def test_prefix_overrun_rejected(self):
        params = pseudoentropy.SliceParams(levels=6, pad=9, slack=3,
                                           density_floor=1 / 18, i_max=9)
        with pytest.raises(ValueError, match="rejected"):
            pseudoentropy.slice_analysis(geometric_keys(), params)

    def test_collision_inside_light_set_rejects_that_hash(self):
        flat = puzzles.tabulated_puzzles()["flat"].condition_on_puzzle((0,))
        # all-zero rows send every key to the same offset-only hash value
        seed = (np.zeros((1, 9, 3), dtype=np.uint8), np.zeros((1, 9), dtype=np.uint8))
        a = pseudoentropy.slice_analysis(flat, P3)
        y = gf2.hash_eval(seed, (0, 0, 0), a.i_s)
        assert len(a.a_s) == 8
        assert a.f_s(seed, [y]).tolist() == [False]

    def test_flat_puzzle_filter_density(self):
        flat = puzzles.tabulated_puzzles()["flat"].condition_on_puzzle((0,))
        a = pseudoentropy.slice_analysis(flat, P3)
        assert a.i_s >= math.log2(8) + 2
        rng = np.random.default_rng(17)
        hits = 0
        trials = 300
        for _ in range(trials):
            seed = gf2.sample_hash_seed(rng, 3)
            k = flat.support()[rng.integers(0, 8)]
            hits += int(a.f_s(seed, [gf2.hash_eval(seed, k, a.i_s)])[0])
        frac = hits / trials
        assert frac >= P3.density_floor - 0.1
        assert frac >= 0.8  # isolation is the common case at 128 slots

    @pytest.mark.parametrize("fixture", ["flat", "geometric", "two-level"])
    def test_filter_matches_enumeration_oracle(self, fixture):
        joint = puzzles.tabulated_puzzles()[fixture]
        rng = np.random.default_rng(71)
        zero_rows = (np.zeros((1, 9, 3), dtype=np.uint8), np.zeros((1, 9), dtype=np.uint8))
        for s in joint.marginal_puzzles().support():
            k_s = joint.condition_on_puzzle(s)
            a = pseudoentropy.slice_analysis(k_s, P3)
            seeds = [gf2.sample_hash_seed(rng, 3) for _ in range(20)] + [zero_rows]
            # every (seed, y) pair asked at once, one row each
            asked = []
            for seed in seeds:
                ys = {gf2.hash_eval(seed, k, a.i_s) for k in k_s.support()}
                ys.add(tuple(int(b) for b in rng.integers(0, 2, size=a.i_s)))
                asked.extend((seed, y) for y in sorted(ys))
            got = a.f_s(oracles.join_seeds([seed for seed, _ in asked]),
                        [y for _, y in asked])
            assert got.tolist() == [filter_oracle(k_s, a, P3.density_floor, seed, y)
                                    for seed, y in asked]

    def test_seed_shape_checked_when_supplied(self):
        # the filter's seeds are checked where they are used, by hash_eval_batch
        a = pseudoentropy.slice_analysis(geometric_keys(), P3)
        rng = np.random.default_rng(0)
        narrow = gf2.sample_hash_seed(rng, 2)
        short = gf2.sample_hash_seed(rng, 3, a.i_s - 1)
        for seed in (narrow, short):
            with pytest.raises(ValueError):
                a.filter_groups(seed)

    def test_filter_takes_one_value_per_seed(self):
        a = pseudoentropy.slice_analysis(geometric_keys(), P3)
        seeds = gf2.sample_hash_seed(np.random.default_rng(3), 3, count=2)
        for ys in (np.zeros((1, a.i_s)), np.zeros((2, a.i_s - 1)), np.zeros(a.i_s)):
            with pytest.raises(ValueError, match="one 5-bit hash value per seed"):
                a.f_s(seeds, ys)


class TestGPairConditional:
    def test_off_prefix_index_means_identical_sides(self):
        k_s = geometric_keys()
        a = pseudoentropy.slice_analysis(k_s, P3)
        rng = np.random.default_rng(19)
        seed = gf2.sample_hash_seed(rng, 3)
        for i in (2, 3, a.i_s + 1):
            for r in ((0, 1, 1), (1, 0, 0)):
                pairs = pseudoentropy.g_pair_conditional(k_s, seed, i, r, a)
                for y, (p0, p1) in pairs.items():
                    assert p0.as_dict() == p1.as_dict()

    def test_takes_one_seed(self):
        k_s = geometric_keys()
        a = pseudoentropy.slice_analysis(k_s, P3)
        seeds = gf2.sample_hash_seed(np.random.default_rng(19), 3, count=2)
        with pytest.raises(ValueError):
            pseudoentropy.g_pair_conditional(k_s, seeds, a.i_s, (0, 1, 1), a)

    def test_point_mass_trigger_flattens_the_bit(self):
        k0 = (0, 1, 1)
        p = dist.Pmf({k0: 1.0})
        a = pseudoentropy.slice_analysis(p, P3)
        seed = gf2.sample_hash_seed(np.random.default_rng(23), 3)
        r = (1, 1, 0)
        pairs = pseudoentropy.g_pair_conditional(p, seed, a.i_s, r, a)
        y = gf2.hash_eval(seed, k0, a.i_s)
        p0, p1 = pairs[y]
        assert p0.prob((gf2.inner_product(k0, r),)) == pytest.approx(1.0)
        assert p1.prob((0,)) == pytest.approx(0.5)
        assert p1.prob((1,)) == pytest.approx(0.5)

    def test_geometric_matches_enumeration_oracle(self):
        k_s = geometric_keys()
        a = pseudoentropy.slice_analysis(k_s, P3)
        rng = np.random.default_rng(29)
        for _ in range(5):
            seed = gf2.sample_hash_seed(rng, 3)
            r = tuple(int(b) for b in rng.integers(0, 2, size=3))
            got = pseudoentropy.g_pair_conditional(k_s, seed, a.i_s, r, a)
            want = pair_oracle(k_s, seed, a.i_s, r, a, P3.density_floor)
            assert set(got) == set(want)
            for y in want:
                for side in (0, 1):
                    for bit in ((0,), (1,)):
                        assert float(got[y][side].prob(bit)) == pytest.approx(
                            float(want[y][side].prob(bit)), abs=1e-12)

    def test_fraction_masses_stay_fractions(self):
        k_s = puzzles.tabulated_puzzles()["two-level"].condition_on_puzzle((0,))
        a = pseudoentropy.slice_analysis(k_s, P3)
        rng = np.random.default_rng(43)
        for _ in range(5):
            seed = gf2.sample_hash_seed(rng, 3)
            got = pseudoentropy.g_pair_conditional(k_s, seed, a.i_s, (0, 1, 1), a)
            want = pair_oracle(k_s, seed, a.i_s, (0, 1, 1), a, P3.density_floor)
            for y, pair in got.items():
                for side, pmf in enumerate(pair):
                    assert all(isinstance(q, Fraction) for q in pmf.as_dict().values())
                    assert pmf.as_dict() == want[y][side].as_dict()

    def test_conditionals_are_normalized(self):
        k_s = geometric_keys()
        a = pseudoentropy.slice_analysis(k_s, P3)
        seed = gf2.sample_hash_seed(np.random.default_rng(31), 3)
        pairs = pseudoentropy.g_pair_conditional(k_s, seed, a.i_s, (1, 0, 1), a)
        for p0, p1 in pairs.values():
            assert sum(p0.as_dict().values()) == pytest.approx(1.0)
            assert sum(p1.as_dict().values()) == pytest.approx(1.0)


class TestWpegEntropyGap:
    def test_point_mass_puzzle_closed_form(self):
        # every instance pins its key, so each triggered bit is worth exactly
        # one bit and the average pays only the 1/i_max prefix-index factor
        params = pseudoentropy.SliceParams.default(2)
        report = pseudoentropy.wpeg_entropy_gap(
            identity_joint(2), params, 40, np.random.default_rng(37))
        assert report["gap"] == pytest.approx(1 / 6, abs=1e-9)
        assert report["trigger_mass"] == pytest.approx(1 / 6, abs=1e-9)
        assert report["radius"] > 0

    def test_disabled_trigger_is_exactly_zero(self):
        params = pseudoentropy.SliceParams(levels=6, pad=4, slack=3,
                                           density_floor=math.inf, i_max=9)
        joint = puzzles.tabulated_puzzles()["geometric"]
        report = pseudoentropy.wpeg_entropy_gap(
            joint, params, 60, np.random.default_rng(41))
        assert report["gap"] == 0.0
        assert report["radius"] == 0.0
        assert report["trigger_mass"] == 0.0

    def test_geometric_gap_clears_its_radius(self):
        # the true gap sits near 0.05; 8000 seeds push the 99% radius to 0.036
        joint = puzzles.tabulated_puzzles()["geometric"]
        report = pseudoentropy.wpeg_entropy_gap(
            joint, P3, 8000, np.random.default_rng(43))
        assert report["gap"] - report["radius"] > 0

    def test_per_instance_breakdown_recombines(self):
        joint = puzzles.tabulated_puzzles()["two-level"]
        report = pseudoentropy.wpeg_entropy_gap(
            joint, P3, 200, np.random.default_rng(47))
        s_marginal = joint.marginal_puzzles()
        recombined = sum(float(q) * report["per_s"][dist.encode_atom(s)]
                         for s, q in s_marginal.as_dict().items())
        assert recombined == pytest.approx(report["gap"], abs=1e-9)

    def test_report_serialization_is_deterministic(self):
        joint = puzzles.tabulated_puzzles()["geometric"]
        a = pseudoentropy.wpeg_entropy_gap(joint, P3, 50, np.random.default_rng(53))
        b = pseudoentropy.wpeg_entropy_gap(joint, P3, 50, np.random.default_rng(53))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert set(a) == {"params", "gap", "radius", "trigger_mass",
                          "per_s", "seed_samples"}
        assert a["params"]["pad"]["value"] == 4

    def test_sample_budget_validated(self):
        joint = puzzles.tabulated_puzzles()["flat"]
        with pytest.raises(ValueError):
            pseudoentropy.wpeg_entropy_gap(joint, P3, 0, np.random.default_rng(0))


class TestCoreLemmaGap:
    def test_point_mass_is_exactly_one_bit(self):
        x = dist.Pmf({(1, 0, 1, 1): 1.0})
        gap = pseudoentropy.core_lemma_gap(x, (1, 0, 1, 1), 0.9, 0.1)
        assert gap == 1.0

    def test_uniform_gap_is_two_to_minus_n(self):
        # every nonzero r gives a fair bit; only r = 0 is deterministic
        n = 4
        x = dist.Pmf({oracles.bit_tuple(v, n): 1 / 16 for v in range(16)})
        gap = pseudoentropy.core_lemma_gap(x, (0,) * n, 0.05, 0.07)
        assert gap == pytest.approx(2 ** -n, abs=1e-12)

    def test_heavy_fixture_matches_two_pass_oracle(self):
        n = 6
        x_star = (0,) * n
        atoms = {x_star: Fraction(3, 10)}
        rest = [oracles.bit_tuple(v, n) for v in range(1, 64)]
        for k in rest:
            atoms[k] = Fraction(7, 10) / 63
        x = dist.Pmf(atoms)
        gap = pseudoentropy.core_lemma_gap(x, x_star, 0.25, 0.012)
        assert gap > 0
        assert gap == pytest.approx(float(core_gap_oracle(x)), abs=1e-9)

    def test_heavy_fixture_beats_bias_accounting(self):
        # per-r upper bound H <= 1 - d^2/2 pushes the gap above mean(d^2)/2
        n = 6
        x_star = (0,) * n
        atoms = {x_star: 0.3}
        for v in range(1, 64):
            atoms[oracles.bit_tuple(v, n)] = 0.7 / 63
        x = dist.Pmf(atoms)
        gap = pseudoentropy.core_lemma_gap(x, x_star, 0.25, 0.012)
        bias_sq = []
        for ridx in range(2 ** n):
            r = oracles.bit_tuple(ridx, n)
            p_one = sum(p for k, p in atoms.items() if gf2.inner_product(k, r))
            bias_sq.append((2 * p_one - 1) ** 2)
        assert gap >= np.mean(bias_sq) / 2 - 1e-12

    def test_precondition_errors_name_the_clause(self):
        x = dist.Pmf({(0, 0): 0.5, (0, 1): 0.3, (1, 0): 0.2})
        with pytest.raises(ValueError, match="heavy"):
            pseudoentropy.core_lemma_gap(x, (0, 0), 0.6, 0.4)
        with pytest.raises(ValueError, match="light"):
            pseudoentropy.core_lemma_gap(x, (0, 0), 0.4, 0.25)

    def test_widest_source_matches_popcount(self):
        # 16 bits is the widest source; parities come from bin().count
        atoms = {(0,) * 16: 0.5, oracles.bit_tuple(0xB3C5, 16): 0.3,
                 oracles.bit_tuple(0x0F0F, 16): 0.2}
        gap = pseudoentropy.core_lemma_gap(dist.Pmf(atoms), (0,) * 16, 0.5, 0.3)
        ints = [(dist.index_of(a), p) for a, p in atoms.items()]
        total = 0.0
        for r in range(1 << 16):
            p_one = sum(p for v, p in ints if bin(r & v).count("1") & 1)
            if 0 < p_one < 1:
                total -= p_one * math.log2(p_one) + (1 - p_one) * math.log2(1 - p_one)
        assert gap == pytest.approx(1 - total / (1 << 16), abs=1e-12)

    def test_width_guard(self):
        x = dist.Pmf({(0,) * 17: 1.0})
        with pytest.raises(ValueError):
            pseudoentropy.core_lemma_gap(x, (0,) * 17, 0.5, 0.5)

    def test_matches_fraction_oracle(self):
        # theta 0 and 1 leave the heavy and light clauses vacuous
        rng = np.random.default_rng(17)
        for n in range(1, 5):
            for _ in range(6):
                size = int(rng.integers(1, 2 ** n + 1))
                picks = rng.choice(2 ** n, size=size, replace=False)
                weights = rng.integers(1, 20, size=size)
                x = dist.Pmf({oracles.bit_tuple(int(v), n): Fraction(int(w), int(weights.sum()))
                              for v, w in zip(picks, weights)})
                gap = pseudoentropy.core_lemma_gap(x, next(iter(x.support())), 0.0, 1.0)
                assert gap == pytest.approx(core_gap_fraction_oracle(x), abs=1e-13)

    def test_walsh_sums_match_parity_fold(self):
        # (1 - W(r)) / 2 rounds differently from a parity-weighted sum, so
        # the gaps agree to float precision, not bit for bit
        rng = np.random.default_rng(19)
        for n in (1, 3, 6, 10, 16):
            for _ in range(4):
                size = int(rng.integers(1, min(2 ** n, 300) + 1))
                picks = rng.choice(2 ** n, size=size, replace=False)
                w = rng.random(size)
                x = dist.Pmf({oracles.bit_tuple(int(v), n): float(q)
                              for v, q in zip(picks, w / w.sum())})
                gap = pseudoentropy.core_lemma_gap(x, next(iter(x.support())), 0.0, 1.0)
                assert gap == pytest.approx(parity_fold_gap(x), abs=1e-12)


class TestBiasedCoinBounds:
    def test_fair_coin(self):
        b = pseudoentropy.biased_coin_bounds(0.0)
        assert b["entropy"] == 1.0
        assert b["lower"] == 1.0
        assert b["upper"] == 1.0
        assert b["lower_applies"]

    def test_deterministic_coin(self):
        b = pseudoentropy.biased_coin_bounds(1.0)
        assert b["entropy"] == 0.0
        assert b["upper"] == 0.5
        assert not b["lower_applies"]

    def test_grid_slack(self):
        for d in np.arange(0.0, 0.5 + 1e-12, 0.01):
            b = pseudoentropy.biased_coin_bounds(float(d))
            assert b["upper"] - b["entropy"] >= -1e-9
            assert b["entropy"] - b["lower"] >= -1e-9

    def test_matches_distribution_entropy(self):
        for d in (0.1, 0.35, 0.8):
            b = pseudoentropy.biased_coin_bounds(d)
            assert b["entropy"] == pytest.approx(
                dist.shannon_entropy(coin((1 + d) / 2)), abs=1e-12)

    @pytest.mark.parametrize("d", [-0.01, 1.01])
    def test_domain_guard(self, d):
        with pytest.raises(ValueError):
            pseudoentropy.biased_coin_bounds(d)


class TestPublicSlicingCheck:
    def test_empty_marked_set_means_no_difference(self):
        a = dist.Pmf({(0,): 0.4, (1,): 0.6})
        b = {(0,): coin(0.3), (1,): coin(0.9)}
        res = pseudoentropy.public_slicing_check(a, b, dict(b), set())
        assert res["difference"] == pytest.approx(0.0, abs=1e-12)
        assert res["bound"] == 0.0
        assert res["holds"]

    def test_deterministic_versus_uniform(self):
        a = dist.Pmf({(0,): 0.5, (1,): 0.5})
        b0 = {(0,): coin(0.0), (1,): coin(1.0)}
        b1 = {(0,): coin(0.5), (1,): coin(0.5)}
        res = pseudoentropy.public_slicing_check(a, b0, b1, {(0,), (1,)})
        assert res["difference"] == pytest.approx(1.0)
        assert res["min_gap"] == pytest.approx(1.0)
        assert res["a_star_mass"] == pytest.approx(1.0)
        assert res["holds"]

    def test_random_instances_match_chain_rule_oracle(self):
        rng = np.random.default_rng(59)
        for _ in range(5):
            w = rng.random(4) + 0.05
            w /= w.sum()
            a = dist.Pmf({oracles.bit_tuple(v, 2): float(x)
                          for v, x in enumerate(w)})
            a_star = {oracles.bit_tuple(0, 2), oracles.bit_tuple(3, 2)}
            b0 = {}
            b1 = {}
            for atom in a.support():
                if atom in a_star:
                    b0[atom] = coin(float(rng.uniform(0.02, 0.2)))
                    b1[atom] = coin(0.5)
                else:
                    shared = coin(float(rng.uniform(0.1, 0.9)))
                    b0[atom] = shared
                    b1[atom] = shared
            res = pseudoentropy.public_slicing_check(a, b0, b1, a_star)
            assert res["difference"] == pytest.approx(
                float(slicing_oracle(a, b0, b1)), abs=1e-9)
            assert res["difference"] >= res["bound"] - 1e-9
            assert res["holds"]

    def test_equality_violation_outside_marked_set(self):
        a = dist.Pmf({(0,): 0.5, (1,): 0.5})
        b0 = {(0,): coin(0.1), (1,): coin(0.2)}
        b1 = {(0,): coin(0.5), (1,): coin(0.4)}
        with pytest.raises(ValueError, match="outside"):
            pseudoentropy.public_slicing_check(a, b0, b1, {(0,)})

    def test_missing_conditional(self):
        a = dist.Pmf({(0,): 0.5, (1,): 0.5})
        b0 = {(0,): coin(0.1)}
        b1 = {(0,): coin(0.1), (1,): coin(0.2)}
        with pytest.raises(ValueError, match="conditional"):
            pseudoentropy.public_slicing_check(a, b0, b1, set())


class TestPegProduct:
    def test_uniform_pair_frozen_values(self):
        g = dist.Pmf({(0,): 0.5, (1,): 0.5})
        p0, p1, report = pseudoentropy.peg_product(g, g, 8, 0.01)
        assert len(p0) == 256 and len(p1) == 256
        assert report["h_min_smooth"] == pytest.approx(8 - math.log2(0.99), abs=1e-9)
        expected_bound = 8 - math.sqrt(16 * math.log2(100)) * math.log2(5)
        assert report["concentration_bound"] == pytest.approx(expected_bound, abs=1e-9)
        assert report["h_min_smooth"] >= report["concentration_bound"]

    def test_single_copy_zero_smoothing_reduces_to_plain_entropies(self):
        g0 = dist.Pmf({(0, 0): 0.7, (0, 1): 0.2, (1, 0): 0.1})
        g1 = dist.Pmf({(0, 0): 0.4, (0, 1): 0.6})
        _, _, report = pseudoentropy.peg_product(g0, g1, 1, 0.0)
        assert report["h_min_smooth"] == pytest.approx(dist.min_entropy(g1), abs=1e-12)
        assert report["h_max_smooth"] == pytest.approx(dist.max_entropy(g0), abs=1e-12)

    def test_biased_bit_product_against_materialized_oracle(self):
        g = coin(0.9)
        p0, p1, report = pseudoentropy.peg_product(g, g, 12, 0.01)
        direct = dist.smooth_min_entropy(dist.product_power(g, 12), 0.01)
        assert report["h_min_smooth"] == pytest.approx(direct, abs=1e-9)
        assert report["h_min_smooth"] >= report["concentration_bound"]

    def test_shannon_additivity(self):
        g = dist.Pmf({(0, 0): 0.5, (0, 1): 0.25, (1, 0): 0.25})
        _, _, report = pseudoentropy.peg_product(g, g, 9, 0.02)
        assert report["shannon_product_1"] == pytest.approx(
            9 * dist.shannon_entropy(g), abs=1e-9)

    def test_materialization_skipped_above_limit(self):
        g = dist.Pmf({oracles.bit_tuple(v, 3): 1 / 8 for v in range(8)})
        p0, p1, report = pseudoentropy.peg_product(g, g, 7, 0.01)
        assert p0 is None and p1 is None
        assert report["h_min_smooth"] > 0

    def test_overflow_guard(self):
        g = dist.Pmf({(0, 0): 0.5, (0, 1): 0.25, (1, 0): 0.25})
        with pytest.raises(ValueError, match="exceed"):
            pseudoentropy.peg_product(g, g, 16, 0.01)

    def test_param_validation(self):
        g = dist.Pmf({(0,): 0.5, (1,): 0.5})
        with pytest.raises(ValueError):
            pseudoentropy.peg_product(g, g, 0, 0.01)
        with pytest.raises(ValueError):
            pseudoentropy.peg_product(g, g, 2, 1.0)


class TestDistinguisherToInverter:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            pseudoentropy.distinguisher_to_inverter(
                identity_joint(2), lambda *a: 0, pseudoentropy.SliceParams.default(2),
                0, np.random.default_rng(0))

    def test_likelihood_ratio_beats_random_guessing(self):
        joint = identity_joint(2)
        params = pseudoentropy.SliceParams.default(2)
        analyses = {}
        for s in joint.marginal_puzzles().support():
            k_s = joint.condition_on_puzzle(s)
            analyses[s] = (k_s, pseudoentropy.slice_analysis(k_s, params))
        conditionals = {}

        def likelihood(s, h, i, r, y, bit):
            # the conditionals hold every y, so one call serves each (s, h, i, r)
            memo = (s, h[0].tobytes(), h[1].tobytes(), i, r)
            if memo not in conditionals:
                k_s, analysis = analyses[s]
                conditionals[memo] = pseudoentropy.g_pair_conditional(
                    k_s, h, i, r, analysis)
            pairs = conditionals[memo]
            if y not in pairs:
                return 0
            p0, p1 = pairs[y]
            return 1 if p1.prob((bit,)) > p0.prob((bit,)) else 0

        rate = pseudoentropy.distinguisher_to_inverter(
            joint, likelihood, params, 20, np.random.default_rng(61))
        assert rate > 0.6  # random guessing sits at 1/4

    def test_constant_distinguisher_sits_at_baseline(self):
        params = pseudoentropy.SliceParams.default(2)
        rate = pseudoentropy.distinguisher_to_inverter(
            identity_joint(2), lambda *a: 0, params, 60, np.random.default_rng(67))
        assert 0.05 <= rate <= 0.5

    def test_deterministic_under_seed(self):
        joint = identity_joint(2)
        params = pseudoentropy.SliceParams.default(2)
        a = pseudoentropy.distinguisher_to_inverter(
            joint, lambda *a: 0, params, 10, np.random.default_rng(71))
        b = pseudoentropy.distinguisher_to_inverter(
            joint, lambda *a: 0, params, 10, np.random.default_rng(71))
        # pins the draw order: one rng.choice over the joint's support per trial
        assert a == b == 0.4


def key_sums(member, kbits):
    """member @ kbits, added key by key in atom order."""
    out = np.zeros((member.shape[0], kbits.shape[1]))
    for k in range(member.shape[1]):
        out = out + member[:, k, None] * kbits[k]
    return out


def wpeg_oracle(puzzle, params, seed_samples, rng):
    """wpeg_entropy_gap with the seed loop outside: one filter call per
    seed per instance and left-to-right sums, as the same report dict."""
    s_marginal = puzzle.marginal_puzzles()
    instances = []
    for s in s_marginal.support():
        analysis = pseudoentropy.slice_analysis(puzzle.condition_on_puzzle(s), params)
        instances.append((float(s_marginal.prob(s)), dist.encode_atom(s), analysis))
    width = instances[0][2]._keys.shape[1]
    rmat = dist.bits_of(np.arange(2 ** width), width)
    bits = [((a._keys @ rmat.T) & 1).astype(float) for _, _, a in instances]
    n_out = max(3 * width, max(a.i_s for _, _, a in instances))
    values = np.empty(seed_samples)
    trigger = np.empty(seed_samples)
    per_s_acc = {code: 0.0 for _, code, _ in instances}
    for t in range(seed_samples):
        seed = gf2.sample_hash_seed(rng, width, n_out)
        value = 0.0
        trig = 0.0
        for (ps, code, analysis), kbits in zip(instances, bits):
            labels, _, _, mass, flat, accept = analysis.filter_groups(seed)
            fired = np.flatnonzero(accept)
            member = (labels[0] == fired[:, None]) * analysis._probs
            w = mass[fired, None]
            p_real = key_sums(member, kbits) / w
            p_patch = (key_sums(member * ~analysis._flat, kbits) + 0.5 * flat[fired, None]) / w
            gain = np.mean(pseudoentropy._h2(p_patch) - pseudoentropy._h2(p_real), axis=1)
            diff_s = sum((mass[fired] * gain).tolist(), 0.0)
            trig_s = sum(flat[fired].tolist(), 0.0)
            value += ps * diff_s / params.i_max
            trig += ps * trig_s / params.i_max
            per_s_acc[code] += diff_s / params.i_max
        values[t] = value
        trigger[t] = trig
    values = np.clip(values, -1.0, 1.0)
    trigger_mass = float(trigger.mean())
    radius = 0.0 if trigger_mass == 0.0 and not values.any() else \
        hoeffding_radius(seed_samples, value_range=2.0)
    per_s = {k: v / seed_samples for k, v in per_s_acc.items()}
    return {"params": params.describe(), "gap": float(values.mean()), "radius": radius,
            "trigger_mass": trigger_mass, "per_s": per_s, "seed_samples": seed_samples}


def slice_params(n, **change):
    base = pseudoentropy.SliceParams.default(n)
    fields = {name: getattr(base, name) for name in base.__slots__}
    fields.update(change)
    return pseudoentropy.SliceParams(**fields)


class TestSeedBatchedGap:
    """All seeds at once give the per-seed loop's report byte for byte."""

    @pytest.mark.parametrize("fixture", ["flat", "geometric", "two-level"])
    @pytest.mark.parametrize("params", [
        slice_params(3), slice_params(3, density_floor=math.inf),
        slice_params(2), slice_params(4),
    ], ids=["n3", "floor-inf", "n2", "n4"])
    def test_report_equals_per_seed_loop(self, fixture, params):
        joint = puzzles.tabulated_puzzles()[fixture]
        for stream, seeds in ((2, 200), (5, 200), (11, 1), (13, 40)):
            got = pseudoentropy.wpeg_entropy_gap(joint, params, seeds,
                                                 np.random.default_rng(stream))
            want = wpeg_oracle(joint, params, seeds, np.random.default_rng(stream))
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    @pytest.mark.parametrize("fixture", ["flat", "geometric", "two-level"])
    def test_stacked_filter_equals_one_seed_filter(self, fixture):
        joint = puzzles.tabulated_puzzles()[fixture]
        rng = np.random.default_rng(17)
        for s in joint.marginal_puzzles().support():
            analysis = pseudoentropy.slice_analysis(joint.condition_on_puzzle(s), P3)
            seeds = gf2.sample_hash_seed(rng, 3, 9, count=50)
            labels, owner, prefixes, mass, flat, accept = analysis.filter_groups(seeds)
            for t, seed in enumerate(oracles.one_seed_pairs(seeds)):
                one = analysis.filter_groups(seed)
                groups = np.flatnonzero(owner == t)
                assert np.array_equal(labels[t] - groups[0], one[0][0])
                for got, want in zip((prefixes, mass, flat, accept), one[2:]):
                    assert np.array_equal(got[groups], want)
