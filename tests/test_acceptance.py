"""Acceptance suite: one test per quantitative criterion, fourteen in all.

Each test prints a single line naming the criterion, its pass/fail state,
and the measured runtime, then asserts both the checks and the runtime
budget.  Random instances are pinned by seed so every run sees the same
numbers; nothing here is allowed to flake.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
from mpmath import mp

from qclab import cli, commit, dist, efi, gf2, owsg, pseudoentropy, puzzles, qsim
from qclab._mc import hoeffding_radius

mp.dps = 50


def verdict(num, ok, elapsed, budget, label):
    line = "criterion {:02d} {} ({:.1f}s of {:.0f}s) {}".format(
        num, "PASS" if ok else "FAIL", elapsed, budget, label)
    print(line)
    assert ok and elapsed < budget, line


def random_pmf(rng, size, width, sharpen=1.0):
    raw = rng.random(size) ** sharpen + 1e-9
    probs = raw / raw.sum()
    atoms = map(tuple, dist.bits_of(np.arange(size), width).tolist())
    return dist.Pmf(dict(zip(atoms, probs.tolist())))


def mp_entropies(pmf):
    ps = [mp.mpf(p) for p in pmf.as_dict().values()]
    shannon = -mp.fsum(p * mp.log(p, 2) for p in ps)
    return float(shannon), float(-mp.log(max(ps), 2)), float(-mp.log(min(ps), 2))


def water_filling(probs, eps):
    # cap the largest atoms at a common level whose total shave equals eps
    ps = sorted(probs, reverse=True)
    for k in range(1, len(ps) + 1):
        lam = (sum(ps[:k]) - eps) / k
        below = ps[k] if k < len(ps) else 0.0
        if below - 1e-15 <= lam <= ps[k - 1] + 1e-15:
            return -math.log2(lam)
    raise AssertionError("no water level found")


def test_criterion_01_entropy_toolkit_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(200):
        size = int(rng.integers(2, 33))
        pmf = random_pmf(rng, size, 6, sharpen=float(rng.uniform(0.5, 3.0)))
        shannon, h_min, h_max = mp_entropies(pmf)
        ok &= abs(dist.shannon_entropy(pmf) - shannon) <= 1e-9
        ok &= abs(dist.min_entropy(pmf) - h_min) <= 1e-9
        ok &= abs(dist.max_entropy(pmf) - h_max) <= 1e-9
        eps = float(rng.uniform(0.0, 0.5))
        want = water_filling(list(pmf.as_dict().values()), eps)
        ok &= abs(dist.smooth_min_entropy(pmf, eps) - want) <= 1e-9
    # randomized search over the eps-ball never beats the water level
    for seed in (1, 2, 3):
        search_rng = np.random.default_rng(seed)
        pmf = random_pmf(search_rng, 12, 4)
        eps = 0.2
        smooth = dist.smooth_min_entropy(pmf, eps)
        probs = np.array(list(pmf.as_dict().values()))
        best = probs.max()
        for _ in range(10 ** 4):
            lam = float(search_rng.uniform(0, probs.max()))
            shaved = np.minimum(probs, lam)
            removed = probs.sum() - shaved.sum()
            if removed > eps:
                continue
            weights = search_rng.random(len(probs)) * (shaved < lam)
            if weights.sum() > 0:
                shaved = shaved + removed * weights / weights.sum()
            best = min(best, shaved.max())
        ok &= -math.log2(best) <= smooth + 1e-6
    verdict(1, ok, time.perf_counter() - start, 10, "entropy toolkit exactness")


def test_criterion_02_extractor_bound_never_violated():
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    ok = True
    for _ in range(500):
        n = int(rng.integers(2, 11))
        pmf = random_pmf(rng, 2 ** n, n, sharpen=float(rng.uniform(1.0, 4.0)))
        d = gf2.extractor_distance(pmf, n)
        bound = gf2.extractor_bound(dist.min_entropy(pmf))
        ok &= d <= bound + 1e-12
    verdict(2, ok, time.perf_counter() - start, 30, "inner-product extractor bound")


def test_criterion_03_pairwise_independence_exact():
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        for i in range(1, 3 * n + 1):
            for v in range(1, 2 ** n):
                diff = tuple(dist.bits_of(v, n).tolist())
                ok &= gf2.collision_probability(n, i, diff) == Fraction(1, 2 ** i)
    verdict(3, ok, time.perf_counter() - start, 10, "pairwise independent hashing")


def test_criterion_04_goldreich_levin_recovery():
    start = time.perf_counter()
    n = 8
    rng = np.random.default_rng(31)
    noiseless = 0
    for _ in range(100):
        secret = rng.integers(0, 2, size=n).astype(np.uint8)
        def predictor(queries, s=secret):
            return (queries @ s) & 1
        noiseless += tuple(secret.tolist()) in gf2.gl_decode(predictor, n, 0.5, rng)
    corrupted = 0
    trials = 1000
    for _ in range(trials):
        secret = tuple(int(b) for b in rng.integers(0, 2, size=n))
        table = np.array([gf2.inner_product(secret, bits) for bits
                          in dist.bits_of(np.arange(2 ** n), n).tolist()], dtype=np.uint8)
        table ^= (rng.random(2 ** n) < 0.35).astype(np.uint8)
        def predictor(queries, t=table):
            return t[dist.index_of(queries)]
        corrupted += secret in gf2.gl_decode(predictor, n, 0.15, rng)
    ok = noiseless == 100 and corrupted / trials >= 4 * 0.15 ** 2
    verdict(4, ok, time.perf_counter() - start, 60,
            "list decoding ({}/1000 corrupted hits)".format(corrupted))


def test_criterion_05_biased_coin_bounds_on_grid():
    start = time.perf_counter()
    ok = True
    for step in range(1001):
        d = step / 1000
        b = pseudoentropy.biased_coin_bounds(d)
        ok &= b["upper"] - b["entropy"] >= -1e-9
        if b["lower_applies"]:
            ok &= b["entropy"] - b["lower"] >= -1e-9
    verdict(5, ok, time.perf_counter() - start, 1, "biased-coin entropy bounds")


def test_criterion_06_public_slicing_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(41)
    ok = True
    for _ in range(100):
        n_atoms = int(rng.integers(2, 5))
        a = random_pmf(rng, n_atoms, 3)
        atoms = a.support()
        star = {atoms[j] for j in
                rng.choice(n_atoms, size=int(rng.integers(1, n_atoms + 1)),
                           replace=False)}
        b0, b1 = {}, {}
        for atom in atoms:
            cond0 = random_pmf(rng, int(rng.integers(2, 5)), 2)
            b0[atom] = cond0
            b1[atom] = random_pmf(rng, int(rng.integers(2, 5)), 2) \
                if atom in star else cond0
        check = pseudoentropy.public_slicing_check(a, b0, b1, star)
        # chain rule: the joint-entropy difference, assembled independently
        joint0 = dist.Pmf({(atom, out): float(a.prob(atom)) * float(q)
                           for atom in atoms
                           for out, q in b0[atom].as_dict().items()})
        joint1 = dist.Pmf({(atom, out): float(a.prob(atom)) * float(q)
                           for atom in atoms
                           for out, q in b1[atom].as_dict().items()})
        want = dist.shannon_entropy(joint1) - dist.shannon_entropy(joint0)
        ok &= abs(check["difference"] - want) <= 1e-9
        ok &= check["holds"]
        ok &= check["difference"] - check["min_gap"] * check["a_star_mass"] >= -1e-9
    verdict(6, ok, time.perf_counter() - start, 5, "public slicing chain rule")


def test_criterion_07_core_lemma_gap():
    start = time.perf_counter()
    point = dist.Pmf({(1, 0, 1, 1): 1.0})
    ok = pseudoentropy.core_lemma_gap(point, (1, 0, 1, 1), 0.9, 0.1) == 1.0
    n = 6
    atoms = {(0,) * n: Fraction(3, 10)}
    for v in range(1, 64):
        atoms[tuple(dist.bits_of(v, n).tolist())] = Fraction(7, 10) / 63
    x = dist.Pmf(atoms)
    gap = pseudoentropy.core_lemma_gap(x, (0,) * n, 0.25, 0.012)
    # two-pass oracle: exact per-mask one-probabilities, then the mean entropy
    total = 0.0
    for ridx in range(2 ** n):
        r = tuple(dist.bits_of(ridx, n).tolist())
        p_one = float(sum(p for k, p in atoms.items()
                          if gf2.inner_product(k, r)))
        if 0 < p_one < 1:
            total += -(p_one * math.log2(p_one)
                       + (1 - p_one) * math.log2(1 - p_one))
    want = 1.0 - total / 2 ** n
    ok &= gap > 0 and abs(gap - want) <= 1e-9
    verdict(7, ok, time.perf_counter() - start, 5, "core lemma fixtures")


def test_criterion_08_flat_slice_structure():
    start = time.perf_counter()
    params = pseudoentropy.SliceParams.default(3)
    rng = np.random.default_rng(47)
    ok = True
    for name in ("flat", "geometric", "two-level"):
        joint = puzzles.tabulated_puzzles()[name]
        for s in joint.marginal_puzzles().support():
            cond = joint.condition_on_puzzle(s)
            j_s, g_s = pseudoentropy.find_flat_slice(cond, params)
            mass = sum(Fraction(cond.prob(k)) for k in g_s)
            tail = sum(Fraction(p) for k, p in cond.items_sorted()
                       if math.floor(-math.log2(float(p)) + 1e-9) >= params.levels)
            ok &= mass >= (1 - tail) / params.levels
            analysis = pseudoentropy.slice_analysis(cond, params)
            support = cond.support()
            probs = np.array([float(cond.prob(k)) for k in support])
            trials = 2000
            seeds, ys = [], []
            for _ in range(trials):
                seed = gf2.sample_hash_seed(rng, 3)
                k = support[rng.choice(len(support), p=probs)]
                seeds.append(seed)
                ys.append(gf2.hash_eval(seed, k, analysis.i_s))
            # one filter call asks every trial's (seed, hash value) at once
            seeds = tuple(np.concatenate(arrays) for arrays in zip(*seeds))
            hits = int(analysis.f_s(seeds, ys).sum())
            frac = hits / trials
            ok &= frac - hoeffding_radius(trials) >= params.density_floor - 0.1
    verdict(8, ok, time.perf_counter() - start, 60, "flat slice and hash filter")


def test_criterion_09_weak_peg_entropy_gap():
    start = time.perf_counter()
    params = pseudoentropy.SliceParams.default(3)
    ok = True
    for name, seed in (("geometric", 101), ("two-level", 103)):
        joint = puzzles.tabulated_puzzles()[name]
        report = pseudoentropy.wpeg_entropy_gap(joint, params, 16000,
                                                np.random.default_rng(seed))
        ok &= report["gap"] - report["radius"] > 0
    disabled = pseudoentropy.SliceParams(
        levels=params.levels, pad=params.pad, slack=params.slack,
        density_floor=math.inf, i_max=params.i_max)
    control = pseudoentropy.wpeg_entropy_gap(
        puzzles.tabulated_puzzles()["geometric"], disabled, 200,
        np.random.default_rng(107))
    ok &= control["gap"] == 0.0 and control["radius"] == 0.0
    verdict(9, ok, time.perf_counter() - start, 120, "weak-generator entropy gap")


def test_criterion_10_product_concentration():
    start = time.perf_counter()
    rng = np.random.default_rng(53)
    eps = 0.01
    ok = True
    for _ in range(20):
        support = int(rng.integers(2, 5))
        pmf = random_pmf(rng, support, 2)
        shannon = dist.shannon_entropy(pmf)
        for t in range(1, 13):
            spectrum = dist.product_spectrum(pmf, t)
            have = dist.smooth_min_entropy_spectrum(spectrum, eps)
            bound = pseudoentropy.concentration_bound(shannon, t, eps, support)
            ok &= have - bound >= -1e-9
    verdict(10, ok, time.perf_counter() - start, 120, "product entropy concentration")


def test_criterion_11_shadow_puzzle_correctness():
    start = time.perf_counter()
    scheme = owsg.wiesner_owsg(6)
    puzzle = puzzles.puzzle_from_owsg(scheme, puzzles.ShadowParams(0.1, 96, 8))
    rng = np.random.default_rng(2026)
    trials = 500
    accepts = tight = 0
    for _ in range(trials):
        key, instance = puzzle.sample(rng)
        accepts += puzzle.verify(key, instance)
        state = scheme.state_gen(key)
        shadow = puzzles.shadow_from_bytes(instance)
        listed = puzzles.preimage_list(shadow, scheme, 0.1, 8)
        tight += all(scheme.accept_prob(k, state) >= 1 - 2 * 0.1 for k in listed)
    ok = accepts / trials >= 0.99 and tight / trials >= 0.95
    verdict(11, ok, time.perf_counter() - start, 300,
            "shadow puzzle (accept {:.3f}, listed-overlap {:.3f})".format(
                accepts / trials, tight / trials))


def test_criterion_12_efi_crossover():
    start = time.perf_counter()
    coin = dist.Pmf({(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    g0 = dist.product_power(coin, 4)
    h_max = dist.max_entropy(g0)
    h_min_smooth = dist.smooth_min_entropy(g0, 0.1)
    # smoothing lifts the uniform fixture's min-entropy past its max-entropy
    # (water filling caps below 1/16), so the declared slack is a full 5 bits
    s_low, s_high, margin = 1, 10, 5.0
    rng = np.random.default_rng(61)
    (lo,), lo_rad = efi.distance_sweep(g0, [s_low], 2000, rng)
    (hi,), hi_rad = efi.distance_sweep(g0, [s_high], 2000, rng)
    ok = lo + lo_rad < 0.1 and hi - hi_rad > 0.9
    ok &= s_high - s_low <= h_max - h_min_smooth + 2 * margin
    t = s_high - h_max
    floor_rng = np.random.default_rng(67)
    for _ in range(500):
        seed = gf2.sample_hash_seed(floor_rng, 4)
        (sd,) = efi.hash_truncation_sd(g0, seed, s_high)
        ok &= sd >= 1 - 2.0 ** -t - 1e-12
    verdict(12, ok, time.perf_counter() - start, 60,
            "hash-truncation crossover (low {:.3f}, high {:.3f})".format(lo, hi))


def test_criterion_13_commit_suite():
    start = time.perf_counter()
    catalog = commit.toy_schemes()
    ok = True
    for scheme in catalog.values():
        for b in (0, 1):
            ok &= abs(commit.decommit_probability(scheme, b) - 1.0) <= 1e-9
    ok &= abs(commit.hiding_advantage(catalog["hiding"]) - 0.5) <= 1e-9
    ok &= abs(commit.hiding_advantage(catalog["basis"]) - 1.0) <= 1e-9
    ok &= abs(commit.hiding_advantage(catalog["purified-coins"]) - 0.625) <= 1e-9
    for name in ("basis", "swap", "leaky"):
        adv = commit.superposition_attacker(catalog[name])
        plain = commit.binding_states(catalog[name], adv)
        redundant = commit.binding_states(catalog[name], adv, redundant=True)
        ok &= abs(plain[0] - redundant[0]) <= 1e-9
        ok &= np.abs(plain[1].matrix - redundant[1].matrix).max() <= 1e-9
        ok &= np.abs(plain[2].matrix - redundant[2].matrix).max() <= 1e-9
    # copy-wire symmetry: dephasing either end commutes with recommitting
    com1, com2 = catalog["basis"], catalog["swap"]
    vec = np.zeros(16, dtype=complex)
    vec[0b0000], vec[0b1000] = 0.6, 0.8j
    wired = qsim.apply_unitary(qsim.PureState(vec), qsim.CNOT, [0, 2])
    sides = []
    for target in ([0], [2]):
        rho = qsim.dephase(wired, target)
        rho = qsim.apply_unitary(rho, com1.com, [0, 1])
        rho = qsim.apply_unitary(rho, com2.com, [2, 3])
        sides.append(rho.matrix)
    ok &= np.abs(sides[0] - sides[1]).max() <= 1e-12
    xor = commit.xor_combine([catalog["basis"], catalog["hiding"]])
    r0 = qsim.partial_trace(commit.commit_state(xor, 0), list(xor.c_qubits))
    r1 = qsim.partial_trace(commit.commit_state(xor, 1), list(xor.c_qubits))
    ok &= np.abs(r0.matrix - r1.matrix).max() <= 1e-12
    verdict(13, ok, time.perf_counter() - start, 60, "commitment experiment suite")


def test_criterion_14_cli_determinism(tmp_path):
    start = time.perf_counter()
    cases = {
        "entropy": ({}, 1),
        "extractor": ({"n": 5}, 8),
        "gl": ({"n": 5}, 4),
        "shadows": ({"n": 2}, 4),
        "puzzle": ({}, 20),
        "wpeg-gap": ({}, 30),
        "core-lemma": ({}, 1),
        "concentration": ({"t_max": 5}, 3),
        "efi-sweep": ({"s_max": 4}, 25),
        "commit-suite": ({}, 1),
    }
    ok = True
    for sub, (params, trials) in cases.items():
        manifest = tmp_path / (sub + ".json")
        manifest.write_text(json.dumps({
            "subcommand": sub, "seed": 13, "trials": trials, "params": params}))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / "{}-{}.json".format(sub, tag)
            code = cli.main(["--manifest", str(manifest), "--out", str(out)])
            ok &= code == 0
            outs.append(out.read_bytes())
        ok &= outs[0] == outs[1]
    verdict(14, ok, time.perf_counter() - start, 60, "runner determinism")
