"""Entropy slicing of puzzle keys and the generator pair built from it.

Given a tabulated puzzle, the key distribution of each instance is cut into
near-flat surprisal buckets. Hashing a key and revealing a prefix isolates
the flat slice often enough that replacing the final inner-product bit by a
fair coin measurably raises entropy; the routines here compute that gap with
exact per-seed conditionals and Monte Carlo only over hash seeds. The same
file carries the heavy-atom core gap in exact form, the slicing chain-rule
check, product amplification with smooth-entropy concentration, and a demo
turning a generator distinguisher back into a puzzle inverter.  Each step
takes its settings as arguments and returns plain numbers, dicts or tuples;
cli writes the report text.  Entropies compare within dist.ENTROPY_TOL.
"""

import functools
import math

import numpy as np

from . import dist, gf2, puzzles
from ._mc import hoeffding_radius


def _h2(p):
    """Binary entropy, elementwise, with exact zeros at the endpoints."""
    arr = np.asarray(p, dtype=float)
    out = np.zeros_like(arr)
    inside = (arr > 0.0) & (arr < 1.0)
    q = arr[inside]
    out[inside] = -(q * np.log2(q) + (1 - q) * np.log2(1 - q))
    return out if out.ndim else float(out)


class SliceParams:
    """Slicing constants, instantiated explicitly at desk scale.

    The asymptotic forms these replace are recorded by describe(); the
    defaults keep every prefix index within i_max for keys up to a few bits.
    """

    __slots__ = ("levels", "pad", "slack", "density_floor", "i_max")

    def __init__(self, levels, pad, slack, density_floor, i_max):
        if levels < 1 or pad < 1 or slack < 1 or i_max < 1:
            raise ValueError("levels, pad, slack and i_max must be positive")
        if slack >= pad:
            raise ValueError(f"slack must stay below pad: {slack} >= {pad}")
        if density_floor != math.inf and not 0.0 < density_floor <= 1.0:
            raise ValueError(
                f"density floor must lie in (0, 1] or be inf: {density_floor!r}")
        self.levels = int(levels)
        self.pad = int(pad)
        self.slack = int(slack)
        self.density_floor = density_floor
        self.i_max = int(i_max)

    @classmethod
    def default(cls, n):
        """Desk defaults for n-bit keys."""
        if n < 1:
            raise ValueError("need at least one key bit")
        grain = max(1, math.ceil(math.log2(n))) if n > 1 else 1
        return cls(
            levels=2 * n,
            pad=2 + grain,
            slack=1 + grain,
            density_floor=1 / (6 * n),
            i_max=3 * n,
        )

    def describe(self):
        """Each field with both its asymptotic form and the number in use."""
        forms = {
            "levels": "2*n",
            "pad": "600*log2(n)",
            "slack": "500*log2(n)",
            "density_floor": "1/(6*n)",
            "i_max": "3*n",
        }
        return {
            name: {"asymptotic": forms[name], "value": getattr(self, name)}
            for name in self.__slots__
        }

    def __repr__(self):
        return (f"SliceParams(levels={self.levels}, pad={self.pad}, "
                f"slack={self.slack}, density_floor={self.density_floor}, "
                f"i_max={self.i_max})")


def find_flat_slice(k_s, params):
    """Pick the heaviest near-flat surprisal bucket of a key distribution.

    Buckets are half-open, [j, j+1) in surprisal, so every supported key
    lands in exactly one of them (or in the overflow tail at params.levels
    and beyond). Ties go to the shallower bucket. The winner always carries
    mass at least (1 - tail) / levels by pigeonhole.

    Returns:
        (j_s, keys): the bucket index and its keys in canonical atom order.
    """
    items = k_s.items_sorted()
    probs = np.array([float(p) for _, p in items])
    js = np.array([math.floor(-math.log2(p) + dist.ENTROPY_TOL) for p in probs.tolist()])
    kept = js < params.levels
    # bincount adds in atom order, as a running sum per bucket would; argmax
    # takes the first, shallowest, of tied buckets
    j_s = int(np.argmax(np.bincount(js[kept], weights=probs[kept], minlength=1)))
    return j_s, tuple(atom for (atom, _), j in zip(items, js.tolist()) if j == j_s)


class SliceAnalysis:
    """Per-instance slicing data: flat bucket, light set, prefix length, filter."""

    __slots__ = ("j_s", "g_s", "a_s", "i_s", "_keys", "_probs", "_flat",
                 "_light", "_floor")

    def __init__(self, j_s, g_s, a_s, i_s, pmf, params):
        self.j_s = j_s
        self.g_s = g_s
        self.a_s = a_s
        self.i_s = i_s
        self._keys, self._probs = gf2.support_matrix(pmf)
        flat, light = frozenset(g_s), frozenset(a_s)
        self._flat = np.array([k in flat for k in pmf.support()], dtype=bool)
        self._light = np.array([k in light for k in pmf.support()], dtype=bool)
        self._floor = params.density_floor

    def filter_groups(self, seeds):
        """Hash every key to i_s bits under each seed of a
        gf2.sample_hash_seed pair and run the slice filter on each value.

        The filter accepts a hash value when at most one light-set key
        hashes to it and its flat-slice mass is at least the density floor
        times its conditional mass.  Values no key hashes to carry no mass
        and are never accepted.

        Returns:
            (labels, owner, prefixes, mass, flat, accept): gf2.group_prefixes
            of the keys in canonical atom order, then each group's
            conditional and flat-slice masses and the filter decision.
        """
        labels, owner, prefixes = gf2.group_prefixes(
            gf2.hash_eval_batch(seeds, self._keys, self.i_s))
        ids, s = labels.ravel(), len(labels)
        mass = np.bincount(ids, weights=np.tile(self._probs, s))
        flat = np.bincount(ids, weights=np.tile(np.where(self._flat, self._probs, 0.0), s))
        light = np.bincount(ids, weights=np.tile(self._light, s))
        accept = (light <= 1) & (flat >= self._floor * mass)
        return labels, owner, prefixes, mass, flat, accept

    def f_s(self, seeds, ys):
        """Does hash value ys[s] isolate the flat slice under seed s?  One
        bool per seed, read out of one filter_groups call."""
        ys = np.asarray(ys, dtype=np.uint8)
        if ys.shape != (len(seeds[0]), self.i_s):
            raise ValueError(f"need one {self.i_s}-bit hash value per seed: {ys.shape}")
        _, owner, prefixes, _, _, accept = self.filter_groups(seeds)
        hit = accept & (prefixes == ys[owner]).all(axis=1)
        return np.bincount(owner[hit], minlength=len(ys)) > 0

    def __repr__(self):
        return (f"SliceAnalysis(j_s={self.j_s}, i_s={self.i_s}, "
                f"|G|={len(self.g_s)}, |A|={len(self.a_s)})")


def slice_analysis(k_s, params):
    """Run the slicing pipeline for one key distribution.

    The filter takes its hash seeds per call, as a gf2.sample_hash_seed
    pair (rows, offsets), and gf2.hash_eval_batch checks their shapes
    there. Raises if the prefix index j_s + pad overruns i_max, which marks
    the parameter set as rejected for this distribution.
    """
    j_s, g_s = find_flat_slice(k_s, params)
    limit = j_s + params.slack + dist.ENTROPY_TOL
    a_s = tuple(atom for atom, p in k_s.items_sorted()
                if -math.log2(float(p)) <= limit)
    i_s = j_s + params.pad
    if i_s > params.i_max:
        raise ValueError(
            f"parameter set rejected: prefix index {i_s} exceeds i_max {params.i_max}")
    return SliceAnalysis(j_s, g_s, a_s, i_s, k_s, params)


def g_pair_conditional(k_s, seed, i, r, analysis):
    """Exact last-bit conditionals of both generators under a one-seed hash
    pair, per hash value.

    For each observed y the real side carries the inner product <k, r>; the
    patched side replaces it with a fair coin exactly on keys of the flat
    slice when i hits the designated prefix length and the filter accepts
    (h, y). Off the trigger the two conditionals coincide. Masses keep the
    number type of k_s, so Fraction inputs give exact conditionals.

    Returns:
        dict mapping y to (real_bit_pmf, patched_bit_pmf).
    """
    items = k_s.items_sorted()
    xs, _ = gf2.support_matrix(k_s)
    # one labels row: unpacking raises unless the pair holds one seed
    (labels,), _, prefixes = gf2.group_prefixes(gf2.hash_eval_batch(seed, xs, i))
    ys = [tuple(y) for y in prefixes.tolist()]
    bits = ((xs @ np.asarray(r, dtype=np.uint8)) & 1).tolist()
    fired = set()
    if i == analysis.i_s:
        _, _, accepted, _, _, accept = analysis.filter_groups(seed)
        fired = {tuple(y) for y in accepted[accept].tolist()}
    flat = frozenset(analysis.g_s)
    weight = [0] * len(ys)
    mass0 = [[0, 0] for _ in ys]
    mass1 = [[0, 0] for _ in ys]
    for (atom, p), g, bit in zip(items, labels.tolist(), bits):
        weight[g] += p
        mass0[g][bit] += p
        if ys[g] in fired and atom in flat:
            mass1[g][0] += p / 2
            mass1[g][1] += p / 2
        else:
            mass1[g][bit] += p
    return {
        y: tuple(dist.Pmf({(b,): m / weight[g] for b, m in enumerate(side[g]) if m > 0})
                 for side in (mass0, mass1))
        for g, y in enumerate(ys)
    }


def _group_sums(bins, probs, kbits):
    # one bincount adds probs[i] * kbits[i, r] into bin bins[i * R + r],
    # R = kbits.shape[1], taking the rows i in order: key by key in atom
    # order within each group
    weights = (probs[:, None] * kbits).ravel()
    return np.bincount(bins, weights=weights).reshape(-1, kbits.shape[1])


def wpeg_entropy_gap(puzzle, params, seed_samples, rng):
    """Estimate the patched-minus-real entropy gap of a tabulated puzzle.

    Everything is exact except the hash seed: per sampled seed the
    conditional-entropy difference is computed in closed form over all
    instances, prefix positions, masks r and hash values, and only the seed
    average is Monte Carlo. Off-trigger positions contribute exactly zero,
    so the sum runs over the triggered slice alone.  The instances of a
    puzzles.tabulated_puzzles fixture are sliced once per parameter set.

    Each per-seed value lies in [-1/2, 1/2] up to rounding, so none is
    clipped: SliceParams forces pad > slack >= 1, so i_s >= 2, and
    slice_analysis rejects i_s > i_max, so i_max >= 2; each instance adds
    its accepted masses (at most 1 in all) times gains in [-1, 1], over
    i_max, weighted by the instance's probability.

    Returns:
        dict of params.describe(), gap (the mean per-seed value), radius
        (99% Hoeffding for values in [-1, 1]; zero for a provably dead
        trigger), trigger_mass, per_s and seed_samples.
    """
    if seed_samples < 1:
        raise ValueError("need at least one seed sample")
    if any(puzzle is fixture for fixture in puzzles.tabulated_puzzles().values()):
        instances = _fixture_instances(puzzle, params.levels, params.pad, params.slack,
                                       params.density_floor, params.i_max)
    else:
        instances = _slice_instances(puzzle, params)
    width = instances[0][2]._keys.shape[1]
    rmat = dist.bits_of(np.arange(2 ** width), width)
    # inner products <k, r> of every key with every mask, one row per key
    bits = [((analysis._keys @ rmat.T) & 1).astype(float) for _, _, analysis in instances]

    n_out = max(3 * width, max(analysis.i_s for _, _, analysis in instances))
    seeds = gf2.sample_hash_seed(rng, width, n_out, count=seed_samples)
    values = np.zeros(seed_samples)
    trigger = np.zeros(seed_samples)
    per_s_acc = {}
    for (ps, code, analysis), kbits in zip(instances, bits):
        labels, owner, _, mass, flat, accept = analysis.filter_groups(seeds)
        fired = np.flatnonzero(accept)
        # the (seed, key) pairs in accepted groups, and one bin per mask r
        # and place of the pair's group among the accepted groups
        hit = accept[labels]
        _, keys = np.nonzero(hit)
        place = (np.cumsum(accept) - 1)[labels[hit]]
        bins = (place[:, None] * len(rmat) + np.arange(len(rmat))).ravel()
        probs, kbits = analysis._probs[keys], kbits[keys]
        w = mass[fired, None]
        p_real = _group_sums(bins, probs, kbits) / w
        p_patch = (_group_sums(bins, probs * ~analysis._flat[keys], kbits)
                   + 0.5 * flat[fired, None]) / w
        gain = np.mean(_h2(p_patch) - _h2(p_real), axis=1)
        # bincount adds each seed's groups left to right, as the report
        # bits require; np.sum's pairwise order would move them
        diff_s = np.bincount(owner[fired], weights=mass[fired] * gain,
                             minlength=seed_samples)
        trig_s = np.bincount(owner[fired], weights=flat[fired], minlength=seed_samples)
        values += ps * diff_s / params.i_max
        trigger += ps * trig_s / params.i_max
        per_s_acc[code] = sum((diff_s / params.i_max).tolist(), 0.0)
    trigger_mass = float(trigger.mean())
    if trigger_mass == 0.0 and not values.any():
        radius = 0.0
    else:
        radius = hoeffding_radius(seed_samples, value_range=2.0)
    per_s = {k: v / seed_samples for k, v in per_s_acc.items()}
    return {"params": params.describe(), "gap": float(values.mean()), "radius": radius,
            "trigger_mass": trigger_mass, "per_s": per_s, "seed_samples": seed_samples}


def _slice_instances(puzzle, params):
    """(probability, encoded instance, slice_analysis) of each instance of
    a tabulated puzzle, in instance order; the keys must share one width."""
    s_marginal = puzzle.marginal_puzzles()
    instances = tuple((float(s_marginal.prob(s)), dist.encode_atom(s),
                       slice_analysis(puzzle.condition_on_puzzle(s), params))
                      for s in s_marginal.support())
    if len({analysis._keys.shape[1] for _, _, analysis in instances}) != 1:
        raise ValueError("key atoms must share one width")
    return instances


@functools.lru_cache(maxsize=32)
def _fixture_instances(fixture, levels, pad, slack, density_floor, i_max):
    # a fixed fixture's instances are constants of the slicing parameters,
    # shared by every later call, so their arrays are frozen
    instances = _slice_instances(fixture, SliceParams(levels, pad, slack, density_floor, i_max))
    for _, _, analysis in instances:
        for array in (analysis._keys, analysis._probs, analysis._flat, analysis._light):
            array.flags.writeable = False
    return instances


def core_lemma_gap(x, x_star, theta_heavy, theta_light):
    """Exact entropy gap for a source with one heavy atom.

    Compares (R, <X, R>) against (R, fair coin) over all masks R at once:
    the gap is 1 minus the average conditional bit entropy, with
    Pr[<X, R> = 1] = (1 - W(R)) / 2 from gf2.walsh_spectrum. Preconditions
    pin the fixture shape: x_star must carry at least theta_heavy and every
    other atom at most theta_light.
    """
    p_star = float(x.prob(tuple(x_star)))
    if p_star < theta_heavy:
        raise ValueError(
            f"heavy-mass clause failed: Pr[x_star] = {p_star} < {theta_heavy}")
    for atom, p in x.as_dict().items():
        if atom != tuple(x_star) and float(p) > theta_light + dist.MASS_TOL:
            raise ValueError(
                f"light-mass clause failed: atom {atom} carries {float(p)}"
                f" > {theta_light}")
    w = gf2.walsh_spectrum(x, len(x.support()[0]))
    return 1.0 - float(np.sum(_h2((1 - w) / 2))) / len(w)


def biased_coin_bounds(d):
    """Exact entropy of a d-biased bit next to its quadratic bounds, and
    whether the lower one applies (d <= 1/2), as a dict."""
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"bias must lie in [0, 1]: {d!r}")
    return {"entropy": float(_h2((1 + d) / 2)), "lower": 1 - d ** 2,
            "upper": 1 - d ** 2 / 2, "lower_applies": d <= 0.5}


def public_slicing_check(a, b0_given_a, b1_given_a, a_star):
    """Exact joint-entropy difference against the marked-set lower bound.

    Requires a conditional pair for every atom of a, and equal conditional
    entropies outside the marked set (the whole difference must come from
    marked atoms). Returns a dict of the difference, the smallest marked
    conditional gap min_gap, the marked mass a_star_mass, their product
    bound, and holds: difference >= bound within dist.ENTROPY_TOL.
    """
    rows = []
    for atom, p in a.items_sorted():
        if atom not in b0_given_a or atom not in b1_given_a:
            raise ValueError(f"conditional pair missing for atom {atom!r}")
        h0 = dist.shannon_entropy(b0_given_a[atom])
        h1 = dist.shannon_entropy(b1_given_a[atom])
        marked = atom in a_star
        if not marked and abs(h1 - h0) > dist.ENTROPY_TOL:
            raise ValueError(
                f"conditional entropies differ outside the marked set at {atom!r}")
        rows.append((float(p), h0, h1, marked))
    difference = sum(p * (h1 - h0) for p, h0, h1, _ in rows)
    marked_rows = [(p, h1 - h0) for p, h0, h1, m in rows if m]
    min_gap = min((g for _, g in marked_rows), default=0.0)
    mass = sum(p for p, _ in marked_rows)
    bound = min_gap * mass
    return {"difference": difference, "min_gap": min_gap, "a_star_mass": mass,
            "bound": bound, "holds": difference >= bound - dist.ENTROPY_TOL}


def concentration_bound(shannon, t, eps, support_size):
    """Smooth min-entropy floor for t independent copies.

    t*H minus a sqrt(t) deviation term in the alphabet size; base-2 logs
    throughout. Vacuously -inf at eps = 0.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    dist.check_eps(eps)
    if support_size < 1:
        raise ValueError("support must be nonempty")
    if eps == 0.0:
        return -math.inf
    dev = math.sqrt(2 * t * math.log2(1 / eps)) * math.log2(3 + support_size)
    return t * shannon - dev


def peg_product(g0, g1, repetitions, eps):
    """Amplify a generator pair by `repetitions` independent copies,
    smoothing the product entropies by eps in [0, 1).

    Entropies of the q-fold products are computed exactly from the value
    spectrum whatever q is, and the product distributions themselves are
    materialized only while they stay small.

    Returns:
        (product0, product1, report); the products are None above the
        materialization limit, and report is a dict of the settings, the
        smoothed and Shannon product entropies and the concentration floor.
    """
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    dist.check_eps(eps)
    q = int(repetitions)
    for g in (g0, g1):
        if q * math.log2(len(g)) > math.log2(dist.PRODUCT_ATOM_LIMIT) + dist.ENTROPY_TOL:
            raise ValueError(
                f"{q} copies of {len(g)} atoms would exceed the exact-mode limit")
    spec0 = dist.product_spectrum(g0, q)
    spec1 = dist.product_spectrum(g1, q)
    h_min = dist.smooth_min_entropy_spectrum(spec1, eps)
    h_max = dist.smooth_max_entropy_spectrum(spec0, eps)
    bound = concentration_bound(dist.shannon_entropy(g1), q, eps, len(g1))
    report = {"repetitions": q, "eps": eps, "h_min_smooth": h_min, "h_max_smooth": h_max,
              "gap": h_min - h_max, "concentration_bound": bound,
              "shannon_product_0": dist.entropy_spectrum(spec0),
              "shannon_product_1": dist.entropy_spectrum(spec1)}
    prod0 = dist.product_power(g0, q) if len(g0) ** q <= dist.MATERIALIZE_ATOM_LIMIT else None
    prod1 = dist.product_power(g1, q) if len(g1) ** q <= dist.MATERIALIZE_ATOM_LIMIT else None
    return prod0, prod1, report


def distinguisher_to_inverter(joint, distinguisher, params, trials, rng):
    """Turn a generator distinguisher into a puzzle-key search, empirically.

    Per trial: draw (key, instance) from the joint table (one rng.choice
    over its support), fix the prefix index at the designated length,
    enumerate candidate hash values over a bounded suffix, decode a key
    list (at GL advantage 0.3) from the distinguisher-built predictor at
    each candidate, and accept the single highest-agreement candidate when
    it has positive mass with the instance. The predictor draws one fair
    coin per query, in query order, and asks the distinguisher with it and
    the trial's seed (a gf2.sample_hash_seed pair of one). One guess per
    trial keeps the no-signal baseline at random guessing even though the
    key spaces here are tiny.

    Returns:
        Fraction of trials whose selected key has positive mass with the
        instance.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    pairs = joint.support()
    probs = np.array([float(joint.prob(k, s)) for k, s in pairs])
    cache = {}
    for s in joint.marginal_puzzles().support():
        k_s = joint.condition_on_puzzle(s)
        cache[s] = slice_analysis(k_s, params)
    width = len(pairs[0][0])
    suffix_budget = math.ceil(math.log2(3 * width)) + 2
    hits = 0
    for _ in range(trials):
        _, s = pairs[rng.choice(len(pairs), p=probs)]
        analysis = cache[s]
        seed = gf2.sample_hash_seed(rng, width, max(3 * width, analysis.i_s))
        i = analysis.i_s
        suffix = min(i, suffix_budget)
        prefix = tuple(int(b) for b in rng.integers(0, 2, size=i - suffix))

        best_score = -1.0
        best_key = None
        for tail_idx in range(2 ** suffix):
            y = prefix + tuple(dist.bits_of(tail_idx, suffix).tolist())

            def predictor(queries):
                bits = []
                for r in queries.tolist():
                    b = int(rng.integers(0, 2))
                    bits.append(b ^ (1 if distinguisher(s, seed, i, tuple(r), y, b) else 0))
                return bits

            scored = gf2.gl_decode_scored(predictor, width, 0.3, rng)
            key, score = scored[0]
            if score > best_score:
                best_score = score
                best_key = key
        if joint.prob(best_key, s) > 0:
            hits += 1
    return hits / trials
