"""Hash-truncated distinguishing pairs built on a high-entropy generator.

One branch hashes a draw from the generator and keeps the first s output
bits, the other emits s uniform bits; both publish the hash seed. Short
truncations make the branches statistically close (the extractor regime),
long ones make them nearly disjoint because the generator's support cannot
cover the output space. The crossing point sits half a gap above the
generator's max-entropy, and every distance here is computed in closed form
per seed. The generator is always a Pmf, and distance_sweep is the one
estimate of the seed-averaged (leftover-hash) distance: it returns numbers,
and cli writes them as report text.

truncation_for places the truncation at the first integer at or past the
crossover.  A crossover within dist.ENTROPY_TOL past an integer counts as
that integer, so float noise in the max-entropy cannot push the
truncation one bit longer.
"""

import math

import numpy as np

from . import dist, gf2
from ._mc import hoeffding_radius


def crossover_truncation(g0, gap_inst):
    """Truncation length where the pair flips from close to far.

    Half the instantiated entropy gap above the generator's max-entropy;
    below it the leftover-hash regime applies, above it support counting
    takes over.
    """
    if gap_inst < 0:
        raise ValueError(f"entropy gap must be nonnegative: {gap_inst!r}")
    return dist.max_entropy(g0) + gap_inst / 2


def truncation_for(g0, gap_inst):
    """The truncation length: the first integer at or past the crossover."""
    return max(0, math.ceil(crossover_truncation(g0, gap_inst) - dist.ENTROPY_TOL))


def efi_sample(source, truncation, b, rng):
    """Draw one output of branch b of the truncated-hash pair.

    Args:
        source: Pmf over bit-tuple atoms, all flattening to one width.
        truncation: number of hash output bits to keep, at most 3x the width.
        b: 0 for the hashed-generator branch, 1 for the uniform branch.
        rng: numpy Generator; the hash seed is fresh per call.

    Returns:
        (seed, y): a one-seed hash pair and a tuple of `truncation` bits.
    """
    if b not in (0, 1):
        raise ValueError(f"branch must be 0 or 1: {b!r}")
    if truncation < 0:
        raise ValueError(f"truncation must be nonnegative: {truncation!r}")
    xs, probs = gf2.support_matrix(source)
    width = xs.shape[1]
    if truncation > 3 * width:
        raise ValueError(
            f"truncation {truncation} exceeds the {3 * width}-bit hash output")
    seed = gf2.sample_hash_seed(rng, width)
    if b == 1:
        return seed, tuple(int(v) for v in rng.integers(0, 2, size=truncation))
    x = xs[rng.choice(len(xs), p=probs)]
    return seed, gf2.hash_eval(seed, x, truncation)


def hash_truncation_sd(g0, seeds, truncation):
    """Exact distance between the hashed generator and uniform, per seed.

    The cost is the support size rather than 2^truncation; see
    gf2.hashed_distances.
    """
    xs, probs = gf2.support_matrix(g0)
    return gf2.hashed_distances(gf2.hash_eval_batch(seeds, xs, truncation), probs)


def distance_sweep(g0, truncations, seed_samples, rng):
    """Estimate E_h[ SD(h(X)_s, uniform) ] over hash seeds, for each
    truncation s.

    The distance is exact for each sampled seed (gf2.hashed_distances);
    only the seed average is Monte Carlo.  One seed pool is drawn up front
    and shared by every truncation, which keeps the estimates exactly
    nondecreasing in s (appending hash bits never shrinks the per-seed
    distance) and the whole sweep cheap.

    Returns:
        (estimates, radius): one mean in [0, 1] per truncation, in order,
        and the 99% Hoeffding radius they share.
    """
    if seed_samples < 1:
        raise ValueError("need at least one seed sample")
    truncations = [int(s) for s in truncations]
    xs, probs = gf2.support_matrix(g0)
    width = xs.shape[1]
    for s in truncations:
        if not 0 <= s <= 3 * width:
            raise ValueError(
                f"truncation {s} outside [0, {3 * width}]")
    seeds = gf2.sample_hash_seed(rng, width, count=seed_samples)
    # prefixes nest, so every row reads the first s of the longest hashes
    ys = gf2.hash_eval_batch(seeds, xs, max(truncations, default=0))
    estimates = [float(np.mean(gf2.hashed_distances(ys[:, :, :s], probs)))
                 for s in truncations]
    return estimates, hoeffding_radius(seed_samples)
