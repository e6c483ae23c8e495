"""GF(2) linear algebra: pairwise-independent hashing, two-universal extraction,
and list decoding of noisy inner-product predictors.

Bit vectors are tuples of 0/1 ints at API boundaries; hot paths use uint8
numpy arrays internally.  Where a vector stands for an integer (a Walsh
mask, a GL subset), the integer is dist.index_of's: bit 0 most significant.

`group_prefixes` is the only place in the package that groups atoms by a
hash prefix.  It sorts the (S, N, i) bits of S seeds (`hash_eval_stack`)
once, by seed and then by prefix, so each seed's groups stay contiguous
and in order: `np.bincount` over the global group ids adds per seed
exactly as a one-seed call (`prefix_groups`) would.

A GL predictor maps an n-bit tuple to a bit and is called once per query,
in order; a `BatchPredictor` answers the whole (Q, n) query matrix at once.
"""

import math
from fractions import Fraction

import numpy as np

from qclab import dist
from qclab._mc import hoeffding_radius

# Walsh transform materializes a 2^n table; beyond this the caller should sample.
EXACT_INPUT_LIMIT = 16

# Most entries of GL's (m n, n) query and (m, n, 2^t) vote tables (_gl_candidates).
GL_TABLE_LIMIT = 2 ** 26

# Exhaustive seed enumeration walks 2^(n^2) rows; only tiny inputs are feasible.
PAIRWISE_EXACT_LIMIT = 3


def _check_bits(x):
    if not all(b in (0, 1) for b in x):
        raise ValueError(f"not a bit vector: {x!r}")


def inner_product(a, b):
    """GF(2) inner product of two equal-length bit tuples."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x & y for x, y in zip(a, b)) & 1


class HashSeed:
    """Seed of an affine GF(2) hash: a row matrix and an offset per output bit.

    Evaluating on x gives rows @ x + offsets (mod 2); truncation to the first
    i output bits is the canonical prefix family.
    """

    __slots__ = ("rows", "offsets")

    def __init__(self, rows, offsets):
        rows = np.asarray(rows, dtype=np.uint8)
        offsets = np.asarray(offsets, dtype=np.uint8)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-d matrix")
        if offsets.shape != (rows.shape[0],):
            raise ValueError("need one offset per row")
        if rows.max(initial=0) > 1 or offsets.max(initial=0) > 1:
            raise ValueError("seed entries must be bits")
        self.rows = rows
        self.offsets = offsets

    @property
    def n_in(self):
        return self.rows.shape[1]

    @property
    def n_out(self):
        return self.rows.shape[0]

    def __repr__(self):
        return f"HashSeed(n_in={self.n_in}, n_out={self.n_out})"


def sample_hash_seed(rng, n_in, n_out=None):
    """Uniform affine hash seed; n_out defaults to 3 * n_in."""
    if n_out is None:
        n_out = 3 * n_in
    # rng bits are bits of the right shapes: skip the constructor's re-check
    seed = object.__new__(HashSeed)
    seed.rows = rng.integers(0, 2, size=(n_out, n_in), dtype=np.uint8)
    seed.offsets = rng.integers(0, 2, size=n_out, dtype=np.uint8)
    return seed


def hash_eval(seed, x, i):
    """First i output bits of the hash on input x."""
    _check_bits(x)
    return tuple(hash_eval_batch(seed, [x], i)[0].tolist())


def hash_eval_batch(seed, xs, i):
    """hash_eval over the rows of an (N, n_in) uint8 matrix; returns (N, i)."""
    return hash_eval_stack([seed], xs, i)[0]


def hash_eval_stack(seeds, xs, i):
    """hash_eval of S seeds over the rows of an (N, n_in) uint8 matrix;
    returns (S, N, i)."""
    xs = np.asarray(xs, dtype=np.uint8)
    if xs.ndim != 2 or any(seed.n_in != xs.shape[1] for seed in seeds):
        raise ValueError("xs must be an (N, n_in) bit matrix")
    n_out = min(seed.n_out for seed in seeds)
    if not 0 <= i <= n_out:
        raise ValueError(f"prefix length {i} outside [0, {n_out}]")
    rows = np.stack([seed.rows[:i] for seed in seeds])
    offsets = np.stack([seed.offsets[:i] for seed in seeds])
    return (xs @ rows.transpose(0, 2, 1) + offsets[:, None, :]) & 1


def _walsh_transform(vec):
    # in-place fast Walsh-Hadamard butterfly, one pass per stride h
    h = 1
    while h < len(vec):
        pairs = vec.reshape(-1, 2, h)
        a = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        pairs[:, 1] = a - pairs[:, 1]
        h *= 2
    return vec


def walsh_spectrum(p, n):
    """Character sums W(r) = E[(-1)^<X,r>] of a Pmf over n-bit tuples, for
    every mask r at index dist.index_of(r); Pr[<X,r> = 1] = (1 - W(r)) / 2.
    One Walsh-Hadamard transform of the 2^n mass table: n <= EXACT_INPUT_LIMIT.
    """
    if n > EXACT_INPUT_LIMIT:
        raise ValueError(f"exact mode limited to n <= {EXACT_INPUT_LIMIT}")
    atoms = p.as_dict()
    bits = np.array(list(atoms))  # atoms of mixed lengths raise here
    if bits.shape != (len(atoms), n) or not np.isin(bits, (0, 1)).all():
        raise ValueError(f"atoms must be {n}-bit vectors")
    vec = np.zeros(2 ** n, dtype=np.float64)
    # distinct atoms hit distinct entries, so one assignment replaces +=
    vec[dist.index_of(bits)] = [float(q) for q in atoms.values()]
    return _walsh_transform(vec)


def extractor_distance(p, n):
    """Exact distance of (R, <X,R>) from uniform for uniform public R.

    Equals 2^-(n+1) * sum_r |W(r)| over the walsh_spectrum W of p.

    Args:
        p: Pmf over n-bit tuples.
        n: bit length of the atoms.

    Returns:
        The statistical distance as a float.
    """
    return float(np.abs(walsh_spectrum(p, n)).sum()) / 2 ** (n + 1)


def extractor_bound(k):
    """Upper bound 2^((1-k)/2) on extractor_distance for min-entropy k."""
    return 2.0 ** ((1.0 - k) / 2.0)


def collision_probability(n, i, diff):
    """Exact probability that two inputs differing by diff share an i-bit hash.

    Counts seeds directly with rational arithmetic; offsets cancel, so only
    the row distribution matters.  For any nonzero diff the answer is 2^-i.

    Args:
        n: input bit length, at most PAIRWISE_EXACT_LIMIT.
        i: hash prefix length, at most 3n.
        diff: nonzero difference vector x XOR x'.

    Returns:
        A Fraction.
    """
    if n > PAIRWISE_EXACT_LIMIT:
        raise ValueError(f"exact counting limited to n <= {PAIRWISE_EXACT_LIMIT}")
    if not 0 <= i <= 3 * n:
        raise ValueError(f"prefix length {i} outside [0, {3 * n}]")
    if len(diff) != n:
        raise ValueError("diff has the wrong length")
    _check_bits(diff)
    if not any(diff):
        raise ValueError("diff must be nonzero: inputs are required to be distinct")
    table = dist.bits_of(np.arange(2 ** n), n)
    agree = int((((table @ np.asarray(diff, dtype=np.uint8)) & 1) == 0).sum())
    per_row = Fraction(agree, 2 ** n)
    return per_row ** i


def support_matrix(p):
    """A Pmf's atoms as an (N, n) uint8 bit matrix, with their float masses.

    Rows follow the canonical atom order and nested atoms are flattened
    with dist.flat_bits; every atom must flatten to the same width n.
    """
    items = p.items_sorted()
    rows = [dist.flat_bits(atom) for atom, _ in items]
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise ValueError(f"atoms must flatten to one width, got {sorted(widths)}")
    return np.array(rows, dtype=np.uint8), np.array([float(q) for _, q in items])


def group_prefixes(ys):
    """Group each seed's rows of an (S, N, i) hash-bit array by value, at
    any i: prefixes are compared as packed bytes, never as 2^i table indices.

    Returns:
        (labels, owner, prefixes): labels[s, r] is the group of row r under
        seed s, owner[g] the seed of group g, and prefixes the (G, i) bits
        of each group, ordered by seed and then by prefix.
    """
    s, n, i = ys.shape
    # the big-endian seed index, then the packed prefix: keys compare in
    # (seed, prefix) order
    packed = np.packbits(ys, axis=2)
    keys = np.empty((s, n, 4 + packed.shape[2]), dtype=np.uint8)
    keys[:, :, :4] = np.arange(s, dtype=">u4").view(np.uint8).reshape(s, 1, 4)
    keys[:, :, 4:] = packed
    keys = keys.reshape(s * n, -1).view(np.dtype((np.void, keys.shape[2]))).ravel()
    _, first, labels = np.unique(keys, return_index=True, return_inverse=True)
    return labels.reshape(s, n), first // n, ys.reshape(s * n, i)[first]


def prefix_groups(seed, xs, i):
    """Group the rows of an (N, n_in) bit matrix by their first i hash bits:
    group_prefixes for one seed, returning (labels, prefixes)."""
    labels, _, prefixes = group_prefixes(hash_eval_stack([seed], xs, i))
    return labels[0], prefixes


def hashed_distances(ys, probs):
    """Exact SD(h(X)_m, uniform) per seed, from the (S, N, m) hash bits of
    the rows of X with masses probs.

    Only the hit outputs are summed; the unhit part of the output space
    folds into one closed-form term, so the cost is the support size rather
    than 2^m.
    """
    s, _, m = ys.shape
    if m == 0:
        return np.zeros(s)  # exactly, even when the float masses miss 1 by an ulp
    labels, owner, _ = group_prefixes(ys)
    u = 2.0 ** -m
    dev = np.abs(np.bincount(labels.ravel(), weights=np.tile(probs, s)) - u)
    counts = np.bincount(owner, minlength=s)
    # bincount adds each seed's groups left to right
    total = np.bincount(owner, weights=dev, minlength=s)
    return 0.5 * (total + (1.0 - counts * u))


def lhl_distance(p, m, n_seeds, rng):
    """Estimate E_h[ SD(h(X)_m, uniform) ] over random hash seeds.

    The inner distance is exact for each sampled seed; only the seed average
    is Monte Carlo.

    Args:
        p: Pmf over bit-tuple atoms, all flattening to one width n.
        m: output prefix length, at most 3n.
        n_seeds: number of seeds to average over.
        rng: numpy Generator.

    Returns:
        (mean, radius) with mean in [0, 1] and radius the 99% Hoeffding
        radius.
    """
    xs, probs = support_matrix(p)
    seeds = [sample_hash_seed(rng, xs.shape[1]) for _ in range(n_seeds)]
    values = hashed_distances(hash_eval_stack(seeds, xs, m), probs)
    return float(np.mean(values)), hoeffding_radius(n_seeds)


class BatchPredictor:
    """A GL predictor whose answer maps a (Q, n) uint8 query matrix to Q bits."""
    __slots__ = ("answer",)

    def __init__(self, answer):
        self.answer = answer


def gl_decode(predictor, n, eps, rng, queries=None, list_cap=None):
    """List-decode a linear function from a noisy inner-product predictor.

    Classic self-correction: guess the predictor's labels on t reference
    vectors, expand the guesses over subset sums (pairwise independent), and
    recover each coordinate by majority vote over predictor(query XOR e_j)
    corrected by the guessed subset label.  A predictor that agrees with
    <a, .> on a 1/2 + eps fraction of inputs puts a on the list with
    probability Omega(eps^2); a noiseless predictor always does.

    Args:
        predictor: callable mapping an n-bit tuple to a bit, or a
            BatchPredictor.
        n: length of the hidden vector.
        eps: advantage lower bound, in (0, 1/2].
        rng: numpy Generator driving the reference vectors.
        queries: predictor-call budget, default ceil(64 n / eps^2).
        list_cap: maximum list length, default ceil(4 / eps^2).

    Returns:
        List of candidate bit tuples, deduplicated, at most list_cap long.
    """
    out, _, _ = _gl_candidates(predictor, n, eps, rng, queries, list_cap)
    return out


def gl_decode_scored(predictor, n, eps, rng, queries=None, list_cap=None):
    """Like gl_decode, but pairs each candidate with its agreement score.

    The score is the fraction of the decoder's own queries on which the
    predictor's answer matches the candidate's inner product, in [0, 1].
    Near 1 means the predictor really is correlated with that candidate;
    near 1/2 means noise.  Candidates come back sorted by descending score.
    """
    out, refs, answers = _gl_candidates(predictor, n, eps, rng, queries, list_cap)
    cand = np.array(out, dtype=np.uint8)
    # label for query refs[T] ^ e_j under candidate a is <a, refs[T]> ^ a_j
    on_refs = (refs @ cand.T) & 1  # (m, C)
    pred = on_refs[:, None, :] ^ cand.T[None, :, :]  # (m, n, C)
    agree = (pred == answers[:, :, None]).mean(axis=(0, 1))
    order = np.argsort(-agree, kind="stable")
    return [(out[k], float(agree[k])) for k in order]


def _gl_candidates(predictor, n, eps, rng, queries, list_cap):
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"advantage must be in (0, 1/2], got {eps}")
    if n < 1:
        raise ValueError("need n >= 1")
    if queries is None:
        queries = math.ceil(64 * n / eps ** 2)
    if list_cap is None:
        list_cap = math.ceil(4 / eps ** 2)
    t = max(1, int(math.floor(math.log2(list_cap))))
    m = min(2 ** t - 1, max(1, queries // n))
    if m * n * max(n, 2 ** t) > GL_TABLE_LIMIT:
        raise ValueError(f"GL tables for n = {n}, eps = {eps} exceed {GL_TABLE_LIMIT} entries")

    base = rng.integers(0, 2, size=(t, n), dtype=np.uint8)
    guesses = dist.bits_of(np.arange(2 ** t), t)
    # nonzero subset masks 1..m; distinct subsets give pairwise-independent sums
    subset = guesses[1 : m + 1]
    refs = (subset @ base) & 1

    # query (a, j) is refs[a] ^ e_j, asked in row-major (a, j) order
    asked = (refs[:, None, :] ^ np.eye(n, dtype=np.uint8)).reshape(m * n, n)
    answers = (predictor.answer(asked) if isinstance(predictor, BatchPredictor)
               else [predictor(tuple(q)) for q in asked.tolist()])
    answers = (np.asarray(answers).reshape(m, n) & 1).astype(np.uint8)

    guess_labels = (subset @ guesses.T) & 1  # (m, 2^t)
    votes = answers[:, :, None] ^ guess_labels[:, None, :]
    ones = votes.sum(axis=0)  # (n, 2^t)
    candidates = (2 * ones > m).astype(np.uint8).T  # (2^t, n)

    # distinct candidates in order of first appearance, at most list_cap
    first = np.sort(np.unique(candidates, axis=0, return_index=True)[1])[:list_cap]
    return [tuple(row) for row in candidates[first].tolist()], refs, answers
