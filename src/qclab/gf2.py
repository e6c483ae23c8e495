"""GF(2) linear algebra: pairwise-independent hashing, two-universal extraction,
and list decoding of noisy inner-product predictors.

Bit vectors are tuples of 0/1 ints at API boundaries; hot paths use uint8
numpy arrays internally.  Where a vector stands for an integer (a Walsh
mask, a GL subset), the integer is dist.index_of's: bit 0 most significant.

S seeds of the affine hash x -> Ax + b are a pair (rows, offsets) of uint8
arrays, (S, n_out, n_in) and (S, n_out); `hash_eval_batch` evaluates them
and `hash_eval` is its form for one seed and one input.  `group_prefixes`,
the one grouping by hash prefix, sorts hash_eval_batch's (S, N, i) bits
once, by seed and then by prefix, so each seed's groups stay contiguous
and in order: `np.bincount` over the global group ids adds per seed
exactly as a call for that seed alone would.

A GL predictor is a callable that takes the (Q, n) uint8 matrix of all
its queries and returns Q bits.  Goldreich-Levin queries are
non-adaptive: the random base fixes every query before the predictor is
asked, so one batched call is the whole conversation.  `gl_vote` decodes
T trials at once from their stacked bases, with a predictor over the
(T, Q, n) queries; `gl_decode` is its form for one trial.
"""

import math
from fractions import Fraction

import numpy as np

from qclab import dist

# Walsh transform materializes a 2^n table; beyond this the caller should sample.
EXACT_INPUT_LIMIT = 16

# Most entries of one trial's (m n, n) query and (m, n, 2^t) vote tables (gl_vote).
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


def sample_hash_seed(rng, n_in, n_out=None, count=1):
    """count uniform affine hash seeds as the pair (rows, offsets), uint8
    arrays of shapes (count, n_out, n_in) and (count, n_out); n_out
    defaults to 3 * n_in.

    The bits are those of one rng.integers(0, 2, dtype=np.uint8) call for
    each seed's rows and then one for its offsets, and the rng is left
    where those calls leave it, from a single draw of uint32 words: such
    a call takes bit byte >> 7 from each little-endian byte of a fresh
    word and drops the bytes of its last word that it does not use.
    """
    if n_out is None:
        n_out = 3 * n_in
    row_words, offset_words = -(-n_out * n_in // 4), -(-n_out // 4)
    words = rng.integers(0, 2 ** 32, size=(count, row_words + offset_words),
                         dtype=np.uint32)
    bits = words.astype("<u4", copy=False).view(np.uint8) >> 7
    rows = bits[:, :n_out * n_in].reshape(count, n_out, n_in)
    offsets = bits[:, 4 * row_words:4 * row_words + n_out]
    return rows, offsets


def hash_eval(seeds, x, i):
    """First i output bits of the hash on input x, for a pair holding one seed."""
    _check_bits(x)
    if len(seeds[0]) != 1:
        raise ValueError(f"need exactly one seed, got {len(seeds[0])}")
    return tuple(hash_eval_batch(seeds, [x], i)[0, 0].tolist())


def hash_eval_batch(seeds, xs, i):
    """First i output bits, rows @ x + offsets (mod 2), of each seed of the
    pair (rows, offsets) on each row x of an (N, n_in) uint8 matrix;
    returns (S, N, i)."""
    rows, offsets = seeds
    xs = np.asarray(xs, dtype=np.uint8)
    if (xs.ndim != 2 or rows.ndim != 3 or rows.shape[2] != xs.shape[1]
            or offsets.shape != rows.shape[:2]):
        raise ValueError("need (S, n_out, n_in) rows, (S, n_out) offsets and (N, n_in) xs")
    if not 0 <= i <= rows.shape[1]:
        raise ValueError(f"prefix length {i} outside [0, {rows.shape[1]}]")
    return (xs @ rows[:, :i].transpose(0, 2, 1) + offsets[:, None, :i]) & 1


def _walsh_transform(vec):
    # in-place fast Walsh-Hadamard butterfly along the last axis of a
    # C-contiguous array, one pass per stride h
    h = 1
    while h < vec.shape[-1]:
        pairs = vec.reshape(*vec.shape[:-1], -1, 2, h)
        a = pairs[..., 0, :].copy()
        pairs[..., 0, :] += pairs[..., 1, :]
        pairs[..., 1, :] = a - pairs[..., 1, :]
        h *= 2
    return vec


def _mass_table(p, n):
    # the 2^n masses of a Pmf over n-bit tuples, at dist.index_of's indices
    if n > EXACT_INPUT_LIMIT:
        raise ValueError(f"exact mode limited to n <= {EXACT_INPUT_LIMIT}")
    atoms = p.as_dict()
    bits = np.array(list(atoms))  # atoms of mixed lengths raise here
    if bits.shape != (len(atoms), n) or not np.isin(bits, (0, 1)).all():
        raise ValueError(f"atoms must be {n}-bit vectors")
    vec = np.zeros(2 ** n, dtype=np.float64)
    # distinct atoms hit distinct entries, so one assignment replaces +=
    vec[dist.index_of(bits)] = [float(q) for q in atoms.values()]
    return vec


def walsh_spectrum(p, n):
    """Character sums W(r) = E[(-1)^<X,r>] of a Pmf over n-bit tuples, for
    every mask r at index dist.index_of(r); Pr[<X,r> = 1] = (1 - W(r)) / 2.
    One Walsh-Hadamard transform of the 2^n mass table: n <= EXACT_INPUT_LIMIT.
    """
    return _walsh_transform(_mass_table(p, n))


def extractor_distances(masses):
    """Exact distance of (R, <X,R>) from uniform for uniform public R, for
    each row of a C-contiguous (T, 2^n) float64 table of masses of n-bit X
    in dist.index_of order: 2^-(n+1) * sum_r |W(r)| over the row's Walsh
    spectrum W.  The table is transformed in place; returns T floats.
    """
    return np.abs(_walsh_transform(masses)).sum(axis=1) / (2 * masses.shape[1])


def extractor_distance(p, n):
    """extractor_distances of one Pmf over n-bit tuples.

    Args:
        p: Pmf over n-bit tuples.
        n: bit length of the atoms.

    Returns:
        The statistical distance as a float.
    """
    return float(extractor_distances(_mass_table(p, n)[None])[0])


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
    """Group each seed's rows of hash_eval_batch's (S, N, i) bits by value,
    at any i: prefixes are compared as packed bytes, never as 2^i indices.

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


def gl_decode(predictor, n, eps, rng):
    """List-decode a linear function from a noisy inner-product predictor.

    Classic self-correction: guess the predictor's labels on t reference
    vectors, expand the guesses over subset sums (pairwise independent), and
    recover each coordinate by majority vote over predictor(query XOR e_j)
    corrected by the guessed subset label.  A predictor that agrees with
    <a, .> on a 1/2 + eps fraction of inputs puts a on the list with
    probability Omega(eps^2); a noiseless predictor always does.  This is
    gl_vote on the one base gl_base draws.

    Args:
        predictor: callable mapping a (Q, n) uint8 query matrix to Q bits.
        n: length of the hidden vector.
        eps: advantage lower bound, in (0, 1/2].
        rng: numpy Generator driving the reference vectors.

    Returns:
        List of candidate bit tuples, deduplicated, at most
        ceil(4 / eps^2) long.
    """
    return _distinct(_gl_one(predictor, n, eps, rng)[2])


def gl_decode_scored(predictor, n, eps, rng):
    """Like gl_decode, but pairs each candidate with its agreement score.

    The score is the fraction of the decoder's own queries on which the
    predictor's answer matches the candidate's inner product, in [0, 1].
    Near 1 means the predictor really is correlated with that candidate;
    near 1/2 means noise.  Candidates come back sorted by descending score.
    """
    refs, answers, candidates = _gl_one(predictor, n, eps, rng)
    out = _distinct(candidates)
    cand = np.array(out, dtype=np.uint8)
    # label for query refs[T] ^ e_j under candidate a is <a, refs[T]> ^ a_j
    on_refs = (refs @ cand.T) & 1  # (m, C)
    pred = on_refs[:, None, :] ^ cand.T[None, :, :]  # (m, n, C)
    agree = (pred == answers[:, :, None]).mean(axis=(0, 1))
    order = np.argsort(-agree, kind="stable")
    return [(out[k], float(agree[k])) for k in order]


def gl_sizes(n, eps):
    """(t, entries): gl_decode's 2^t guesses for advantage eps, and the
    entries of its largest table on n bits, held to GL_TABLE_LIMIT."""
    # 2^t guesses, at most ceil(4 / eps^2), and m = 2^t - 1 reference vectors
    t = max(1, int(math.floor(math.log2(math.ceil(4 / eps ** 2)))))
    return t, (2 ** t - 1) * n * max(n, 2 ** t)


def gl_base(n, eps, rng):
    """The (t, n) uint8 base whose 2^t - 1 nonzero subset sums are GL's
    reference vectors for advantage eps, drawn from rng.  Raises
    ValueError, before any draw, on eps outside (0, 1/2], n < 1 or tables
    past GL_TABLE_LIMIT."""
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"advantage must be in (0, 1/2], got {eps}")
    if n < 1:
        raise ValueError("need n >= 1")
    t, entries = gl_sizes(n, eps)
    if entries > GL_TABLE_LIMIT:
        raise ValueError(f"GL tables for n = {n}, eps = {eps} exceed {GL_TABLE_LIMIT} entries")
    return rng.integers(0, 2, size=(t, n), dtype=np.uint8)


def gl_vote(bases, predictor):
    """GL list decoding of T trials at once, from their stacked (T, t, n)
    bases (gl_base's draws).

    predictor maps the (T, m n, n) uint8 queries, trial by trial, to
    (T, m n) bits; trial k's queries are refs[k, a] ^ e_j in row-major
    (a, j) order, as gl_decode asks them.

    Returns:
        (refs, answers, candidates): the (T, m, n) reference vectors, the
        (T, m, n) answer bits and the (T, 2^t, n) majority votes, row g
        under guess g (index_of order), duplicates included.
    """
    _, t, n = bases.shape
    m = 2 ** t - 1
    guesses = dist.bits_of(np.arange(2 ** t), t)
    # nonzero subset masks 1..m; distinct subsets give pairwise-independent sums
    subset = guesses[1:]
    refs = (subset @ bases) & 1
    asked = (refs[:, :, None, :] ^ np.eye(n, dtype=np.uint8)).reshape(len(bases), m * n, n)
    answers = (np.asarray(predictor(asked)).reshape(refs.shape) & 1).astype(np.uint8)

    guess_labels = (subset @ guesses.T) & 1  # (m, 2^t)
    votes = answers[:, :, :, None] ^ guess_labels[:, None, :]
    ones = votes.sum(axis=1)  # (T, n, 2^t)
    candidates = (2 * ones > m).astype(np.uint8).transpose(0, 2, 1)
    return refs, answers, candidates


def _gl_one(predictor, n, eps, rng):
    # gl_vote on one trial: its refs, answers and candidates
    base = gl_base(n, eps, rng)
    out = gl_vote(base[None], lambda asked: np.asarray(predictor(asked[0]))[None])
    return tuple(a[0] for a in out)


def _distinct(candidates):
    # distinct candidate rows as bit tuples, in order of first appearance
    first = np.sort(np.unique(candidates, axis=0, return_index=True)[1])
    return [tuple(row) for row in candidates[first].tolist()]
