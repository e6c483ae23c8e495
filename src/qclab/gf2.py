"""GF(2) linear algebra: pairwise-independent hashing, two-universal extraction,
and list decoding of noisy inner-product predictors.

Bit vectors are tuples of 0/1 ints at API boundaries; hot paths use uint8
numpy arrays internally.  Integer packing is little-endian (bit 0 is the
least significant bit) everywhere in this module.

`prefix_groups` is the only place in the package that groups atoms by a
hash prefix: the hashed-output distances here and in `efi`, and the slice
filter in `pseudoentropy`, all go through it.  Its byte packing of prefixes
never leaves this module; callers see group labels and prefix bits.
"""

import math
from fractions import Fraction

import numpy as np

from qclab import dist
from qclab._mc import hoeffding_radius

# Walsh transform materializes a 2^n table; beyond this the caller should sample.
EXACT_INPUT_LIMIT = 16

# Exhaustive seed enumeration walks 2^(n^2) rows; only tiny inputs are feasible.
PAIRWISE_EXACT_LIMIT = 3


def _check_bits(x):
    if not all(b in (0, 1) for b in x):
        raise ValueError(f"not a bit vector: {x!r}")


def xor_bits(a, b):
    """Componentwise XOR of two equal-length bit tuples."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    _check_bits(a)
    _check_bits(b)
    return tuple(x ^ y for x, y in zip(a, b))


def inner_product(a, b):
    """GF(2) inner product of two equal-length bit tuples."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x & y for x, y in zip(a, b)) & 1


def bits_from_int(v, width):
    """Little-endian bit tuple of v, padded to width."""
    if v < 0 or v >= 1 << width:
        raise ValueError(f"{v} does not fit in {width} bits")
    return tuple((v >> j) & 1 for j in range(width))


def int_from_bits(bits):
    """Inverse of bits_from_int."""
    _check_bits(bits)
    return sum(b << j for j, b in enumerate(bits))


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
    rows = rng.integers(0, 2, size=(n_out, n_in), dtype=np.uint8)
    offsets = rng.integers(0, 2, size=n_out, dtype=np.uint8)
    return HashSeed(rows, offsets)


def toeplitz_hash_seed(rng, n_in, n_out=None):
    """Toeplitz-structured alternative: constant diagonals, n_out + n_in - 1
    free row bits plus the offsets.  Same pairwise-independence guarantee with
    a shorter seed."""
    if n_out is None:
        n_out = 3 * n_in
    diag = rng.integers(0, 2, size=n_out + n_in - 1, dtype=np.uint8)
    idx = np.arange(n_out)[:, None] - np.arange(n_in)[None, :] + n_in - 1
    offsets = rng.integers(0, 2, size=n_out, dtype=np.uint8)
    return HashSeed(diag[idx], offsets)


def seed_bit_length(n_in, n_out=None):
    """Bits needed to describe a dense affine seed."""
    if n_out is None:
        n_out = 3 * n_in
    return n_out * n_in + n_out


def seed_to_bytes(seed):
    """Pack rows (row-major) then offsets, little-endian within each byte."""
    flat = np.concatenate([seed.rows.ravel(), seed.offsets])
    return np.packbits(flat, bitorder="little").tobytes()


def seed_from_bytes(raw, n_in, n_out=None):
    """Inverse of seed_to_bytes."""
    if n_out is None:
        n_out = 3 * n_in
    need = seed_bit_length(n_in, n_out)
    flat = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    if len(flat) < need:
        raise ValueError("byte string too short for this seed shape")
    flat = flat[:need]
    rows = flat[: n_out * n_in].reshape(n_out, n_in)
    return HashSeed(rows, flat[n_out * n_in:])


def hash_eval(seed, x, i):
    """First i output bits of the hash on input x."""
    if len(x) != seed.n_in:
        raise ValueError(f"input has {len(x)} bits, seed expects {seed.n_in}")
    if not 0 <= i <= seed.n_out:
        raise ValueError(f"prefix length {i} outside [0, {seed.n_out}]")
    _check_bits(x)
    if i == 0:
        return ()
    xv = np.asarray(x, dtype=np.uint8)
    out = (seed.rows[:i] @ xv + seed.offsets[:i]) & 1
    return tuple(int(b) for b in out)


def hash_eval_batch(seed, xs, i):
    """hash_eval over the rows of an (N, n_in) uint8 matrix; returns (N, i)."""
    xs = np.asarray(xs, dtype=np.uint8)
    if xs.ndim != 2 or xs.shape[1] != seed.n_in:
        raise ValueError("xs must be an (N, n_in) bit matrix")
    if not 0 <= i <= seed.n_out:
        raise ValueError(f"prefix length {i} outside [0, {seed.n_out}]")
    return (xs @ seed.rows[:i].T + seed.offsets[:i]) & 1


def _walsh_transform(vec):
    # in-place fast Walsh-Hadamard butterfly
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


def extractor_distance(p, n):
    """Exact distance of (R, <X,R>) from uniform for uniform public R.

    Equals 2^-(n+1) * sum_r |E[(-1)^<X,r>]|, computed with a Walsh transform
    over the 2^n mask table.

    Args:
        p: Pmf over n-bit tuples.
        n: bit length of the atoms.

    Returns:
        The statistical distance as a float.
    """
    if n > EXACT_INPUT_LIMIT:
        raise ValueError(f"exact mode limited to n <= {EXACT_INPUT_LIMIT}")
    vec = np.zeros(2 ** n, dtype=np.float64)
    for atom, q in p.as_dict().items():
        if len(atom) != n:
            raise ValueError(f"atom {atom!r} is not {n} bits")
        vec[int_from_bits(atom)] += q
    _walsh_transform(vec)
    return float(np.abs(vec).sum()) / 2 ** (n + 1)


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
    agree = sum(
        1 for a in range(2 ** n) if inner_product(bits_from_int(a, n), diff) == 0
    )
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


def prefix_groups(seed, xs, i):
    """Group the rows of an (N, n_in) bit matrix by their first i hash bits.

    Works at any prefix length the seed supports: prefixes are compared as
    packed bytes, never as indices into a 2^i table.

    Returns:
        (labels, prefixes): labels[r] is the group of row r, and prefixes is
        a (G, i) uint8 matrix holding each group's hash prefix.  Groups are
        ordered by their prefix read as a little-endian integer.
    """
    ys = hash_eval_batch(seed, xs, i)
    # big-endian bytes of the reversed prefix compare in little-endian
    # integer order; the leading pad byte keeps i = 0 a valid key width
    packed = np.packbits(ys[:, ::-1], axis=1)
    keys = np.zeros((len(ys), 1 + packed.shape[1]), dtype=np.uint8)
    keys[:, 1:] = packed
    keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    _, first, labels = np.unique(keys, return_index=True, return_inverse=True)
    return labels, ys[first]


def hashed_distance(seed, xs, probs, m):
    """Exact SD(h(X)_m, uniform) for one seed, X given by rows and masses.

    Only the hit outputs are summed; the unhit part of the output space
    folds into one closed-form term, so the cost is the support size rather
    than 2^m.
    """
    if m == 0:
        return 0.0  # exactly, even when the float masses miss 1 by an ulp
    labels, _ = prefix_groups(seed, xs, m)
    mass = np.bincount(labels, weights=probs)
    u = 2.0 ** -m
    return 0.5 * (float(np.abs(mass - u).sum()) + (1.0 - len(mass) * u))


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
    n = xs.shape[1]
    values = [hashed_distance(sample_hash_seed(rng, n), xs, probs, m)
              for _ in range(n_seeds)]
    return float(np.mean(values)), hoeffding_radius(n_seeds)


def gl_decode(predictor, n, eps, rng, queries=None, list_cap=None):
    """List-decode a linear function from a noisy inner-product predictor.

    Classic self-correction: guess the predictor's labels on t reference
    vectors, expand the guesses over subset sums (pairwise independent), and
    recover each coordinate by majority vote over predictor(query XOR e_j)
    corrected by the guessed subset label.  A predictor that agrees with
    <a, .> on a 1/2 + eps fraction of inputs puts a on the list with
    probability Omega(eps^2); a noiseless predictor always does.

    Args:
        predictor: callable mapping an n-bit tuple to a bit.
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

    base = rng.integers(0, 2, size=(t, n), dtype=np.uint8)
    # nonzero subset masks 1..m; distinct subsets give pairwise-independent sums
    masks = np.arange(1, m + 1, dtype=np.uint64)
    subset = ((masks[:, None] >> np.arange(t, dtype=np.uint64)) & 1).astype(np.uint8)
    refs = (subset @ base) & 1

    answers = np.empty((m, n), dtype=np.uint8)
    for a in range(m):
        for j in range(n):
            q = refs[a].copy()
            q[j] ^= 1
            answers[a, j] = predictor(tuple(int(b) for b in q)) & 1

    guesses = ((np.arange(2 ** t)[:, None] >> np.arange(t)) & 1).astype(np.uint8)
    guess_labels = (subset @ guesses.T) & 1  # (m, 2^t)
    votes = answers[:, :, None] ^ guess_labels[:, None, :]
    ones = votes.sum(axis=0)  # (n, 2^t)
    candidates = (2 * ones > m).astype(np.uint8).T  # (2^t, n)

    out = []
    seen = set()
    for row in candidates:
        key = tuple(int(b) for b in row)
        if key not in seen:
            seen.add(key)
            out.append(key)
        if len(out) >= list_cap:
            break
    return out, refs, answers
