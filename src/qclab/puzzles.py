"""One-way puzzles: classical-shadow puzzles built on state generators, and
small tabulated puzzles with exactly known joint distributions.

A shadow is a list of random-basis single-qubit measurement records.  The
overlap estimator averages, per snapshot, the tensor product of 3|s><s| - I
factors sandwiched in the target state, and takes a median of group means,
so its accuracy needs no assumption beyond snapshot independence.

Each factor is diagonal in its rotated frame, with 2 on the observed
outcome and -1 off it.  So a snapshot in basis b with outcome s estimates
(M^{(x)m} p_b)(s), where p_b = |R_b psi|^2 is the target's outcome
distribution in basis b and M = [[2, -1], [-1, 2]].  Sampling and
estimation rotate whole arrays once per distinct basis a shadow drew;
no per-snapshot operator is built.  The puzzle verifier reads the honest
states that OwsgScheme.honest_states builds once per scheme.
"""

import struct
from fractions import Fraction

import numpy as np

from qclab import dist, qsim

BASIS_CHARS = "XYZ"
# largest snapshot or qubit count the uint16 stream header holds
SNAPSHOT_LIMIT = 0xFFFF

# rotation applied before a computational measurement, per basis trit
_ROTATIONS = np.stack([
    qsim.H,
    qsim.H @ np.array([[1, 0], [0, -1j]], dtype=complex),
    np.eye(2, dtype=complex),
])
_LETTERS = np.frombuffer(BASIS_CHARS.encode(), dtype=np.uint8)
# numbers a per-basis table may hold at once; wide registers go in blocks
_TABLE_ENTRIES = 1 << 20


class ShadowParams:
    """Estimation budget: tolerance, failure probability, snapshots, groups."""

    __slots__ = ("eps", "delta", "t_snapshots", "k_groups")

    def __init__(self, eps, delta, t_snapshots, k_groups):
        if not 0.0 < eps < 1.0:
            raise ValueError(f"tolerance must be in (0, 1), got {eps}")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"failure probability must be in (0, 1), got {delta}")
        if t_snapshots < 1 or k_groups < 1 or t_snapshots % k_groups != 0:
            raise ValueError(
                f"group count {k_groups} must divide snapshot count {t_snapshots}"
            )
        if t_snapshots > SNAPSHOT_LIMIT:
            raise ValueError(
                f"snapshot count {t_snapshots} exceeds the serializable {SNAPSHOT_LIMIT}"
            )
        self.eps = eps
        self.delta = delta
        self.t_snapshots = t_snapshots
        self.k_groups = k_groups

    @classmethod
    def default(cls, n):
        """Budget keyed to an n-bit key space: 16n snapshots in 8 groups."""
        return cls(eps=0.1, delta=2.0 ** (-2 * n), t_snapshots=16 * n, k_groups=8)

    def __repr__(self):
        return (f"ShadowParams(eps={self.eps}, delta={self.delta}, "
                f"t={self.t_snapshots}, k={self.k_groups})")


class Shadow:
    """Measurement record: one basis string and one outcome tuple per snapshot.

    Outcomes are stored as Python ints.  The same record is kept as two
    read-only (t, m) uint8 arrays, basis trits (X=0, Y=1, Z=2) and outcome
    bits, which the estimator and the serializer read.
    """

    __slots__ = ("bases", "outcomes", "_trits", "_bits")

    def __init__(self, bases, outcomes):
        bases = tuple(map("".join, bases))
        if len(bases) != len(outcomes) or not bases:
            raise ValueError("need one outcome tuple per basis string, at least one")
        width = len(bases[0])
        if set(map(len, bases)) | set(map(len, outcomes)) != {width}:
            raise ValueError("snapshot width is not constant")
        letters = "".join(bases)
        if not set(letters) <= set(BASIS_CHARS):
            raise ValueError(f"unknown basis character in {letters!r}")
        bits = np.array(outcomes)
        if (bits.shape != (len(bases), width) or bits.dtype.kind not in "biuf"
                or not np.isin(bits, (0, 1)).all()):
            raise ValueError("outcomes must be one 0/1 bit per qubit")
        trits = np.frombuffer(letters.encode(), dtype=np.uint8) - _LETTERS[0]
        self._fill(trits.reshape(bits.shape), bits)

    @classmethod
    def _of(cls, trits, bits):
        # a record whose trits and bits are already known to be in range
        shadow = cls.__new__(cls)
        shadow._fill(trits, bits)
        return shadow

    def _fill(self, trits, bits):
        t, m = trits.shape
        if t < 1 or m < 1:
            raise ValueError(f"a shadow needs a snapshot and a qubit, got {t}x{m}")
        self._trits = trits.astype(np.uint8)
        self._bits = bits.astype(np.uint8)
        self._trits.flags.writeable = self._bits.flags.writeable = False
        letters = _LETTERS[self._trits].view(f"S{m}")[:, 0]
        self.bases = tuple(letters.astype(f"U{m}").tolist())
        self.outcomes = tuple(map(tuple, self._bits.tolist()))

    @property
    def n_snapshots(self):
        return len(self.bases)

    @property
    def n_qubits(self):
        return len(self.bases[0])

    def __repr__(self):
        return f"Shadow(n_snapshots={self.n_snapshots}, n_qubits={self.n_qubits})"


def _drawn_bases(vectors, trits):
    """Outcome distributions of the (K, 2^m) vectors in each distinct basis
    of the (t, m) trits: a (B, 2^m, K) array, and each snapshot's basis."""
    m = trits.shape[1]
    codes = trits @ 3 ** np.arange(m - 1, -1, -1)
    _, first, row = np.unique(codes, return_index=True, return_inverse=True)
    gates = _ROTATIONS[trits[first]]
    b, (k, d) = len(first), vectors.shape
    amps = np.broadcast_to(np.ascontiguousarray(vectors.T), (b, d, k))
    for q in range(m):
        # the axis of size 2 is qubit q; qubit 0 is the most significant bit
        blocks = amps.reshape(b, 1 << q, 2, (d >> (q + 1)) * k)
        amps = gates[:, q, None] @ blocks
    amps = amps.reshape(b, d, k)
    return amps.real ** 2 + amps.imag ** 2, row


def _blocks(t, width):
    # snapshot ranges whose per-basis tables stay within _TABLE_ENTRIES
    step = max(1, _TABLE_ENTRIES // width)
    return [slice(lo, lo + step) for lo in range(0, t, step)]


def shadow_gen(state, t_snapshots, rng):
    """Collect t_snapshots random-basis measurement records of a pure state.

    All basis picks are drawn first, then one uniform per snapshot that
    picks its outcome by inverse CDF.
    """
    m = state.n_qubits
    trits = rng.integers(0, 3, size=(t_snapshots, m))
    draws = rng.random(t_snapshots)
    index = np.empty(t_snapshots, dtype=np.int64)
    for blk in _blocks(t_snapshots, 2 ** m):
        probs, row = _drawn_bases(state.vector[None], trits[blk])
        cdf = np.cumsum(probs[:, :, 0], axis=1)
        cdf = (cdf / cdf[:, -1:])[row]
        index[blk] = (cdf <= draws[blk, None]).sum(axis=1)
    return Shadow._of(trits, dist.bits_of(index, m))


def estimate_overlap_many(shadow, targets, k_groups):
    """Median-of-means overlap estimates against several target states.

    Each target's outcome distribution is tabulated once per distinct basis
    of the shadow and each snapshot reads its entry.

    Args:
        shadow: measurement record.
        targets: sequence of PureState on the shadow's register, or the
            (K, 2^m) array of their statevectors.
        k_groups: number of groups; must divide the snapshot count.

    Returns:
        Array of estimates, one per target.
    """
    t, m = shadow.n_snapshots, shadow.n_qubits
    if k_groups < 1 or t % k_groups != 0:
        raise ValueError(f"group count {k_groups} must divide snapshot count {t}")
    if isinstance(targets, np.ndarray):
        mat = targets
    else:
        mat = np.stack([s.vector for s in targets])
    if mat.ndim != 2 or mat.shape[1] != 2 ** m:
        raise ValueError("targets live on a different register than the shadow")
    index = dist.index_of(shadow._bits)
    per_snap = np.empty((t, len(mat)))
    for blk in _blocks(t, mat.size):
        table, row = _drawn_bases(mat, shadow._trits[blk])
        for q in range(m):
            # M = 3I - J: three times each entry less the sum of its pair
            pairs = table.reshape(len(table), 1 << q, 2, -1)
            table = 3 * pairs - pairs.sum(axis=2, keepdims=True)
        per_snap[blk] = table.reshape(len(table), 2 ** m, -1)[row, index[blk]]
    group_means = np.sort(per_snap.reshape(k_groups, t // k_groups, -1).mean(axis=1), axis=0)
    # np.median's value, without the numpy.ma import (1.2 MiB) np.median makes
    return (group_means[(k_groups - 1) // 2] + group_means[k_groups // 2]) / 2


def estimate_overlap(shadow, target, k_groups):
    """Single-target form of estimate_overlap_many."""
    return float(estimate_overlap_many(shadow, [target], k_groups)[0])


def shadow_to_bytes(shadow):
    """Serialize: uint16 snapshot and qubit counts, then per snapshot the
    basis trits (2 bits each, X=0 Y=1 Z=2) followed by the outcome bits,
    all packed LSB-first."""
    t, m = shadow.n_snapshots, shadow.n_qubits
    if max(t, m) > SNAPSHOT_LIMIT:
        raise ValueError(
            f"a {t}x{m} shadow exceeds the stream's limit of {SNAPSHOT_LIMIT} "
            "snapshots and qubits"
        )
    trits = shadow._trits
    rows = np.concatenate(
        [np.unpackbits(trits[:, :, None], axis=2, count=2, bitorder="little")
         .reshape(t, 2 * m), shadow._bits],
        axis=1,
    )
    packed = np.packbits(rows, bitorder="little")
    return struct.pack("<HH", t, m) + packed.tobytes()


def shadow_from_bytes(raw):
    """Inverse of shadow_to_bytes; rejects truncated or padded streams."""
    if len(raw) < 4:
        raise ValueError("shadow stream shorter than its header")
    t, m = struct.unpack("<HH", raw[:4])
    need_bits = t * 3 * m
    if len(raw) != 4 + (need_bits + 7) // 8:
        raise ValueError("shadow stream length does not match its header")
    flat = np.unpackbits(np.frombuffer(raw, dtype=np.uint8, offset=4),
                         count=need_bits, bitorder="little")
    rows = flat.reshape(t, 3 * m)
    pairs = rows[:, : 2 * m].reshape(t, m, 2)
    trits = np.packbits(pairs, axis=2, bitorder="little")[:, :, 0]
    if (trits > 2).any():
        raise ValueError("invalid basis trit in shadow stream")
    return Shadow._of(trits, rows[:, 2 * m :])


def preimage_list(shadow, scheme, eps, k_groups):
    """Keys whose estimated overlap reaches 1 - eps, in lexicographic order."""
    keys, states = scheme.honest_states()
    ests = estimate_overlap_many(shadow, states, k_groups)
    return [k for k, e in zip(keys, ests) if e >= 1.0 - eps]


class ShadowPuzzle:
    """Puzzle whose instance is a serialized shadow of the honest state.

    Verification re-derives the candidate list from the instance on every
    call.  Only the scheme's honest states are cached, and they depend on
    the scheme alone, so verify is a pure function of (key, instance).
    """

    __slots__ = ("scheme", "params")

    def __init__(self, scheme, params):
        self.scheme = scheme
        self.params = params

    def sample(self, rng):
        key = self.scheme.key_gen(rng)
        shadow = shadow_gen(self.scheme.state_gen(key), self.params.t_snapshots, rng)
        return key, shadow_to_bytes(shadow)

    def verify(self, key, instance):
        shadow = shadow_from_bytes(instance)
        listed = preimage_list(shadow, self.scheme, self.params.eps, self.params.k_groups)
        return tuple(key) in listed

    def __repr__(self):
        return f"ShadowPuzzle(scheme={self.scheme.name!r})"


def puzzle_from_owsg(scheme, params=None):
    """Wrap a state generator scheme as a classical puzzle."""
    if params is None:
        params = ShadowParams.default(scheme.key_bits)
    return ShadowPuzzle(scheme, params)


class TabulatedPuzzle:
    """Puzzle given by an explicit joint table over (key, instance) pairs."""

    __slots__ = ("name", "exact_joint", "_support", "_probs")

    def __init__(self, name, exact_joint):
        self.name = name
        self.exact_joint = exact_joint
        self._support = list(exact_joint.support())
        self._probs = np.array(
            [float(exact_joint.prob(k, s)) for k, s in self._support]
        )

    def sample(self, rng):
        pick = rng.choice(len(self._support), p=self._probs)
        return self._support[pick]

    def verify(self, key, instance):
        try:
            return self.exact_joint.prob(tuple(key), tuple(instance)) > 0
        except (ValueError, TypeError):
            return False

    def __repr__(self):
        return f"TabulatedPuzzle({self.name!r})"


def _three_bit_joint(probs_zero, probs_one):
    keys = list(map(tuple, dist.bits_of(np.arange(8), 3).tolist()))
    return dist.JointPmf({(key, (s,)): Fraction(1, 2) * p
                          for s, probs in enumerate((probs_zero, probs_one))
                          for key, p in zip(keys, probs)})


def tabulated_puzzles():
    """Three fixed 3-bit-key puzzles with a fair binary instance.

    flat keeps the key uniform given either instance; geometric halves key
    mass down a ladder (reversed for the second instance); two-level puts
    half the mass on one key and spreads the rest evenly.
    """
    geometric = [Fraction(1, 2 ** (i + 1)) for i in range(7)] + [Fraction(1, 128)]
    two_level = [Fraction(1, 2)] + [Fraction(1, 14)] * 7
    flat = [Fraction(1, 8)] * 8
    return {
        "flat": TabulatedPuzzle("flat", _three_bit_joint(flat, flat)),
        "geometric": TabulatedPuzzle(
            "geometric", _three_bit_joint(geometric, list(reversed(geometric)))
        ),
        "two-level": TabulatedPuzzle(
            "two-level", _three_bit_joint(two_level, list(reversed(two_level)))
        ),
    }
