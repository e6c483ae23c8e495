"""One-way puzzles: classical-shadow puzzles built on state generators, and
small tabulated puzzles with exactly known joint distributions.

A shadow is a list of random-basis single-qubit measurement records.  The
overlap estimator sandwiches the tensor product of 3|s><s| - I factors in the
target state and takes a median of group means, so its accuracy needs no
assumption beyond snapshot independence.
"""

import struct
from fractions import Fraction

import numpy as np

from qclab import dist, qsim

BASIS_CHARS = "XYZ"

# rotation applied before a computational measurement, per basis
_ROTATIONS = {
    "X": qsim.H,
    "Y": qsim.H @ np.array([[1, 0], [0, -1j]], dtype=complex),
    "Z": np.eye(2, dtype=complex),
}


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
    """Measurement record: one basis string and one outcome tuple per snapshot."""

    __slots__ = ("bases", "outcomes")

    def __init__(self, bases, outcomes):
        if len(bases) != len(outcomes) or not bases:
            raise ValueError("need one outcome tuple per basis string, at least one")
        width = len(bases[0])
        for b, o in zip(bases, outcomes):
            if len(b) != width or len(o) != width:
                raise ValueError("snapshot width is not constant")
            if any(c not in BASIS_CHARS for c in b):
                raise ValueError(f"unknown basis character in {b!r}")
            if any(bit not in (0, 1) for bit in o):
                raise ValueError(f"outcomes must be bits, got {o!r}")
        self.bases = tuple(bases)
        self.outcomes = tuple(tuple(o) for o in outcomes)

    @property
    def n_snapshots(self):
        return len(self.bases)

    @property
    def n_qubits(self):
        return len(self.bases[0])

    def __repr__(self):
        return f"Shadow(n_snapshots={self.n_snapshots}, n_qubits={self.n_qubits})"


def shadow_gen(state, t_snapshots, rng):
    """Collect t_snapshots random-basis measurement records of a pure state."""
    m = state.n_qubits
    bases, outcomes = [], []
    for _ in range(t_snapshots):
        picks = rng.integers(0, 3, size=m)
        rotated = state
        for q, p in enumerate(picks):
            rotated = qsim.apply_gate(rotated, _ROTATIONS[BASIS_CHARS[p]], [q])
        probs = np.abs(rotated.vector) ** 2
        idx = int(rng.choice(len(probs), p=probs / probs.sum()))
        bases.append("".join(BASIS_CHARS[p] for p in picks))
        outcomes.append(tuple((idx >> (m - 1 - j)) & 1 for j in range(m)))
    return Shadow(bases, outcomes)


def _snapshot_operator(basis, outcome):
    op = np.array([[1.0]], dtype=complex)
    for c, s in zip(basis, outcome):
        v = _ROTATIONS[c][s].conj()  # the state this basis reads as outcome s
        op = np.kron(op, 3.0 * np.outer(v, v.conj()) - np.eye(2))
    return op


def estimate_overlap_many(shadow, targets, k_groups):
    """Median-of-means overlap estimates against several target states.

    Snapshot operators are built once and shared across targets.

    Args:
        shadow: measurement record.
        targets: sequence of PureState on the shadow's register.
        k_groups: number of groups; must divide the snapshot count.

    Returns:
        Array of estimates, one per target.
    """
    t = shadow.n_snapshots
    if k_groups < 1 or t % k_groups != 0:
        raise ValueError(f"group count {k_groups} must divide snapshot count {t}")
    mat = np.stack([s.vector for s in targets])
    if mat.shape[1] != 2 ** shadow.n_qubits:
        raise ValueError("targets live on a different register than the shadow")
    per_snap = np.empty((t, len(targets)))
    for i, (basis, outcome) in enumerate(zip(shadow.bases, shadow.outcomes)):
        op = _snapshot_operator(basis, outcome)
        per_snap[i] = np.einsum("ni,ij,nj->n", mat.conj(), op, mat).real
    group_means = per_snap.reshape(k_groups, t // k_groups, -1).mean(axis=1)
    return np.median(group_means, axis=0)


def estimate_overlap(shadow, target, k_groups):
    """Single-target form of estimate_overlap_many."""
    return float(estimate_overlap_many(shadow, [target], k_groups)[0])


def shadow_to_bytes(shadow):
    """Serialize: uint16 snapshot and qubit counts, then per snapshot the
    basis trits (2 bits each, X=0 Y=1 Z=2) followed by the outcome bits,
    all packed LSB-first."""
    header = struct.pack("<HH", shadow.n_snapshots, shadow.n_qubits)
    bits = []
    for basis, outcome in zip(shadow.bases, shadow.outcomes):
        for c in basis:
            trit = BASIS_CHARS.index(c)
            bits.extend((trit & 1, (trit >> 1) & 1))
        bits.extend(outcome)
    packed = np.packbits(np.array(bits, dtype=np.uint8), bitorder="little")
    return header + packed.tobytes()


def shadow_from_bytes(raw):
    """Inverse of shadow_to_bytes; rejects truncated or padded streams."""
    if len(raw) < 4:
        raise ValueError("shadow stream shorter than its header")
    t, m = struct.unpack("<HH", raw[:4])
    need_bits = t * 3 * m
    if len(raw) != 4 + (need_bits + 7) // 8:
        raise ValueError("shadow stream length does not match its header")
    flat = np.unpackbits(np.frombuffer(raw[4:], dtype=np.uint8), bitorder="little")
    bases, outcomes = [], []
    pos = 0
    for _ in range(t):
        chars = []
        for _ in range(m):
            trit = int(flat[pos]) | (int(flat[pos + 1]) << 1)
            if trit > 2:
                raise ValueError("invalid basis trit in shadow stream")
            chars.append(BASIS_CHARS[trit])
            pos += 2
        outcomes.append(tuple(int(b) for b in flat[pos : pos + m]))
        pos += m
        bases.append("".join(chars))
    return Shadow(bases, outcomes)


def preimage_list(shadow, scheme, eps, k_groups):
    """Keys whose estimated overlap reaches 1 - eps, in lexicographic order."""
    keys = list(scheme.all_keys())
    targets = [scheme.state_gen(k) for k in keys]
    ests = estimate_overlap_many(shadow, targets, k_groups)
    return [k for k, e in zip(keys, ests) if e >= 1.0 - eps]


def brute_force_invert(shadow, scheme, eps, k_groups):
    """Lexicographically first listed key, or None when the list is empty."""
    listed = preimage_list(shadow, scheme, eps, k_groups)
    return listed[0] if listed else None


class ShadowPuzzle:
    """Puzzle whose instance is a serialized shadow of the honest state.

    Verification re-derives the candidate list from the instance on every
    call; nothing about the sampling run is cached, so verify is a pure
    function of (key, instance).
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
    rows = {}
    for i, p in enumerate(probs_zero):
        key = tuple((i >> (2 - j)) & 1 for j in range(3))
        rows[(key, (0,))] = Fraction(1, 2) * p
    for i, p in enumerate(probs_one):
        key = tuple((i >> (2 - j)) & 1 for j in range(3))
        rows[(key, (1,))] = Fraction(1, 2) * p
    return dist.JointPmf(rows)


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
