"""Slow reference implementations and scheme fixtures that only tests use.

The distribution oracles work atom by atom: the statistical distance of
two Pmfs, and the atoms that smooth max-entropy's greedy deletion keeps.
The schemes are state generators beyond conjugate coding: a key-selected
brick circuit, whose states are not product states, and a noisy variant
whose verifier thresholds the overlap, with an exact per-key correctness
profile.  The single-qubit gates beyond H that the circuit menu offers live
here too, since the library uses none of them.
"""

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from qclab import dist, owsg, qsim

EXACT_SUPPORT_LIMIT = 2 ** 16

CIRCUIT_QUBITS = 4
CIRCUIT_KEY_LIMIT = 12

_PAIR_ACTIONS = {"CNOT": (0, 1), "CNOT_REVERSED": (1, 0)}

GATE_MENU = Path(__file__).with_name("gate_menu.json")

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
T = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)


def bit_tuple(v, n):
    """dist.bits_of(v, n) as the tuple of ints an atom is."""
    return tuple(dist.bits_of(v, n).tolist())


def smooth_max_support(p, eps):
    """Atoms surviving the smooth_max_entropy deletion, in label order.
    Atoms tied at the lightest surviving value are deleted in label order."""
    dist._require_normalized(p)
    v, removed = dist._lightest_survivor(Counter(p.as_dict().values()).items(), eps)
    items = p.items_sorted()
    deleted = set([a for a, q in items if q == v][:removed])
    return tuple(a for a, q in items if q >= v and a not in deleted)


def statistical_distance(p, q):
    """Half the L1 distance. Exact (Fraction) when both inputs are rational."""
    atoms = set(p.as_dict()) | set(q.as_dict())
    exact = all(isinstance(v, Fraction) for v in p.as_dict().values()) and all(
        isinstance(v, Fraction) for v in q.as_dict().values()
    )
    if exact:
        if len(atoms) > EXACT_SUPPORT_LIMIT:
            raise ValueError(f"exact mode supports at most {EXACT_SUPPORT_LIMIT} atoms")
        return Fraction(1, 2) * sum(abs(p.prob(a) - q.prob(a)) for a in atoms)
    return 0.5 * sum(abs(p.prob(a) - q.prob(a)) for a in atoms)


def _load_gate_menu():
    menu = json.loads(GATE_MENU.read_text())
    if menu.get("version") != 1:
        raise ValueError(f"unsupported gate menu version {menu.get('version')!r}")
    gates = {"H": qsim.H, "S": S, "T": T, "X": X, "Z": Z}
    singles = [gates[name] for name in menu["singles"]]
    pairs = [_PAIR_ACTIONS[name] for name in menu["pairs"]]
    for group in (singles, pairs):
        if len(group) < 2 or len(group) & (len(group) - 1):
            raise ValueError("menu sections must have power-of-two length")
    return singles, pairs


def random_circuit_owsg(n, depth=4):
    """Scheme whose state is a brick-pattern circuit selected by the key.

    Each layer applies one menu single-qubit gate per wire and then a menu
    two-qubit gate per brick; bricks alternate between (0,1),(2,3) and (1,2)
    across layers.  Gate choices consume key bits cyclically, so every key
    bit influences many gates.  Depth 0 leaves the all-zeros state.
    """
    if not 1 <= n <= CIRCUIT_KEY_LIMIT:
        raise ValueError(f"key length must be in [1, {CIRCUIT_KEY_LIMIT}], got {n}")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    singles, pairs = _load_gate_menu()
    single_bits = int(math.log2(len(singles)))
    pair_bits = int(math.log2(len(pairs)))

    def state_fn(key):
        stream = itertools.cycle(key)

        def take(count):
            # a gate choice reads its bits off the key cyclically, as a basis index
            return int(dist.index_of(tuple(itertools.islice(stream, count))))

        psi = qsim.basis_state((0,) * CIRCUIT_QUBITS)
        for layer in range(depth):
            for q in range(CIRCUIT_QUBITS):
                psi = qsim.apply_gate(psi, singles[take(single_bits)], [q])
            bricks = [(0, 1), (2, 3)] if layer % 2 == 0 else [(1, 2)]
            for a, b in bricks:
                role = pairs[take(pair_bits)]
                targets = [(a, b)[role[0]], (a, b)[role[1]]]
                psi = qsim.apply_gate(psi, qsim.CNOT, targets)
        return psi

    return owsg.OwsgScheme(f"random-circuit-d{depth}", key_bits=n,
                           n_qubits=CIRCUIT_QUBITS, state_fn=state_fn)


def _rotation_y(angle):
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


class _ThresholdedScheme(owsg.OwsgScheme):
    """Accepts exactly when the overlap with the base scheme's honest state
    reaches the threshold."""

    __slots__ = ("_base", "_threshold")

    def __init__(self, base, threshold, state_fn):
        super().__init__(f"{base.name}-noisy", key_bits=base.key_bits,
                         n_qubits=base.n_qubits, state_fn=state_fn)
        self._base, self._threshold = base, threshold

    def accept_prob(self, key, state):
        honest = self._base.state_gen(key)
        return 1.0 if qsim.overlap(honest, state) >= self._threshold else 0.0


def thresholded_noisy_scheme(base, threshold=0.98, noise=0.05):
    """Variant of base whose states drift with key weight and whose verifier
    thresholds the exact overlap instead of flipping a coin.

    The honest state of key k is the base state rotated on qubit 0 by an
    angle proportional to the Hamming weight of k, so heavy keys fall out of
    the correctness set while light keys stay in it deterministically.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")

    def state_fn(key):
        angle = 2.0 * noise * sum(key)
        return qsim.apply_gate(base.state_gen(key), _rotation_y(angle), [0])

    return _ThresholdedScheme(base, threshold, state_fn)


class CorrectnessProfile:
    """Exact per-key acceptance of the honest state, with the keep set."""

    __slots__ = ("threshold", "accept_probs", "set_c")

    def __init__(self, threshold, accept_probs, set_c):
        self.threshold = threshold
        self.accept_probs = accept_probs
        self.set_c = set_c

    @property
    def fraction_correct(self):
        return len(self.set_c) / len(self.accept_probs)

    def __repr__(self):
        return (f"CorrectnessProfile(threshold={self.threshold}, "
                f"kept={len(self.set_c)}/{len(self.accept_probs)})")


def correctness_profile(scheme, threshold=0.99):
    """Enumerate every key and keep those whose honest state is accepted with
    probability at least threshold."""
    accept_probs = {}
    for key in scheme.all_keys():
        accept_probs[key] = scheme.accept_prob(key, scheme.state_gen(key))
    set_c = tuple(sorted(k for k, p in accept_probs.items() if p >= threshold))
    return CorrectnessProfile(threshold, accept_probs, set_c)
