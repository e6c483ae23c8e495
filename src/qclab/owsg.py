"""One-way state generator schemes over small key spaces.

A scheme maps classical keys to pure states deterministically and verifies a
claimed key against a state.  Verification is faithful to the operational
definition: a single Bernoulli trial whose success probability is the exact
squared overlap with the honest state, computed from the simulator rather
than estimated.
"""

import itertools
import json
import math
from importlib import resources

import numpy as np

from qclab import qsim

CIRCUIT_QUBITS = 4
CIRCUIT_KEY_LIMIT = 12
PROFILE_KEY_LIMIT = 16

_PAIR_ACTIONS = {"CNOT": (0, 1), "CNOT_REVERSED": (1, 0)}


class OwsgScheme:
    """Key sampling, deterministic state preparation, and verification.

    accept_fn(key, state) must return the exact acceptance probability of the
    verifier; the default is the squared overlap with the honest state, which
    a single-trial Bernoulli verifier realizes.
    """

    __slots__ = ("name", "key_bits", "n_qubits", "_state_fn", "_accept_fn",
                 "_honest")

    def __init__(self, name, key_bits, n_qubits, state_fn, accept_fn=None):
        self.name = name
        self.key_bits = key_bits
        self.n_qubits = n_qubits
        self._state_fn = state_fn
        self._accept_fn = accept_fn
        self._honest = None

    def key_gen(self, rng):
        return tuple(int(b) for b in rng.integers(0, 2, size=self.key_bits))

    def state_gen(self, key):
        if len(key) != self.key_bits or not all(b in (0, 1) for b in key):
            raise ValueError(f"key must be {self.key_bits} bits")
        return self._state_fn(key)

    def accept_prob(self, key, state):
        if self._accept_fn is not None:
            return self._accept_fn(key, state)
        return qsim.overlap(self.state_gen(key), state)

    def verify(self, key, state, rng):
        return bool(rng.random() < self.accept_prob(key, state))

    def all_keys(self):
        if self.key_bits > PROFILE_KEY_LIMIT:
            raise ValueError(f"key space of {self.key_bits} bits is not enumerable here")
        yield from map(tuple, qsim.basis_bits(np.arange(2 ** self.key_bits),
                                              self.key_bits).tolist())

    def honest_states(self):
        """Every key in all_keys() order and the read-only matrix whose rows
        are their honest statevectors; built on the first call."""
        if self._honest is None:
            # two threads racing here build equal tables; either may win
            keys = tuple(self.all_keys())
            states = np.stack([self.state_gen(k).vector for k in keys])
            states.flags.writeable = False
            self._honest = keys, states
        return self._honest

    def __repr__(self):
        return f"OwsgScheme({self.name!r}, key_bits={self.key_bits})"


def wiesner_owsg(n):
    """Conjugate-coding scheme: the first half of the key picks bases, the
    second half the payload bits."""
    if n % 2 != 0 or n < 2:
        raise ValueError(f"key length must be even and positive, got {n}")
    half = n // 2

    def state_fn(key):
        return qsim.wiesner_encode(key[:half], key[half:])

    return OwsgScheme("wiesner", key_bits=n, n_qubits=half, state_fn=state_fn)


def _load_gate_menu():
    raw = resources.files("qclab").joinpath("data/gate_menu.json").read_text()
    menu = json.loads(raw)
    if menu.get("version") != 1:
        raise ValueError(f"unsupported gate menu version {menu.get('version')!r}")
    gates = {"H": qsim.H, "S": qsim.S, "T": qsim.T, "X": qsim.X, "Z": qsim.Z}
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
    # a gate choice reads its bits off the key cyclically, as a basis index
    index_of = {tuple(bits): i for width in (single_bits, pair_bits)
                for i, bits in enumerate(qsim.basis_bits(np.arange(2 ** width), width).tolist())}

    def state_fn(key):
        stream = itertools.cycle(key)

        def take(count):
            return index_of[tuple(itertools.islice(stream, count))]

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

    return OwsgScheme(f"random-circuit-d{depth}", key_bits=n,
                      n_qubits=CIRCUIT_QUBITS, state_fn=state_fn)


def _rotation_y(angle):
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


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

    def accept_fn(key, state):
        return 1.0 if qsim.overlap(base.state_gen(key), state) >= threshold else 0.0

    return OwsgScheme(f"{base.name}-noisy", key_bits=base.key_bits,
                      n_qubits=base.n_qubits, state_fn=state_fn, accept_fn=accept_fn)


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
