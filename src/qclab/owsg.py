"""One-way state generator schemes over small key spaces.

A scheme maps classical keys to pure states deterministically and verifies a
claimed key against a state.  Verification is faithful to the operational
definition: a single Bernoulli trial whose success probability is the exact
squared overlap with the honest state, computed from the simulator rather
than estimated.
"""

import numpy as np

from qclab import dist, qsim

PROFILE_KEY_LIMIT = 16


class OwsgScheme:
    """Key sampling, deterministic state preparation, and verification.

    accept_prob(key, state) is the exact acceptance probability of the
    verifier: the squared overlap with the honest state, which a single-trial
    Bernoulli verifier realizes.
    """

    __slots__ = ("name", "key_bits", "n_qubits", "_state_fn", "_honest")

    def __init__(self, name, key_bits, n_qubits, state_fn):
        self.name = name
        self.key_bits = key_bits
        self.n_qubits = n_qubits
        self._state_fn = state_fn
        self._honest = None

    def key_gen(self, rng):
        return tuple(int(b) for b in rng.integers(0, 2, size=self.key_bits))

    def state_gen(self, key):
        if len(key) != self.key_bits or not all(b in (0, 1) for b in key):
            raise ValueError(f"key must be {self.key_bits} bits")
        return self._state_fn(key)

    def accept_prob(self, key, state):
        return qsim.overlap(self.state_gen(key), state)

    def verify(self, key, state, rng):
        return bool(rng.random() < self.accept_prob(key, state))

    def all_keys(self):
        if self.key_bits > PROFILE_KEY_LIMIT:
            raise ValueError(f"key space of {self.key_bits} bits is not enumerable here")
        yield from map(tuple, dist.bits_of(np.arange(2 ** self.key_bits),
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
