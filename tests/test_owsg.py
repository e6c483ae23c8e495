"""Tests for the one-way state generator schemes.

Wiesner acceptance probabilities are cross-checked against a per-qubit
overlap table (same basis and bit -> 1, same basis different bit -> 0,
different basis -> 1/2) and against a swap-test circuit built by hand.
"""

import json

import numpy as np
import pytest

from qclab import owsg, qsim

import oracles


def wiesner_accept_oracle(key_a, key_b, n):
    """Product of single-qubit overlaps between two conjugate encodings."""
    half = n // 2
    ta, xa = key_a[:half], key_a[half:]
    tb, xb = key_b[:half], key_b[half:]
    acc = 1.0
    for j in range(half):
        if ta[j] == tb[j]:
            acc *= 1.0 if xa[j] == xb[j] else 0.0
        else:
            acc *= 0.5
    return acc


def cswap_matrix():
    m = np.eye(8, dtype=complex)
    # ancilla is qubit 0; swap qubits 1 and 2 on ancilla 1: indices 101 <-> 110
    m[[5, 6]] = m[[6, 5]]
    return m


class TestWiesner:
    def test_requires_even_key_length(self):
        with pytest.raises(ValueError):
            owsg.wiesner_owsg(5)

    def test_honest_state_always_accepted(self):
        scheme = owsg.wiesner_owsg(6)
        rng = np.random.default_rng(3)
        for _ in range(20):
            key = scheme.key_gen(rng)
            assert scheme.accept_prob(key, scheme.state_gen(key)) == pytest.approx(1.0)

    def test_cross_key_matches_overlap_table(self):
        scheme = owsg.wiesner_owsg(4)
        rng = np.random.default_rng(5)
        for _ in range(30):
            ka, kb = scheme.key_gen(rng), scheme.key_gen(rng)
            got = scheme.accept_prob(ka, scheme.state_gen(kb))
            assert got == pytest.approx(wiesner_accept_oracle(ka, kb, 4), abs=1e-12)

    def test_conjugate_basis_pair(self):
        scheme = owsg.wiesner_owsg(2)
        assert scheme.accept_prob((0, 0), scheme.state_gen((1, 0))) == pytest.approx(0.5)

    def test_average_state_is_maximally_mixed(self):
        scheme = owsg.wiesner_owsg(4)
        acc = np.zeros((4, 4), dtype=complex)
        for v in range(16):
            key = tuple((v >> (3 - j)) & 1 for j in range(4))
            acc += scheme.state_gen(key).to_density().matrix
        assert np.allclose(acc / 16, np.eye(4) / 4, atol=1e-12)

    def test_swap_test_agrees_with_accept_prob(self):
        scheme = owsg.wiesner_owsg(2)
        a, b = scheme.state_gen((0, 0)), scheme.state_gen((1, 0))
        joint = np.kron(np.array([1.0, 0.0]), np.kron(a.vector, b.vector))
        psi = qsim.PureState(joint)
        psi = qsim.apply_unitary(psi, qsim.H, [0])
        psi = qsim.apply_unitary(psi, cswap_matrix(), [0, 1, 2])
        psi = qsim.apply_unitary(psi, qsim.H, [0])
        p_zero, _ = qsim.project(psi, [0], (0,))
        expect = 0.5 + 0.5 * scheme.accept_prob((0, 0), b)
        assert p_zero == pytest.approx(expect, abs=1e-12)


class TestRandomCircuit:
    def test_key_length_guard(self):
        with pytest.raises(ValueError):
            oracles.random_circuit_owsg(13)

    def test_depth_zero_is_all_zeros(self):
        scheme = oracles.random_circuit_owsg(6, depth=0)
        psi = scheme.state_gen((1, 0, 1, 1, 0, 1))
        assert psi.vector[0] == pytest.approx(1.0)

    def test_state_gen_deterministic(self):
        scheme = oracles.random_circuit_owsg(8, depth=4)
        key = (1, 0, 0, 1, 1, 1, 0, 0)
        assert np.allclose(scheme.state_gen(key).vector, scheme.state_gen(key).vector)

    def test_distinct_keys_rarely_collide(self):
        scheme = oracles.random_circuit_owsg(6, depth=4)
        rng = np.random.default_rng(11)
        separated = 0
        for _ in range(100):
            ka = scheme.key_gen(rng)
            kb = scheme.key_gen(rng)
            while kb == ka:
                kb = scheme.key_gen(rng)
            if scheme.accept_prob(ka, scheme.state_gen(kb)) < 1.0 - 1e-9:
                separated += 1
        assert separated >= 90

    def test_menu_file_well_formed(self):
        menu = json.loads(oracles.GATE_MENU.read_text())
        assert menu["version"] == 1
        for field in ("singles", "pairs"):
            count = len(menu[field])
            assert count >= 2 and count & (count - 1) == 0  # power of two


class TestCorrectnessProfile:
    def test_wiesner_profile_is_complete(self):
        profile = oracles.correctness_profile(owsg.wiesner_owsg(4))
        assert len(profile.set_c) == 16
        assert profile.fraction_correct == pytest.approx(1.0)

    def test_noisy_scheme_loses_heavy_keys(self):
        base = owsg.wiesner_owsg(6)
        noisy = oracles.thresholded_noisy_scheme(base, threshold=0.98, noise=0.05)
        profile = oracles.correctness_profile(noisy)
        # cos^2(0.05 w) >= 0.98 holds exactly for Hamming weight w <= 2
        assert len(profile.set_c) == 1 + 6 + 15
        for key in profile.set_c:
            assert sum(key) <= 2

    def test_noisy_verify_is_deterministic(self):
        base = owsg.wiesner_owsg(4)
        noisy = oracles.thresholded_noisy_scheme(base, threshold=0.98, noise=0.05)
        key = (1, 1, 1, 1)
        assert noisy.accept_prob(key, noisy.state_gen(key)) in (0.0, 1.0)

    def test_profile_size_guard(self):
        scheme = owsg.wiesner_owsg(18)
        with pytest.raises(ValueError):
            oracles.correctness_profile(scheme)

    def test_threshold_is_respected(self):
        base = owsg.wiesner_owsg(4)
        noisy = oracles.thresholded_noisy_scheme(base, threshold=0.98, noise=0.05)
        profile = oracles.correctness_profile(noisy, threshold=0.5)
        strict = oracles.correctness_profile(noisy, threshold=0.9999)
        assert len(strict.set_c) <= len(profile.set_c)


class TestSchemeInterface:
    def test_key_gen_length_and_range(self):
        scheme = owsg.wiesner_owsg(8)
        key = scheme.key_gen(np.random.default_rng(17))
        assert len(key) == 8 and set(key) <= {0, 1}

    def test_key_gen_covers_space(self):
        scheme = owsg.wiesner_owsg(2)
        rng = np.random.default_rng(19)
        seen = {scheme.key_gen(rng) for _ in range(200)}
        assert len(seen) == 4

    @pytest.mark.parametrize("make", [lambda: owsg.wiesner_owsg(4),
                                      lambda: oracles.random_circuit_owsg(3),
                                      lambda: oracles.thresholded_noisy_scheme(owsg.wiesner_owsg(4))])
    def test_honest_states_are_built_once_in_key_order(self, make):
        scheme = make()
        keys, states = scheme.honest_states()
        assert keys == tuple(scheme.all_keys())
        for key, row in zip(keys, states):
            assert np.array_equal(row, scheme.state_gen(key).vector)
        assert not states.flags.writeable
        assert scheme.honest_states()[1] is states
