"""Tests for the commitment schemes and their exact experiments.

Frozen values (basis scheme hiding 1, swap attack 3/4, leaky tau, the
Bernoulli purification at 5/8) come from hand-computed reduced states; the
binding experiment is additionally cross-checked by a raw index-shuffling
oracle that never touches the simulator helpers, and by the former
density-matrix opening game.  The combiners' row-gather copy wiring is
checked against the former gate-by-gate composition.
"""

import itertools
import json
import math

import numpy as np
import pytest

from qclab import commit, dist, qsim

import oracles


def bern(p_one):
    return dist.Pmf({(0,): 1 - p_one, (1,): p_one})


def basis_binding_oracle():
    """Superposition attack on the two-qubit copy scheme, by hand.

    Returns (accept, sigma0, sigma1, advantage) with the reduced states on
    the kept qubit, using plain reshapes only.
    """
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                    dtype=complex)
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / math.sqrt(2)  # honest commit of |+>
    opened = cnot.conj().T @ psi
    keep = np.array([True, False, True, False])  # W = 0 slots
    accept = float(np.vdot(opened[keep], opened[keep]).real)
    valid = np.where(keep, opened, 0.0) / math.sqrt(accept)
    # unmeasured branch: recommit the pure state
    back = cnot @ valid
    m_side = back.reshape(2, 2)
    sigma0 = m_side @ m_side.conj().T
    # measured branch: dephase M, recommit each half
    rho = np.zeros((4, 4), dtype=complex)
    for m in (0, 1):
        half = np.where(np.array([0, 0, 1, 1]) == m, valid, 0.0)
        half = cnot @ half
        rho += np.outer(half, half.conj())
    sigma1 = rho.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    td = 0.5 * np.abs(np.linalg.eigvalsh(sigma0 - sigma1)).sum()
    return accept, sigma0, sigma1, 0.5 + accept * td / 2


def binding_states_dense(scheme, adv, redundant=False):
    """The former binding_states: the measured branch as a dephased density
    matrix over every qubit, with the commit map conjugating it."""
    n = scheme.n_qubits
    every = list(range(n))
    state = qsim.apply_gate(adv.state, scheme.com.conj().T, every)
    if redundant:
        state = qsim.apply_gate(state, scheme.com, every)
        state = qsim.apply_gate(state, scheme.com.conj().T, every)
    wires = list(range(1, n))
    if wires:
        try:
            accept, opened = qsim.project(state, wires, (0,) * len(wires))
        except ValueError:
            return 0.0, None, None
        if redundant:
            _, opened = qsim.project(opened, wires, (0,) * len(wires))
    else:
        accept, opened = 1.0, state
    keep = list(scheme.d_qubits) + list(range(n, adv.state.n_qubits))
    plain = qsim.apply_gate(opened, scheme.com, every)
    sigma0 = qsim.partial_trace(plain, keep)
    measured = qsim.dephase(opened, [0])
    if redundant:
        measured = qsim.dephase(measured, [0])
    measured = qsim.apply_gate(measured, scheme.com, every)
    sigma1 = qsim.partial_trace(measured, keep)
    return float(accept), sigma0, sigma1


def plus_commit(scheme):
    return commit.superposition_attacker(scheme)


CATALOG = commit.toy_schemes()


class TestCommitScheme:
    def test_rejects_non_unitary(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 0] = 2.0
        with pytest.raises(ValueError, match="gate is not unitary"):
            commit.CommitScheme("bad", bad, (1,), (0,))

    def test_rejects_broken_partition(self):
        with pytest.raises(ValueError):
            commit.CommitScheme("bad", np.eye(4, dtype=complex), (0, 1), (1,))
        with pytest.raises(ValueError):
            commit.CommitScheme("bad", np.eye(4, dtype=complex), (0,), (0, 1))

    def test_rejects_one_sided_partition(self):
        with pytest.raises(ValueError):
            commit.CommitScheme("bad", np.eye(4, dtype=complex), (0, 1), ())

    def test_shape(self):
        s = CATALOG["basis"]
        assert s.n_qubits == 2
        assert s.ell == 1
        assert sorted(s.c_qubits + s.d_qubits) == [0, 1]


class TestToySchemes:
    def test_catalog_names(self):
        assert set(CATALOG) == {"basis", "hiding", "swap", "leaky",
                                "purified-coins"}

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @pytest.mark.parametrize("b", [0, 1])
    def test_completeness(self, name, b):
        assert commit.decommit_probability(CATALOG[name], b) == pytest.approx(
            1.0, abs=1e-9)

    def test_hiding_values(self):
        assert commit.hiding_advantage(CATALOG["basis"]) == pytest.approx(1.0, abs=1e-12)
        assert commit.hiding_advantage(CATALOG["hiding"]) == pytest.approx(0.5, abs=1e-12)
        assert commit.hiding_advantage(CATALOG["swap"]) == pytest.approx(0.5, abs=1e-12)
        assert commit.hiding_advantage(CATALOG["leaky"]) == pytest.approx(
            0.5 + 0.3 / 2, abs=1e-9)
        assert commit.hiding_advantage(CATALOG["purified-coins"]) == pytest.approx(
            0.625, abs=1e-9)

    @pytest.mark.parametrize("tau", [0.0, 0.2, 0.7, 1.0])
    def test_leaky_calibration(self, tau):
        s = commit.leaky_commit(tau)
        assert commit.hiding_advantage(s) == pytest.approx(0.5 + tau / 2, abs=1e-9)

    def test_leaky_rejects_bad_leak(self):
        with pytest.raises(ValueError):
            commit.leaky_commit(1.5)


class TestPurificationCommit:
    def test_identical_branches_perfectly_hiding(self):
        s = commit.purification_commit(bern(0.3), bern(0.3))
        assert commit.hiding_advantage(s) == pytest.approx(0.5, abs=1e-12)

    def test_disjoint_supports_fully_revealing(self):
        s = commit.purification_commit(dist.Pmf({(0,): 1.0}), dist.Pmf({(1,): 1.0}))
        assert commit.hiding_advantage(s) == pytest.approx(1.0, abs=1e-12)

    def test_bernoulli_pair_frozen_value(self):
        s = commit.purification_commit(bern(0.5), bern(0.75))
        assert commit.hiding_advantage(s) == pytest.approx(0.625, abs=1e-9)

    def test_random_pairs_match_classical_distance(self):
        # diagonal reduced states make the trace distance a plain SD
        rng = np.random.default_rng(7)
        for _ in range(5):
            w0 = rng.random(4) + 0.05
            w1 = rng.random(4) + 0.05
            p0 = dist.Pmf({(v >> 1 & 1, v & 1): float(x) for v, x in
                           enumerate(w0 / w0.sum())})
            p1 = dist.Pmf({(v >> 1 & 1, v & 1): float(x) for v, x in
                           enumerate(w1 / w1.sum())})
            s = commit.purification_commit(p0, p1)
            want = 0.5 + float(oracles.statistical_distance(p0, p1)) / 2
            assert commit.hiding_advantage(s) == pytest.approx(want, abs=1e-9)

    def test_commit_state_amplitudes(self):
        s = commit.purification_commit(bern(0.5), bern(0.75))
        vec = commit.commit_state(s, 1).vector
        # |1, x, x> for x in {0, 1} with amplitudes sqrt(1/4), sqrt(3/4)
        assert vec[0b100] == pytest.approx(math.sqrt(0.25), abs=1e-12)
        assert vec[0b111] == pytest.approx(math.sqrt(0.75), abs=1e-12)
        assert np.abs(np.delete(vec, [0b100, 0b111])).max() < 1e-12

    @pytest.mark.parametrize("pmf", [
        bern(0.5), bern(0.75), bern(0.3), dist.Pmf({(1,): 1.0}),
        dist.Pmf({(0, 1): 0.125, (1, 0): 0.375, (1, 1): 0.5}),
        dist.Pmf({(v >> 2 & 1, v >> 1 & 1, v & 1): (v + 1) / 36 for v in range(8)}),
    ], ids=["coins0", "coins1", "bern-0.3", "point-1", "two-bit", "three-bit"])
    def test_branch_isometry_is_a_unitary_with_column_zero_t(self, pmf):
        width = len(pmf.support()[0])
        t = np.zeros(2 ** (2 * width))
        for atom, p in pmf.as_dict().items():
            t[int("".join(map(str, atom * 2)), 2)] = math.sqrt(p)
        u = commit._branch_isometry(pmf, width)
        assert np.array_equal(u[:, 0], t)
        assert qsim.check_unitary(u) == 2 * width
        assert np.array_equal(u, u.T)  # a reflection

    @pytest.mark.parametrize("pmf", [
        dist.Pmf({(0,): 1.0}), dist.Pmf({(0, 0): 1.0}),
        dist.Pmf({(0,): 1.0 - 1e-13}),
    ], ids=["one-bit", "two-bit", "short-of-one"])
    def test_branch_isometry_of_all_zeros_point_mass_is_identity(self, pmf):
        width = len(pmf.support()[0])
        assert np.array_equal(commit._branch_isometry(pmf, width),
                              np.eye(2 ** (2 * width)))

    def test_oversize_alphabet_rejected(self):
        wide = dist.Pmf({(0,) * 7: 1.0})
        with pytest.raises(ValueError):
            commit.purification_commit(wide, wide)

    def test_mismatched_alphabets_rejected(self):
        with pytest.raises(ValueError):
            commit.purification_commit(bern(0.5), dist.Pmf({(0, 0): 1.0}))


class TestAdversaryStrategy:
    def test_measurement_must_be_psd(self):
        e0 = np.array([[1.5, 0], [0, -0.5]], dtype=complex)
        with pytest.raises(ValueError):
            commit.AdversaryStrategy(commit.commit_state(CATALOG["basis"], 0),
                                     measurement=(e0, np.eye(2) - e0))

    def test_measurement_must_resolve_identity(self):
        e0 = np.eye(2, dtype=complex) * 0.25
        with pytest.raises(ValueError):
            commit.AdversaryStrategy(commit.commit_state(CATALOG["basis"], 0),
                                     measurement=(e0, e0))

    def test_measurement_shape_checked_before_the_game(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("opening game played")
        monkeypatch.setattr(commit, "binding_states", refuse)
        wide = (np.eye(4, dtype=complex), np.zeros((4, 4), dtype=complex))
        adv = commit.AdversaryStrategy(commit.commit_state(CATALOG["basis"], 0),
                                       measurement=wide)
        with pytest.raises(ValueError, match="does not act on the opened qubits"):
            commit.binding_experiment(CATALOG["basis"], adv)

    def test_state_size_checked_in_experiment(self):
        adv = commit.AdversaryStrategy(qsim.basis_state((0, 0, 0)))
        with pytest.raises(ValueError):
            commit.binding_experiment(CATALOG["basis"], adv)


class TestBindingExperiment:
    def test_honest_commitment_is_undetectable(self):
        adv = commit.AdversaryStrategy(commit.commit_state(CATALOG["basis"], 0))
        assert commit.binding_experiment(CATALOG["basis"], adv) == pytest.approx(
            0.5, abs=1e-12)

    def test_basis_attack_matches_enumeration_oracle(self):
        accept, s0, s1, want = basis_binding_oracle()
        adv = plus_commit(CATALOG["basis"])
        got_accept, g0, g1 = commit.binding_states(CATALOG["basis"], adv)
        assert got_accept == pytest.approx(accept, abs=1e-12)
        assert np.allclose(g0.matrix, s0, atol=1e-12)
        assert np.allclose(g1.matrix, s1, atol=1e-12)
        assert commit.binding_experiment(CATALOG["basis"], adv) == pytest.approx(
            want, abs=1e-12)

    def test_swap_attack_frozen_value(self):
        adv = plus_commit(CATALOG["swap"])
        accept, s0, s1 = commit.binding_states(CATALOG["swap"], adv)
        assert accept == pytest.approx(1.0, abs=1e-12)
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert np.allclose(s0.matrix, plus, atol=1e-12)
        assert np.allclose(s1.matrix, np.eye(2) / 2, atol=1e-12)
        assert commit.binding_experiment(CATALOG["swap"], adv) == pytest.approx(
            0.75, abs=1e-9)

    def test_suboptimal_measurement_cannot_beat_helstrom(self):
        adv = plus_commit(CATALOG["swap"])
        basis_meas = (np.diag([1.0, 0.0]).astype(complex),
                      np.diag([0.0, 1.0]).astype(complex))
        fixed = commit.AdversaryStrategy(adv.state, measurement=basis_meas)
        got = commit.binding_experiment(CATALOG["swap"], fixed)
        assert got == pytest.approx(0.5, abs=1e-12)
        assert got <= commit.binding_experiment(CATALOG["swap"], adv) + 1e-12

    def test_invalid_opening_forces_coin_flip(self):
        # W holds 1, so the check rejects every time
        adv = commit.AdversaryStrategy(qsim.basis_state((0, 1)))
        accept, s0, s1 = commit.binding_states(CATALOG["basis"], adv)
        assert accept == 0.0
        assert s0 is None and s1 is None
        assert commit.binding_experiment(CATALOG["basis"], adv) == 0.5

    def test_side_register_carries_through(self):
        vec = np.zeros(8, dtype=complex)
        vec[0b000] = vec[0b111] = 1 / math.sqrt(2)
        adv = commit.AdversaryStrategy(qsim.PureState(vec), e_qubits=1)
        assert commit.binding_experiment(CATALOG["basis"], adv) == pytest.approx(
            0.5, abs=1e-12)

    @pytest.mark.parametrize("name", ["basis", "swap", "leaky"])
    def test_algebra_insertions_change_nothing(self, name):
        scheme = CATALOG[name]
        adv = plus_commit(scheme)
        plain = commit.binding_states(scheme, adv)
        redundant = commit.binding_states(scheme, adv, redundant=True)
        assert plain[0] == pytest.approx(redundant[0], abs=1e-9)
        assert np.allclose(plain[1].matrix, redundant[1].matrix, atol=1e-9)
        assert np.allclose(plain[2].matrix, redundant[2].matrix, atol=1e-9)

    def test_sampled_mode_tracks_exact_value(self):
        adv = plus_commit(CATALOG["swap"])
        rate = commit.binding_experiment(CATALOG["swap"], adv,
                                         rng=np.random.default_rng(11),
                                         trials=4000)
        assert abs(rate - 0.75) < 0.03

    def test_sampled_mode_deterministic(self):
        adv = plus_commit(CATALOG["swap"])
        a = commit.binding_experiment(CATALOG["swap"], adv,
                                      rng=np.random.default_rng(13), trials=200)
        b = commit.binding_experiment(CATALOG["swap"], adv,
                                      rng=np.random.default_rng(13), trials=200)
        assert a == b

    def test_sampled_mode_needs_rng(self):
        adv = plus_commit(CATALOG["swap"])
        with pytest.raises(ValueError):
            commit.binding_experiment(CATALOG["swap"], adv, trials=10)


def random_adversary(scheme, e_qubits, seed):
    """A random joint state on scheme plus private qubits, with a random
    two-outcome measurement on the kept-plus-private register."""
    rng = np.random.default_rng(seed)
    width = scheme.n_qubits + e_qubits
    vec = rng.normal(size=2 ** width) + 1j * rng.normal(size=2 ** width)
    dim = 2 ** (len(scheme.d_qubits) + e_qubits)
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim))
                            + 1j * rng.normal(size=(dim, dim)))
    weights = rng.random(dim)
    e1 = (basis * weights) @ basis.conj().T
    e1 = (e1 + e1.conj().T) / 2
    return commit.AdversaryStrategy(qsim.PureState(vec / np.linalg.norm(vec)),
                                    e_qubits=e_qubits,
                                    measurement=(np.eye(dim) - e1, e1))


ORACLE_CASES = {
    **{name + "-plus": (name, plus_commit) for name in CATALOG},
    "dual-plus": ("dual", plus_commit),
    "xor3-plus": ("xor3", plus_commit),
    "leaky-random-e2": ("leaky", lambda s: random_adversary(s, 2, 5)),
    "purified-coins-random-e1": ("purified-coins",
                                 lambda s: random_adversary(s, 1, 6)),
    "dual-random-e1": ("dual", lambda s: random_adversary(s, 1, 7)),
}


def oracle_scheme(name):
    if name == "dual":
        return commit.dual_commit(CATALOG["leaky"], CATALOG["purified-coins"])
    if name == "xor3":
        return commit.xor_combine([CATALOG["purified-coins"], CATALOG["basis"],
                                   CATALOG["hiding"]])
    return CATALOG[name]


class TestBindingMatchesDensityOracle:
    @pytest.mark.parametrize("redundant", [False, True])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_states_match(self, case, redundant):
        name, attacker = ORACLE_CASES[case]
        scheme = oracle_scheme(name)
        adv = attacker(scheme)
        want = binding_states_dense(scheme, adv, redundant=redundant)
        got = commit.binding_states(scheme, adv, redundant=redundant)
        assert want[0] > 0.0
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        for g, w in zip(got[1:], want[1:]):
            assert g.n_qubits == w.n_qubits
            assert np.abs(g.matrix - w.matrix).max() < 1e-12

    def test_given_measurement_scores_the_oracle_states(self):
        scheme = CATALOG["leaky"]
        adv = random_adversary(scheme, 2, 5)
        accept, s0, s1 = binding_states_dense(scheme, adv)
        e0, e1 = adv.measurement
        win = 0.5 * (np.trace(e0 @ s0.matrix) + np.trace(e1 @ s1.matrix)).real
        assert commit.binding_experiment(scheme, adv) == pytest.approx(
            (1 - accept) / 2 + accept * win, abs=1e-12)

    def test_invalid_opening_agrees(self):
        adv = commit.AdversaryStrategy(qsim.basis_state((0, 1)))
        for redundant in (False, True):
            assert (commit.binding_states(CATALOG["basis"], adv, redundant)
                    == binding_states_dense(CATALOG["basis"], adv, redundant))

    def test_no_full_density_matrix(self, monkeypatch):
        # the 8-qubit XOR scheme of the benchmark: only the kept register's
        # reduced states are ever materialized
        scheme = oracle_scheme("xor3")
        adv = plus_commit(scheme)

        def refuse(*args, **kwargs):
            raise AssertionError("full-register density matrix built")

        monkeypatch.setattr(qsim, "dephase", refuse)
        monkeypatch.setattr(qsim.PureState, "to_density", refuse)
        for redundant in (False, True):
            sigma1 = commit.binding_states(scheme, adv, redundant)[2]
            assert sigma1.n_qubits == len(scheme.d_qubits)
        commit.binding_experiment(scheme, adv)
        commit.binding_experiment(scheme, adv, rng=np.random.default_rng(3),
                                  trials=50)


def dual_commit_gates(com1, com2):
    """The former dual_commit unitary: every gate, the copy CNOT included,
    applied to the columns of the identity."""
    n1, n = com1.n_qubits, com1.n_qubits + com2.n_qubits
    u = np.eye(2 ** n, dtype=complex)
    u = qsim.apply_gate(u, qsim.CNOT, [0, n1])
    u = qsim.apply_gate(u, com2.com, list(range(n1, n)))
    return qsim.apply_gate(u, com1.com, list(range(n1)))


def xor_combine_gates(schemes):
    """The former xor_combine unitary, one CNOT per share in the fan-in."""
    offsets = list(itertools.accumulate([1] + [s.n_qubits for s in schemes]))
    n = offsets.pop()
    u = np.eye(2 ** n, dtype=complex)
    for o in offsets[:-1]:
        u = qsim.apply_gate(u, qsim.H, [o])
    for o in [0] + offsets[:-1]:
        u = qsim.apply_gate(u, qsim.CNOT, [o, offsets[-1]])
    for s, o in zip(schemes, offsets):
        u = qsim.apply_gate(u, s.com, list(range(o, o + s.n_qubits)))
    return u


class TestCopyWiring:
    """The combiners' copy wiring is an exact row gather: bit-identical to
    composing the CNOTs gate by gate."""

    def test_xor_every_ordered_triple(self):
        for names in itertools.permutations(CATALOG, 3):
            schemes = [CATALOG[name] for name in names]
            assert np.array_equal(commit.xor_combine(schemes).com,
                                  xor_combine_gates(schemes)), names

    def test_xor_every_ordered_pair(self):
        for names in itertools.product(CATALOG, repeat=2):
            schemes = [CATALOG[name] for name in names]
            assert np.array_equal(commit.xor_combine(schemes).com,
                                  xor_combine_gates(schemes)), names

    def test_xor_four_basis_shares(self):
        schemes = [CATALOG["basis"]] * 4
        assert np.array_equal(commit.xor_combine(schemes).com,
                              xor_combine_gates(schemes))

    def test_dual_every_ordered_pair(self):
        for first, second in itertools.product(CATALOG, repeat=2):
            got = commit.dual_commit(CATALOG[first], CATALOG[second]).com
            assert np.array_equal(got, dual_commit_gates(CATALOG[first],
                                                         CATALOG[second]))

    def test_every_gate_acts_on_an_ascending_run(self, monkeypatch):
        # so apply_gate never transposes the composed unitary
        seen = []
        apply_gate = qsim.apply_gate

        def record(state, u, targets):
            seen.append(list(targets))
            return apply_gate(state, u, targets)

        monkeypatch.setattr(qsim, "apply_gate", record)
        components = ["purified-coins", "basis", "hiding"]
        for names in itertools.permutations(components):
            commit.xor_combine([CATALOG[name] for name in names])
        for first, second in itertools.permutations(components, 2):
            commit.dual_commit(CATALOG[first], CATALOG[second])
        assert seen
        for targets in seen:
            assert targets == list(range(targets[0], targets[0] + len(targets)))


class TestDualCommit:
    def test_layout(self):
        d = commit.dual_commit(CATALOG["basis"], CATALOG["swap"])
        assert d.n_qubits == 4
        assert sorted(d.c_qubits + d.d_qubits) == [0, 1, 2, 3]

    @pytest.mark.parametrize("b", [0, 1])
    def test_completeness(self, b):
        d = commit.dual_commit(CATALOG["basis"], CATALOG["swap"])
        assert commit.decommit_probability(d, b) == pytest.approx(1.0, abs=1e-9)

    def test_two_hiding_components_stay_hiding(self):
        d = commit.dual_commit(CATALOG["hiding"], CATALOG["swap"])
        assert commit.hiding_advantage(d) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("partner", ["hiding", "swap"])
    def test_binding_reduces_to_first_component(self, partner):
        alone = commit.binding_experiment(CATALOG["basis"],
                                          plus_commit(CATALOG["basis"]))
        d = commit.dual_commit(CATALOG["basis"], CATALOG[partner])
        together = commit.binding_experiment(d, plus_commit(d))
        assert together == pytest.approx(alone, abs=1e-9)

    def test_copy_dephasing_symmetry(self):
        # measuring either end of the copy wire leaves the same global state
        com1, com2 = CATALOG["basis"], CATALOG["swap"]
        amps = np.array([0.6, 0.8j], dtype=complex)
        vec = np.zeros(16, dtype=complex)
        vec[0b0000] = amps[0]
        vec[0b1000] = amps[1]
        state = qsim.apply_unitary(qsim.PureState(vec), qsim.CNOT, [0, 2])
        for targets in ([0], [2]):
            rho = qsim.dephase(state, targets)
            rho = qsim.apply_unitary(rho, com1.com, [0, 1])
            rho = qsim.apply_unitary(rho, com2.com, [2, 3])
            if targets == [0]:
                first = rho.matrix
        assert np.allclose(first, rho.matrix, atol=1e-12)

    def test_budget_guard(self):
        wide = commit.xor_combine([CATALOG["basis"]] * 4)
        assert wide.n_qubits == 9
        with pytest.raises(ValueError):
            commit.dual_commit(wide, wide)


class TestXorCombine:
    def test_two_basis_shares_xor_to_message(self):
        x = commit.xor_combine([CATALOG["basis"], CATALOG["basis"]])
        for b in (0, 1):
            state = commit.commit_state(x, b)
            seen = 0.0
            for bits in itertools.product((0, 1), repeat=2):
                try:
                    prob, _ = qsim.project(state, [1, 3], bits)
                except ValueError:  # an outcome below the floor
                    continue
                assert bits[0] ^ bits[1] == b
                seen += prob
            assert seen == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("b", [0, 1])
    def test_completeness(self, b):
        x = commit.xor_combine([CATALOG["basis"], CATALOG["leaky"]])
        assert commit.decommit_probability(x, b) == pytest.approx(1.0, abs=1e-9)

    def test_one_hiding_component_hides_everything(self):
        x = commit.xor_combine([CATALOG["basis"], CATALOG["hiding"]])
        assert commit.hiding_advantage(x) == pytest.approx(0.5, abs=1e-12)
        r0 = qsim.partial_trace(commit.commit_state(x, 0), x.c_qubits)
        r1 = qsim.partial_trace(commit.commit_state(x, 1), x.c_qubits)
        assert np.allclose(r0.matrix, r1.matrix, atol=1e-12)

    def test_all_binding_components_resist_superposition(self):
        x = commit.xor_combine([CATALOG["basis"], CATALOG["basis"]])
        assert commit.binding_experiment(x, plus_commit(x)) == pytest.approx(
            0.5, abs=1e-9)

    def test_four_components(self):
        x = commit.xor_combine([CATALOG["basis"], CATALOG["hiding"],
                                CATALOG["swap"], CATALOG["leaky"]])
        assert x.n_qubits == 9
        assert commit.hiding_advantage(x) == pytest.approx(0.5, abs=1e-9)
        assert commit.decommit_probability(x, 1) == pytest.approx(1.0, abs=1e-9)

    def test_needs_two_components(self):
        with pytest.raises(ValueError):
            commit.xor_combine([CATALOG["basis"]])

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            commit.xor_combine([CATALOG["purified-coins"]] * 5)


class TestSchemeJson:
    def test_roundtrip(self):
        s = CATALOG["purified-coins"]
        text = commit.scheme_to_json(s)
        back = commit.scheme_from_json(text)
        assert back.name == s.name
        assert back.c_qubits == s.c_qubits
        assert back.d_qubits == s.d_qubits
        assert back.flavor == s.flavor
        assert np.array_equal(back.com, s.com)

    def test_deterministic(self):
        s = CATALOG["basis"]
        assert commit.scheme_to_json(s) == commit.scheme_to_json(s)

    @pytest.mark.parametrize("change,problem", [
        (lambda p: [], "not a JSON object"),
        (lambda p: {}, "'name'"),
        (lambda p: {k: v for k, v in p.items() if k != "flavor"}, "'flavor'"),
        (lambda p: {**p, "c_qubits": None}, "'c_qubits'"),
        (lambda p: {**p, "d_qubits": [0.0]}, "qubits must be integers"),
        (lambda p: {**p, "com_im": p["com_im"][:-1]}, "map is not square"),
    ], ids=["list", "empty", "no-flavor", "null-c-qubits", "float-qubit",
            "short-map"])
    def test_malformed_payload_named(self, change, problem):
        payload = change(json.loads(commit.scheme_to_json(CATALOG["basis"])))
        if isinstance(payload, dict) and "com_re" in payload:
            payload["checksum"] = commit._unitary_checksum(payload["com_re"],
                                                           payload["com_im"])
        with pytest.raises(ValueError, match=problem):
            commit.scheme_from_json(json.dumps(payload))

    def test_non_float_map_entry_named(self):
        payload = json.loads(commit.scheme_to_json(CATALOG["basis"]))
        for entry in ({}, None, "1.0", True):
            payload["com_re"][0] = entry
            payload["checksum"] = commit._unitary_checksum(payload["com_re"],
                                                           payload["com_im"])
            with pytest.raises(ValueError, match="map entries must be floats"):
                commit.scheme_from_json(json.dumps(payload))

    def test_tampered_unitary_detected(self):
        payload = json.loads(commit.scheme_to_json(CATALOG["basis"]))
        payload["com_re"][0] = 0.123
        with pytest.raises(ValueError, match="checksum"):
            commit.scheme_from_json(json.dumps(payload))


class TestUnitarityCheckMatchesDenseOracle:
    """The combiners' maps and the catalog's pass check_unitary."""

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(["purified-coins", "basis", "hiding"])))
    def test_xor_component_orders(self, order):
        x = commit.xor_combine([CATALOG[name] for name in order])
        assert np.count_nonzero(x.com) < x.com.size
        assert qsim.check_unitary(x.com) == x.n_qubits

    def test_dual_basis_swap(self):
        dual = commit.dual_commit(CATALOG["basis"], CATALOG["swap"])
        assert qsim.check_unitary(dual.com) == dual.n_qubits

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog(self, name):
        assert qsim.check_unitary(CATALOG[name].com) == CATALOG[name].n_qubits


def refuse_check(u):
    raise AssertionError("check_unitary called on a composed map")


class TestUnitarityCheckedWhereMapsEnter:
    """The combiners compose checked maps and do not re-check them; the
    constructors that take a map from outside still reject a non-unitary
    one (CommitScheme itself: TestCommitScheme)."""

    @pytest.mark.parametrize(
        "order", list(itertools.permutations(["purified-coins", "basis", "hiding"])))
    def test_xor_combine_skips_check(self, monkeypatch, order):
        with monkeypatch.context() as patch:
            patch.setattr(qsim, "check_unitary", refuse_check)
            x = commit.xor_combine([CATALOG[name] for name in order])
        assert qsim.check_unitary(x.com) == x.n_qubits

    def test_dual_commit_skips_check(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(qsim, "check_unitary", refuse_check)
            dual = commit.dual_commit(CATALOG["basis"], CATALOG["swap"])
        assert qsim.check_unitary(dual.com) == dual.n_qubits

    def test_purification_commit_checks(self, monkeypatch):
        monkeypatch.setattr(commit, "_branch_isometry",
                            lambda pmf, width: 2 * np.eye(4 ** width, dtype=complex))
        with pytest.raises(ValueError, match="gate is not unitary"):
            commit.purification_commit(bern(0.5), bern(0.25))

    def test_scheme_from_json_checks(self):
        payload = json.loads(commit.scheme_to_json(CATALOG["basis"]))
        payload["com_re"][0] = 0.5
        payload["checksum"] = commit._unitary_checksum(payload["com_re"],
                                                       payload["com_im"])
        with pytest.raises(ValueError, match="gate is not unitary"):
            commit.scheme_from_json(json.dumps(payload))


@pytest.mark.filterwarnings("error")
class TestNonFiniteInputRejected:
    def test_commit_map(self):
        for com in (np.full((4, 4), np.nan), np.diag([1.0, 1.0, np.inf, 1.0])):
            with pytest.raises(ValueError, match="gate is not unitary"):
                commit.CommitScheme("bad", com, (1,), (0,))

    def test_adversary_measurement(self):
        state = commit.commit_state(CATALOG["basis"], 0)
        nan = np.full((2, 2), np.nan)
        with pytest.raises(ValueError):
            commit.AdversaryStrategy(state, measurement=(nan, nan))
        e0 = np.diag([1.0, np.nan])
        with pytest.raises(ValueError):
            commit.AdversaryStrategy(state, measurement=(e0, np.eye(2) - e0))

    def test_adversary_state(self):
        with pytest.raises(ValueError):
            commit.AdversaryStrategy([np.nan, 0.0, 0.0, 0.0])
