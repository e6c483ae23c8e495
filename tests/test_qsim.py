"""Tests for the dense statevector simulator.

apply_unitary and partial_trace are checked against slow full-matrix oracles
built by explicit basis-index bookkeeping, trace_distance against the pure
state closed form and an SVD-based nuclear norm.
"""

import numpy as np
import pytest

from qclab import qsim


def bits_of(v, n):
    return tuple((v >> (n - 1 - j)) & 1 for j in range(n))


def full_operator(u, targets, n):
    """Expand a k-qubit gate to the full 2^n space by index bookkeeping."""
    k = len(targets)
    dim = 2 ** n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        col_bits = bits_of(col, n)
        tcol = 0
        for t in targets:
            tcol = (tcol << 1) | col_bits[t]
        for trow in range(2 ** k):
            amp = u[trow, tcol]
            if amp == 0:
                continue
            row_bits = list(col_bits)
            for pos, t in enumerate(targets):
                row_bits[t] = (trow >> (k - 1 - pos)) & 1
            row = 0
            for b in row_bits:
                row = (row << 1) | b
            full[row, col] += amp
    return full


def partial_trace_slow(rho, keep, n):
    drop = [j for j in range(n) if j not in keep]
    dim_keep = 2 ** len(keep)
    out = np.zeros((dim_keep, dim_keep), dtype=complex)
    for a in range(2 ** n):
        for b in range(2 ** n):
            ab, bb = bits_of(a, n), bits_of(b, n)
            if any(ab[j] != bb[j] for j in drop):
                continue
            ra = int("".join(str(ab[j]) for j in keep) or "0", 2)
            rb = int("".join(str(bb[j]) for j in keep) or "0", 2)
            out[ra, rb] += rho[a, b]
    return out


def random_state(rng, n):
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return qsim.PureState(v / np.linalg.norm(v))


class TestValidation:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            qsim.PureState(np.array([1.0, 1.0]))

    def test_dimension_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            qsim.PureState(np.array([1.0, 0.0, 0.0]))

    def test_qubit_budget(self):
        with pytest.raises(ValueError):
            qsim.PureState(np.zeros(2 ** 15))

    def test_density_checks(self):
        with pytest.raises(ValueError):
            qsim.DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            qsim.DensityMatrix(np.array([[0.6, 0.0], [0.0, 0.6]]))  # trace 1.2
        with pytest.raises(ValueError):
            qsim.DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            qsim.apply_unitary(qsim.basis_state((0,)), np.array([[1.0, 0.0], [0.0, 0.5]]), [0])


class TestGatesAndStates:
    def test_basis_state_indexing(self):
        # qubit 0 is the most significant position
        psi = qsim.basis_state((1, 0))
        assert psi.vector[2] == pytest.approx(1.0)

    def test_hadamard_on_second_qubit(self):
        psi = qsim.apply_unitary(qsim.basis_state((0, 0)), qsim.H, [1])
        expect = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)
        assert np.allclose(psi.vector, expect)

    def test_cnot_flips_target(self):
        psi = qsim.apply_unitary(qsim.basis_state((1, 0)), qsim.CNOT, [0, 1])
        assert psi.vector[3] == pytest.approx(1.0)

    def test_cnot_reversed_targets(self):
        psi = qsim.apply_unitary(qsim.basis_state((1, 0)), qsim.CNOT, [1, 0])
        assert psi.vector[2] == pytest.approx(1.0)  # control qubit 1 is 0, no flip

    def test_gate_table_is_unitary(self):
        for gate in (qsim.H, qsim.X, qsim.Z, qsim.S, qsim.T, qsim.CNOT):
            assert np.allclose(gate @ gate.conj().T, np.eye(gate.shape[0]))

    def test_apply_matches_full_operator(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 3))
            targets = list(rng.choice(n, size=k, replace=False))
            raw = rng.normal(size=(2 ** k, 2 ** k)) + 1j * rng.normal(size=(2 ** k, 2 ** k))
            u, _ = np.linalg.qr(raw)
            psi = random_state(rng, n)
            fast = qsim.apply_unitary(psi, u, targets)
            slow = full_operator(u, targets, n) @ psi.vector
            assert np.allclose(fast.vector, slow, atol=1e-10)

    def test_apply_on_density_conjugates(self):
        rng = np.random.default_rng(37)
        psi = random_state(rng, 3)
        rho = psi.to_density()
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        out = qsim.apply_unitary(rho, u, [1])
        full = full_operator(u, [1], 3)
        assert np.allclose(out.matrix, full @ rho.matrix @ full.conj().T, atol=1e-10)


class TestMeasurement:
    def test_project_plus_state(self):
        plus = qsim.apply_unitary(qsim.basis_state((0,)), qsim.H, [0])
        prob, post = qsim.project(plus, [0], (0,))
        assert prob == pytest.approx(0.5)
        assert np.allclose(post.vector, [1.0, 0.0])

    def test_project_impossible_outcome(self):
        with pytest.raises(ValueError):
            qsim.project(qsim.basis_state((0,)), [0], (1,))

    def test_measure_deterministic_under_seed(self):
        plus2 = qsim.apply_unitary(
            qsim.apply_unitary(qsim.basis_state((0, 0)), qsim.H, [0]), qsim.H, [1]
        )
        a = qsim.measure(plus2, [0, 1], np.random.default_rng(41))
        b = qsim.measure(plus2, [0, 1], np.random.default_rng(41))
        assert a[0] == b[0] and a[1] == pytest.approx(b[1])

    def test_measure_statistics(self):
        plus = qsim.apply_unitary(qsim.basis_state((0,)), qsim.H, [0])
        rng = np.random.default_rng(43)
        ones = sum(qsim.measure(plus, [0], rng)[0][0] for _ in range(2000))
        assert 850 < ones < 1150

    def test_decompose_covers_all_outcomes(self):
        psi = qsim.apply_unitary(qsim.basis_state((0, 1)), qsim.H, [0])
        branches = qsim.measure_decompose(psi, [0])
        assert {bits for bits, _, _ in branches} == {(0,), (1,)}
        assert sum(prob for _, prob, _ in branches) == pytest.approx(1.0)

    def test_dephase_kills_coherence(self):
        plus = qsim.apply_unitary(qsim.basis_state((0,)), qsim.H, [0])
        rho = qsim.dephase(plus.to_density(), [0])
        assert np.allclose(rho.matrix, np.eye(2) / 2)


class TestPartialTraceAndDistance:
    def test_bell_marginal_is_maximally_mixed(self):
        bell = qsim.apply_unitary(
            qsim.apply_unitary(qsim.basis_state((0, 0)), qsim.H, [0]), qsim.CNOT, [0, 1]
        )
        rho = qsim.partial_trace(bell, keep=[0])
        assert np.allclose(rho.matrix, np.eye(2) / 2)

    def test_matches_slow_trace(self):
        rng = np.random.default_rng(47)
        for _ in range(8):
            n = int(rng.integers(2, 5))
            keep = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            psi = random_state(rng, n)
            fast = qsim.partial_trace(psi, keep=list(keep))
            slow = partial_trace_slow(psi.to_density().matrix, list(keep), n)
            assert np.allclose(fast.matrix, slow, atol=1e-10)

    def test_trace_distance_frozen(self):
        plus = qsim.apply_unitary(qsim.basis_state((0,)), qsim.H, [0])
        got = qsim.trace_distance(qsim.basis_state((0,)), plus)
        assert got == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_pure_closed_form(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            a, b = random_state(rng, 3), random_state(rng, 3)
            expect = np.sqrt(1.0 - qsim.overlap(a, b))
            assert qsim.trace_distance(a, b) == pytest.approx(expect, abs=1e-10)

    def test_matches_nuclear_norm(self):
        rng = np.random.default_rng(59)
        for _ in range(6):
            a = qsim.partial_trace(random_state(rng, 4), keep=[0, 1])
            b = qsim.partial_trace(random_state(rng, 4), keep=[0, 1])
            diff = a.matrix - b.matrix
            expect = 0.5 * np.linalg.svd(diff, compute_uv=False).sum()
            assert qsim.trace_distance(a, b) == pytest.approx(expect, abs=1e-10)

    def test_pure_matches_density_eigenvalues(self):
        rng = np.random.default_rng(67)
        pairs = [(random_state(rng, 3), random_state(rng, 3)) for _ in range(10)]
        pairs.append((qsim.basis_state((0, 1, 1)), qsim.basis_state((1, 1, 0))))
        for a, b in pairs:
            expect = qsim.trace_distance(a.to_density(), b.to_density())
            assert qsim.trace_distance(a, b) == pytest.approx(expect, abs=1e-12)

    def test_identical_states_at_zero(self):
        psi = random_state(np.random.default_rng(61), 2)
        assert qsim.trace_distance(psi, psi) == pytest.approx(0.0, abs=1e-12)


class TestWiesner:
    def test_encoding_fixed_example(self):
        psi = qsim.wiesner_encode(theta=(0, 1), x=(1, 0))
        expect = np.array([0.0, 0.0, 1.0, 1.0]) / np.sqrt(2)
        assert np.allclose(psi.vector, expect)

    def test_computational_basis_round_trip(self):
        psi = qsim.wiesner_encode(theta=(0, 0, 0), x=(1, 0, 1))
        assert psi.vector[0b101] == pytest.approx(1.0)

    def test_average_over_messages_is_mixed(self):
        theta = (1, 0)
        acc = np.zeros((4, 4), dtype=complex)
        for v in range(4):
            x = bits_of(v, 2)
            acc += qsim.wiesner_encode(theta, x).to_density().matrix
        assert np.allclose(acc / 4, np.eye(4) / 4, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            qsim.wiesner_encode((0, 1), (1,))
