"""Tests for the dense statevector simulator.

apply_unitary and partial_trace are checked against slow full-matrix oracles
built by explicit basis-index bookkeeping, apply_gate and partial_trace
against their former np.moveaxis forms, trace_distance against the pure state closed form and an
SVD-based nuclear norm, and oracles.density_partial_trace against the slow
trace.  check_unitary's accept or reject verdict is pinned on
permuted block unitaries, small perturbations of them and patterns that rule
a unitary out.
"""

import itertools
import math

import numpy as np
import pytest

from qclab import qsim

import oracles


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
        for gate in (qsim.H, oracles.X, oracles.Z, oracles.S, oracles.T, qsim.CNOT):
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

    @pytest.mark.parametrize("targets", [[0], [2], [2, 0], [1, 3, 0]])
    def test_project_keeps_the_indices_showing_the_outcome(self, targets):
        rng = np.random.default_rng(67)
        psi = random_state(rng, 4)
        for v in range(2 ** len(targets)):
            bits = bits_of(v, len(targets))
            keep = np.array([all(bits_of(i, 4)[t] == b for t, b in zip(targets, bits))
                             for i in range(16)])
            sub = np.where(keep, psi.vector, 0.0)
            want = np.vdot(sub, sub).real
            prob, post = qsim.project(psi, targets, bits)
            assert prob == pytest.approx(want, abs=1e-12)
            assert np.allclose(post.vector, sub / np.sqrt(want))

    def test_project_rejects_outcomes_that_are_not_bits(self):
        with pytest.raises(ValueError, match="outcome bit"):
            qsim.project(qsim.basis_state((0, 0)), [0, 1], (0, 2))

    def test_project_rejects_density_matrices(self):
        rho = qsim.basis_state((0, 0)).to_density()
        with pytest.raises(TypeError, match="PureState"):
            qsim.project(rho, [0], (0,))

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

    def test_density_oracle_matches_slow_trace(self):
        rng = np.random.default_rng(43)
        for _ in range(8):
            n = int(rng.integers(2, 5))
            keep = [int(j) for j in rng.permutation(n)[:int(rng.integers(1, n))]]
            rho = qsim.partial_trace(random_state(rng, n + 1), list(range(n)))
            got = oracles.density_partial_trace(rho, keep)
            assert np.allclose(got.matrix, partial_trace_slow(rho.matrix, keep, n),
                               atol=1e-10)

    def test_trace_distance_frozen(self):
        plus = qsim.apply_unitary(qsim.basis_state((0,)), qsim.H, [0])
        got = qsim.trace_distance(qsim.basis_state((0,)).to_density(), plus.to_density())
        assert got == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_pure_closed_form(self):
        # two pure states are sqrt(1 - |<a|b>|^2) apart, orthogonal ones 1
        rng = np.random.default_rng(53)
        pairs = [(random_state(rng, 3), random_state(rng, 3)) for _ in range(10)]
        pairs.append((qsim.basis_state((0, 1, 1)), qsim.basis_state((1, 1, 0))))
        for a, b in pairs:
            expect = np.sqrt(1.0 - qsim.overlap(a, b))
            got = qsim.trace_distance(a.to_density(), b.to_density())
            assert got == pytest.approx(expect, abs=1e-10)

    def test_pure_matches_density_eigenvalues(self):
        # the difference of two pure densities has rank two: eigenvalues
        # +D and -D, with D the trace distance, and zeros elsewhere
        rng = np.random.default_rng(67)
        pairs = [(random_state(rng, 3), random_state(rng, 3)) for _ in range(10)]
        pairs.append((qsim.basis_state((0, 1, 1)), qsim.basis_state((1, 1, 0))))
        for a, b in pairs:
            rho_a, rho_b = a.to_density(), b.to_density()
            d = qsim.trace_distance(rho_a, rho_b)
            eig = np.linalg.eigvalsh(rho_a.matrix - rho_b.matrix)
            expect = np.concatenate([[-d], np.zeros(len(eig) - 2), [d]])
            assert np.allclose(eig, expect, atol=1e-12)

    def test_matches_nuclear_norm(self):
        rng = np.random.default_rng(59)
        for _ in range(6):
            a = qsim.partial_trace(random_state(rng, 4), keep=[0, 1])
            b = qsim.partial_trace(random_state(rng, 4), keep=[0, 1])
            diff = a.matrix - b.matrix
            expect = 0.5 * np.linalg.svd(diff, compute_uv=False).sum()
            assert qsim.trace_distance(a, b) == pytest.approx(expect, abs=1e-10)

    def test_identical_states_at_zero(self):
        rho = random_state(np.random.default_rng(61), 2).to_density()
        assert qsim.trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)


def random_unitary(rng, k):
    raw = rng.normal(size=(2 ** k, 2 ** k)) + 1j * rng.normal(size=(2 ** k, 2 ** k))
    return np.linalg.qr(raw)[0]


def apply_gate_moveaxis(state, u, targets):
    """The former apply_gate kernel: move the targets to the front of the
    (2,)*n tensor, multiply, move them back.  Returns a bare array."""
    if isinstance(state, qsim.PureState):
        return apply_gate_moveaxis(state.vector, u, targets)
    if isinstance(state, qsim.DensityMatrix):
        n = state.n_qubits
        left = apply_gate_moveaxis(state.matrix.reshape(-1), u, targets)
        right = apply_gate_moveaxis(left, u.conj(), [t + n for t in targets])
        return right.reshape(state.matrix.shape)
    targets = list(targets)
    n, k = state.shape[0].bit_length() - 1, len(targets)
    tail = state.shape[1:]
    tensor = np.moveaxis(state.reshape((2,) * n + tail), targets, range(k))
    block = u @ tensor.reshape(2 ** k, -1)
    tensor = np.moveaxis(block.reshape((2,) * n + tail), range(k), targets)
    return tensor.reshape(state.shape)


class _Untransposable(np.ndarray):
    """A register whose transpose fails; np.moveaxis transposes too."""

    def transpose(self, *axes):
        raise AssertionError("apply_gate transposed the register")


class TestGateKernel:
    """apply_gate against the former moveaxis kernel.

    The two are bit-identical wherever the new kernel's blocks are wide.
    When the targets' run p..p+k-1 ends at the register's last qubit, each
    block is only as wide as the tail (1, 3 or 6 columns here), the former
    kernel's one block is 2^p times wider, and BLAS may round the last bit
    differently; those shapes are compared to 1e-12.
    """

    N = 6
    TARGETS = {
        "one-low": [0], "one-mid": [2], "one-high": [5],
        "run-pair": [1, 2], "run-triple": [3, 4, 5],
        "descending": [2, 1], "descending-triple": [5, 4, 3],
        "gapped": [0, 5], "gapped-triple": [4, 0, 2],
        "full": [0, 1, 2, 3, 4, 5], "full-reversed": [5, 4, 3, 2, 1, 0],
    }

    @staticmethod
    def field(state):
        return state.vector if isinstance(state, qsim.PureState) else state.matrix

    @staticmethod
    def assert_same(got, want, exact):
        assert got.shape == want.shape
        if exact:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("case", sorted(TARGETS))
    def test_matches_moveaxis_kernel(self, case):
        targets = self.TARGETS[case]
        p, k = min(targets), len(targets)
        narrow = p + k == self.N  # a density matrix's column pass has p >= N
        rng = np.random.default_rng(sorted(self.TARGETS).index(case))
        u = random_unitary(rng, k)
        psi = random_state(rng, self.N)
        mixed = qsim.partial_trace(random_state(rng, self.N + 2), list(range(self.N)))
        for state in (psi, psi.to_density(), mixed):
            got = qsim.apply_gate(state, u, targets)
            assert type(got) is type(state)
            exact = not narrow or (p == 0 and state is psi)
            self.assert_same(self.field(got), apply_gate_moveaxis(state, u, targets),
                             exact)
        for tail in ((), (3,), (3, 2)):
            bare = rng.normal(size=(2 ** self.N,) + tail) + 0j
            bare += 1j * rng.normal(size=bare.shape)
            self.assert_same(qsim.apply_gate(bare, u, targets),
                             apply_gate_moveaxis(bare, u, targets),
                             not narrow or p == 0)

    def test_ascending_runs_never_transpose(self):
        rng = np.random.default_rng(77)
        psi = random_state(rng, 8)
        psi.vector = psi.vector.view(_Untransposable)
        mixed = qsim.partial_trace(random_state(rng, 5), list(range(4)))
        mixed.matrix = mixed.matrix.view(_Untransposable)
        square = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        square = square.view(_Untransposable)
        for targets in ([0], [5], [7], [1, 2], [4, 5, 6], list(range(8))):
            u = random_unitary(rng, len(targets))
            qsim.apply_gate(psi, u, targets)
            qsim.apply_gate(square, u, targets)
            if max(targets) < 4:
                qsim.apply_gate(mixed, u, targets)
        with pytest.raises(AssertionError, match="transposed"):
            qsim.apply_gate(psi, qsim.CNOT, [1, 0])


def apply_gate_moveaxis_run(state, u, targets):
    """The former non-run branch of apply_gate: np.moveaxis the targets to
    positions p..p+k-1, multiply, np.moveaxis them back."""
    p, k = min(targets), len(targets)
    run = list(range(p, p + k))
    shape = (2,) * (state.shape[0].bit_length() - 1) + state.shape[1:]
    tensor = np.moveaxis(state.reshape(shape), targets, run)
    block = np.matmul(u, tensor.reshape(2 ** p, 2 ** k, -1))
    return np.moveaxis(block.reshape(shape), run, targets).reshape(state.shape)


def partial_trace_moveaxis(state, keep):
    """The former partial_trace: np.moveaxis the kept qubits to the front."""
    n = state.n_qubits
    drop = [j for j in range(n) if j not in keep]
    tensor = np.moveaxis(state.vector.reshape((2,) * n), list(keep) + drop,
                         range(n))
    mat = tensor.reshape(2 ** len(keep), -1)
    return mat @ mat.conj().T


def ordered_subsets(n):
    for k in range(1, n + 1):
        yield from itertools.permutations(range(n), k)


class TestTransposeMatchesMoveaxis:
    """apply_gate and partial_trace permute axes with one transpose where
    they used np.moveaxis; the permutation is the same, so every result is
    bit-identical, for every target and keep order up to 5 qubits."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_apply_gate_every_target_order(self, n):
        rng = np.random.default_rng(300 + n)
        gates = {k: random_unitary(rng, k) for k in range(1, n + 1)}
        psi = random_state(rng, n).vector
        tailed = rng.normal(size=(2 ** n, 3)) + 1j * rng.normal(size=(2 ** n, 3))
        for targets in ordered_subsets(n):
            u = gates[len(targets)]
            for state in (psi, tailed):
                assert np.array_equal(
                    qsim.apply_gate(state, u, list(targets)),
                    apply_gate_moveaxis_run(state, u, list(targets))), targets

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_partial_trace_every_keep_order(self, n):
        rng = np.random.default_rng(310 + n)
        for psi in (random_state(rng, n), random_state(rng, n)):
            for keep in ordered_subsets(n):
                assert np.array_equal(qsim.partial_trace(psi, list(keep)).matrix,
                                      partial_trace_moveaxis(psi, keep)), keep


def dephase_masked_sum(rho, targets):
    """The former dephase: a sum of masked copies, one per outcome."""
    n = rho.n_qubits
    acc = np.zeros_like(rho.matrix)
    for v in range(2 ** len(targets)):
        bits = bits_of(v, len(targets))
        mask = np.ones(2 ** n, dtype=bool)
        for t, b in zip(targets, bits):
            mask &= (np.arange(2 ** n) >> (n - 1 - t)) & 1 == b
        acc += rho.matrix * np.outer(mask, mask)
    return acc


def passes_checks(state):
    """Re-run the public constructor's checks on a state qsim returned."""
    if isinstance(state, qsim.PureState):
        again = qsim.PureState(state.vector)
    else:
        again = qsim.DensityMatrix(state.matrix)
    return again.n_qubits == state.n_qubits


class TestResultsPassConstructorChecks:
    """qsim builds its results without re-checking them; the checks it skips
    hold on every result anyway."""

    CASES = [(seed, n) for seed in range(6) for n in (1, 2, 3, 4)]

    @staticmethod
    def draw(seed, n):
        rng = np.random.default_rng(1000 + seed)
        k = int(rng.integers(1, min(n, 3) + 1))
        targets = [int(t) for t in rng.choice(n, size=k, replace=False)]
        return rng, random_state(rng, n), random_unitary(rng, k), targets

    @pytest.mark.parametrize("seed,n", CASES)
    def test_gates(self, seed, n):
        rng, psi, u, targets = self.draw(seed, n)
        mixed = qsim.partial_trace(random_state(rng, n + 1), list(range(n)))
        for state in (psi, psi.to_density(), mixed):
            got = qsim.apply_unitary(state, u, targets)
            assert type(got) is type(state) and passes_checks(got)
            same = qsim.apply_gate(state, u, targets)
            assert type(same) is type(state) and passes_checks(same)
            field = "vector" if isinstance(state, qsim.PureState) else "matrix"
            assert np.array_equal(getattr(got, field), getattr(same, field))

    @pytest.mark.parametrize("seed,n", CASES)
    def test_measurement_and_reduction(self, seed, n):
        _, psi, u, targets = self.draw(seed, n)
        psi = qsim.apply_gate(psi, u, targets)
        rho = psi.to_density()
        assert passes_checks(rho)
        for v in range(2 ** len(targets)):
            try:
                _, post = qsim.project(psi, targets, bits_of(v, len(targets)))
            except ValueError:  # an outcome below the floor
                continue
            assert passes_checks(post)
        for state in (psi, rho):
            assert passes_checks(qsim.dephase(state, targets))
        assert passes_checks(qsim.partial_trace(psi, targets))
        assert passes_checks(qsim.basis_state(bits_of(seed, n)))

    @pytest.mark.parametrize("seed,n", CASES)
    def test_dephase_matches_masked_sum(self, seed, n):
        _, psi, u, targets = self.draw(seed, n)
        rho = qsim.apply_gate(psi, u, targets).to_density()
        got = qsim.dephase(rho, targets)
        assert np.array_equal(got.matrix, dephase_masked_sum(rho, targets))

    def test_gate_composes_columns(self):
        # a bare (2^n, cols) array: every column gets the gate
        rng = np.random.default_rng(71)
        u = random_unitary(rng, 2)
        full = qsim.apply_gate(np.eye(8, dtype=complex), u, [2, 0])
        assert np.allclose(full, full_operator(u, [2, 0], 3), atol=1e-12)

    def test_check_unitary_counts_qubits(self):
        assert qsim.check_unitary(qsim.CNOT) == 2
        for bad in (np.eye(1), np.eye(3), np.ones((2, 4)), np.diag([1.0, 0.5])):
            with pytest.raises(ValueError):
                qsim.check_unitary(bad)

    def test_caller_input_still_checked(self):
        psi = qsim.basis_state((0, 0))
        with pytest.raises(ValueError):
            qsim.apply_unitary(psi, qsim.H, [2])
        with pytest.raises(ValueError):
            qsim.apply_unitary(psi, qsim.CNOT, [1, 1])
        with pytest.raises(ValueError):
            qsim.apply_unitary(psi, qsim.CNOT, [0])
        with pytest.raises(TypeError):
            qsim.apply_unitary(psi.vector, qsim.H, [0])
        with pytest.raises(ValueError):
            qsim.partial_trace(psi, [])
        with pytest.raises(ValueError):
            qsim.partial_trace(qsim.basis_state((0,) * 11), list(range(11)))
        # partial_trace takes a pure state, trace_distance density matrices
        with pytest.raises(TypeError):
            qsim.partial_trace(psi.to_density(), [0])
        for a, b in ((psi, psi), (psi.to_density(), psi)):
            with pytest.raises(TypeError):
                qsim.trace_distance(a, b)
        with pytest.raises(ValueError, match="registers"):
            qsim.trace_distance(psi.to_density(), qsim.basis_state((0,)).to_density())
        with pytest.raises(ValueError):
            qsim.basis_state((0,) * 15)
        with pytest.raises(ValueError):
            qsim.dephase(psi, [0, 0])
        for targets in ([0, 0], [0, 5]):
            with pytest.raises(ValueError, match="target"):
                qsim.project(psi, targets, (0, 0))


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


def haar_unitary(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def permuted_blocks(rng, dim, largest=64):
    """A unitary that is block diagonal, with Haar blocks of random sizes,
    up to a permutation of its rows and another of its columns."""
    u = np.zeros((dim, dim), dtype=complex)
    at = 0
    while at < dim:
        size = min(dim - at, int(rng.integers(2, largest + 1)))
        u[at:at + size, at:at + size] = haar_unitary(rng, size)
        at += size
    return u[rng.permutation(dim)][:, rng.permutation(dim)]


def perturbed(rng, u, eps):
    """u with one row scaled by 1 + eps and eps added to one entry, which
    may join two blocks."""
    u = u.copy()
    u[rng.integers(len(u))] *= 1 + eps
    u[tuple(rng.integers(len(u), size=2))] += eps
    return u


def accepted(u):
    """check_unitary's verdict on u; a rejection must be its unitarity one."""
    try:
        qsim.check_unitary(u)
    except ValueError as err:
        assert str(err) == "gate is not unitary"
        return False
    return True


class TestUnitarityByBlocks:
    """check_unitary accepts unitaries made of permuted blocks and rejects
    perturbations above CHECK_TOL, zero rows or columns, unbalanced blocks
    and non-finite entries."""

    @pytest.mark.parametrize("seed", range(30))
    def test_permuted_blocks_match_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        u = permuted_blocks(rng, 2 ** int(rng.integers(1, 8)))
        assert qsim.check_unitary(u) == len(u).bit_length() - 1

    @pytest.mark.parametrize("seed", range(30))
    def test_perturbed_blocks_match_dense_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        u = permuted_blocks(rng, 2 ** int(rng.integers(1, 8)))
        assert not accepted(perturbed(rng, u, 1e-9))
        assert accepted(perturbed(rng, u, 1e-11))

    @pytest.mark.parametrize("qubits", range(1, 8))
    def test_dense_haar_is_one_block(self, qubits):
        u = haar_unitary(np.random.default_rng(qubits), 2 ** qubits)
        assert np.count_nonzero(u) == u.size
        assert qsim.check_unitary(u) == qubits

    @pytest.mark.parametrize("zero", [0, 2, 3])
    def test_zero_row_rejected(self, zero):
        u = np.eye(4, dtype=complex)
        u[zero] = 0.0
        u[1 - zero % 2, zero] = 1.0
        with pytest.raises(ValueError, match="gate is not unitary"):
            qsim.check_unitary(u)

    @pytest.mark.parametrize("zero", [0, 2, 3])
    def test_zero_column_rejected(self, zero):
        u = np.eye(4, dtype=complex)
        u[:, zero] = 0.0
        u[zero, 1 - zero % 2] = 1.0
        with pytest.raises(ValueError, match="gate is not unitary"):
            qsim.check_unitary(u)

    @staticmethod
    def two_rows_over_one_column():
        # blocks: rows 0, 1 over column 0; row 2 over column 1; row 3 over
        # columns 2, 3
        r = math.sqrt(0.5)
        return np.array([[r, 0, 0, 0], [r, 0, 0, 0], [0, 1, 0, 0], [0, 0, r, r]],
                        dtype=complex)

    def test_two_rows_over_one_column_rejected(self):
        u = self.two_rows_over_one_column()
        with pytest.raises(ValueError, match="gate is not unitary"):
            qsim.check_unitary(u)

    def test_one_row_over_two_columns_rejected(self):
        u = self.two_rows_over_one_column().T
        with pytest.raises(ValueError, match="gate is not unitary"):
            qsim.check_unitary(u)

    def test_nan_rejected(self):
        for u in (np.full((2, 2), np.nan), np.where(np.eye(4) == 1, 1.0, np.nan),
                  np.diag([1.0, np.nan, 1.0, 1.0])):
            with pytest.raises(ValueError, match="gate is not unitary"):
                qsim.check_unitary(u)

    @pytest.mark.filterwarnings("error")
    def test_inf_rejected(self):
        dense = qsim.H.copy()
        dense[0, 1] = np.inf
        for u in (dense, np.diag([1.0, 1.0, np.inf, 1.0]),
                  np.diag([1.0, 1.0, 1.0, -np.inf * 1j])):
            with pytest.raises(ValueError, match="gate is not unitary"):
                qsim.check_unitary(u)


@pytest.mark.filterwarnings("error")
class TestNonFiniteInputRejected:
    def test_pure_state(self):
        for vector in ([np.nan, 0.0], [np.inf, 0.0], [1.0, np.nan]):
            with pytest.raises(ValueError):
                qsim.PureState(vector)

    def test_density_matrix(self):
        for matrix in (np.full((2, 2), np.nan), np.diag([np.nan, 1.0]),
                       np.diag([np.inf, 0.0])):
            with pytest.raises(ValueError):
                qsim.DensityMatrix(matrix)
