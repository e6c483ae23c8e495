"""Dense statevector and density-matrix simulator for small registers.

Qubit 0 is the most significant position: basis_state((1, 0)) has its
amplitude at index 2.  Everything is exact linear algebra on numpy complex
arrays; no approximation beyond float64 happens anywhere in this module.
"""

import math

import numpy as np

QUBIT_LIMIT = 14
DENSITY_QUBIT_LIMIT = 10

NORM_TOL = 1e-10
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-8
UNITARY_TOL = 1e-10
OUTCOME_FLOOR = 1e-12

H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
T = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def _qubits_of(dim, limit, what):
    n = dim.bit_length() - 1
    if 2 ** n != dim or n < 1:
        raise ValueError(f"{what} dimension {dim} is not a power of two")
    if n > limit:
        raise ValueError(f"{what} of {n} qubits exceeds the {limit}-qubit budget")
    return n


class PureState:
    """Normalized statevector over n qubits."""

    __slots__ = ("vector", "n_qubits")

    def __init__(self, vector):
        vector = np.asarray(vector, dtype=complex)
        if vector.ndim != 1:
            raise ValueError("statevector must be 1-d")
        self.n_qubits = _qubits_of(len(vector), QUBIT_LIMIT, "statevector")
        norm = np.linalg.norm(vector)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"statevector norm {norm} is not 1")
        self.vector = vector

    def to_density(self):
        if self.n_qubits > DENSITY_QUBIT_LIMIT:
            raise ValueError("state too large to materialize as a density matrix")
        return DensityMatrix(np.outer(self.vector, self.vector.conj()))

    def __repr__(self):
        return f"PureState(n_qubits={self.n_qubits})"


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator over n qubits."""

    __slots__ = ("matrix", "n_qubits")

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("density matrix must be square")
        self.n_qubits = _qubits_of(matrix.shape[0], DENSITY_QUBIT_LIMIT, "density matrix")
        if np.abs(matrix - matrix.conj().T).max() > HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian")
        trace = matrix.trace().real
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {trace} is not 1")
        if np.linalg.eigvalsh(matrix).min() < EIGENVALUE_FLOOR:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        self.matrix = matrix

    def __repr__(self):
        return f"DensityMatrix(n_qubits={self.n_qubits})"


def basis_state(bits):
    """Computational basis state |bits>."""
    if not all(b in (0, 1) for b in bits):
        raise ValueError(f"not a bit string: {bits!r}")
    vec = np.zeros(2 ** len(bits), dtype=complex)
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    vec[idx] = 1.0
    return PureState(vec)


def _check_targets(targets, n):
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target qubit")
    if not all(0 <= t < n for t in targets):
        raise ValueError(f"target outside register of {n} qubits")


def _check_unitary(u, k):
    if u.shape != (2 ** k, 2 ** k):
        raise ValueError(f"gate shape {u.shape} does not act on {k} qubits")
    if np.abs(u @ u.conj().T - np.eye(2 ** k)).max() > UNITARY_TOL:
        raise ValueError("gate is not unitary")


def _apply_to_vector(vec, u, targets, n):
    # vec is a (2^n,) vector or a (2^n, cols) matrix whose columns ride along
    k = len(targets)
    tail = vec.shape[1:]
    tensor = vec.reshape((2,) * n + tail)
    tensor = np.moveaxis(tensor, targets, range(k))
    block = u @ tensor.reshape(2 ** k, -1)
    tensor = np.moveaxis(block.reshape((2,) * n + tail), range(k), targets)
    return tensor.reshape(vec.shape)


def apply_unitary(state, u, targets):
    """Apply a k-qubit gate to the listed target qubits.

    Accepts PureState or DensityMatrix and returns the same type; target
    order is significant (CNOT control is the first listed target).
    """
    u = np.asarray(u, dtype=complex)
    _check_unitary(u, len(targets))
    if isinstance(state, PureState):
        _check_targets(targets, state.n_qubits)
        return PureState(_apply_to_vector(state.vector, u, list(targets), state.n_qubits))
    if isinstance(state, DensityMatrix):
        n = state.n_qubits
        _check_targets(targets, n)
        # conjugate both index groups of the doubled tensor
        left = _apply_to_vector(state.matrix.reshape(-1), u, list(targets), 2 * n)
        shifted = [t + n for t in targets]
        right = _apply_to_vector(left, u.conj(), shifted, 2 * n)
        return DensityMatrix(right.reshape(state.matrix.shape))
    raise TypeError(f"unsupported state type {type(state).__name__}")


def _outcome_mask(n, targets, bits):
    idx = np.arange(2 ** n)
    mask = np.ones(2 ** n, dtype=bool)
    for t, b in zip(targets, bits):
        mask &= ((idx >> (n - 1 - t)) & 1) == b
    return mask


def project(state, targets, bits):
    """Project the targets onto a computational outcome and renormalize.

    Returns (probability, post_state); outcomes with probability below
    OUTCOME_FLOOR are rejected since the conditional state is undefined.
    """
    if len(targets) != len(bits):
        raise ValueError("one outcome bit per target required")
    if isinstance(state, PureState):
        _check_targets(targets, state.n_qubits)
        mask = _outcome_mask(state.n_qubits, targets, bits)
        vec = np.where(mask, state.vector, 0.0)
        prob = float(np.vdot(vec, vec).real)
        if prob < OUTCOME_FLOOR:
            raise ValueError(f"outcome {bits!r} has probability {prob} below the floor")
        return prob, PureState(vec / math.sqrt(prob))
    if isinstance(state, DensityMatrix):
        _check_targets(targets, state.n_qubits)
        mask = _outcome_mask(state.n_qubits, targets, bits)
        sub = state.matrix * np.outer(mask, mask)
        prob = float(sub.trace().real)
        if prob < OUTCOME_FLOOR:
            raise ValueError(f"outcome {bits!r} has probability {prob} below the floor")
        return prob, DensityMatrix(sub / prob)
    raise TypeError(f"unsupported state type {type(state).__name__}")


def measure_decompose(state, targets):
    """All measurement branches on the targets as (bits, prob, post_state)."""
    out = []
    for v in range(2 ** len(targets)):
        bits = tuple((v >> (len(targets) - 1 - j)) & 1 for j in range(len(targets)))
        try:
            prob, post = project(state, targets, bits)
        except ValueError:
            continue
        out.append((bits, prob, post))
    return out


def measure(state, targets, rng):
    """Sample a computational measurement of the targets.

    Returns (bits, probability, post_state) for the sampled branch.
    """
    branches = measure_decompose(state, targets)
    probs = np.array([p for _, p, _ in branches])
    pick = rng.choice(len(branches), p=probs / probs.sum())
    return branches[pick]


def dephase(state, targets):
    """Remove coherence between computational outcomes of the targets."""
    rho = state.to_density() if isinstance(state, PureState) else state
    _check_targets(targets, rho.n_qubits)
    acc = np.zeros_like(rho.matrix)
    for v in range(2 ** len(targets)):
        bits = tuple((v >> (len(targets) - 1 - j)) & 1 for j in range(len(targets)))
        mask = _outcome_mask(rho.n_qubits, targets, bits)
        acc += rho.matrix * np.outer(mask, mask)
    return DensityMatrix(acc)


def partial_trace(state, keep):
    """Reduced density matrix on the kept qubits, in the order listed."""
    if isinstance(state, PureState):
        n = state.n_qubits
        _check_targets(keep, n)
        drop = [j for j in range(n) if j not in keep]
        tensor = state.vector.reshape((2,) * n)
        tensor = np.moveaxis(tensor, list(keep) + drop, range(n))
        mat = tensor.reshape(2 ** len(keep), -1)
        return DensityMatrix(mat @ mat.conj().T)
    if isinstance(state, DensityMatrix):
        n = state.n_qubits
        _check_targets(keep, n)
        drop = [j for j in range(n) if j not in keep]
        tensor = state.matrix.reshape((2,) * (2 * n))
        perm = list(keep) + drop + [n + j for j in keep] + [n + j for j in drop]
        tensor = np.moveaxis(tensor, perm, range(2 * n))
        k, d = 2 ** len(keep), 2 ** len(drop)
        mat = tensor.reshape(k, d, k, d)
        return DensityMatrix(np.einsum("adbd->ab", mat))
    raise TypeError(f"unsupported state type {type(state).__name__}")


def overlap(a, b):
    """Squared inner product |<a|b>|^2 of two pure states."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states live on different registers")
    return float(abs(np.vdot(a.vector, b.vector)) ** 2)


def trace_distance(a, b):
    """Half the absolute eigenvalue sum of the difference operator.

    For two pure states the difference has rank two and its eigenvalues are
    known in closed form, so large pure registers avoid materializing any
    matrix.  The closed form sqrt(1 - |c|^2), c = <a|b>, is evaluated as
    sqrt(|d|^2 / 2 * (1 + |c|)) with d = a - (conj(c)/|c|) b, which does not
    cancel when the states nearly coincide.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        if a.n_qubits != b.n_qubits:
            raise ValueError("states live on different registers")
        c = np.vdot(a.vector, b.vector)
        if c == 0:
            return 1.0
        d = a.vector - (np.conj(c) / abs(c)) * b.vector
        return math.sqrt(np.vdot(d, d).real / 2 * (1 + abs(c)))
    am = a.to_density().matrix if isinstance(a, PureState) else a.matrix
    bm = b.to_density().matrix if isinstance(b, PureState) else b.matrix
    if am.shape != bm.shape:
        raise ValueError("states live on different registers")
    return float(0.5 * np.abs(np.linalg.eigvalsh(am - bm)).sum())


def wiesner_encode(theta, x):
    """Conjugate-coding state: qubit j carries x_j in basis theta_j.

    theta_j = 0 encodes in the computational basis, theta_j = 1 in the
    Hadamard basis.
    """
    if len(theta) != len(x):
        raise ValueError("basis string and payload must have equal length")
    psi = basis_state(x)
    for j, t in enumerate(theta):
        if t == 1:
            psi = apply_unitary(psi, H, [j])
        elif t != 0:
            raise ValueError(f"basis bit must be 0 or 1, got {t!r}")
    return psi
