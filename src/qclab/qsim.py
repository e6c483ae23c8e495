"""Dense statevector and density-matrix simulator for small registers.

Qubit 0 is the most significant bit of a basis index (dist.index_of):
basis_state((1, 0)) has its amplitude at index 2.  Everything is exact
linear algebra on numpy complex arrays; no approximation beyond float64
happens anywhere in this module.

Caller input is checked once, where it enters: the PureState and
DensityMatrix constructors check their array, apply_unitary its gate and
targets, the other calls their targets, bits and sizes.  project and
partial_trace take a PureState, trace_distance two DensityMatrix, and
apply_unitary and dephase either kind; any other kind raises TypeError.
The states qsim returns are computed from checked states and skip the
constructors' checks.
apply_gate applies a gate unchecked: it assumes a complex unitary of the
right size and distinct in-range targets, as the library gates, the basis
rotations, checked commit maps, their transposes and maps composed from
them are.  It views the register as (2^p, 2^k, rest), p the lowest of its
k targets, and multiplies the gate into the middle axis.  Targets that
run p, p+1, ..., p+k-1 need no transpose; any other order is moved to
those positions and back by two transposes, which copies the register
twice.

check_unitary requires max |u u^H - I| <= CHECK_TOL from one dense product
u u^H; a non-finite entry rejects the gate before any arithmetic, as it
rejects a density matrix, so no numpy warning precedes the error.

CHECK_TOL is how far a given norm, trace, Hermiticity or unitarity may be
from exact; EIGENVALUE_FLOOR the most negative eigenvalue a density matrix
may have.  The floor is looser because an eigenvalue answers for the whole
matrix, not for one entry: by Weyl's inequality a Hermitian error E moves
each eigenvalue by up to its spectral norm, which reaches d max|E_ij| on a
d-dimensional register.  -1e-8 is 100 CHECK_TOL, room for entry errors of
CHECK_TOL spread over a hundred dimensions, while float rounding (about
1e-16 per entry) stays far inside it.  project conditions only on an
outcome of probability at least dist.MASS_TOL, the mass treated as zero.
"""

import math

import numpy as np

from qclab import dist

QUBIT_LIMIT = 14
DENSITY_QUBIT_LIMIT = 10

CHECK_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-8

H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
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
        if not abs(norm - 1.0) <= CHECK_TOL:
            raise ValueError(f"statevector norm {norm} is not 1")
        self.vector = vector

    def to_density(self):
        if self.n_qubits > DENSITY_QUBIT_LIMIT:
            raise ValueError("state too large to materialize as a density matrix")
        return _result(DensityMatrix, np.outer(self.vector, self.vector.conj()))

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
        if not (np.isfinite(matrix).all()
                and np.abs(matrix - matrix.conj().T).max() <= CHECK_TOL):
            raise ValueError("density matrix is not Hermitian")
        trace = matrix.trace().real
        if not abs(trace - 1.0) <= CHECK_TOL:
            raise ValueError(f"density matrix trace {trace} is not 1")
        if not np.linalg.eigvalsh(matrix).min() >= EIGENVALUE_FLOOR:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        self.matrix = matrix

    def __repr__(self):
        return f"DensityMatrix(n_qubits={self.n_qubits})"


def _result(cls, array):
    # a state computed from checked states: wrap it without the constructor
    state = object.__new__(cls)
    setattr(state, "vector" if cls is PureState else "matrix", array)
    state.n_qubits = array.shape[0].bit_length() - 1
    return state


def basis_state(bits):
    """Computational basis state |bits>."""
    if not all(b in (0, 1) for b in bits):
        raise ValueError(f"not a bit string: {bits!r}")
    _qubits_of(2 ** len(bits), QUBIT_LIMIT, "statevector")
    vec = np.zeros(2 ** len(bits), dtype=complex)
    vec[dist.index_of(bits)] = 1.0
    return _result(PureState, vec)


def _check_targets(state, targets):
    if not isinstance(state, (PureState, DensityMatrix)):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target qubit")
    if not all(0 <= t < state.n_qubits for t in targets):
        raise ValueError(f"target outside register of {state.n_qubits} qubits")


def check_unitary(u):
    """Reject u unless it is a unitary on whole qubits; return its qubit count."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"gate shape {u.shape} is not square")
    n = _qubits_of(u.shape[0], QUBIT_LIMIT, "gate")
    if not (np.isfinite(u).all()
            and np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() <= CHECK_TOL):
        raise ValueError("gate is not unitary")
    return n


def apply_gate(state, u, targets):
    """apply_unitary without its checks (see the module docstring).

    state may also be a bare array whose first axis spans the register and
    whose other axes ride along; commit composes unitaries that way.
    """
    if isinstance(state, PureState):
        return _result(PureState, apply_gate(state.vector, u, targets))
    if isinstance(state, DensityMatrix):
        # conjugate both index groups of the doubled tensor
        n = state.n_qubits
        left = apply_gate(state.matrix.reshape(-1), u, targets)
        right = apply_gate(left, u.conj(), [t + n for t in targets])
        return _result(DensityMatrix, right.reshape(state.matrix.shape))
    targets = list(targets)
    k, p = len(targets), min(targets)
    run = list(range(p, p + k))
    if targets == run:
        return np.matmul(u, state.reshape(2 ** p, 2 ** k, -1)).reshape(state.shape)
    shape = (2,) * (state.shape[0].bit_length() - 1) + state.shape[1:]
    # the axes with the targets moved to positions p..p+k-1, the others
    # in order around them
    others = [a for a in range(len(shape)) if a not in targets]
    order = others[:p] + targets + others[p:]
    tensor = state.reshape(shape).transpose(order)
    block = np.matmul(u, tensor.reshape(2 ** p, 2 ** k, -1))
    back = np.argsort(order)
    return block.reshape(shape).transpose(back).reshape(state.shape)


def apply_unitary(state, u, targets):
    """Check a k-qubit gate and its targets, then apply it.

    Accepts PureState or DensityMatrix and returns the same type; target
    order is significant (CNOT control is the first listed target).
    """
    u = np.asarray(u, dtype=complex)
    if check_unitary(u) != len(targets):
        raise ValueError(f"gate shape {u.shape} does not act on {len(targets)} qubits")
    _check_targets(state, targets)
    return apply_gate(state, u, targets)


def _target_code(n, targets):
    # each basis index's bits on the targets, in target order, as one index
    return dist.index_of(dist.bits_of(np.arange(2 ** n), n)[:, targets])


def project(state, targets, bits):
    """Project the targets of a pure state onto a computational outcome and
    renormalize.

    Returns (probability, post_state); outcomes with probability below
    dist.MASS_TOL are rejected since the conditional state is undefined.
    """
    if not isinstance(state, PureState):
        raise TypeError(f"project takes a PureState, not {type(state).__name__}")
    if len(targets) != len(bits) or not set(bits) <= {0, 1}:
        raise ValueError("one outcome bit per target required")
    _check_targets(state, targets)
    mask = _target_code(state.n_qubits, targets) == dist.index_of(bits)
    sub = np.where(mask, state.vector, 0.0)
    prob = float(np.vdot(sub, sub).real)
    if prob < dist.MASS_TOL:
        raise ValueError(f"outcome {bits!r} has probability {prob} below the floor")
    return prob, _result(PureState, sub / math.sqrt(prob))


def dephase(state, targets):
    """Remove coherence between computational outcomes of the targets.

    Entry (i, j) survives exactly when i and j agree on every target bit.
    """
    rho = state.to_density() if isinstance(state, PureState) else state
    _check_targets(rho, targets)
    code = _target_code(rho.n_qubits, targets)
    return _result(DensityMatrix, np.where(code[:, None] == code, rho.matrix, 0.0))


def partial_trace(state, keep):
    """Reduced density matrix of a pure state on the kept qubits, in the
    order listed."""
    if not isinstance(state, PureState):
        raise TypeError(f"partial_trace takes a PureState, not {type(state).__name__}")
    _check_targets(state, keep)
    n = state.n_qubits
    _qubits_of(2 ** len(keep), DENSITY_QUBIT_LIMIT, "density matrix")
    drop = [j for j in range(n) if j not in keep]
    tensor = state.vector.reshape((2,) * n).transpose(list(keep) + drop)
    mat = tensor.reshape(2 ** len(keep), -1)
    return _result(DensityMatrix, mat @ mat.conj().T)


def overlap(a, b):
    """Squared inner product |<a|b>|^2 of two pure states."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states live on different registers")
    return float(abs(np.vdot(a.vector, b.vector)) ** 2)


def trace_distance(a, b):
    """Half the absolute eigenvalue sum of the difference of two density
    matrices."""
    for state in (a, b):
        if not isinstance(state, DensityMatrix):
            raise TypeError(
                f"trace_distance takes DensityMatrix, not {type(state).__name__}")
    if a.n_qubits != b.n_qubits:
        raise ValueError("states live on different registers")
    return float(0.5 * np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum())


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
            psi = apply_gate(psi, H, [j])
        elif t != 0:
            raise ValueError(f"basis bit must be 0 or 1, got {t!r}")
    return psi
