"""Bit commitment schemes as explicit unitaries, with exact experiments.

A scheme commits one message qubit using an ancilla register, then splits
the qubits into a sent half and a kept half.  Hiding is scored by the best
distinguisher on the sent half, binding by an opening game in which the
committer either measures the message qubit before revealing or does not.
Both experiments reduce to trace distances of small density matrices, so
every reported advantage is exact up to floating point; nothing here
samples (the played binding game is a test oracle, in tests/oracles.py).

Honest opening, hiding, the superposition attacker and the plain binding
game read two columns of the map, the honest commitments c_0 and c_1 to
|0, 0...0> and |1, 0...0>, and apply no full-register product; only the
redundant binding game's cancelling commit/uncommit splice applies the
whole map.

A given measurement is held to qsim's bounds on a density matrix: it may
be CHECK_TOL from Hermitian and from resolving the identity, and its least
eigenvalue as low as EIGENVALUE_FLOOR.
"""

import functools
import hashlib
import json
import math

import numpy as np

from . import dist, qsim

ALPHABET_LIMIT = 6


class CommitScheme:
    """A commit unitary plus the sent/kept split of its qubits.

    Qubit 0 is the message, qubits 1..n-1 the work register.  `c_qubits`
    go to the receiver at commit time, `d_qubits` stay with the committer
    and are handed over at opening.  `com` is the only full-register array
    a scheme holds, and an opening reads two of its columns (see
    binding_states).

    The constructor checks that `com` is unitary, and so do the schemes
    built through it: purification_commit, leaky_commit, toy_schemes and
    scheme_from_json.  xor_combine and dual_commit compose checked schemes'
    maps, a product of unitaries and so unitary by construction, and check
    only the partition.
    """

    __slots__ = ("name", "com", "n_qubits", "c_qubits", "d_qubits", "flavor")

    def __init__(self, name, com, c_qubits, d_qubits, flavor=""):
        com = np.asarray(com, dtype=complex)
        n = qsim.check_unitary(com)
        self._fill(name, com, n, c_qubits, d_qubits, flavor)

    def _fill(self, name, com, n, c_qubits, d_qubits, flavor):
        c = tuple(int(q) for q in c_qubits)
        d = tuple(int(q) for q in d_qubits)
        if not c or not d:
            raise ValueError("sent and kept registers must both be non-empty")
        if sorted(c + d) != list(range(n)):
            raise ValueError("sent and kept registers must partition the qubits")
        self.name = str(name)
        self.com = com
        self.n_qubits = n
        self.c_qubits = c
        self.d_qubits = d
        self.flavor = str(flavor)

    @property
    def ell(self):
        return self.n_qubits - 1


def _composed(name, com, c_qubits, d_qubits, flavor):
    # a map composed from checked commit maps: wrap it without the
    # constructor's unitarity check
    scheme = object.__new__(CommitScheme)
    scheme._fill(name, com, com.shape[0].bit_length() - 1, c_qubits, d_qubits,
                 flavor)
    return scheme


class AdversaryStrategy:
    """Opening-time cheating strategy for the binding experiment.

    Holds the joint state the committer prepared (scheme qubits first, a
    private register of `e_qubits` last) and an optional two-outcome
    measurement on the kept-plus-private qubits.  With no measurement the
    experiment substitutes the optimal one.
    """

    __slots__ = ("state", "e_qubits", "measurement")

    def __init__(self, state, e_qubits=0, measurement=None):
        if not isinstance(state, qsim.PureState):
            state = qsim.PureState(np.asarray(state, dtype=complex))
        e_qubits = int(e_qubits)
        if e_qubits < 0 or e_qubits >= state.n_qubits:
            raise ValueError("private register cannot cover the whole state")
        if measurement is not None:
            e0, e1 = (np.asarray(m, dtype=complex) for m in measurement)
            if e0.shape != e1.shape or e0.ndim != 2 or e0.shape[0] != e0.shape[1]:
                raise ValueError("measurement operators must be square and matched")
            for op in (e0, e1):
                if not np.abs(op - op.conj().T).max() <= qsim.CHECK_TOL:
                    raise ValueError("measurement operators must be Hermitian")
                if not np.linalg.eigvalsh(op).min() >= qsim.EIGENVALUE_FLOOR:
                    raise ValueError("measurement operators must be positive")
            if not np.abs(e0 + e1 - np.eye(e0.shape[0])).max() <= qsim.CHECK_TOL:
                raise ValueError("measurement operators must resolve the identity")
            measurement = (e0, e1)
        self.state = state
        self.e_qubits = e_qubits
        self.measurement = measurement


def _uncommit(scheme, vector):
    """The adjoint of the commit map on a register whose first qubits are
    the scheme's, as conj(com^T conj(v)) with com^T a view of `com`.
    Conjugation only flips signs, so this is bit for bit the product with
    a built adjoint."""
    out = qsim.apply_gate(vector.conj(), scheme.com.T,
                          list(range(scheme.n_qubits)))
    return np.conjugate(out, out=out)


def _opening_indices(scheme):
    # the basis indices of |0, 0...0> and |1, 0...0>, the states an
    # honest opening accepts
    return dist.index_of([(b,) + (0,) * scheme.ell for b in (0, 1)])


def commit_state(scheme, b):
    """Honest commitment c_b to bit b: the commit map on |b, 0...0>, which
    is the map's column of that basis index."""
    if b not in (0, 1):
        raise ValueError("committed bit must be 0 or 1")
    column = scheme.com[:, _opening_indices(scheme)[b]]
    # contiguous, as a matvec's result is, so later products take its kernels
    return qsim.PureState(column.copy())


def decommit_probability(scheme, b):
    """Chance the honest opening of b passes the receiver's check:
    |<b, 0...0| com^H com |b, 0...0>|^2, which is |c_b^H c_b|^2 for the
    honest commitment c_b, so only that column is read."""
    column = commit_state(scheme, b).vector
    return float(abs(np.vdot(column, column)) ** 2)


def hiding_advantage(scheme):
    """Best success at guessing b from the sent register, in [1/2, 1]."""
    rho0 = qsim.partial_trace(commit_state(scheme, 0), list(scheme.c_qubits))
    rho1 = qsim.partial_trace(commit_state(scheme, 1), list(scheme.c_qubits))
    return 0.5 + qsim.trace_distance(rho0, rho1) / 2


def binding_states(scheme, adv, redundant=False):
    """Run the opening game up to the adversary's final measurement.

    Returns (accept probability, unmeasured branch, measured branch) with
    the branches reduced to the kept-plus-private qubits, or (0, None,
    None) when the validity check passes with probability below
    dist.MASS_TOL, the floor qsim.project applies.

    The plain game reads the honest commitments c_0, c_1, two columns of
    the map, and applies no full-register product.  Write Psi for the
    adversary state as a (2^n, 2^e) array, scheme qubits by private ones.
    The opening applies com^H and accepts when qubits 1..n-1 read 0, so of
    com^H Psi only rows (0, 0...0) and (1, 0...0) survive; they are
    a_b = c_b^H Psi, accepted with probability ||a_0||^2 + ||a_1||^2.  The
    unmeasured branch re-commits the opened state
    sum_b |b, 0...0> (x) a_b / sqrt(accept), and com sends |b, 0...0> to
    c_b, so it is sum_b c_b (x) a_b / sqrt(accept).  The measured branch
    is kept pure: measuring the message qubit is a CNOT copying it onto a
    fresh environment qubit, giving
    sum_b c_b (x) a_b (x) |b>_env / sqrt(accept), and the reduction traces
    the environment out with the sent register.

    The redundant flag splices a cancelling commit/uncommit pair onto Psi,
    the only full-register products left, and makes a second copy onto a
    second environment qubit; neither may change anything.
    """
    n = scheme.n_qubits
    width = adv.state.n_qubits
    if width != n + adv.e_qubits:
        raise ValueError("strategy state does not cover scheme plus private qubits")
    psi = adv.state.vector
    if redundant:
        psi = _uncommit(scheme, qsim.apply_gate(psi, scheme.com, list(range(n))))
    columns = scheme.com[:, _opening_indices(scheme)]
    opened = columns.conj().T @ psi.reshape(2 ** n, -1)  # rows a_0, a_1
    accept = float(np.vdot(opened, opened).real)
    if accept < dist.MASS_TOL:
        return 0.0, None, None
    opened /= math.sqrt(accept)
    keep = list(scheme.d_qubits) + list(range(n, width))
    plain = qsim.PureState((columns @ opened).reshape(-1))
    copies = 2 if redundant else 1
    measured = np.zeros((2 ** n, 2 ** adv.e_qubits, 2 ** copies), dtype=complex)
    measured[:, :, 0] = np.outer(columns[:, 0], opened[0])
    measured[:, :, -1] = np.outer(columns[:, 1], opened[1])  # every copy reads 1
    measured = qsim.PureState(measured.reshape(-1))
    return (accept, qsim.partial_trace(plain, keep),
            qsim.partial_trace(measured, keep))


def binding_experiment(scheme, adv):
    """Exact probability the adversary names the measure-or-not coin
    correctly: the Helstrom value of the two branches, or the given
    measurement's score on them."""
    meas = adv.measurement
    if meas is not None:
        dim = 2 ** (len(scheme.d_qubits) + adv.e_qubits)
        if meas[0].shape != (dim, dim):
            raise ValueError("measurement does not act on the opened qubits")
    accept, sigma0, sigma1 = binding_states(scheme, adv)
    if accept == 0.0:
        return 0.5
    if meas is None:
        return 0.5 + accept * qsim.trace_distance(sigma0, sigma1) / 2
    win = 0.5 * (np.trace(meas[0] @ sigma0.matrix)
                 + np.trace(meas[1] @ sigma1.matrix)).real
    return (1 - accept) / 2 + accept * win


def superposition_attacker(scheme):
    """Honest commitment to |+>, opened with the optimal measurement.

    com (|0, 0...0> + |1, 0...0>) / sqrt(2) is (c_0 + c_1) / sqrt(2), the
    honest commitments weighted by H's first column."""
    return AdversaryStrategy(scheme.com[:, _opening_indices(scheme)] @ qsim.H[:, 0])


def _branch_isometry(pmf, width):
    dim = 2 ** (2 * width)
    t = np.zeros(dim)
    for atom, prob in pmf.items_sorted():
        bits = dist.flat_bits(atom)
        t[dist.index_of(bits + bits)] = math.sqrt(float(prob))
    rest = t[1:]
    if not rest.any():  # t is e_0, up to its float norm
        return np.eye(dim, dtype=complex)
    # the reflection swapping e_0 and t: row and column 0 are t, entry (i, j)
    # for i, j >= 1 is delta_ij - t_i t_j / (1 - t_0), and 1 - t_0 is taken
    # as sum_{i>=1} t_i^2 / (1 + t_0) so that it does not cancel
    gap = math.fsum((rest * rest).tolist()) / (1 + t[0])
    out = np.eye(dim, dtype=complex)
    out[1:, 1:] -= np.outer(rest, rest) / gap
    out[0] = out[:, 0] = t
    return out


def purification_commit(pmf0, pmf1, name="purification"):
    """Commit by purifying one of two distributions over bit strings.

    The work register holds a sample and a copy; the copy and message tag
    stay with the committer, so the receiver sees exactly the classical
    mixture for the chosen bit.
    """
    atoms0 = [dist.flat_bits(a) for a in pmf0.support()]
    atoms1 = [dist.flat_bits(a) for a in pmf1.support()]
    widths = {len(bits) for bits in atoms0 + atoms1}
    if len(widths) != 1:
        raise ValueError("both branches must share one alphabet width")
    width = widths.pop()
    if width > ALPHABET_LIMIT:
        raise ValueError("alphabet wider than {} bits".format(ALPHABET_LIMIT))
    blocks = (_branch_isometry(pmf0, width), _branch_isometry(pmf1, width))
    dim = 2 ** (2 * width)
    com = np.zeros((2 * dim, 2 * dim), dtype=complex)
    com[:dim, :dim] = blocks[0]
    com[dim:, dim:] = blocks[1]
    c = tuple(range(1, width + 1))
    d = (0,) + tuple(range(width + 1, 2 * width + 1))
    return CommitScheme(name, com, c, d, flavor="purification")


def leaky_commit(tau):
    """Single-ancilla scheme whose hiding advantage is exactly 1/2 + tau/2."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("leak must lie in [0, 1]")
    theta = math.asin(tau)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]], dtype=complex)
    com = np.eye(4, dtype=complex)
    com[2:, 2:] = rot
    return CommitScheme("leaky-{}".format(tau), com, (1,), (0,),
                        flavor="partially hiding")


def toy_schemes():
    """Reference catalog spanning the hiding/binding corners."""
    swap = np.eye(4, dtype=complex)[:, [0, 2, 1, 3]]
    coins0 = dist.Pmf({(0,): 0.5, (1,): 0.5})
    coins1 = dist.Pmf({(0,): 0.25, (1,): 0.75})
    return {
        "basis": CommitScheme("basis", qsim.CNOT, (1,), (0,),
                              flavor="perfectly binding"),
        "hiding": CommitScheme("hiding", np.eye(4, dtype=complex), (1,), (0,),
                               flavor="perfectly hiding"),
        "swap": CommitScheme("swap", swap, (0,), (1,),
                             flavor="perfectly hiding, fully malleable"),
        "leaky": leaky_commit(0.3),
        "purified-coins": purification_commit(coins0, coins1,
                                              name="purified-coins"),
    }


def _gate_product(n, gates):
    """The product of (gate, targets) pairs on n qubits, the first applied
    first, as one dense map.

    Until the end the map is its nonzero (row, col, value) triples,
    starting from the identity's.  A gate sends an entry whose target bits
    read j to one entry per nonzero gate[a, j], with its target bits set to
    a and value gate[a, j] * value, the product the dense pass over the
    identity's columns forms; entries that then share a (row, col) are
    summed.  Only a gate column with two nonzeros, met by a map column
    with two entries, can make such a pair.
    """
    dim = 2 ** n
    every = dist.bits_of(np.arange(dim), n)
    rows = cols = np.arange(dim)
    vals = np.ones(dim, dtype=complex)
    for u, targets in gates:
        k = len(targets)
        field = np.zeros((2 ** k, n), dtype=np.uint8)
        field[:, targets] = dist.bits_of(np.arange(2 ** k), k)
        place = dist.index_of(field)  # each target code as a row offset
        # each gate column's nonzero rows first, in row order
        live = u.T != 0
        width = live.sum(axis=1).max()
        lead = np.argsort(~live, axis=1, kind="stable")[:, :width]
        j = dist.index_of(every[:, targets])[rows]
        if width == 1:
            e, a = slice(None), lead[j, 0]
        else:
            e, slot = np.nonzero(np.take_along_axis(live, lead, 1)[j])
            j = j[e]
            a = lead[j, slot]
        shared = width > 1 and len(rows) > dim
        rows, cols = rows[e] - place[j] + place[a], cols[e]
        vals = u[a, j] * vals[e]
        if shared:
            key = rows * dim + cols
            order = np.argsort(key, kind="stable")
            key = key[order]
            head = np.diff(key, prepend=-1) != 0
            if not head.all():
                group = np.cumsum(head) - 1
                vals = vals[order]
                vals = (np.bincount(group, vals.real)
                        + 1j * np.bincount(group, vals.imag))
                rows, cols = np.divmod(key[head], dim)
    out = np.zeros((dim, dim), dtype=complex)
    out[rows, cols] = vals
    return out


def dual_commit(com1, com2):
    """Chain two schemes behind a shared message via a copy wire.

    The incoming message qubit is copied onto the second scheme's message
    qubit, then both commit maps run.  Sent and kept registers are the
    unions of the components'.
    """
    n1, n2 = com1.n_qubits, com2.n_qubits
    n = n1 + n2
    if n > qsim.QUBIT_LIMIT:
        raise ValueError("combined register exceeds the qubit budget")
    u = _gate_product(n, [(qsim.CNOT, [0, n1]),
                          (com2.com, list(range(n1, n))),
                          (com1.com, list(range(n1)))])
    c = tuple(sorted(com1.c_qubits + tuple(n1 + q for q in com2.c_qubits)))
    d = tuple(sorted(com1.d_qubits + tuple(n1 + q for q in com2.d_qubits)))
    name = "dual({},{})".format(com1.name, com2.name)
    flavor = "dual: {} / {}".format(com1.flavor, com2.flavor)
    return _composed(name, u, c, d, flavor)


def xor_combine(schemes):
    """Secret-share the message as an XOR across every component scheme.

    All but the last share are uniform coins, the last is fixed so the
    shares sum to the message, and each component commits to its share.
    One perfectly hiding component hides the whole message; binding needs
    every component, since all shares open together.
    """
    schemes = list(schemes)
    t = len(schemes)
    if t < 2:
        raise ValueError("combining needs at least two schemes")
    n = 1 + sum(s.n_qubits for s in schemes)
    if n > qsim.QUBIT_LIMIT:
        raise ValueError("combined register exceeds the qubit budget")
    offsets = []
    at = 1
    for s in schemes:
        offsets.append(at)
        at += s.n_qubits
    # one gate deals the shares onto the message qubit and each
    # component's: a Hadamard coin on every share but the last, then a CNOT
    # from the message and each coin onto the last.  Its entries are the
    # products of 1/sqrt(2) that applying those gates one by one forms.
    coins = functools.reduce(np.kron, [np.eye(2)] + [qsim.H] * (t - 1)
                             + [np.eye(2)])
    bits = dist.bits_of(np.arange(2 ** (t + 1)), t + 1)
    bits[:, t] ^= np.bitwise_xor.reduce(bits[:, :t], axis=1)
    deal = coins[dist.index_of(bits)]
    gates = [(deal, [0] + offsets)]
    gates += [(s.com, list(range(o, o + s.n_qubits)))
              for s, o in zip(schemes, offsets)]
    u = _gate_product(n, gates)
    c = []
    d = [0]
    for s, o in zip(schemes, offsets):
        c.extend(o + q for q in s.c_qubits)
        d.extend(o + q for q in s.d_qubits)
    name = "xor({})".format(",".join(s.name for s in schemes))
    return _composed(name, u, tuple(sorted(c)), tuple(sorted(d)),
                     "xor of {} components".format(t))


def scheme_payload(scheme):
    """A scheme as a JSON-ready dict, the unitary flattened and checksummed;
    scheme_from_json reads its JSON text back."""
    re = [float(v) for v in scheme.com.real.ravel()]
    im = [float(v) for v in scheme.com.imag.ravel()]
    return {
        "name": scheme.name,
        "flavor": scheme.flavor,
        "n_qubits": scheme.n_qubits,
        "c_qubits": list(scheme.c_qubits),
        "d_qubits": list(scheme.d_qubits),
        "com_re": re,
        "com_im": im,
        "checksum": _unitary_checksum(re, im),
    }


_PAYLOAD_FIELDS = {"name": str, "flavor": str, "c_qubits": list,
                   "d_qubits": list, "com_re": list, "com_im": list,
                   "checksum": str}


def scheme_from_json(text):
    """Rebuild and check a scheme from the JSON text of its scheme_payload; a
    malformed payload or a checksum that does not match raises a ValueError
    naming what is wrong."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("scheme payload is not a JSON object")
    for key, kind in _PAYLOAD_FIELDS.items():
        if not isinstance(payload.get(key), kind):
            raise ValueError(f"scheme payload needs a {kind.__name__} {key!r}")
    if not all(type(q) is int for q in payload["c_qubits"] + payload["d_qubits"]):
        raise ValueError("scheme payload qubits must be integers")
    re, im = payload["com_re"], payload["com_im"]
    if not all(type(v) is float for v in re + im):
        raise ValueError("scheme payload map entries must be floats")
    if _unitary_checksum(re, im) != payload["checksum"]:
        raise ValueError("unitary checksum mismatch")
    dim = math.isqrt(len(re))
    if len(im) != len(re) or dim * dim != len(re):
        raise ValueError("scheme payload map is not square")
    com = (np.asarray(re, dtype=float)
           + 1j * np.asarray(im, dtype=float)).reshape(dim, dim)
    return CommitScheme(payload["name"], com, payload["c_qubits"],
                        payload["d_qubits"], flavor=payload["flavor"])


def _unitary_checksum(re, im):
    blob = json.dumps([re, im], separators=(",", ":")).encode("ascii")
    return hashlib.sha256(blob).hexdigest()
