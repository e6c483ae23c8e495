"""Slow reference implementations and scheme fixtures that only tests use.

The distribution oracles work atom by atom: the statistical distance of
two Pmfs, and the atoms that smooth max-entropy's greedy deletion keeps.
The product-spectrum oracle builds each value by a recursive walk over the
compositions of the power, one Python call per composition prefix.
The GL oracle asks its predictor one query at a time, the puzzle oracle
samples and verifies a tabulated puzzle trial by trial, the extractor and
gl oracles run those reports one trial at a time, each trial a Pmf or a
decoder call of its own, the seed oracle draws hash seeds one call per
seed's rows and one per its offsets, and the binding
oracle plays commit.binding_experiment's game round by round.  The
density partial trace reduces a mixed state, which the library never does:
qsim.partial_trace takes pure states only.
The schemes are state generators beyond conjugate coding: a key-selected
brick circuit, whose states are not product states, and a noisy variant
whose verifier thresholds the overlap, with an exact per-key correctness
profile.  The single-qubit gates beyond H that the circuit menu offers live
here too, since the library uses none of them.
MANIFEST_SCHEMA is the manifest envelope as a JSON Schema (Draft 2020-12),
for jsonschema to judge which manifests cli must accept.
"""

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from qclab import cli, commit, dist, gf2, owsg, qsim

EXACT_SUPPORT_LIMIT = 2 ** 16

CIRCUIT_QUBITS = 4
CIRCUIT_KEY_LIMIT = 12

_PAIR_ACTIONS = {"CNOT": (0, 1), "CNOT_REVERSED": (1, 0)}

GATE_MENU = Path(__file__).with_name("gate_menu.json")

MANIFEST_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "qclab experiment manifest",
    "type": "object",
    "required": ["subcommand", "seed"],
    "additionalProperties": False,
    "properties": {
        "subcommand": {
            "type": "string",
            "enum": ["entropy", "extractor", "gl", "shadows", "puzzle", "wpeg-gap",
                     "core-lemma", "concentration", "efi-sweep", "commit-suite"],
        },
        "params": {"type": "object"},
        "seed": {"type": "integer", "minimum": 0, "maximum": 2 ** 64 - 1},
        "trials": {"type": "integer", "minimum": 1},
        "out": {"type": ["string", "null"]},
        "workers": {"type": "integer", "minimum": 1, "maximum": 64},
        "format": {"type": "string", "enum": ["json", "csv"]},
    },
}

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
T = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)


def bit_tuple(v, n):
    """dist.bits_of(v, n) as the tuple of ints an atom is."""
    return tuple(dist.bits_of(v, n).tolist())


def one_seed_pairs(seeds):
    """Each seed of a gf2.sample_hash_seed pair (rows, offsets) as a pair
    of its own, in order."""
    rows, offsets = seeds
    return [(rows[s:s + 1], offsets[s:s + 1]) for s in range(len(rows))]


def join_seeds(pairs):
    """The one pair holding the seeds of `pairs`, in order."""
    return tuple(np.concatenate(arrays) for arrays in zip(*pairs))


def smooth_max_support(p, eps):
    """Atoms surviving the smooth_max_entropy deletion, in label order.
    Atoms tied at the lightest surviving value are deleted in label order."""
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


def gl_oracle(predictor, n, eps, rng):
    """The GL decoder that asked a scalar predictor, an n-bit tuple to a
    bit, one query at a time."""
    list_cap = math.ceil(4 / eps ** 2)
    t = max(1, int(math.floor(math.log2(list_cap))))
    m = min(2 ** t - 1, max(1, math.ceil(64 * n / eps ** 2) // n))
    base = rng.integers(0, 2, size=(t, n), dtype=np.uint8)
    masks = np.arange(1, m + 1, dtype=np.uint64)
    subset = ((masks[:, None] >> np.arange(t - 1, -1, -1, dtype=np.uint64)) & 1).astype(np.uint8)
    refs = (subset @ base) & 1
    answers = np.empty((m, n), dtype=np.uint8)
    for a in range(m):
        for j in range(n):
            q = refs[a].copy()
            q[j] ^= 1
            answers[a, j] = predictor(tuple(int(b) for b in q)) & 1
    guesses = ((np.arange(2 ** t)[:, None] >> np.arange(t - 1, -1, -1)) & 1).astype(np.uint8)
    votes = answers[:, :, None] ^ ((subset @ guesses.T) & 1)[:, None, :]
    candidates = (2 * votes.sum(axis=0) > m).astype(np.uint8).T
    out = []
    for row in candidates:
        key = tuple(int(b) for b in row)
        if key not in out:
            out.append(key)
        if len(out) >= list_cap:
            break
    return out


def sample_hash_seed_loop(rng, n_in, n_out=None, count=1):
    """gf2.sample_hash_seed by its definition: each seed draws its rows
    with one rng.integers(0, 2, dtype=np.uint8) call, then its offsets
    with another."""
    if n_out is None:
        n_out = 3 * n_in
    rows = np.empty((count, n_out, n_in), dtype=np.uint8)
    offsets = np.empty((count, n_out), dtype=np.uint8)
    for s in range(count):
        rows[s] = rng.integers(0, 2, size=(n_out, n_in), dtype=np.uint8)
        offsets[s] = rng.integers(0, 2, size=n_out, dtype=np.uint8)
    return rows, offsets


def extractor_results(seed, n, trials):
    """The `extractor` report's results by the per-trial loop: trial i
    draws rng.random(2^n) + 1e-3 from cli.child_rng(seed, "extractor", i),
    normalizes it into a Pmf over n-bit tuples, and checks the one-vector
    Walsh distance against gf2.extractor_bound of its min-entropy."""
    atoms = list(map(tuple, dist.bits_of(np.arange(2 ** n), n).tolist()))
    violations, margins = 0, []
    for i in range(trials):
        raw = cli.child_rng(seed, "extractor", i).random(2 ** n) + 1e-3
        pmf = dist.Pmf(dict(zip(atoms, (raw / raw.sum()).tolist())))
        d = float(np.abs(gf2.walsh_spectrum(pmf, n)).sum()) / 2 ** (n + 1)
        bound = gf2.extractor_bound(dist.min_entropy(pmf))
        violations += int(d > bound + dist.MASS_TOL)
        margins.append(bound - d)
    return {"n": n, "trials": trials, "violations": violations,
            "min_margin": min(margins)}


def gl_results(seed, n, noise, trials):
    """The `gl` report's results by the per-trial loop: trial i draws its
    secret from cli.child_rng(seed, "gl", i), then decodes with gl_oracle,
    whose scalar predictor flips each answer when one rng.random() per
    query falls below noise."""
    hits = 0
    for i in range(trials):
        rng = cli.child_rng(seed, "gl", i)
        secret = tuple(rng.integers(0, 2, size=n).tolist())

        def predictor(query, rng=rng, secret=secret):
            bit = gf2.inner_product(secret, query)
            if noise and rng.random() < noise:
                bit ^= 1
            return bit

        hits += secret in gl_oracle(predictor, n, 0.5 - noise, rng)
    return {"n": n, "noise": noise, "trials": trials, "recoveries": hits,
            "recovery_rate": hits / trials}


def puzzle_results(name, joint, seed, trials):
    """The `puzzle` report's results by the sample-and-verify loop: trial i
    draws one (key, instance) pair from cli.child_rng(seed, "puzzle", i) by
    rng.choice over the joint's support, and the verifier accepts the pair
    when it has positive mass."""
    pairs = joint.support()
    probs = np.array([float(joint.prob(k, s)) for k, s in pairs])
    accepts = 0
    for i in range(trials):
        rng = cli.child_rng(seed, "puzzle", i)
        key, instance = pairs[rng.choice(len(pairs), p=probs)]
        accepts += int(joint.prob(key, instance) > 0)
    return {
        "fixture": name,
        "trials": trials,
        "accepts": accepts,
        "accept_rate": accepts / trials,
        "key_shannon": dist.shannon_entropy(joint.marginal_keys()),
    }


def density_partial_trace(rho, keep):
    """Reduced state of a DensityMatrix on the kept qubits, in the order
    listed: one einsum over the doubled (2,)*2n tensor."""
    n = rho.n_qubits
    drop = [j for j in range(n) if j not in keep]
    tensor = rho.matrix.reshape((2,) * (2 * n))
    perm = list(keep) + drop + [n + j for j in keep] + [n + j for j in drop]
    tensor = np.moveaxis(tensor, perm, range(2 * n))
    k, d = 2 ** len(keep), 2 ** len(drop)
    return qsim.DensityMatrix(np.einsum("adbd->ab", tensor.reshape(k, d, k, d)))


def _helstrom(sigma0, sigma1):
    # the optimal two-outcome measurement: e1 projects onto the positive
    # part of sigma1 - sigma0
    diff = sigma1.matrix - sigma0.matrix
    vals, vecs = np.linalg.eigh(diff)
    pos = vecs[:, vals > 0]
    e1 = pos @ pos.conj().T
    return np.eye(diff.shape[0]) - e1, e1


def play_binding_game(scheme, adv, trials, rng):
    """Play commit.binding_experiment's game `trials` times; the hit rate.

    Per game a fair coin b says whether the message qubit is measured.  An
    opening that fails its check (probability 1 - accept) leaves the
    adversary a coin-flip guess; otherwise its measurement, or the
    Helstrom one when it has none, names b from the branch b leaves.
    """
    accept, sigma0, sigma1 = commit.binding_states(scheme, adv)
    if accept > 0.0:
        meas = adv.measurement if adv.measurement is not None else _helstrom(sigma0, sigma1)
        p_one = [min(max(float(np.trace(meas[1] @ sigma.matrix).real), 0.0), 1.0)
                 for sigma in (sigma0, sigma1)]
    hits = 0
    for _ in range(trials):
        b = int(rng.integers(0, 2))
        if accept == 0.0 or rng.random() >= accept:
            hits += int(rng.integers(0, 2)) == b
            continue
        hits += int(rng.random() < p_one[b]) == b
    return hits / trials


def product_spectrum_walk(p, t):
    """dist.product_spectrum by a recursive walk over the compositions of t:
    each level picks one value's exponent and carries the running product
    and count down, and equal products merge in a dict."""
    groups = Counter(p.as_dict().values())
    values = sorted(groups, reverse=True)
    mults = [groups[v] for v in values]
    spectrum = {}
    one = Fraction(1) if all(isinstance(v, Fraction) for v in values) else 1.0

    def walk(idx, left, value, ways):
        # ways telescopes the multinomial coefficient times the label choices
        if idx == len(values) - 1:
            v = value * values[idx] ** left
            w = ways * mults[idx] ** left
            spectrum[v] = spectrum.get(v, 0) + w
            return
        for c in range(left + 1):
            walk(idx + 1, left - c, value * values[idx] ** c, ways * math.comb(left, c) * mults[idx] ** c)

    walk(0, t, one, 1)
    return sorted(spectrum.items(), key=lambda vc: -vc[0])
