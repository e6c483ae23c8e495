"""Tests for classical-shadow estimation and the puzzle schemes built on it.

Single-snapshot estimator values are frozen from the 2x2 algebra
(3|s><s| - I sandwiched in the target), and the estimator mean is checked
against the true overlap at three sample standard deviations.

The per-snapshot operator estimator, the per-gate sampler and the per-bit
encoder below are the straightforward forms of the table-driven code in
puzzles; they serve as oracles.
"""

import itertools
import struct

import numpy as np
import pytest

from qclab import _mc, dist, owsg, puzzles, qsim

import oracles

ORACLE_ROTATIONS = {
    "X": qsim.H,
    "Y": qsim.H @ np.array([[1, 0], [0, -1j]], dtype=complex),
    "Z": np.eye(2, dtype=complex),
}


def plus_state():
    return qsim.apply_unitary(qsim.basis_state((0,)), qsim.H, [0])


def oracle_rotate(state, basis):
    """The state rotated into basis, one single-qubit gate at a time."""
    for q, c in enumerate(basis):
        state = qsim.apply_unitary(state, ORACLE_ROTATIONS[c], [q])
    return state


def oracle_shadow_gen(state, t_snapshots, rng):
    """Per-snapshot sampler: pick a basis, rotate gate by gate, measure."""
    m = state.n_qubits
    bases, outcomes = [], []
    for _ in range(t_snapshots):
        basis = "".join("XYZ"[p] for p in rng.integers(0, 3, size=m))
        probs = np.abs(oracle_rotate(state, basis).vector) ** 2
        idx = int(rng.choice(len(probs), p=probs / probs.sum()))
        bases.append(basis)
        outcomes.append(tuple((idx >> (m - 1 - j)) & 1 for j in range(m)))
    return puzzles.Shadow(bases, outcomes)


def oracle_snapshot_operator(basis, outcome):
    """Kronecker product of the 3|v><v| - I factors of one snapshot."""
    op = np.array([[1.0]], dtype=complex)
    for c, s in zip(basis, outcome):
        v = ORACLE_ROTATIONS[c][s].conj()  # the state this basis reads as outcome s
        op = np.kron(op, 3.0 * np.outer(v, v.conj()) - np.eye(2))
    return op


def oracle_estimate_overlap_many(shadow, targets, k_groups):
    """Median of group means of <psi|snapshot operator|psi>."""
    mat = np.stack([s.vector for s in targets])
    t = shadow.n_snapshots
    per_snap = np.empty((t, len(targets)))
    for i, (basis, outcome) in enumerate(zip(shadow.bases, shadow.outcomes)):
        op = oracle_snapshot_operator(basis, outcome)
        per_snap[i] = np.einsum("ni,ij,nj->n", mat.conj(), op, mat).real
    group_means = per_snap.reshape(k_groups, t // k_groups, -1).mean(axis=1)
    return np.median(group_means, axis=0)


def oracle_shadow_to_bytes(shadow):
    """Bit-by-bit encoder of the documented stream layout."""
    header = struct.pack("<HH", shadow.n_snapshots, shadow.n_qubits)
    bits = []
    for basis, outcome in zip(shadow.bases, shadow.outcomes):
        for c in basis:
            trit = "XYZ".index(c)
            bits.extend((trit & 1, (trit >> 1) & 1))
        bits.extend(outcome)
    packed = np.packbits(np.array(bits, dtype=np.uint8), bitorder="little")
    return header + packed.tobytes()


def vectors(states):
    """The (K, 2^m) statevector array estimate_overlap_many takes."""
    return np.stack([s.vector for s in states])


def random_states(rng, count, n_qubits):
    vecs = rng.normal(size=(count, 2 ** n_qubits)) + 1j * rng.normal(size=(count, 2 ** n_qubits))
    return [qsim.PureState(v / np.linalg.norm(v)) for v in vecs]


def oracle_fixtures():
    """(name, honest state, targets) for every estimator comparison."""
    rng = np.random.default_rng(41)
    out = []
    for scheme in (owsg.wiesner_owsg(2), owsg.wiesner_owsg(4), owsg.wiesner_owsg(6),
                   oracles.random_circuit_owsg(4)):
        targets = [scheme.state_gen(k) for k in scheme.all_keys()]
        out.append((scheme.name + str(scheme.key_bits),
                    scheme.state_gen(scheme.key_gen(rng)), targets))
    dense = random_states(rng, 6, 4)
    out.append(("dense4", dense[0], dense))
    return out


class TestShadowParams:
    def test_defaults_scale_with_key_length(self):
        p = puzzles.ShadowParams.default(6)
        assert (p.eps, p.t_snapshots, p.k_groups) == (0.1, 96, 8)

    def test_group_count_must_divide(self):
        with pytest.raises(ValueError):
            puzzles.ShadowParams(eps=0.1, t_snapshots=10, k_groups=4)

    def test_snapshot_count_must_fit_the_stream(self):
        with pytest.raises(ValueError, match="65535"):
            puzzles.ShadowParams(0.1, 70000, 8)
        assert puzzles.ShadowParams(0.1, 65528, 8).t_snapshots == 65528


class TestSnapshotEstimates:
    def test_z_basis_frozen_values(self):
        shadow = puzzles.Shadow(bases=("Z",), outcomes=((0,),))
        assert puzzles.estimate_overlap(shadow, qsim.basis_state((0,)), 1) == pytest.approx(2.0)
        assert puzzles.estimate_overlap(shadow, qsim.basis_state((1,)), 1) == pytest.approx(-1.0)

    def test_x_basis_frozen_values(self):
        shadow = puzzles.Shadow(bases=("X",), outcomes=((0,),))
        assert puzzles.estimate_overlap(shadow, qsim.basis_state((0,)), 1) == pytest.approx(0.5)
        assert puzzles.estimate_overlap(shadow, plus_state(), 1) == pytest.approx(2.0)

    def test_median_of_group_means(self):
        # two groups with means 2 and -1; median of {2, -1} is 0.5
        shadow = puzzles.Shadow(bases=("Z", "Z"), outcomes=((0,), (1,)))
        got = puzzles.estimate_overlap(shadow, qsim.basis_state((0,)), 2)
        assert got == pytest.approx(0.5)

    def test_many_matches_single(self):
        rng = np.random.default_rng(3)
        state = qsim.wiesner_encode((0, 1), (1, 0))
        shadow = puzzles.shadow_gen(state, 24, rng)
        targets = [qsim.wiesner_encode((0, 0), (a, b)) for a in (0, 1) for b in (0, 1)]
        batch = puzzles.estimate_overlap_many(shadow, vectors(targets), 8)
        for got, target in zip(batch, targets):
            assert got == pytest.approx(puzzles.estimate_overlap(shadow, target, 8), abs=1e-12)

    def test_estimator_is_unbiased(self):
        rng = np.random.default_rng(5)
        state = plus_state()
        shadow = puzzles.shadow_gen(state, 4096, rng)
        # bases and outcomes are rebuilt on each read, so read them once
        bases, outcomes = shadow.bases, shadow.outcomes
        per_snap = [
            puzzles.estimate_overlap(
                puzzles.Shadow(bases=bases[t : t + 1], outcomes=outcomes[t : t + 1]),
                state, 1,
            )
            for t in range(4096)
        ]
        mean = np.mean(per_snap)
        three_sigma = 3 * np.std(per_snap) / np.sqrt(4096)
        assert abs(mean - 1.0) <= three_sigma + 1e-6

    def test_group_divisibility_enforced(self):
        shadow = puzzles.Shadow(bases=("Z", "Z", "Z"), outcomes=((0,), (0,), (0,)))
        with pytest.raises(ValueError):
            puzzles.estimate_overlap(shadow, qsim.basis_state((0,)), 2)

    @pytest.mark.parametrize("groups", [0, -1, -3])
    def test_group_count_must_be_positive(self, groups):
        shadow = puzzles.Shadow(bases=("Z", "Z", "Z"), outcomes=((0,), (0,), (0,)))
        with pytest.raises(ValueError):
            puzzles.estimate_overlap(shadow, qsim.basis_state((0,)), groups)


class TestShadowRecord:
    @pytest.mark.parametrize("bit", [True, 1.0, np.int64(1)])
    def test_outcomes_are_stored_as_ints(self, bit):
        shadow = puzzles.Shadow(["Z"], [(bit,)])
        assert shadow.outcomes == ((1,),)
        assert type(shadow.outcomes[0][0]) is int

    def test_zero_qubit_snapshots_rejected(self):
        with pytest.raises(ValueError):
            puzzles.Shadow([""], [()])

    @pytest.mark.parametrize("outcome", [(0.5,), ("1",), (2,), ((0, 1),), (None,)])
    def test_non_bit_outcomes_rejected(self, outcome):
        with pytest.raises(ValueError):
            puzzles.Shadow(["Z"], [outcome])

    @pytest.mark.parametrize("bases, outcomes", [
        (("ZX", "Z"), ((0, 0), (0,))),
        (("ZX",), ((0,),)),
        (("ZW",), ((0, 0),)),
        ((), ()),
        (("Z", "Z"), ((0,),)),
    ])
    def test_malformed_records_rejected(self, bases, outcomes):
        with pytest.raises(ValueError):
            puzzles.Shadow(bases, outcomes)


class TestTableDrivenShadows:
    @pytest.mark.parametrize("fixture", range(5))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_estimates_match_operator_oracle(self, fixture, seed):
        name, state, targets = oracle_fixtures()[fixture]
        rng = np.random.default_rng(seed)
        for shadow in (puzzles.shadow_gen(state, 48, rng),
                       oracle_shadow_gen(state, 48, rng)):
            for groups in (1, 3, 6, 8):
                got = puzzles.estimate_overlap_many(shadow, vectors(targets), groups)
                want = oracle_estimate_overlap_many(shadow, targets, groups)
                assert np.abs(got - want).max() <= 1e-12, name

    def test_array_targets_match_state_targets(self):
        scheme = owsg.wiesner_owsg(4)
        rng = np.random.default_rng(43)
        shadow = puzzles.shadow_gen(scheme.state_gen(scheme.key_gen(rng)), 64, rng)
        keys, states = scheme.honest_states()
        # the cached honest table against vectors stacked from state_gen
        by_state = puzzles.estimate_overlap_many(
            shadow, vectors([scheme.state_gen(k) for k in keys]), 8)
        assert np.array_equal(puzzles.estimate_overlap_many(shadow, states, 8), by_state)

    @pytest.mark.parametrize("name", ["wiesner", "dense"])
    def test_sampler_frequencies_match_exact_law(self, name):
        if name == "wiesner":
            state = qsim.wiesner_encode((0, 1), (1, 1))
        else:
            state = random_states(np.random.default_rng(47), 1, 2)[0]
        n = 20000
        shadow = puzzles.shadow_gen(state, n, np.random.default_rng(53))
        counts = {}
        for basis, outcome in zip(shadow.bases, shadow.outcomes):
            counts[basis, outcome] = counts.get((basis, outcome), 0) + 1
        radius = _mc.hoeffding_radius(n)
        for basis in map("".join, itertools.product("XYZ", repeat=2)):
            probs = np.abs(oracle_rotate(state, basis).vector) ** 2 / 9
            for idx, p in enumerate(probs):
                outcome = ((idx >> 1) & 1, idx & 1)
                assert abs(counts.get((basis, outcome), 0) / n - p) <= radius

    def test_blocked_tables_match_one_table(self, monkeypatch):
        state = qsim.wiesner_encode((1, 0, 1), (0, 1, 1))
        scheme = owsg.wiesner_owsg(6)
        targets = vectors([scheme.state_gen(k) for k in scheme.all_keys()])
        whole = puzzles.shadow_gen(state, 64, np.random.default_rng(59))
        want = puzzles.estimate_overlap_many(whole, targets, 8)
        monkeypatch.setattr(puzzles, "_TABLE_ENTRIES", 100)
        blocked = puzzles.shadow_gen(state, 64, np.random.default_rng(59))
        assert blocked.bases == whole.bases and blocked.outcomes == whole.outcomes
        assert np.abs(puzzles.estimate_overlap_many(whole, targets, 8) - want).max() <= 1e-12

    def test_sampler_rejects_empty_shadow(self):
        with pytest.raises(ValueError):
            puzzles.shadow_gen(plus_state(), 0, np.random.default_rng(0))


class TestSerialization:
    def test_frozen_byte_layout(self):
        shadow = puzzles.Shadow(bases=("XZ",), outcomes=((1, 0),))
        raw = puzzles.shadow_to_bytes(shadow)
        # headers 1 and 2 as uint16 LE, then bits [0,0, 0,1, 1,0] packed LSB-first
        assert raw == bytes([1, 0, 2, 0, 0b00011000])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        state = qsim.wiesner_encode((0, 1, 1), (1, 0, 1))
        shadow = puzzles.shadow_gen(state, 16, rng)
        back = puzzles.shadow_from_bytes(puzzles.shadow_to_bytes(shadow))
        assert back.bases == shadow.bases
        assert back.outcomes == shadow.outcomes

    def test_truncated_stream_rejected(self):
        shadow = puzzles.shadow_gen(plus_state(), 4, np.random.default_rng(7))
        raw = puzzles.shadow_to_bytes(shadow)
        with pytest.raises(ValueError):
            puzzles.shadow_from_bytes(raw[:-1])

    @pytest.mark.parametrize("seed, n_qubits, t", [(0, 1, 1), (1, 2, 7), (2, 3, 96), (3, 5, 33)])
    def test_bytes_match_bitwise_oracle(self, seed, n_qubits, t):
        rng = np.random.default_rng(seed)
        shadow = puzzles.shadow_gen(random_states(rng, 1, n_qubits)[0], t, rng)
        raw = puzzles.shadow_to_bytes(shadow)
        assert raw == oracle_shadow_to_bytes(shadow)
        back = puzzles.shadow_from_bytes(raw)
        assert (back.bases, back.outcomes) == (shadow.bases, shadow.outcomes)

    def test_trit_three_rejected(self):
        # one 1-qubit snapshot whose basis bits read 1, 1
        with pytest.raises(ValueError, match="trit"):
            puzzles.shadow_from_bytes(struct.pack("<HH", 1, 1) + bytes([0b011]))

    @pytest.mark.parametrize("t, m", [(1, 0), (0, 3), (0, 0)])
    def test_empty_headers_rejected(self, t, m):
        raw = struct.pack("<HH", t, m)
        raw += bytes((t * 3 * m + 7) // 8)
        with pytest.raises(ValueError):
            puzzles.shadow_from_bytes(raw)

    def test_oversized_shadow_names_the_limit(self):
        shadow = puzzles.Shadow(["Z"] * 70000, [(0,)] * 70000)
        with pytest.raises(ValueError, match="65535"):
            puzzles.shadow_to_bytes(shadow)


class TestPreimageList:
    def test_honest_key_is_listed_at_large_t(self):
        # the 1 - eps listing threshold needs snapshot counts in the
        # thousands before the median-of-means tail drops below 5%
        scheme = owsg.wiesner_owsg(4)
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(15):
            key = scheme.key_gen(rng)
            shadow = puzzles.shadow_gen(scheme.state_gen(key), 2048, rng)
            hits += key in puzzles.preimage_list(shadow, scheme, 0.1, 8)
        assert hits >= 14

    def test_monotone_in_tolerance(self):
        scheme = owsg.wiesner_owsg(4)
        rng = np.random.default_rng(13)
        key = scheme.key_gen(rng)
        shadow = puzzles.shadow_gen(scheme.state_gen(key), 64, rng)
        narrow = set(puzzles.preimage_list(shadow, scheme, 0.05, 8))
        wide = set(puzzles.preimage_list(shadow, scheme, 0.3, 8))
        assert narrow <= wide

    def test_lexicographic_inversion(self):
        scheme = owsg.wiesner_owsg(4)
        rng = np.random.default_rng(17)
        key = scheme.key_gen(rng)
        shadow = puzzles.shadow_gen(scheme.state_gen(key), 64, rng)
        listed = puzzles.preimage_list(shadow, scheme, 0.3, 8)
        assert listed == sorted(listed)


class TestShadowPuzzle:
    def test_sample_and_verify_round_trip_at_large_t(self):
        params = puzzles.ShadowParams(eps=0.1, t_snapshots=2048, k_groups=8)
        puzzle = puzzles.puzzle_from_owsg(owsg.wiesner_owsg(4), params)
        rng = np.random.default_rng(19)
        ok = 0
        for _ in range(12):
            key, blob = puzzle.sample(rng)
            ok += puzzle.verify(key, blob)
        assert ok >= 11

    def test_verify_is_deterministic(self):
        puzzle = puzzles.puzzle_from_owsg(owsg.wiesner_owsg(4))
        key, blob = puzzle.sample(np.random.default_rng(23))
        assert puzzle.verify(key, blob) == puzzle.verify(key, blob)

    def test_wrong_key_usually_rejected(self):
        puzzle = puzzles.puzzle_from_owsg(owsg.wiesner_owsg(6))
        rng = np.random.default_rng(29)
        rejections = 0
        for _ in range(15):
            key, blob = puzzle.sample(rng)
            wrong = tuple(b ^ 1 for b in key)
            rejections += not puzzle.verify(wrong, blob)
        assert rejections >= 13


class TestTabulatedPuzzles:
    def test_catalog_names(self):
        catalog = puzzles.tabulated_puzzles()
        assert set(catalog) == {"flat", "geometric", "two-level"}

    def test_marginal_puzzle_is_fair(self):
        for joint in puzzles.tabulated_puzzles().values():
            marg = joint.marginal_puzzles()
            assert marg.prob((0,)) == pytest.approx(0.5)
            assert marg.prob((1,)) == pytest.approx(0.5)

    def test_flat_conditionals_are_uniform(self):
        flat = puzzles.tabulated_puzzles()["flat"]
        for s in ((0,), (1,)):
            cond = flat.condition_on_puzzle(s)
            assert dist.shannon_entropy(cond) == pytest.approx(3.0)

    def test_geometric_ladder(self):
        geo = puzzles.tabulated_puzzles()["geometric"]
        cond = geo.condition_on_puzzle((0,))
        assert cond.prob((0, 0, 0)) == pytest.approx(0.5)
        assert cond.prob((1, 1, 1)) == pytest.approx(1 / 128)
        flipped = geo.condition_on_puzzle((1,))
        assert flipped.prob((1, 1, 1)) == pytest.approx(0.5)

    def test_built_once_and_read_only(self):
        first = puzzles.tabulated_puzzles()
        assert puzzles.tabulated_puzzles() is first
        with pytest.raises(TypeError):
            first["flat"] = first["geometric"]
        with pytest.raises(TypeError):
            del first["flat"]
        # what a caller reads out of a shared table is its own copy
        first["geometric"].marginal_keys().as_dict().clear()
        first["geometric"].condition_on_puzzle((0,)).as_dict().clear()
        fresh = puzzles.tabulated_puzzles.__wrapped__()
        again = puzzles.tabulated_puzzles()
        assert sorted(again) == sorted(fresh)
        for name, joint in again.items():
            assert joint is first[name]
            assert joint.support() == fresh[name].support()
            assert all(joint.prob(k, s) == fresh[name].prob(k, s) for k, s in joint.support())

    def test_two_level_split(self):
        two = puzzles.tabulated_puzzles()["two-level"]
        cond = two.condition_on_puzzle((0,))
        assert cond.prob((0, 0, 0)) == pytest.approx(0.5)
        assert cond.prob((0, 0, 1)) == pytest.approx(1 / 14)
        heavy = two.condition_on_puzzle((1,))
        assert heavy.prob((1, 1, 1)) == pytest.approx(0.5)
