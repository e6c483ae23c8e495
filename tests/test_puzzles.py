"""Tests for classical-shadow estimation and the puzzle schemes built on it.

Single-snapshot estimator values are frozen from the 2x2 algebra
(3|s><s| - I sandwiched in the target), and the estimator mean is checked
against the true overlap at three sample standard deviations.
"""

import numpy as np
import pytest

from qclab import dist, owsg, puzzles, qsim


def plus_state():
    return qsim.apply_unitary(qsim.basis_state((0,)), qsim.H, [0])


class TestShadowParams:
    def test_defaults_scale_with_key_length(self):
        p = puzzles.ShadowParams.default(6)
        assert (p.eps, p.t_snapshots, p.k_groups) == (0.1, 96, 8)
        assert p.delta == pytest.approx(2.0 ** -12)

    def test_group_count_must_divide(self):
        with pytest.raises(ValueError):
            puzzles.ShadowParams(eps=0.1, delta=0.01, t_snapshots=10, k_groups=4)


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
        batch = puzzles.estimate_overlap_many(shadow, targets, 8)
        for got, target in zip(batch, targets):
            assert got == pytest.approx(puzzles.estimate_overlap(shadow, target, 8), abs=1e-12)

    def test_estimator_is_unbiased(self):
        rng = np.random.default_rng(5)
        state = plus_state()
        shadow = puzzles.shadow_gen(state, 4096, rng)
        per_snap = [
            puzzles.estimate_overlap(
                puzzles.Shadow(bases=shadow.bases[t : t + 1], outcomes=shadow.outcomes[t : t + 1]),
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
        assert puzzles.brute_force_invert(shadow, scheme, 0.3, 8) == (listed[0] if listed else None)


class TestShadowPuzzle:
    def test_sample_and_verify_round_trip_at_large_t(self):
        params = puzzles.ShadowParams(eps=0.1, delta=1e-4, t_snapshots=2048, k_groups=8)
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
        for puzzle in puzzles.tabulated_puzzles().values():
            marg = puzzle.exact_joint.marginal_puzzles()
            assert marg.prob((0,)) == pytest.approx(0.5)
            assert marg.prob((1,)) == pytest.approx(0.5)

    def test_flat_conditionals_are_uniform(self):
        flat = puzzles.tabulated_puzzles()["flat"]
        for s in ((0,), (1,)):
            cond = flat.exact_joint.condition_on_puzzle(s)
            assert dist.shannon_entropy(cond) == pytest.approx(3.0)

    def test_geometric_ladder(self):
        geo = puzzles.tabulated_puzzles()["geometric"]
        cond = geo.exact_joint.condition_on_puzzle((0,))
        assert cond.prob((0, 0, 0)) == pytest.approx(0.5)
        assert cond.prob((1, 1, 1)) == pytest.approx(1 / 128)
        flipped = geo.exact_joint.condition_on_puzzle((1,))
        assert flipped.prob((1, 1, 1)) == pytest.approx(0.5)

    def test_two_level_split(self):
        two = puzzles.tabulated_puzzles()["two-level"]
        cond = two.exact_joint.condition_on_puzzle((0,))
        assert cond.prob((0, 0, 0)) == pytest.approx(0.5)
        assert cond.prob((0, 0, 1)) == pytest.approx(1 / 14)
        heavy = two.exact_joint.condition_on_puzzle((1,))
        assert heavy.prob((1, 1, 1)) == pytest.approx(0.5)

    def test_verify_matches_support(self):
        for puzzle in puzzles.tabulated_puzzles().values():
            joint = puzzle.exact_joint
            for key, s in joint.support():
                assert puzzle.verify(key, s)
            assert not puzzle.verify((1, 1, 0), (2,))

    def test_sampling_tracks_joint(self):
        geo = puzzles.tabulated_puzzles()["geometric"]
        rng = np.random.default_rng(31)
        draws = [geo.sample(rng) for _ in range(4000)]
        top = sum(1 for k, s in draws if k == (0, 0, 0) and s == (0,))
        # true probability 1/4; three sigma is about 0.02
        assert abs(top / 4000 - 0.25) < 0.025
