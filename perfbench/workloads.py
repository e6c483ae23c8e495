"""The three benchmark workloads: fixtures, one operation, and its checks.

A workload class is built from the benchmark seed (its constructor is the
fixture build that `setup.fixture_s` times), then driven as a closed loop by
a single client: `op(i)` runs operation i and returns what the checks need,
`check(out)` returns the failures of that operation, and `finish()` returns
the failures of run-level checks.  Nothing here imports qclab or numpy at
module level, so the worker can time those imports on their own; `MODULES`
lists what each workload imports.

No check depends on the order in which the program draws random numbers:
later changes are expected to move sampled values on purpose.
"""

import contextlib
import json
import os
from pathlib import Path

# criterion 11's round: Wiesner scheme over 6 key bits (3 qubits, 64 keys)
SHADOW_KEY_BITS = 6
SHADOW_SNAPSHOTS = 96
SHADOW_GROUPS = 8
SHADOW_EPS = 0.1
# rates documented for criterion 11, each from a sample of 500 rounds
CRITERION_11_TRIALS = 500
CRITERION_11_HONEST_RATE = 0.50
CRITERION_11_TIGHT_RATE = 0.958

# One hash-pipeline round: five manifests run in process at workers=1.  The
# trial counts are sized so that a run of BENCHMARK.json's run_seconds
# completes well over 100 rounds.
PIPELINE = {
    "wpeg-gap": ({"fixture": "geometric"}, 100),
    "efi-sweep": ({"weights": [1] * 16, "s_max": 8}, 10),
    "gl": ({"n": 8, "noise": 0.3}, 4),
    "extractor": ({"n": 8}, 8),
    "concentration": ({}, 2),
}
PIPELINE_TINY_TRIALS = {"wpeg-gap": 5, "efi-sweep": 2, "gl": 1,
                        "extractor": 1, "concentration": 1}
# results fields of each report, as cli writes them
REPORT_FIELDS = {
    "wpeg-gap": {"fixture", "gap", "radius", "params", "per_s",
                 "seed_samples", "trigger_mass"},
    "efi-sweep": {"seed_samples", "rows"},
    "gl": {"n", "noise", "trials", "recoveries", "recovery_rate"},
    "extractor": {"n", "trials", "violations", "min_margin"},
    "concentration": {"support", "t_max", "eps", "checks", "violations",
                      "min_margin"},
}

COMMIT_COMPONENTS = ("purified-coins", "basis", "hiding")
COMMIT_TOL = 1e-9


class ShadowPuzzle:
    """One criterion-11 round: key, state, 96-snapshot shadow, byte round
    trip of the shadow, then the preimage list at eps 0.1 in 8 groups."""

    MODULES = ("numpy", "qclab.qsim", "qclab.owsg", "qclab.puzzles",
               "qclab._mc")

    def __init__(self, seed, tiny, work_dir):
        import numpy as np
        from qclab import owsg

        self.scheme = owsg.wiesner_owsg(SHADOW_KEY_BITS)
        self.rng = np.random.default_rng(seed)
        self.rounds = self.honest = self.tight = 0
        self._vectors = None

    def op(self, i):
        from qclab import puzzles

        key = self.scheme.key_gen(self.rng)
        state = self.scheme.state_gen(key)
        shadow = puzzles.shadow_gen(state, SHADOW_SNAPSHOTS, self.rng)
        back = puzzles.shadow_from_bytes(puzzles.shadow_to_bytes(shadow))
        listed = puzzles.preimage_list(back, self.scheme, SHADOW_EPS,
                                       SHADOW_GROUPS)
        return key, state, shadow, back, listed

    def check(self, out):
        import numpy as np

        key, state, shadow, back, listed = out
        if self._vectors is None:
            self._vectors = {k: self.scheme.state_gen(k).vector
                             for k in self.scheme.all_keys()}
        bad = []
        if back.bases != shadow.bases or back.outcomes != shadow.outcomes:
            bad.append("shadow byte round trip is not exact")
        listed = [tuple(k) for k in listed]
        if any(k not in self._vectors for k in listed):
            bad.append("listed key outside the key space")
        elif listed != sorted(set(listed)):
            bad.append("listed keys are not sorted and distinct")
        else:
            self.rounds += 1
            self.honest += tuple(key) in listed
            self.tight += all(
                abs(np.vdot(self._vectors[k], state.vector)) ** 2
                >= 1 - 2 * SHADOW_EPS for k in listed)
        return bad

    def finish(self):
        """Rates against criterion 11's documented values.  Those values are
        themselves 500-round samples, so the allowed distance is the sum of
        the two 99% Hoeffding radii."""
        from qclab import _mc

        if not self.rounds:
            return []
        radius = (_mc.hoeffding_radius(self.rounds)
                  + _mc.hoeffding_radius(CRITERION_11_TRIALS))
        bad = []
        for what, hits, want in (("honest-key listed", self.honest,
                                  CRITERION_11_HONEST_RATE),
                                 ("listed-overlap", self.tight,
                                  CRITERION_11_TIGHT_RATE)):
            rate = hits / self.rounds
            if abs(rate - want) > radius:
                bad.append("{} rate {:.3f} is further than {:.3f} from {}"
                           .format(what, rate, radius, want))
        return bad


class HashPipeline:
    """One round of five in-process `cli.main` manifests at workers=1, each
    with the round's seed and its report written to a scratch file."""

    MODULES = ("numpy", "qclab.cli")

    def __init__(self, seed, tiny, work_dir):
        import numpy as np

        self.rng = np.random.default_rng(seed)
        self.dir = Path(work_dir)
        self.names = sorted(PIPELINE)
        self.manifests = {}
        for name, (params, trials) in PIPELINE.items():
            path = self.dir / "{}.json".format(name)
            path.write_text(json.dumps({
                "subcommand": name, "seed": 0, "params": params,
                "trials": PIPELINE_TINY_TRIALS[name] if tiny else trials,
                "workers": 1}))
            self.manifests[name] = path
        self._sink = open(os.devnull, "w")

    def _run(self, name, seed, out):
        from qclab import cli

        # cli reports its elapsed time on stderr; that is not the report
        with contextlib.redirect_stderr(self._sink):
            return cli.main(["--manifest", str(self.manifests[name]),
                             "--seed", str(seed), "--out", str(out)])

    def _out(self, name, tag="a"):
        return self.dir / "{}.{}.report".format(name, tag)

    def op(self, i):
        seed = int(self.rng.integers(0, 2 ** 63))
        codes = {name: self._run(name, seed, self._out(name))
                 for name in self.names}
        return i, seed, codes

    def check(self, out):
        i, seed, codes = out
        bad = []
        for name in self.names:
            if codes[name] != 0:
                bad.append("{} exited {}".format(name, codes[name]))
                continue
            bad.extend(self._check_report(name, seed))
        # determinism: one manifest per round, in turn, runs again
        again = self.names[i % len(self.names)]
        if codes[again] == 0:
            code = self._run(again, seed, self._out(again, "b"))
            if code != 0 or (self._out(again).read_bytes()
                             != self._out(again, "b").read_bytes()):
                bad.append("{} report is not byte-identical on a rerun"
                           .format(again))
        return bad

    def _check_report(self, name, seed):
        try:
            report = json.loads(self._out(name).read_text())
        except (OSError, ValueError) as exc:
            return ["{} report does not parse: {}".format(name, exc)]
        if set(report) != {"manifest", "version", "results"}:
            return ["{} report has fields {}".format(name, sorted(report))]
        manifest, results = report["manifest"], report["results"]
        bad = []
        if manifest.get("subcommand") != name or manifest.get("seed") != seed:
            bad.append("{} report embeds the wrong manifest".format(name))
        missing = REPORT_FIELDS[name] - set(results)
        if missing:
            bad.append("{} report lacks {}".format(name, sorted(missing)))
        elif name in ("extractor", "concentration") and results["violations"]:
            bad.append("{} reports {} violations".format(
                name, results["violations"]))
        return bad

    def finish(self):
        self._sink.close()
        return []


class CommitDensity:
    """Build the XOR combination of purified-coins, basis and hiding (8
    qubits, component order drawn from the seed), then evaluate
    completeness, hiding, binding against the superposition attacker, and
    criterion 13's plain-vs-redundant binding-state algebra."""

    MODULES = ("numpy", "qclab.qsim", "qclab.commit")

    def __init__(self, seed, tiny, work_dir):
        import numpy as np
        from qclab import commit

        self.catalog = commit.toy_schemes()
        self.rng = np.random.default_rng(seed)

    def op(self, i):
        from qclab import commit

        order = [COMMIT_COMPONENTS[j] for j in self.rng.permutation(3)]
        xor = commit.xor_combine([self.catalog[name] for name in order])
        complete = [commit.decommit_probability(xor, b) for b in (0, 1)]
        hiding = commit.hiding_advantage(xor)
        adv = commit.superposition_attacker(xor)
        binding = commit.binding_experiment(xor, adv)
        plain = commit.binding_states(xor, adv)
        redundant = commit.binding_states(xor, adv, redundant=True)
        return complete, hiding, binding, plain, redundant

    def check(self, out):
        import numpy as np

        complete, hiding, binding, plain, redundant = out
        bad = []
        if any(abs(c - 1.0) > COMMIT_TOL for c in complete):
            bad.append("completeness {} is not 1".format(complete))
        # one perfectly hiding component hides the XOR
        if abs(hiding - 0.5) > COMMIT_TOL:
            bad.append("hiding advantage {} is not 1/2".format(hiding))
        if not 0.5 - COMMIT_TOL <= binding <= 1.0 + COMMIT_TOL:
            bad.append("binding {} lies outside [1/2, 1]".format(binding))
        if abs(plain[0] - redundant[0]) > COMMIT_TOL:
            bad.append("plain and redundant accept probabilities differ")
        for a, b in zip(plain[1:], redundant[1:]):
            if (a is None) != (b is None) or (
                    a is not None
                    and np.abs(a.matrix - b.matrix).max() > COMMIT_TOL):
                bad.append("plain and redundant binding states differ")
        return bad

    def finish(self):
        return []


WORKLOADS = {
    "shadow-puzzle": ShadowPuzzle,
    "hash-pipeline": HashPipeline,
    "commit-density": CommitDensity,
}
