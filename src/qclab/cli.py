"""Manifest-driven experiment runner with a determinism contract.

Reports are canonical JSON (sorted keys, no whitespace), so a manifest run
twice produces byte-identical output.  Timing goes to stderr only.  Child
random streams are derived as sha256("seed:subcommand:trial")[:8], read as
a big-endian unsigned 64-bit integer and fed to numpy's default generator,
so any single trial can be reproduced outside this module.  `extractor` and
`gl` draw each trial from its own generator in trial order, then compute a
chunk of trials as one batch (_trial_chunks), with the arithmetic a trial
run alone would do; the other runners compute trial by trial.  Every manifest
value is read once by _read, as a kind within bounds: the seven envelope
fields as the _FIELDS table says (a fault exits 2), and each runner's
parameters through _param (a fault exits 3).
"""

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, commit, dist, efi, gf2, owsg, pseudoentropy, puzzles, qsim

DEFAULT_TRIALS = {
    "entropy": 1,
    "extractor": 200,
    "gl": 100,
    "shadows": 50,
    "puzzle": 200,
    "wpeg-gap": 200,
    "core-lemma": 1,
    "concentration": 20,
    "efi-sweep": 200,
    "commit-suite": 1,
}
SUBCOMMANDS = sorted(DEFAULT_TRIALS)
FORMATS = ["json", "csv"]

# the default of a field every manifest must give
_REQUIRED = object()
# each manifest field's kind, default and bounds, as _read takes them; an
# absent trials is the subcommand's DEFAULT_TRIALS entry, and a null or
# absent out writes the report to stdout
_FIELDS = {
    "subcommand": (str, _REQUIRED, SUBCOMMANDS),
    "params": (dict, {}, None),
    "seed": (int, _REQUIRED, (0, 2 ** 64 - 1)),
    "trials": (int, None, (1, math.inf)),
    "out": ((str, type(None)), None, None),
    # _run_trials starts one thread per worker
    "workers": (int, 1, (1, 64)),
    "format": (str, "json", FORMATS),
}


class ExperimentManifest:
    """One attribute per _FIELDS entry, plus `read`: the parameter names
    the runner has read through _param."""

    __slots__ = (*_FIELDS, "read")

    def __init__(self, fields):
        for name, value in fields.items():
            setattr(self, name, value)
        self.read = set()

    def embedded(self):
        # the output path names where the report goes; it is not part of it
        return {name: getattr(self, name) for name in _FIELDS if name != "out"}


def child_rng(seed, subcommand, trial_index):
    """Per-trial generator; see the module docstring for the derivation."""
    blob = "{}:{}:{}".format(seed, subcommand, trial_index).encode("ascii")
    digest = hashlib.sha256(blob).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


@functools.cache
def _parser():
    # built once: parsing leaves the parser as it was
    p = argparse.ArgumentParser(
        prog="qclab",
        description="Run one pipeline experiment from a manifest.")
    p.add_argument("subcommand", nargs="?", choices=SUBCOMMANDS,
                   help="experiment to run; may also come from the manifest")
    p.add_argument("--manifest", help="path to a manifest JSON file")
    p.add_argument("--seed", type=int, help="override the manifest seed")
    p.add_argument("--trials", type=int, help="override the trial count")
    p.add_argument("--out", help="report path; stdout when omitted")
    p.add_argument("--workers", type=int, help="parallel trial workers")
    p.add_argument("--format", choices=FORMATS,
                   help="report format, default json")
    return p


def _resolve(args):
    body = {}
    if args.manifest:
        try:
            body = json.loads(Path(args.manifest).read_text())
        except OSError as exc:
            raise ValueError("cannot read manifest: {}".format(exc))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError("manifest is not JSON: {}".format(exc))
        if not isinstance(body, dict):
            raise ValueError("manifest must be a JSON object")
    if args.subcommand:
        if body.get("subcommand", args.subcommand) != args.subcommand:
            raise ValueError("subcommand disagrees with the manifest")
        body["subcommand"] = args.subcommand
    overrides = (("seed", args.seed), ("trials", args.trials),
                 ("out", args.out), ("workers", args.workers),
                 ("format", args.format))
    for field, value in overrides:
        if value is not None:
            body[field] = value
    return _manifest(body)


def _manifest(body):
    """The manifest whose JSON object is `body`, each field read by _read
    as _FIELDS says.  An unknown or missing field, or a value of the wrong
    kind or out of bounds, raises ValueError (exit 2)."""
    unknown = sorted(set(body) - set(_FIELDS))
    if unknown:
        raise ValueError("unknown manifest field {}".format(
            ", ".join(map(repr, unknown))))
    fields = {}
    for name, (kind, default, bounds) in _FIELDS.items():
        if name in body:
            fields[name] = _read("manifest field {!r}".format(name),
                                 body[name], kind, bounds)
        elif default is _REQUIRED:
            raise ValueError("manifest field {!r} is required".format(name))
        else:
            fields[name] = default
    if fields["trials"] is None:
        fields["trials"] = DEFAULT_TRIALS[fields["subcommand"]]
    return ExperimentManifest(fields)


def _run_trials(fn, m):
    """fn(rng) for each trial i, rng = child_rng(seed, subcommand, i)."""
    def trial(i):
        return fn(child_rng(m.seed, m.subcommand, i))

    if m.workers <= 1:
        return [trial(i) for i in range(m.trials)]
    with ThreadPoolExecutor(max_workers=m.workers) as pool:
        return list(pool.map(trial, range(m.trials)))


def _trial_chunks(m, size):
    """The trial indices in order, as ranges of at most `size`: a runner
    draws each range's trials one by one, each from its own child_rng,
    then computes them as one batch."""
    trials = range(m.trials)
    return (trials[start:start + size] for start in range(0, m.trials, size))


def _param(m, name, default, kind=int, bounds=None):
    """Manifest parameter `name`, or `default` when absent, read by _read
    as `kind` within `bounds`; its ValueError exits 3.  The name counts as
    read; main rejects a parameter never read."""
    m.read.add(name)
    return _read("parameter {!r}".format(name), m.params.get(name, default),
                 kind, bounds)


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string",
               dict: "an object", list: "a list of integers",
               (str, type(None)): "a string or null"}


def _read(label, value, kind, bounds):
    """`value` as `kind`, one of _KIND_NAMES' keys (list means a list of
    ints), within `bounds`: a (low, high) pair for a number, or the allowed
    values of a string; None for none.  Anything else raises ValueError
    naming `label`."""
    if not _is_a(value, kind):
        raise ValueError("{} must be {}, got {!r}".format(label, _KIND_NAMES[kind], value))
    if kind is list:
        return [int(v) for v in value]
    if kind is int or kind is float:
        value = kind(value)
    if bounds is None:
        return value
    if kind is str and value not in bounds:
        raise ValueError("{} must be one of {}, got {!r}".format(
            label, ", ".join(map(repr, bounds)), value))
    if kind is not str and not bounds[0] <= value <= bounds[1]:
        raise ValueError("{} must lie in [{}, {}], got {}".format(label, *bounds, value))
    return value


def _is_a(value, kind):
    if kind is list:
        return isinstance(value, list) and all(_is_a(v, int) for v in value)
    if kind is not int and kind is not float:
        return isinstance(value, kind)
    # a bool is not a number and an integral float reads as an int; a
    # float is finite, and so is an int that float() can convert
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if kind is int:
        return isinstance(value, int) or value.is_integer()
    return abs(value) <= sys.float_info.max


def _indexed_pmf(weights):
    total = sum(weights)
    if not weights or min(weights) < 0 or total == 0:
        raise ValueError("weights must be non-negative with a positive total")
    width = max(1, (len(weights) - 1).bit_length())
    atoms = map(tuple, dist.bits_of(np.arange(len(weights)), width).tolist())
    return dist.Pmf({a: Fraction(w, total) for a, w in zip(atoms, weights) if w}), width


def _run_entropy(m):
    pmf, _ = _indexed_pmf(_param(m, "weights", [8, 4, 2, 1, 1], list))
    eps = _param(m, "eps", 0.1, float)
    return {
        "eps": eps,
        "shannon": dist.shannon_entropy(pmf),
        "min_entropy": dist.min_entropy(pmf),
        "max_entropy": dist.max_entropy(pmf),
        "smooth_min_entropy": dist.smooth_min_entropy(pmf, eps),
        "smooth_max_entropy": dist.smooth_max_entropy(pmf, eps),
    }, None


def _run_extractor(m):
    n = _param(m, "n", 6, int, (0, gf2.EXACT_INPUT_LIMIT))
    violations, margin = 0, math.inf
    # a chunk's mass table holds as many entries as one table at n = EXACT_INPUT_LIMIT
    for chunk in _trial_chunks(m, 2 ** (gf2.EXACT_INPUT_LIMIT - n)):
        raw = np.empty((len(chunk), 2 ** n))
        for k, i in enumerate(chunk):
            raw[k] = child_rng(m.seed, m.subcommand, i).random(2 ** n)
        raw += 1e-3
        masses = raw / raw.sum(axis=1, keepdims=True)
        bounds = np.array([gf2.extractor_bound(-math.log2(max(row)))
                           for row in masses.tolist()])
        d = gf2.extractor_distances(masses)
        violations += int((d > bounds + dist.MASS_TOL).sum())
        margin = min(margin, float((bounds - d).min()))
    return {
        "n": n,
        "trials": m.trials,
        "violations": violations,
        "min_margin": margin,
    }, None


def _run_gl(m):
    n = _param(m, "n", 6, int, (1, math.inf))
    # GL needs a positive advantage 0.5 - noise
    noise = _param(m, "noise", 0.0, float, (0, math.nextafter(0.5, 0)))
    advantage = 0.5 - noise
    t, entries = gf2.gl_sizes(n, advantage)
    if entries > gf2.GL_TABLE_LIMIT:
        raise ValueError(
            "parameters 'n' = {} and 'noise' = {} need GL tables of {} entries,"
            " past the limit of {}".format(n, noise, entries, gf2.GL_TABLE_LIMIT))
    queries = (2 ** t - 1) * n
    hits = 0
    # a chunk's tables hold at most GL_TABLE_LIMIT entries, as one trial's may
    for chunk in _trial_chunks(m, gf2.GL_TABLE_LIMIT // entries):
        secrets = np.empty((len(chunk), n), dtype=np.uint8)
        bases = np.empty((len(chunk), t, n), dtype=np.uint8)
        flips = np.zeros((len(chunk), queries), dtype=bool)
        for k, i in enumerate(chunk):
            rng = child_rng(m.seed, m.subcommand, i)
            secrets[k] = rng.integers(0, 2, size=n)
            bases[k] = gf2.gl_base(n, advantage, rng)
            if noise:
                # one draw per query, in query order
                flips[k] = rng.random(queries) < noise

        def answer(asked):
            return ((asked @ secrets[:, :, None])[:, :, 0] & 1) ^ flips

        cands = gf2.gl_vote(bases, answer)[2]
        hits += int((cands == secrets[:, None, :]).all(axis=2).any(axis=1).sum())
    return {
        "n": n,
        "noise": noise,
        "trials": m.trials,
        "recoveries": hits,
        "recovery_rate": hits / m.trials,
    }, None


def _run_shadows(m):
    n = _param(m, "n", 2)
    snapshots = _param(m, "snapshots", 32, int, (1, puzzles.SNAPSHOT_LIMIT))
    groups = _param(m, "groups", 8)
    tol = _param(m, "eps", 0.25, float, (0, 1))
    scheme = owsg.wiesner_owsg(n)

    def one(rng):
        state = scheme.state_gen(scheme.key_gen(rng))
        shadow = puzzles.shadow_gen(state, snapshots, rng)
        return puzzles.estimate_overlap(shadow, state, groups)

    ests = _run_trials(one, m)
    return {
        "n": n,
        "snapshots": snapshots,
        "trials": m.trials,
        "mean_estimate": sum(ests) / m.trials,
        "min_estimate": min(ests),
        "max_estimate": max(ests),
        "within_rate": sum(e >= 1 - tol for e in ests) / m.trials,
    }, None


def _tabulated_fixture(m):
    fixtures = puzzles.tabulated_puzzles()
    name = _param(m, "fixture", "geometric", str, sorted(fixtures))
    return name, fixtures[name]


def _run_puzzle(m):
    name, joint = _tabulated_fixture(m)
    # only positive-mass pairs are drawn, and the verifier accepts exactly those
    return {
        "fixture": name,
        "trials": m.trials,
        "accepts": m.trials,
        "accept_rate": 1.0,
        "key_shannon": dist.shannon_entropy(joint.marginal_keys()),
    }, None


def _run_wpeg_gap(m):
    name, joint = _tabulated_fixture(m)
    base = pseudoentropy.SliceParams.default(_param(m, "n", 3))
    # the string "inf" turns the density floor off
    inf = m.params.get("density_floor") == "inf"
    floor = float(_param(m, "density_floor", base.density_floor, str if inf else float))
    sp = pseudoentropy.SliceParams(
        levels=_param(m, "levels", base.levels),
        pad=_param(m, "pad", base.pad),
        slack=_param(m, "slack", base.slack),
        density_floor=floor,
        i_max=_param(m, "i_max", base.i_max))
    rng = child_rng(m.seed, m.subcommand, 0)
    results = pseudoentropy.wpeg_entropy_gap(joint, sp, m.trials, rng)
    results["fixture"] = name
    return results, None


def _core_lemma_fixture(name):
    if name == "point":
        return dist.Pmf({(1, 0, 1, 1): 1.0}), (1, 0, 1, 1), 0.9, 0.1
    if name == "n6":
        atoms = dict.fromkeys(map(tuple, dist.bits_of(np.arange(64), 6).tolist()),
                              Fraction(7, 10) / 63)
        atoms[(0,) * 6] = Fraction(3, 10)
        return dist.Pmf(atoms), (0,) * 6, 0.25, 0.012
    raise ValueError("unknown core-lemma fixture {!r}".format(name))


def _run_core_lemma(m):
    name = _param(m, "fixture", "n6", str)
    x, x_star, th, tl = _core_lemma_fixture(name)
    th = _param(m, "theta_heavy", th, float)
    tl = _param(m, "theta_light", tl, float)
    gap = pseudoentropy.core_lemma_gap(x, x_star, th, tl)
    return {"fixture": name, "gap": gap, "theta_heavy": th, "theta_light": tl}, None


def _run_concentration(m):
    support = _param(m, "support", 4, int, (1, dist.SPECTRUM_VALUE_LIMIT))
    t_max = _param(m, "t_max", 12, int, (1, math.inf))
    # the spectra of t = 1 .. t_max enumerate C(t_max + support, support) - 1 compositions
    if math.comb(t_max + support, support) > dist.SPECTRUM_WALK_LIMIT:
        raise ValueError(f"t_max {t_max} at support {support} is past the walk limit")
    eps = _param(m, "eps", 0.01, float)
    width = max(1, (support - 1).bit_length())

    def one(rng):
        raw = rng.random(support) + 0.05
        probs = raw / raw.sum()
        atoms = map(tuple, dist.bits_of(np.arange(support), width).tolist())
        pmf = dist.Pmf(dict(zip(atoms, probs.tolist())))
        shannon = dist.shannon_entropy(pmf)
        violations, worst = 0, math.inf
        for t in range(1, t_max + 1):
            spectrum = dist.product_spectrum(pmf, t)
            have = dist.smooth_min_entropy_spectrum(spectrum, eps)
            margin = have - pseudoentropy.concentration_bound(shannon, t, eps,
                                                              support)
            worst = min(worst, margin)
            violations += margin < -dist.ENTROPY_TOL
        return violations, worst

    rows = _run_trials(one, m)
    return {
        "support": support,
        "t_max": t_max,
        "eps": eps,
        "checks": m.trials * t_max,
        "violations": sum(r[0] for r in rows),
        "min_margin": min(r[1] for r in rows),
    }, None


def _run_efi_sweep(m):
    pmf, width = _indexed_pmf(_param(m, "weights", [1] * 16, list))
    s_max = _param(m, "s_max", 2 * width, int, (0, 3 * width))
    rng = child_rng(m.seed, m.subcommand, 0)
    ests, radius = efi.distance_sweep(pmf, list(range(s_max + 1)), m.trials, rng)
    rows = [{"s": s, "sd_estimate": est, "radius": radius} for s, est in enumerate(ests)]
    csv = "".join(f"{s},{est!r},{radius!r}\n" for s, est in enumerate(ests))
    return {"seed_samples": m.trials, "rows": rows}, "s,sd_estimate,radius\n" + csv


def _run_commit_suite(m):
    catalog = commit.toy_schemes()
    schemes, completeness, hiding = {}, {}, {}
    for name in sorted(catalog):
        s = catalog[name]
        schemes[name] = commit.scheme_payload(s)
        completeness[name] = min(commit.decommit_probability(s, 0),
                                 commit.decommit_probability(s, 1))
        hiding[name] = commit.hiding_advantage(s)
    binding = {}
    for name in ("basis", "swap", "leaky"):
        adv = commit.superposition_attacker(catalog[name])
        binding[name + "-superposition"] = commit.binding_experiment(
            catalog[name], adv)
    algebra = 0.0
    for name in ("basis", "swap"):
        adv = commit.superposition_attacker(catalog[name])
        plain = commit.binding_states(catalog[name], adv)
        redundant = commit.binding_states(catalog[name], adv, redundant=True)
        algebra = max(
            algebra, abs(plain[0] - redundant[0]),
            float(np.abs(plain[1].matrix - redundant[1].matrix).max()),
            float(np.abs(plain[2].matrix - redundant[2].matrix).max()))
    dual = commit.dual_commit(catalog["basis"], catalog["swap"])
    dual_binding = commit.binding_experiment(dual,
                                             commit.superposition_attacker(dual))
    xor = commit.xor_combine([catalog["basis"], catalog["hiding"]])
    r0 = qsim.partial_trace(commit.commit_state(xor, 0), list(xor.c_qubits))
    r1 = qsim.partial_trace(commit.commit_state(xor, 1), list(xor.c_qubits))
    invariants = {
        "algebra_max_delta": algebra,
        "dual_binding_delta": abs(dual_binding - binding["basis-superposition"]),
        "dual_completeness": min(commit.decommit_probability(dual, 0),
                                 commit.decommit_probability(dual, 1)),
        "xor_hiding_advantage": commit.hiding_advantage(xor),
        "xor_commit_register_delta": float(np.abs(r0.matrix - r1.matrix).max()),
    }
    return {
        "completeness": completeness,
        "hiding": hiding,
        "binding": binding,
        "invariants": invariants,
        "schemes": schemes,
    }, None


_RUNNERS = {
    "entropy": _run_entropy,
    "extractor": _run_extractor,
    "gl": _run_gl,
    "shadows": _run_shadows,
    "puzzle": _run_puzzle,
    "wpeg-gap": _run_wpeg_gap,
    "core-lemma": _run_core_lemma,
    "concentration": _run_concentration,
    "efi-sweep": _run_efi_sweep,
    "commit-suite": _run_commit_suite,
}


def _scalar_csv(results, prefix=""):
    rows = []
    for key in sorted(results):
        value = results[key]
        if isinstance(value, dict):
            rows.extend(_scalar_csv(value, prefix + key + "."))
        elif isinstance(value, (bool, int, float, str)):
            rows.append("{}{},{}".format(prefix, key, value))
    return rows


def _error_json(kind, detail):
    return json.dumps({"error": kind, "detail": detail}, sort_keys=True,
                      separators=(",", ":"))


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        manifest = _resolve(args)
    except ValueError as exc:
        print(_error_json("validation", str(exc)))
        return 2
    start = time.monotonic()
    try:
        results, table = _RUNNERS[manifest.subcommand](manifest)
        unread = sorted(set(manifest.params) - manifest.read)
        if unread:
            raise ValueError("{} takes no parameter {}".format(
                manifest.subcommand, ", ".join(map(repr, unread))))
    except ValueError as exc:
        print(_error_json("parameter-rejection", str(exc)))
        return 3
    except Exception as exc:  # anything else is a bug, not bad input
        print(_error_json("internal", "{}: {}".format(type(exc).__name__, exc)))
        return 4
    elapsed = time.monotonic() - start
    if manifest.format == "csv":
        text = table if table is not None else \
            "key,value\n" + "\n".join(_scalar_csv(results)) + "\n"
    else:
        report = {"manifest": manifest.embedded(), "version": __version__,
                  "results": results}
        text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if manifest.out:
        Path(manifest.out).write_text(text)
    else:
        sys.stdout.write(text)
    print("elapsed {:.3f}s".format(elapsed), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
