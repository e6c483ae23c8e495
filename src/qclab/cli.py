"""Manifest-driven experiment runner with a determinism contract.

Reports are canonical JSON (sorted keys, no whitespace), so a manifest run
twice produces byte-identical output.  Timing goes to stderr only.  Child
random streams are derived as sha256("seed:subcommand:trial")[:8], read as
a big-endian unsigned 64-bit integer and fed to numpy's default generator,
so any single trial can be reproduced outside this module.  Manifests are
checked against data/manifest.schema.json by a small interpreter of the few
JSON Schema keywords it uses, whose errors read as jsonschema's would.
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
from importlib import resources
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


class ManifestError(ValueError):
    """Raised for anything wrong with the manifest itself."""


class ExperimentManifest:
    __slots__ = ("subcommand", "params", "seed", "trials", "out", "workers", "fmt", "read")

    def __init__(self, subcommand, params, seed, trials, out, workers, fmt):
        self.subcommand = subcommand
        self.params = params
        self.seed = seed
        self.trials = trials
        self.out = out
        self.workers = workers
        self.fmt = fmt
        # the parameter names the runner has read through _param
        self.read = set()

    def embedded(self):
        # the output path names where the report goes; it is not part of it
        return {
            "subcommand": self.subcommand,
            "params": self.params,
            "seed": self.seed,
            "trials": self.trials,
            "workers": self.workers,
            "format": self.fmt,
        }


def child_rng(seed, subcommand, trial_index):
    """Per-trial generator; see the module docstring for the derivation."""
    blob = "{}:{}:{}".format(seed, subcommand, trial_index).encode("ascii")
    digest = hashlib.sha256(blob).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def _load_schema():
    raw = resources.files("qclab").joinpath("data/manifest.schema.json").read_text()
    return json.loads(raw)


# the JSON Schema types the schema names (Draft 2020-12): an integral float
# is an integer, and a bool is neither an integer nor a number
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}
# the keywords _schema_errors interprets; "$schema" and "title" only annotate
_SCHEMA_KEYWORDS = {"$schema", "title", "type", "enum", "required",
                    "additionalProperties", "properties", "minimum", "maximum"}


def _type_names(schema):
    names = schema.get("type", [])
    return [names] if isinstance(names, str) else names


def _check_schema(schema):
    """Refuse a schema that _schema_errors would read wrongly."""
    unknown = sorted(set(schema) - _SCHEMA_KEYWORDS)
    if unknown:
        raise ValueError("manifest schema keywords {} are not supported".format(unknown))
    if schema.get("additionalProperties", False) is not False:
        raise ValueError("manifest schema: additionalProperties must be false")
    if not set(_type_names(schema)) <= set(_JSON_TYPES):
        raise ValueError("manifest schema: unknown type {!r}".format(schema["type"]))
    if not all(isinstance(e, str) for e in schema.get("enum", [])):
        raise ValueError("manifest schema: enum values must be strings")
    for sub in schema.get("properties", {}).values():
        _check_schema(sub)


@functools.cache
def _schema():
    # read and checked once per process
    schema = _load_schema()
    _check_schema(schema)
    return schema


def _schema_errors(schema, value, path=()):
    """(path, message) of each error jsonschema finds in `value`, in the
    order it yields them."""
    number = _JSON_TYPES["number"](value)
    for keyword, arg in schema.items():
        if keyword == "type":
            names = _type_names(schema)
            if not any(_JSON_TYPES[t](value) for t in names):
                yield path, "{!r} is not of type {}".format(
                    value, ", ".join(map(repr, names)))
        elif keyword == "enum" and value not in arg:
            yield path, "{!r} is not one of {!r}".format(value, arg)
        elif keyword == "minimum" and number and value < arg:
            yield path, "{!r} is less than the minimum of {!r}".format(value, arg)
        elif keyword == "maximum" and number and value > arg:
            yield path, "{!r} is greater than the maximum of {!r}".format(value, arg)
        elif not isinstance(value, dict):
            continue
        elif keyword == "required":
            for name in arg:
                if name not in value:
                    yield path, "{!r} is a required property".format(name)
        elif keyword == "additionalProperties":
            extras = sorted(set(value) - set(schema.get("properties", {})))
            if extras:
                yield path, "Additional properties are not allowed ({} {} unexpected)".format(
                    ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were")
        elif keyword == "properties":
            for name, sub in arg.items():
                if name in value:
                    yield from _schema_errors(sub, value[name], path + (name,))


def _parser():
    p = argparse.ArgumentParser(
        prog="qclab",
        description="Run one pipeline experiment from a manifest.")
    p.add_argument("subcommand", nargs="?", choices=sorted(DEFAULT_TRIALS),
                   help="experiment to run; may also come from the manifest")
    p.add_argument("--manifest", help="path to a manifest JSON file")
    p.add_argument("--seed", type=int, help="override the manifest seed")
    p.add_argument("--trials", type=int, help="override the trial count")
    p.add_argument("--out", help="report path; stdout when omitted")
    p.add_argument("--workers", type=int, help="parallel trial workers")
    p.add_argument("--format", choices=["json", "csv"],
                   help="report format, default json")
    return p


def _resolve(args):
    body = {}
    if args.manifest:
        try:
            body = json.loads(Path(args.manifest).read_text())
        except OSError as exc:
            raise ManifestError("cannot read manifest: {}".format(exc))
        except json.JSONDecodeError as exc:
            raise ManifestError("manifest is not JSON: {}".format(exc))
        if not isinstance(body, dict):
            raise ManifestError("manifest must be a JSON object")
    if args.subcommand:
        if body.get("subcommand", args.subcommand) != args.subcommand:
            raise ManifestError("subcommand disagrees with the manifest")
        body["subcommand"] = args.subcommand
    overrides = (("seed", args.seed), ("trials", args.trials),
                 ("out", args.out), ("workers", args.workers),
                 ("format", args.format))
    for field, value in overrides:
        if value is not None:
            body[field] = value
    # the error jsonschema.validate would raise, by best_match's relevance:
    # the shallowest path, then the greatest, then the first yielded (its
    # type-match criterion never decides, as one subschema makes all the
    # errors at a path)
    error = max(_schema_errors(_schema(), body),
                key=lambda e: (-len(e[0]), e[0]), default=None)
    if error is not None:
        raise ManifestError(error[1])
    sub = body["subcommand"]
    return ExperimentManifest(
        sub, body.get("params", {}), int(body["seed"]),
        int(body.get("trials", DEFAULT_TRIALS[sub])), body.get("out"),
        int(body.get("workers", 1)), body.get("format", "json"))


def _run_trials(fn, m):
    """fn(rng) for each trial i, rng = child_rng(seed, subcommand, i)."""
    def trial(i):
        return fn(child_rng(m.seed, m.subcommand, i))

    if m.workers <= 1:
        return [trial(i) for i in range(m.trials)]
    with ThreadPoolExecutor(max_workers=m.workers) as pool:
        return list(pool.map(trial, range(m.trials)))


def _param(m, name, default, kind=int):
    """Manifest parameter `name` as an int, float, str or list of ints, or
    `default` when absent.  A wrong JSON type raises ValueError (exit 3).
    The name counts as read; main rejects a parameter never read."""
    m.read.add(name)
    value = m.params.get(name, default)
    if kind is list:
        ok = isinstance(value, list) and all(_is_a(v, int) for v in value)
    else:
        ok = _is_a(value, kind)
    if not ok:
        raise ValueError("parameter {!r} must be {}, got {!r}".format(
            name, "a list of ints" if kind is list else kind.__name__, value))
    return [int(v) for v in value] if kind is list else kind(value)


def _is_a(value, kind):
    if kind is str:
        return isinstance(value, str)
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and (kind is float or value == int(value)))


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
    n = _param(m, "n", 6)
    if not 0 <= n <= gf2.EXACT_INPUT_LIMIT:
        raise ValueError(f"source width must lie in [0, {gf2.EXACT_INPUT_LIMIT}], got {n}")
    atoms = list(map(tuple, dist.bits_of(np.arange(2 ** n), n).tolist()))

    def one(rng):
        raw = rng.random(2 ** n) + 1e-3
        pmf = dist.Pmf(dict(zip(atoms, (raw / raw.sum()).tolist())))
        d = gf2.extractor_distance(pmf, n)
        bound = gf2.extractor_bound(dist.min_entropy(pmf))
        return int(d > bound + dist.MASS_TOL), bound - d

    rows = _run_trials(one, m)
    return {
        "n": n,
        "trials": m.trials,
        "violations": sum(r[0] for r in rows),
        "min_margin": min(r[1] for r in rows),
    }, None


def _run_gl(m):
    n = _param(m, "n", 6)
    noise = _param(m, "noise", 0.0, float)
    advantage = 0.5 - noise

    def one(rng):
        secret = rng.integers(0, 2, size=n).astype(np.uint8)

        def answer(queries):
            bits = (queries @ secret) & 1
            if noise:
                # one draw per query, in query order
                bits ^= rng.random(len(queries)) < noise
            return bits

        cands = gf2.gl_decode(answer, n, advantage, rng)
        return int(tuple(secret.tolist()) in cands)

    hits = sum(_run_trials(one, m))
    return {
        "n": n,
        "noise": noise,
        "trials": m.trials,
        "recoveries": hits,
        "recovery_rate": hits / m.trials,
    }, None


def _run_shadows(m):
    n = _param(m, "n", 2)
    snapshots = _param(m, "snapshots", 32)
    if not 1 <= snapshots <= puzzles.SNAPSHOT_LIMIT:
        raise ValueError(f"snapshots must lie in [1, {puzzles.SNAPSHOT_LIMIT}], got {snapshots}")
    groups = _param(m, "groups", 8)
    tol = _param(m, "eps", 0.25, float)
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
    name = _param(m, "fixture", "geometric", str)
    if name not in fixtures:
        raise ValueError("unknown puzzle fixture {!r}".format(name))
    return name, fixtures[name]


def _run_puzzle(m):
    name, puz = _tabulated_fixture(m)

    def one(rng):
        key, instance = puz.sample(rng)
        return int(puz.verify(key, instance))

    accepts = sum(_run_trials(one, m))
    return {
        "fixture": name,
        "trials": m.trials,
        "accepts": accepts,
        "accept_rate": accepts / m.trials,
        "key_shannon": dist.shannon_entropy(puz.exact_joint.marginal_keys()),
    }, None


def _run_wpeg_gap(m):
    name, puz = _tabulated_fixture(m)
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
    report = pseudoentropy.wpeg_entropy_gap(puz.exact_joint, sp, m.trials, rng)
    results = report.as_dict()
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
    support = _param(m, "support", 4)
    if not 1 <= support <= dist.SPECTRUM_VALUE_LIMIT:
        raise ValueError(f"support must lie in [1, {dist.SPECTRUM_VALUE_LIMIT}], got {support}")
    t_max = _param(m, "t_max", 12)
    # the spectra of t = 1 .. t_max enumerate C(t_max + support, support) - 1 compositions
    if t_max < 1 or math.comb(t_max + support, support) > dist.SPECTRUM_WALK_LIMIT:
        raise ValueError(f"t_max {t_max} at support {support} is < 1 or past the walk limit")
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
            violations += margin < -pseudoentropy.ENTROPY_TOL
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
    s_max = _param(m, "s_max", 2 * width)
    if s_max < 0:
        raise ValueError("s_max must be non-negative, got {}".format(s_max))
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
    except ManifestError as exc:
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
    if manifest.fmt == "csv":
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
