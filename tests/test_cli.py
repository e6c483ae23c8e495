"""End-to-end tests for the experiment runner.

Every invocation goes through cli.main with a real manifest file, so these
cover flag resolution, schema validation, exit codes, and the byte-level
determinism contract in one place.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qclab import cli, dist, gf2, pseudoentropy

import oracles


def write_manifest(tmp_path, body, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def run_to_file(tmp_path, body, tag="out.json", extra=()):
    out = tmp_path / tag
    code = cli.main(["--manifest", write_manifest(tmp_path, body, tag + ".m"),
                     "--out", str(out), *extra])
    return code, out


def read_report(out):
    return json.loads(out.read_text())


class TestManifestHandling:
    def test_schema_file_is_a_valid_schema(self):
        schema = cli._load_schema()
        jsonschema.Draft202012Validator.check_schema(schema)

    def test_missing_seed_rejected(self, capsys):
        assert cli.main(["entropy"]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "validation"

    def test_unknown_manifest_key_rejected(self, tmp_path, capsys):
        m = write_manifest(tmp_path, {"subcommand": "entropy", "seed": 1,
                                      "bogus": 2})
        assert cli.main(["--manifest", m]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "validation"

    def test_subcommand_conflict_rejected(self, tmp_path, capsys):
        m = write_manifest(tmp_path, {"subcommand": "entropy", "seed": 1})
        assert cli.main(["gl", "--manifest", m]) == 2
        capsys.readouterr()

    def test_unreadable_manifest_rejected(self, capsys):
        assert cli.main(["--manifest", "/nonexistent/manifest.json"]) == 2
        capsys.readouterr()

    def test_malformed_manifest_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["--manifest", str(path)]) == 2
        capsys.readouterr()

    def test_flag_overrides_land_in_report(self, tmp_path):
        body = {"subcommand": "entropy", "seed": 3}
        code, out = run_to_file(tmp_path, body, extra=["--seed", "9"])
        assert code == 0
        assert read_report(out)["manifest"]["seed"] == 9

    def test_stdout_when_no_out_path(self, tmp_path, capsys):
        m = write_manifest(tmp_path, {"subcommand": "entropy", "seed": 1})
        assert cli.main(["--manifest", m]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["version"]
        assert report["manifest"]["subcommand"] == "entropy"

    def test_parameter_rejection_exits_three(self, tmp_path, capsys):
        body = {"subcommand": "wpeg-gap", "seed": 1, "trials": 10,
                "params": {"fixture": "geometric", "pad": 9, "i_max": 4}}
        m = write_manifest(tmp_path, body)
        assert cli.main(["--manifest", m]) == 3
        assert json.loads(capsys.readouterr().out)["error"] == "parameter-rejection"

    def test_internal_error_exits_four(self, tmp_path, capsys, monkeypatch):
        def boom(manifest):
            raise RuntimeError("wires crossed")
        monkeypatch.setitem(cli._RUNNERS, "core-lemma", boom)
        m = write_manifest(tmp_path, {"subcommand": "core-lemma", "seed": 1})
        assert cli.main(["--manifest", m]) == 4
        assert json.loads(capsys.readouterr().out)["error"] == "internal"


class TestChildStreams:
    def test_derivation_is_documented_sha256(self):
        digest = hashlib.sha256(b"5:gl:3").digest()
        want = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        got = cli.child_rng(5, "gl", 3)
        assert got.integers(0, 2 ** 32) == want.integers(0, 2 ** 32)

    def test_streams_differ_across_trials(self):
        a = cli.child_rng(5, "gl", 0).integers(0, 2 ** 32)
        b = cli.child_rng(5, "gl", 1).integers(0, 2 ** 32)
        assert a != b


class TestEntropySubcommand:
    def test_values_match_direct_calls(self, tmp_path):
        weights = [8, 4, 2, 1, 1]
        body = {"subcommand": "entropy", "seed": 1,
                "params": {"weights": weights, "eps": 0.1}}
        code, out = run_to_file(tmp_path, body)
        assert code == 0
        got = read_report(out)["results"]
        pmf = dist.Pmf({oracles.bit_tuple(j, 3): Fraction(w, 16)
                        for j, w in enumerate(weights)})
        assert got["shannon"] == pytest.approx(dist.shannon_entropy(pmf), abs=1e-12)
        assert got["min_entropy"] == pytest.approx(dist.min_entropy(pmf), abs=1e-12)
        assert got["max_entropy"] == pytest.approx(dist.max_entropy(pmf), abs=1e-12)
        assert got["smooth_min_entropy"] == pytest.approx(
            dist.smooth_min_entropy(pmf, 0.1), abs=1e-12)
        assert got["smooth_max_entropy"] == pytest.approx(
            dist.smooth_max_entropy(pmf, 0.1), abs=1e-12)

    def test_csv_format_flattens_scalars(self, tmp_path):
        body = {"subcommand": "entropy", "seed": 1, "format": "csv"}
        code, out = run_to_file(tmp_path, body)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("shannon,") for line in lines)

    def test_bad_weights_rejected(self, tmp_path, capsys):
        body = {"subcommand": "entropy", "seed": 1, "params": {"weights": [0, 0]}}
        m = write_manifest(tmp_path, body)
        assert cli.main(["--manifest", m]) == 3
        capsys.readouterr()


class TestDeterminism:
    def test_wpeg_gap_reports_are_byte_identical(self, tmp_path):
        body = {"subcommand": "wpeg-gap", "seed": 7, "trials": 120,
                "params": {"fixture": "geometric"}}
        _, first = run_to_file(tmp_path, body, tag="a.json")
        _, second = run_to_file(tmp_path, body, tag="b.json")
        assert first.read_bytes() == second.read_bytes()

    def test_sampled_subcommand_reports_are_byte_identical(self, tmp_path):
        body = {"subcommand": "gl", "seed": 5, "trials": 10,
                "params": {"n": 5}}
        _, first = run_to_file(tmp_path, body, tag="a.json")
        _, second = run_to_file(tmp_path, body, tag="b.json")
        assert first.read_bytes() == second.read_bytes()


def openblas_kernels_skip_reason():
    """Why OPENBLAS_CORETYPE cannot pick numpy's BLAS kernel here, or None."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration", "")
    if "DYNAMIC_ARCH" not in config:
        return f"numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH: {blas}"
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"the Haswell and Prescott kernels are x86 kernels, not {platform.machine()}"
    return None


class TestReportBytesAcrossBlasKernels:
    """tools/report_digests.py prints the same digests whichever BLAS kernel
    OpenBLAS runs: the machine's own, Haswell (AVX2) or Prescott (SSE3).  On
    an AVX-512 machine the machine's own kernel is SkylakeX, not Haswell."""

    def test_digests_equal_across_kernels(self):
        reason = openblas_kernels_skip_reason()
        if reason:
            pytest.skip(reason)
        repo = Path(__file__).resolve().parents[1]
        src = str(Path(cli.__file__).resolve().parents[1])
        runs = {}
        for kernel in (None, "Haswell", "Prescott"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            if kernel:
                env["OPENBLAS_CORETYPE"] = kernel
            runs[kernel] = subprocess.Popen(
                [sys.executable, str(repo / "tools" / "report_digests.py"), src],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out = {}
        for kernel, proc in runs.items():
            stdout, stderr = proc.communicate(timeout=300)
            assert proc.returncode == 0, stderr.decode()
            out[kernel] = stdout.decode().splitlines()
        assert out[None] and all(" exit=0 " in line for line in out[None])
        for kernel in ("Haswell", "Prescott"):
            moved = [(a, b) for a, b in zip(out[None], out[kernel]) if a != b]
            assert out[kernel] == out[None], moved


class TestSampledSubcommands:
    def test_gl_noiseless_recovers_every_time(self, tmp_path):
        body = {"subcommand": "gl", "seed": 2, "trials": 20, "params": {"n": 6}}
        code, out = run_to_file(tmp_path, body)
        assert code == 0
        assert read_report(out)["results"]["recovery_rate"] == 1.0

    def test_gl_noise_at_half_rejected(self, tmp_path, capsys):
        body = {"subcommand": "gl", "seed": 2, "trials": 5,
                "params": {"n": 4, "noise": 0.5}}
        m = write_manifest(tmp_path, body)
        assert cli.main(["--manifest", m]) == 3
        capsys.readouterr()

    def test_extractor_never_violates_bound(self, tmp_path):
        body = {"subcommand": "extractor", "seed": 4, "trials": 30,
                "params": {"n": 6}}
        code, out = run_to_file(tmp_path, body)
        assert code == 0
        got = read_report(out)["results"]
        assert got["violations"] == 0
        assert got["min_margin"] >= 0.0

    def test_shadows_estimates_concentrate(self, tmp_path):
        body = {"subcommand": "shadows", "seed": 6, "trials": 10,
                "params": {"n": 2, "snapshots": 32, "groups": 8, "eps": 0.25}}
        code, out = run_to_file(tmp_path, body)
        assert code == 0
        got = read_report(out)["results"]
        assert 0.5 < got["mean_estimate"] < 1.5
        assert 0.0 <= got["within_rate"] <= 1.0

    def test_puzzle_sampled_pairs_always_verify(self, tmp_path):
        body = {"subcommand": "puzzle", "seed": 8, "trials": 50,
                "params": {"fixture": "geometric"}}
        code, out = run_to_file(tmp_path, body)
        assert code == 0
        got = read_report(out)["results"]
        assert got["accept_rate"] == 1.0
        assert got["key_shannon"] > 0

    def test_unknown_puzzle_fixture_rejected(self, tmp_path, capsys):
        body = {"subcommand": "puzzle", "seed": 8, "params": {"fixture": "nope"}}
        m = write_manifest(tmp_path, body)
        assert cli.main(["--manifest", m]) == 3
        capsys.readouterr()

    def test_concentration_bound_holds(self, tmp_path):
        body = {"subcommand": "concentration", "seed": 9, "trials": 5,
                "params": {"support": 4, "t_max": 8}}
        code, out = run_to_file(tmp_path, body)
        assert code == 0
        got = read_report(out)["results"]
        assert got["violations"] == 0
        assert got["checks"] == 40

    def test_workers_do_not_change_aggregates(self, tmp_path):
        body = {"subcommand": "extractor", "seed": 4, "trials": 16,
                "params": {"n": 5}}
        _, serial = run_to_file(tmp_path, body, tag="serial.json")
        body["workers"] = 3
        _, parallel = run_to_file(tmp_path, body, tag="parallel.json")
        assert read_report(serial)["results"] == read_report(parallel)["results"]


class TestPassthroughSubcommands:
    def test_core_lemma_reproduces_module_fixture(self, tmp_path):
        body = {"subcommand": "core-lemma", "seed": 1,
                "params": {"fixture": "n6"}}
        code, out = run_to_file(tmp_path, body)
        assert code == 0
        atoms = {(0,) * 6: Fraction(3, 10)}
        for v in range(1, 64):
            atoms[oracles.bit_tuple(v, 6)] = Fraction(7, 10) / 63
        want = pseudoentropy.core_lemma_gap(dist.Pmf(atoms), (0,) * 6, 0.25, 0.012)
        assert read_report(out)["results"]["gap"] == pytest.approx(want, abs=1e-12)

    def test_core_lemma_point_fixture_is_one_bit(self, tmp_path):
        body = {"subcommand": "core-lemma", "seed": 1,
                "params": {"fixture": "point"}}
        code, out = run_to_file(tmp_path, body)
        assert code == 0
        assert read_report(out)["results"]["gap"] == 1.0

    def test_wpeg_gap_embeds_full_report(self, tmp_path):
        body = {"subcommand": "wpeg-gap", "seed": 7, "trials": 60,
                "params": {"fixture": "two-level"}}
        code, out = run_to_file(tmp_path, body)
        assert code == 0
        got = read_report(out)["results"]
        assert set(got) >= {"gap", "radius", "trigger_mass", "per_s", "params"}

    def test_wpeg_gap_disabled_trigger_is_zero(self, tmp_path):
        body = {"subcommand": "wpeg-gap", "seed": 7, "trials": 40,
                "params": {"fixture": "geometric", "density_floor": "inf"}}
        code, out = run_to_file(tmp_path, body)
        assert code == 0
        got = read_report(out)["results"]
        assert got["gap"] == 0.0
        assert got["radius"] == 0.0


class TestEfiSweep:
    def test_csv_shape(self, tmp_path):
        body = {"subcommand": "efi-sweep", "seed": 11, "trials": 60,
                "params": {"s_max": 5}, "format": "csv"}
        code, out = run_to_file(tmp_path, body)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s,sd_estimate,radius"
        assert len(lines) == 7
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(6))

    def test_json_rows_are_monotone(self, tmp_path):
        body = {"subcommand": "efi-sweep", "seed": 11, "trials": 60,
                "params": {"s_max": 6}}
        code, out = run_to_file(tmp_path, body)
        assert code == 0
        rows = read_report(out)["results"]["rows"]
        ests = [r["sd_estimate"] for r in rows]
        assert ests == sorted(ests)

    def test_overlong_truncation_rejected(self, tmp_path, capsys):
        body = {"subcommand": "efi-sweep", "seed": 11, "trials": 10,
                "params": {"s_max": 13}}
        m = write_manifest(tmp_path, body)
        assert cli.main(["--manifest", m]) == 3
        capsys.readouterr()


class TestCommitSuite:
    def test_suite_values(self, tmp_path):
        body = {"subcommand": "commit-suite", "seed": 1}
        code, out = run_to_file(tmp_path, body)
        assert code == 0
        got = read_report(out)["results"]
        assert min(got["completeness"].values()) >= 1 - 1e-9
        assert got["hiding"]["basis"] == pytest.approx(1.0, abs=1e-9)
        assert got["hiding"]["purified-coins"] == pytest.approx(0.625, abs=1e-9)
        assert got["binding"]["swap-superposition"] == pytest.approx(0.75, abs=1e-9)
        inv = got["invariants"]
        assert inv["algebra_max_delta"] <= 1e-9
        assert inv["dual_binding_delta"] <= 1e-9
        assert inv["xor_hiding_advantage"] == pytest.approx(0.5, abs=1e-12)
        assert inv["xor_commit_register_delta"] <= 1e-12
        assert "checksum" in got["schemes"]["basis"]

    def test_suite_is_deterministic(self, tmp_path):
        body = {"subcommand": "commit-suite", "seed": 1}
        _, first = run_to_file(tmp_path, body, tag="a.json")
        _, second = run_to_file(tmp_path, body, tag="b.json")
        assert first.read_bytes() == second.read_bytes()


# the parameters each subcommand reads
PARAM_KEYS = {
    "entropy": ("weights", "eps"),
    "extractor": ("n",),
    "gl": ("n", "noise"),
    "shadows": ("n", "snapshots", "groups", "eps"),
    "puzzle": ("fixture",),
    "wpeg-gap": ("fixture", "n", "levels", "pad", "slack", "density_floor",
                 "mass_ceiling", "i_max"),
    "core-lemma": ("fixture", "theta_heavy", "theta_light"),
    "concentration": ("support", "t_max", "eps"),
    "efi-sweep": ("weights", "s_max"),
    "commit-suite": (),
}

# small values of every JSON type, plus the fixture names and "inf"
_SCALARS = (st.none() | st.booleans() | st.integers(-2, 8)
            | st.floats(-1.5, 2.0)
            | st.sampled_from([0.999999999999999, 0.9999999999999999, 1e-300])
            | st.sampled_from(["inf", "x", "3", "geometric", "flat", "n6",
                               "point", ""]))
_VALUES = _SCALARS | st.lists(_SCALARS, max_size=5) | st.just({})


@st.composite
def small_manifests(draw):
    sub = draw(st.sampled_from(sorted(PARAM_KEYS)))
    keys = PARAM_KEYS[sub]
    params = draw(st.dictionaries(st.sampled_from(keys), _VALUES)) if keys else {}
    return {"subcommand": sub, "seed": draw(st.integers(0, 3)),
            "trials": draw(st.integers(1, 2)), "params": params}


def exit_code(body):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.json"
        path.write_text(json.dumps(body))
        return cli.main(["--manifest", str(path), "--out", str(Path(tmp) / "r")])


class TestBadParameters:
    """A manifest that passes the schema is either run or rejected as a
    parameter problem (exit 3); exit 4 is kept for bugs."""

    @pytest.mark.parametrize("sub,params", [
        ("gl", {"n": [1]}),
        ("gl", {"n": None}),
        ("gl", {"noise": {}}),
        ("gl", {"n": 2.5}),
        ("gl", {"n": True}),
        ("shadows", {"n": [2]}),
        ("shadows", {"groups": 0}),
        ("wpeg-gap", {"fixture": ["x"]}),
        ("wpeg-gap", {"density_floor": None}),
        ("core-lemma", {"fixture": {}}),
        ("efi-sweep", {"weights": 5}),
        ("entropy", {"weights": [1, None]}),
        ("extractor", {"n": -1}),
        ("concentration", {"eps": 0.999999999999999}),
        ("concentration", {"eps": 0.9999999999999999}),
        ("extractor", {"n": 40}),
        ("concentration", {"support": 4000000000}),
        ("efi-sweep", {"s_max": -1}),
        ("concentration", {"support": 16}),
        ("concentration", {"support": 4, "t_max": 4096}),
        ("concentration", {"t_max": 0}),
        ("gl", {"n": 100000}),
        ("gl", {"noise": 0.49999}),
    ])
    def test_rejected_with_exit_three(self, sub, params, capsys):
        assert exit_code({"subcommand": sub, "seed": 0, "params": params}) == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "parameter-rejection"

    def test_wpeg_levels_beyond_the_keys_run(self, tmp_path):
        # buckets no key reaches are never built, so 10^8 levels cost what 8 do
        reports = [json.loads(run_to_file(tmp_path, {
            "subcommand": "wpeg-gap", "seed": 3, "trials": 20,
            "params": {"levels": levels}}, tag=f"{levels}.json")[1].read_text())
            for levels in (8, 10 ** 8)]
        for report in reports:
            del report["manifest"]["params"], report["results"]["params"]["levels"]
        assert reports[0] == reports[1]

    def test_integral_floats_still_read_as_integers(self, capsys):
        assert exit_code({"subcommand": "gl", "seed": 0, "trials": 1,
                          "params": {"n": 4.0}}) == 0

    @given(small_manifests())
    @settings(max_examples=250, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_valid_manifests_never_exit_four(self, body):
        jsonschema.validate(body, cli._load_schema())
        assert exit_code(body) in (0, 3)


class TestGlBatchedPredictor:
    """gl asks its noisy predictor once per batch; every trial's candidate
    list equals the one the per-query predictor gave, with one
    rng.random() per query."""

    @pytest.mark.parametrize("n,noise", [(6, 0.3), (8, 0.4), (5, 0.0)])
    def test_candidate_lists_equal_scalar_predictor(self, tmp_path, monkeypatch,
                                                    n, noise):
        trials = 12
        got = []
        decode = gf2.gl_decode
        monkeypatch.setattr(gf2, "gl_decode",
                            lambda *args: got.append(decode(*args)) or got[-1])
        body = {"subcommand": "gl", "seed": 9, "trials": trials,
                "params": {"n": n, "noise": noise}}
        assert run_to_file(tmp_path, body)[0] == 0
        monkeypatch.undo()
        want = []
        for i in range(trials):
            rng = cli.child_rng(9, "gl", i)
            secret = tuple(int(b) for b in rng.integers(0, 2, size=n))

            def predictor(query, rng=rng, secret=secret):
                bit = int(gf2.inner_product(secret, query))
                if noise and rng.random() < noise:
                    bit ^= 1
                return bit

            want.append(gf2.gl_decode(predictor, n, 0.5 - noise, rng))
        assert got == want


SCHEMA = cli._load_schema()
_FIELDS = SCHEMA["properties"]
_ENUM_VALUES = [v for f in _FIELDS.values() for v in f.get("enum", [])]
# every integer bound, one either side of it, and the same as floats
_NEAR_BOUNDS = sorted({bound + d for f in _FIELDS.values()
                       for bound in (f.get("minimum"), f.get("maximum"))
                       if bound is not None for d in (-1, 0, 1)})
_EDGE_VALUES = (_NEAR_BOUNDS + [float(b) for b in _NEAR_BOUNDS] + _ENUM_VALUES
                + ["xml", "", "Entropy", None, True, False, math.inf, -math.inf, 0.5])
_JSON_SCALARS = (st.sampled_from(_EDGE_VALUES) | st.integers(-3, 3) | st.floats()
                 | st.text(max_size=3))
_JSON_VALUES = (_JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=3)
                | st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=2))


@st.composite
def manifest_bodies(draw):
    """Top-level manifests over the schema's names and a few unknown keys.
    Three bodies in four start with both required fields, a valid
    subcommand and a seed near its bounds, so that errors below the top
    level are drawn often too."""
    body = {}
    if draw(st.integers(0, 3)):
        body = {"subcommand": draw(st.sampled_from(_FIELDS["subcommand"]["enum"])),
                "seed": draw(st.sampled_from(_NEAR_BOUNDS + [7, 2.0, 0.5, 2.0 ** 64]))}
    keys = st.sampled_from(sorted(_FIELDS) * 3 + ["bogus", "Seed", "a", "zz"])
    body.update(draw(st.dictionaries(keys, _JSON_VALUES, max_size=4)))
    return body


def assert_validated_as_jsonschema_would(body):
    """A body jsonschema accepts resolves to a manifest; any other exits 2
    with jsonschema.validate's message as the detail."""
    try:
        jsonschema.validate(body, SCHEMA)
    except jsonschema.ValidationError as exc:
        want = exc.message
    else:
        want = None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.json"
        path.write_text(json.dumps(body))
        if want is None:
            cli._resolve(cli._parser().parse_args(["--manifest", str(path)]))
            return
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["--manifest", str(path)]) == 2
    assert json.loads(out.getvalue())["detail"] == want


class TestValidatorBuiltOnce:
    """The schema interpreter reports what jsonschema.validate would, and
    refuses a schema keyword it does not interpret."""

    @pytest.mark.parametrize("body", [
        {"subcommand": "entropy"},
        {"subcommand": "nope", "seed": 0},
        {"subcommand": "gl", "seed": -1, "trials": 0},
        {"subcommand": "gl", "seed": 0, "colour": "red", "format": "xml"},
        {"subcommand": "gl", "seed": 0, "params": [1], "workers": 0},
        {"subcommand": 3, "seed": "x", "out": 5},
    ])
    def test_error_message_matches_validate(self, body):
        assert_validated_as_jsonschema_would(body)

    @given(manifest_bodies())
    @settings(max_examples=400, deadline=None, database=None)
    def test_corpus_matches_validate(self, body):
        assert_validated_as_jsonschema_would(body)

    @pytest.mark.parametrize("schema", [
        {"type": "object", "pattern": "^m"},
        {"properties": {"seed": {"type": "integer", "multipleOf": 2}}},
        {"additionalProperties": {"type": "string"}},
        {"properties": {"seed": {"type": "int"}}},
        {"properties": {"seed": {"enum": [0, 1]}}},
    ])
    def test_unsupported_schema_refused(self, schema, monkeypatch):
        monkeypatch.setattr(cli, "_load_schema", lambda: schema)
        cli._schema.cache_clear()
        try:
            with pytest.raises(ValueError, match="manifest schema"):
                cli._schema()
        finally:
            cli._schema.cache_clear()


class TestModuleEntryPoint:
    """python -m qclab.cli runs main() and exits with its code; importing
    the module loads no jsonschema."""

    @staticmethod
    def python(*argv, cwd):
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                              capture_output=True, timeout=120)

    def run_module(self, *argv, cwd):
        return self.python("-m", "qclab.cli", *argv, cwd=cwd)

    def test_import_leaves_jsonschema_unloaded(self, tmp_path):
        proc = self.python("-c", "import sys, qclab.cli; print(sorted("
                           "m for m in sys.modules if m.startswith('jsonschema')))",
                           cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == b"[]"

    def test_missing_seed_exits_two(self, tmp_path):
        m = write_manifest(tmp_path, {"subcommand": "entropy"})
        proc = self.run_module("--manifest", m, cwd=tmp_path)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"] == "validation"

    def test_report_matches_in_process(self, tmp_path, capsys):
        m = write_manifest(tmp_path, {"subcommand": "entropy", "seed": 5})
        proc = self.run_module("--manifest", m, cwd=tmp_path)
        assert proc.returncode == 0
        assert cli.main(["--manifest", m]) == 0
        assert proc.stdout == capsys.readouterr().out.encode()
