"""End-to-end tests for the experiment runner.

Every invocation goes through cli.main with a real manifest file, so these
cover flag resolution, manifest validation, exit codes, and the byte-level
determinism contract in one place.
"""

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qclab import cli, dist, gf2, pseudoentropy, puzzles

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
        jsonschema.Draft202012Validator.check_schema(oracles.MANIFEST_SCHEMA)

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

    def test_undecodable_manifest_rejected(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"subcommand": "entropy", "seed": 1, "out": "\xe9"}')
        assert cli.main(["--manifest", str(path)]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "validation"
        assert err["detail"].startswith("manifest is not JSON: 'utf-8' codec")

    def test_workers_past_the_maximum_rejected(self):
        # rejected while resolving, before _run_trials starts a thread
        args = cli._parser().parse_args(["gl", "--seed", "1", "--trials", "100000",
                                         "--workers", "65"])
        with pytest.raises(ValueError, match=r"'workers' must lie in \[1, 64\], got 65"):
            cli._resolve(args)
        args.workers = 64
        assert cli._resolve(args).workers == 64

    def test_back_to_back_runs_match_separate_runs(self, capsys):
        # main builds its parser once; a run it rejects leaves nothing
        # behind for the next
        runs = [["entropy", "--seed", "1"],
                ["entropy", "--seed", "2", "--format", "xml"],
                ["commit-suite", "--seed", "4", "--format", "csv"],
                ["entropy"],
                ["entropy", "--seed", "1", "--format", "csv"]]

        def run(argv):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's own rejection
                code = exc.code
            out, err = capsys.readouterr()
            err = [line for line in err.splitlines()
                   if not line.startswith("elapsed ")]
            return code, out, err

        assert cli._parser() is cli._parser()
        back_to_back = [run(argv) for argv in runs]
        separate = []
        for argv in runs:
            cli._parser.cache_clear()
            separate.append(run(argv))
        assert [code for code, _, _ in back_to_back] == [0, 2, 0, 2, 0]
        assert "invalid choice: 'xml'" in back_to_back[1][2][-1]
        assert back_to_back == separate

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

    @pytest.mark.parametrize("noise", [0.49, 0.49999999999999994])
    def test_gl_tables_past_the_limit_name_noise_and_n(self, tmp_path, capsys,
                                                        noise):
        body = {"subcommand": "gl", "seed": 2, "trials": 5,
                "params": {"n": 6, "noise": noise}}
        code, out = run_to_file(tmp_path, body)
        assert code == 3 and not out.exists()
        detail = json.loads(capsys.readouterr().out)["detail"]
        assert detail.startswith(
            "parameters 'n' = 6 and 'noise' = {} need GL tables of".format(noise))
        assert "eps" not in detail

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

    @pytest.mark.parametrize("fixture", ["flat", "geometric", "two-level"])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("trials", [1, 200])
    def test_puzzle_report_equals_sampled_loop(self, tmp_path, fixture, seed, trials):
        body = {"subcommand": "puzzle", "seed": seed, "trials": trials,
                "params": {"fixture": fixture}}
        code, out = run_to_file(tmp_path, body)
        assert code == 0
        joint = puzzles.tabulated_puzzles()[fixture]
        want = oracles.puzzle_results(fixture, joint, seed, trials)
        # compared as text, so 1 and 1.0 differ
        assert (json.dumps(read_report(out)["results"], sort_keys=True)
                == json.dumps(want, sort_keys=True))

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
        # shadows still runs its trials through the worker pool
        body = {"subcommand": "shadows", "seed": 4, "trials": 16,
                "params": {"n": 2}}
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
                 "i_max"),
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


@pytest.mark.parametrize("sub", sorted(PARAM_KEYS))
def test_param_keys_are_what_each_runner_reads(sub, monkeypatch, capsys):
    # the fuzz test below accepts exit 3, so a key its runner no longer
    # reads would only turn its manifests into rejections; the runner's
    # own record of what it read through _param settles the list
    read = []
    runner = cli._RUNNERS[sub]

    def recording(m):
        read.append(m.read)  # filled in place as the runner reads
        return runner(m)

    monkeypatch.setitem(cli._RUNNERS, sub, recording)
    assert exit_code({"subcommand": sub, "seed": 0, "trials": 1}) == 0
    assert read == [set(PARAM_KEYS[sub])]


# parameters whose bounds cli._read checks, at a value past them
BOUNDED_AT_READ = [
    ("shadows", {"eps": -1.0}),
    ("efi-sweep", {"s_max": 1000000}),
    ("gl", {"noise": -1.0}),
    ("gl", {"noise": 0.5}),
    ("gl", {"n": 0}),
]


class TestBadParameters:
    """A manifest that passes oracles.MANIFEST_SCHEMA is either run or
    rejected as a parameter problem (exit 3); exit 4 is kept for bugs."""

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
        ("shadows", {"snapshots": 10 ** 12}),
        ("shadows", {"snapshot": 5}),
        ("gl", {"noise": 10 ** 400}),
        ("gl", {"n": 10 ** 400}),
        *BOUNDED_AT_READ,
    ])
    def test_rejected_with_exit_three(self, sub, params, capsys):
        assert exit_code({"subcommand": sub, "seed": 0, "params": params}) == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "parameter-rejection"
        if (sub, params) in BOUNDED_AT_READ:
            (name,) = params
            assert err["detail"].startswith("parameter {!r} must lie in".format(name))

    @pytest.mark.parametrize("sub,params", [
        ("shadows", {"snapshot": 5, "n": 2}),
        ("wpeg-gap", {"density_floor": "inf", "mass_ceiling": 0.25}),
        ("commit-suite", {"n": 2}),
    ])
    def test_unread_parameter_named_and_no_report(self, tmp_path, capsys, sub, params):
        body = {"subcommand": sub, "seed": 0, "trials": 1, "params": params}
        code, out = run_to_file(tmp_path, body)
        assert code == 3 and not out.exists()
        err = json.loads(capsys.readouterr().out)
        assert err["error"] == "parameter-rejection"
        unread = sorted(set(params) - set(PARAM_KEYS[sub]))
        assert err["detail"] == "{} takes no parameter {}".format(
            sub, ", ".join(map(repr, unread)))

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
        jsonschema.validate(body, oracles.MANIFEST_SCHEMA)
        assert exit_code(body) in (0, 3)


class TestGlBatchedPredictor:
    """gl asks the stacked kernel gf2.gl_vote once per batch of trials;
    every trial's candidate list equals oracles.gl_oracle's, which asks a
    predictor one query at a time with one rng.random() per query."""

    @pytest.mark.parametrize("n,noise", [(6, 0.3), (8, 0.4), (5, 0.0)])
    def test_candidate_lists_equal_scalar_predictor(self, tmp_path, monkeypatch,
                                                    n, noise):
        trials = 12
        got = []
        vote = gf2.gl_vote

        def spy(bases, predictor):
            out = vote(bases, predictor)
            # each trial's distinct candidates, in order of first appearance
            got.extend(list(dict.fromkeys(map(tuple, c))) for c in out[2].tolist())
            return out

        monkeypatch.setattr(gf2, "gl_vote", spy)
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

            want.append(oracles.gl_oracle(predictor, n, 0.5 - noise, rng))
        assert got == want


def run_results(body):
    """The results a manifest body's runner returns, run in process."""
    m = cli._manifest(body)
    results, _ = cli._RUNNERS[m.subcommand](m)
    return results


class TestBatchedRunnersMatchTrialLoops:
    """extractor and gl draw each trial from its own child_rng, in trial
    order, and compute a chunk of trials as one batch; their results equal
    the per-trial loops in oracles with ==, so no report byte moves."""

    @pytest.mark.parametrize("n", [0, 1, 4, 6, 8, 10])
    def test_extractor_equals_trial_loop(self, n):
        for seed in range(63):
            trials = 1 + seed % 5
            body = {"subcommand": "extractor", "seed": seed, "trials": trials,
                    "params": {"n": n}}
            assert run_results(body) == oracles.extractor_results(seed, n, trials)

    @pytest.mark.parametrize("n,trials", [(10, 130), (16, 2)])
    def test_extractor_chunks_equal_trial_loop(self, n, trials):
        # 64 trials to a chunk at n = 10, one at n = 16
        body = {"subcommand": "extractor", "seed": 3, "trials": trials,
                "params": {"n": n}}
        assert run_results(body) == oracles.extractor_results(3, n, trials)

    @pytest.mark.parametrize("n,noise", [(1, 0.0), (3, 0.2), (5, 0.0), (6, 0.3),
                                         (8, 0.4)])
    def test_gl_equals_trial_loop(self, n, noise):
        for seed in range(40):
            trials = 1 + seed % 3
            body = {"subcommand": "gl", "seed": seed, "trials": trials,
                    "params": {"n": n, "noise": noise}}
            assert run_results(body) == oracles.gl_results(seed, n, noise, trials)

    def test_gl_chunks_equal_trial_loop(self, monkeypatch):
        # two trials' tables to a chunk: chunks of 2, 2 and 1
        monkeypatch.setattr(gf2, "GL_TABLE_LIMIT", 2 * gf2.gl_sizes(6, 0.2)[1])
        body = {"subcommand": "gl", "seed": 11, "trials": 5,
                "params": {"n": 6, "noise": 0.3}}
        assert run_results(body) == oracles.gl_results(11, 6, 0.3, 5)


def traced_peak(body):
    """The traced allocation peak of one in-process run, after a one-trial
    warm-up has made what a first run makes once."""
    run_results({**body, "trials": 1})
    tracemalloc.start()
    try:
        run_results(body)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBatchedPeakMemory:
    """A batched runner holds one chunk of trials at a time, so its peak
    allocation does not grow with trials past one chunk."""

    def test_extractor_peak_flat_past_one_chunk(self):
        # 64 trials to a chunk at n = 10: a 512 KiB mass table
        body = {"subcommand": "extractor", "seed": 1, "trials": 64,
                "params": {"n": 10}}
        one = traced_peak(body)
        body["trials"] = 64 * 8
        assert traced_peak(body) < 1.1 * one

    def test_gl_peak_flat_past_one_chunk(self, monkeypatch):
        entries = gf2.gl_sizes(8, 0.2)[1]
        monkeypatch.setattr(gf2, "GL_TABLE_LIMIT", 16 * entries)
        body = {"subcommand": "gl", "seed": 1, "trials": 16,
                "params": {"n": 8, "noise": 0.3}}
        one = traced_peak(body)
        body["trials"] = 16 * 8
        assert traced_peak(body) < 1.1 * one


SCHEMA = oracles.MANIFEST_SCHEMA
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)
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


def assert_resolved_as_jsonschema_would(body):
    """cli._manifest rejects `body` (main exits 2) exactly when jsonschema
    rejects it, and resolves an accepted body to the body plus defaults,
    with each integral float read as an int."""
    if not VALIDATOR.is_valid(body):
        with pytest.raises(ValueError):
            cli._manifest(body)
        return
    m = cli._manifest(body)
    want = {"params": {}, "trials": cli.DEFAULT_TRIALS[body["subcommand"]],
            "workers": 1, "format": "json", **body}
    assert m.out == want.pop("out", None)
    assert m.embedded() == want
    assert all(type(getattr(m, f)) is int for f in ("seed", "trials", "workers"))


class TestValidatorBuiltOnce:
    """cli's field table accepts exactly the manifests jsonschema accepts
    under oracles.MANIFEST_SCHEMA, and names the first fault it finds."""

    @pytest.mark.parametrize("body,detail", [
        ({"subcommand": "entropy"}, "manifest field 'seed' is required"),
        ({"subcommand": "nope", "seed": 0},
         "manifest field 'subcommand' must be one of 'commit-suite', 'concentration', "
         "'core-lemma', 'efi-sweep', 'entropy', 'extractor', 'gl', 'puzzle', "
         "'shadows', 'wpeg-gap', got 'nope'"),
        ({"subcommand": "gl", "seed": -1, "trials": 0},
         "manifest field 'seed' must lie in [0, 18446744073709551615], got -1"),
        ({"subcommand": "gl", "seed": 0, "colour": "red", "format": "xml"},
         "unknown manifest field 'colour'"),
        ({"subcommand": "gl", "seed": 0, "params": [1], "workers": 0},
         "manifest field 'params' must be an object, got [1]"),
        ({"subcommand": 3, "seed": "x", "out": 5},
         "manifest field 'subcommand' must be a string, got 3"),
    ], ids=[f"body{i}" for i in range(6)])
    def test_error_message_matches_validate(self, body, detail, tmp_path, capsys):
        assert not VALIDATOR.is_valid(body)
        assert cli.main(["--manifest", write_manifest(tmp_path, body)]) == 2
        assert json.loads(capsys.readouterr().out) == {"error": "validation",
                                                       "detail": detail}

    @given(manifest_bodies())
    @settings(max_examples=400, deadline=None, database=None)
    def test_corpus_matches_validate(self, body):
        assert_resolved_as_jsonschema_would(body)

    def test_each_edge_value_alone_matches_validate(self):
        # one field set to one value on an otherwise valid manifest, so that
        # the value alone decides: every bound, one either side, every enum
        # entry and a value of each other JSON type, for every field
        for name in [*_FIELDS, "bogus"]:
            for value in _EDGE_VALUES + [[], {}]:
                assert_resolved_as_jsonschema_would(
                    {"subcommand": "gl", "seed": 7, name: value})


class TestModuleEntryPoint:
    """python -m qclab.cli runs main() and exits with its code; importing
    the module loads no jsonschema, which only the tests use, as the
    manifest oracle."""

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
