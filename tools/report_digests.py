"""Print the sha256 of each qclab report a fixed set of manifests produces.

Usage: python3 tools/report_digests.py SRC

SRC is the directory that holds the `qclab` package to run (a checkout's
`src`).  The manifests are the ten subcommands at their default parameters
for seeds 0 and 7, the csv reports of `entropy` and `efi-sweep` for the
same seeds, and the five hash-pipeline manifests of `perfbench/workloads.py`
(read, never changed) at their benchmark trial counts for the same seeds.
Then come `efi-sweep` manifests with non-uniform weights, one per seed:
uniform weights over 2^w atoms give the same report under any labelling of
the atoms, so only these show a change to which bit string labels an atom.
Last come `concentration` manifests at shapes the defaults do not reach,
for each seed: support 2 out to power 300 (counts past int64), support 16
to power 4 and support 64 to power 2.
Running this on two checkouts and diffing the output shows whether a change
moved any report byte.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SEEDS = (0, 7)
SKEWED_WEIGHTS = [1, 2, 3]
# (support, t_max) of the concentration manifests beyond the defaults
SPECTRUM_SHAPES = ((2, 300), (16, 4), (64, 2))
REPO = Path(__file__).resolve().parent.parent


def manifests():
    """(label, manifest body) pairs in print order."""
    sys.path.insert(0, str(REPO / "perfbench"))
    from workloads import PIPELINE

    from qclab.cli import DEFAULT_TRIALS

    for seed in SEEDS:
        for sub in sorted(DEFAULT_TRIALS):
            yield f"{sub} seed={seed}", {"subcommand": sub, "seed": seed}
        for sub in ("entropy", "efi-sweep"):
            yield f"{sub} csv seed={seed}", {"subcommand": sub, "seed": seed,
                                             "format": "csv"}
        for sub, (params, trials) in sorted(PIPELINE.items()):
            yield f"{sub} pipeline seed={seed}", {
                "subcommand": sub, "seed": seed, "params": params,
                "trials": trials, "workers": 1}
    for seed in SEEDS:
        yield f"efi-sweep weights={SKEWED_WEIGHTS} seed={seed}", {
            "subcommand": "efi-sweep", "seed": seed,
            "params": {"weights": SKEWED_WEIGHTS}}
    for seed in SEEDS:
        for support, t_max in SPECTRUM_SHAPES:
            yield f"concentration support={support} t_max={t_max} seed={seed}", {
                "subcommand": "concentration", "seed": seed,
                "params": {"support": support, "t_max": t_max}}


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    from qclab import cli

    with tempfile.TemporaryDirectory() as tmp:
        manifest, out = Path(tmp, "manifest.json"), Path(tmp, "report")
        for label, body in manifests():
            manifest.write_text(json.dumps(body))
            # cli reports its elapsed time on stderr; that is not the report
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["--manifest", str(manifest), "--out", str(out)])
            digest = hashlib.sha256(out.read_bytes()).hexdigest() if code == 0 else "-"
            print(f"{label} exit={code} {digest}")
            out.unlink(missing_ok=True)


if __name__ == "__main__":
    main(sys.argv[1:])
