#!/usr/bin/env python3
"""Print the SHA-256 of every output file a fixed set of CLI runs writes.

    python3 scripts/output_digests.py > digests.txt

Runs through ``goaltensor.cli.main`` (the package under ``src/`` next to
this directory):

* ``gap`` on the bundled scenario's 30-cell grid, and on generated 4x3x6
  documents 0-5 (``perfbench/generate.py``) at the cells pS = 0.6 and 1.0,
  CS = 0.5;
* ``compare --include-classic`` with ``jesp`` and with ``brute``
  (``compare.csv`` and ``decomp.csv``);
* ``solve`` with ``brute``, ``jesp`` and ``rvi-fixed-decision`` (``report.txt``,
  ``policy.json``);
* ``sweep`` of each swept family, and ``simulate`` of the co-designed pair
  and each family (``trace.csv``; uniform period 4, age threshold 3), over
  20,000 slots.

Each output line is ``<sha256>  <run>/<file>``.  Running it on two commits
and diffing the lines shows which outputs a change moved; every CSV, report
and policy file is meant to be byte-identical for a fixed input.  Takes
about 20 seconds on one core.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as the benchmark runs, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from generate import large_document  # noqa: E402
from goaltensor.cli import main  # noqa: E402

BUNDLED = ROOT / "scenarios" / "default.json"
HORIZON = "20000"
GENERATED = range(6)


def runs(work):
    """(run name, CLI arguments) for every run, outputs under ``work``."""
    yield "gap-bundled", ["gap", "--scenario", BUNDLED]
    for gen in GENERATED:
        path = work / f"large-{gen}.json"
        path.write_text(json.dumps(large_document(gen)))
        yield f"gap-large-{gen}", ["gap", "--scenario", path,
                                   "--grid", "ps=0.6,1.0;cs=0.5"]
    for algorithm in ("jesp", "brute"):
        yield f"compare-{algorithm}", ["compare", "--scenario", BUNDLED,
                                       "--include-classic", "--algorithm", algorithm]
        yield f"solve-{algorithm}", ["solve", "--scenario", BUNDLED,
                                     "--algorithm", algorithm]
    yield "solve-rvi-fixed-decision", ["solve", "--scenario", BUNDLED,
                                       "--algorithm", "rvi-fixed-decision"]
    for family in ("uniform", "age", "change", "aoii"):
        yield f"sweep-{family}", ["sweep", "--scenario", BUNDLED, "--families", family,
                                  "--horizon", HORIZON]
    for policy, param in (("codesign", None), ("uniform", "4"), ("age", "3"),
                          ("change", None), ("aoii", None), ("mse", None)):
        argv = ["simulate", "--scenario", BUNDLED, "--policy", policy, "--horizon", HORIZON]
        yield f"simulate-{policy}", argv + (["--param", param] if param else [])


def main_digests():
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, argv in runs(work):
            out = work / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([str(a) for a in argv + ["--out", out]])
            if code != 0:
                raise SystemExit(f"{name}: exited with {code}")
            for path in sorted(out.iterdir()):
                if path.name != "manifest.json":        # carries timestamps
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{digest}  {name}/{path.name}", flush=True)


if __name__ == "__main__":
    main_digests()
