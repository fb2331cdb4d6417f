#!/usr/bin/env python3
"""Print the SHA-256 of every output file a fixed set of CLI runs writes.

    python3 scripts/output_digests.py > digests.txt

Runs through ``goaltensor.cli.main`` (the package under ``src/`` next to
this directory):

* ``gap`` on the bundled scenario's 30-cell grid, on the permuted grid with
  repeated values pS = 0.6, 1.0, 0.2, 1.0 and CS = 10, 0 (and ``compare
  --include-classic --algorithm brute`` there), and on generated 4x3x6
  documents 0-5 (``perfbench/generate.py``) at the cells pS = 0.6 and 1.0,
  CS = 0.5;
* ``compare --include-classic`` with ``jesp`` and with ``brute``
  (``compare.csv`` and ``decomp.csv``);
* ``compare --include-classic`` and ``gap`` on a copy of the bundled
  scenario whose solver runs jesp with two restarts;
* ``solve`` with ``brute``, ``jesp`` and ``rvi-fixed-decision`` (``report.txt``,
  ``policy.json``), and ``solve --algorithm brute`` on generated document 0
  (N = 48: every candidate solved, in policy-iteration batches of up to
  ``solvers.BRUTE_CHUNK``; its ``report.txt`` holds ``iterations``,
  ``residual`` and ``multichain_candidates``), and ``compare --include-classic
  --algorithm brute`` there at pS = 0.6, CS = 0.5 (one cell at N = 48 under
  the baselines' floor), and the same on generated document 3, where jesp's
  floor sits farthest below the optimum;
* ``sweep`` of each swept family, and ``simulate`` of the co-designed pair
  and each family (``trace.csv``; uniform period 4, age threshold 3), over
  20,000 slots;
* ``simulate`` of the change-aware rule on generated document 0 over 20,000
  slots, whose goal-cost columns take about three times as many distinct
  values as the bundled scenario's (21 and 40 against at most 7 and 14).

Each output line is ``<sha256>  <run>/<file>``.  Every CSV, report and
policy file is meant to be byte-identical for a fixed input, so the lines of
two commits show which outputs a change moved:

    python3 scripts/output_digests.py --check digests.txt

runs the same set on this checkout and prints each output whose digest
differs from the saved list (or that only one side has), then exits 1 if
any did and 0 if none did.  Takes about 4 seconds on two cores and 5 on
one (brute force screens most decision tables before solving them, and a
one-cell search raises its floor by the screen's lower bounds).
"""

import argparse
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
    # grid values out of order and repeated: brute force's dominance order
    # starts at the grid's fourth and eighth cell (largest pS, smallest CS)
    yield "gap-bundled-permuted", ["gap", "--scenario", BUNDLED,
                                   "--grid", "ps=0.6,1.0,0.2,1.0;cs=10,0"]
    # the same grid under compare's floors, the best stationary baselines
    yield "compare-brute-permuted", ["compare", "--scenario", BUNDLED, "--include-classic",
                                     "--algorithm", "brute",
                                     "--grid", "ps=0.6,1.0,0.2,1.0;cs=10,0"]
    for gen in GENERATED:
        path = work / f"large-{gen}.json"
        path.write_text(json.dumps(large_document(gen)))
        yield f"gap-large-{gen}", ["gap", "--scenario", path,
                                   "--grid", "ps=0.6,1.0;cs=0.5"]
    restarts = work / "restarts.json"
    document = json.loads(BUNDLED.read_text())
    document.setdefault("solver", {})["restarts"] = 2
    restarts.write_text(json.dumps(document))
    yield "compare-restarts", ["compare", "--scenario", restarts, "--include-classic"]
    yield "gap-restarts", ["gap", "--scenario", restarts]
    for algorithm in ("jesp", "brute"):
        yield f"compare-{algorithm}", ["compare", "--scenario", BUNDLED,
                                       "--include-classic", "--algorithm", algorithm]
        yield f"solve-{algorithm}", ["solve", "--scenario", BUNDLED,
                                     "--algorithm", algorithm]
    yield "solve-rvi-fixed-decision", ["solve", "--scenario", BUNDLED,
                                       "--algorithm", "rvi-fixed-decision"]
    yield "solve-brute-large-0", ["solve", "--scenario", work / "large-0.json",
                                  "--algorithm", "brute"]
    for gen in (0, 3):
        yield f"compare-brute-large-{gen}", ["compare", "--scenario", work / f"large-{gen}.json",
                                             "--include-classic", "--algorithm", "brute",
                                             "--grid", "ps=0.6;cs=0.5"]
    for family in ("uniform", "age", "change", "aoii"):
        yield f"sweep-{family}", ["sweep", "--scenario", BUNDLED, "--families", family,
                                  "--horizon", HORIZON]
    for policy, param in (("codesign", None), ("uniform", "4"), ("age", "3"),
                          ("change", None), ("aoii", None), ("mse", None)):
        argv = ["simulate", "--scenario", BUNDLED, "--policy", policy, "--horizon", HORIZON]
        yield f"simulate-{policy}", argv + (["--param", param] if param else [])
    yield "simulate-large-0", ["simulate", "--scenario", work / "large-0.json",
                               "--policy", "change", "--horizon", HORIZON]


def digests():
    """``<sha256>  <run>/<file>`` for every output file, in run order."""
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
                    yield f"{digest}  {name}/{path.name}"


def _by_file(lines):
    return {name: digest for digest, name in (line.split(None, 1) for line in lines
                                              if line.strip())}


def moved(saved, current):
    """Lines of digest list ``current`` that differ from ``saved``, both lists of
    ``<sha256>  <run>/<file>`` lines: a changed digest as ``changed <file>:
    <saved> -> <current>``, a file only one list names as ``added`` or
    ``missing``."""
    before, after = _by_file(saved), _by_file(current)
    lines = []
    for name, digest in after.items():
        if name not in before:
            lines.append(f"added {name}: {digest}")
        elif before[name] != digest:
            lines.append(f"changed {name}: {before[name]} -> {digest}")
    lines += [f"missing {name}: {digest}" for name, digest in before.items() if name not in after]
    return lines


def main_digests(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--check", metavar="FILE", type=Path,
                        help="compare with a digest list this script printed before: print "
                             "each output that moved and exit 1 if any did")
    args = parser.parse_args(argv)
    if args.check is None:
        for line in digests():
            print(line, flush=True)
        return 0
    saved = args.check.read_text().splitlines()
    lines = moved(saved, list(digests()))
    for line in lines:
        print(line)
    if not lines:
        print(f"all {len(_by_file(saved))} digests unchanged")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main_digests())
