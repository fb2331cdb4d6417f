"""goaltensor benchmark: one seeded workload through ``goaltensor.cli.main``.

    python3 perfbench/run.py --workload exact-default --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  The last line
of standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the interpreter,
numpy, scipy, the BLAS build, the CPU count and the wall-clock figures.
Times in the metrics are reference seconds (see ``speed.py``).  With ``--trace 0`` the
metrics are the end-to-end ones; ``--trace 1`` runs one round untraced, then
the same round traced, and reports the per-layer metrics.  See README.md.
"""

import os
import sys
import time

# pinned before numpy loads: one process, one BLAS/OpenMP thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import traceback
from pathlib import Path

import tracing
from speed import SpeedProbe
from workloads import WORKLOADS, run_cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
SETUP_PROBES = 20
END_TO_END_UNITS = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def process_age():
    """Seconds since this process started (clock-tick resolution)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as fh:
        uptime = float(fh.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(),
            "threads": os.environ["OPENBLAS_NUM_THREADS"]}


class Runner:
    """Runs rounds of one workload and tallies work, ops and failures."""

    def __init__(self, workload, reference, cli, speed):
        # the CLI module, not its main: tracing rebinds cli.main
        self.workload, self.reference, self.cli = workload, reference, cli
        self.speed = speed
        self.attempted = self.failed = 0
        self.clean = True

    def run_round(self, index, tracer=None):
        """Run one round; per command: (work done, reference seconds, wall seconds)."""
        timings = []
        for position, command in enumerate(self.workload.round(index)):
            if tracer is not None:
                tracer.op = f"round{index}.{position}"
            self.attempted += command.ops
            mark = self.speed.mark()
            started = time.perf_counter()
            try:
                code = run_cli(self.cli.main, command.argv)
            except (Exception, SystemExit):
                traceback.print_exc()
                code = None
            wall = time.perf_counter() - started
            timings.append((command.work, wall * self.speed.factor(mark), wall))
            failed = command.ops if code != 0 else self.check(command)
            self.failed += failed
            self.clean = self.clean and code == 0 and failed == 0
        return timings

    def check(self, command):
        try:
            got = self.workload.read(command)
        except (OSError, ValueError, KeyError):
            traceback.print_exc()
            return command.ops
        want = self.reference.get(command.key)
        if want is None:
            print(f"no reference for {self.workload.name} {command.key}", file=sys.stderr)
            return command.ops
        failed = self.workload.failed(command, got, want)
        if failed:
            print(f"{self.workload.name} {command.key}: {failed} ops differ from the "
                  f"reference", file=sys.stderr)
        return failed


def measure(args, run_dir, import_s, reference, cli, speed):
    """Set up, then run rounds; returns (extra info, metrics, runner)."""
    workload = WORKLOADS[args.workload](ROOT, run_dir, args.seed)
    # the imports ran before the timer started: a burst of probes prices them
    first = speed.mark()
    speed.burst(SETUP_PROBES)
    setup_wall = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.prepare()
        workload.warm_up(cli.main)
        setup_wall.append(time.perf_counter() - started)
    setup_wall_s = import_s + statistics.median(setup_wall)
    setup_s = setup_wall_s * speed.factor(first)
    runner = Runner(workload, reference, cli, speed)

    if args.trace:
        untraced_s = sum(ref for _, ref, _ in runner.run_round(0))
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        try:
            traced_s = sum(ref for _, ref, _ in runner.run_round(0, tracer))
        finally:
            tracing.uninstall(patches)
        pairs = sum(c.pairs for c in workload.round(0))
        tracer.write(run_dir.parent / f"spans-{args.workload}-{args.seed}.jsonl")
        return {}, tracing.layer_metrics(tracer, pairs, traced_s - untraced_s), runner

    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < args.seconds:
        rounds.append(runner.run_round(len(rounds)))
    # every round holds the same list of commands: the median time of each
    # command across rounds filters out short bursts of load
    work = sum(w for w, _, _ in rounds[0])
    ref_s, wall_s = (sum(statistics.median(r[j][k] for r in rounds)
                         for j in range(len(rounds[0]))) for k in (1, 2))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": setup_s, "work_per_s": work / ref_s, "peak_rss_mb": peak_mb}
    info = {"wall_clock": {"setup_s": setup_wall_s,
                           "work_per_s": work / wall_s, "rounds": len(rounds)}}
    return info, {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}, runner


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "goaltensor" / "__init__.py").is_file():
        print(f"no goaltensor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import goaltensor.cli
    import_s = process_age()

    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    build = ROOT / ".bench_build"
    run_dir = build / f"perfbench-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        with SpeedProbe() as speed:
            info, metrics, runner = measure(args, run_dir, import_s, reference,
                                            goaltensor.cli, speed)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, **info}))
    print(json.dumps({
        "correct": runner.clean,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
