"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/make_reference.py [workload ...]

Runs every pool command of the named workloads (all by default) through
``goaltensor.cli.main`` and writes what each one produced into
``perfbench/reference.json``.  Run it only on a commit whose outputs are
known to be right; a change that means to alter outputs records that in its
own description.  Takes several minutes for the exact workloads.
"""

import json
import os
import shutil
import sys

from run import HERE, ROOT     # pins the BLAS threads before numpy loads
from workloads import WORKLOADS, run_cli


def main(names):
    sys.path.insert(0, str(ROOT / "src"))
    import goaltensor.cli

    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    run_dir = ROOT / ".bench_build" / f"reference-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        for name in names or sorted(WORKLOADS):
            workload = WORKLOADS[name](ROOT, run_dir, 0)
            workload.prepare()
            entries = {}
            for command in workload.pool():
                code = run_cli(goaltensor.cli.main, command.argv)
                if code != 0:
                    raise SystemExit(f"{name}: {command.argv} exited with {code}")
                entries.setdefault(command.key, {}).update(workload.read(command))
                print(f"{name} {command.key}", flush=True)
            reference[name] = entries
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
