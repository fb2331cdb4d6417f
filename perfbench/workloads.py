"""The benchmark workloads: inputs made from the seed, the CLI commands of one
round, and the checks of every command's outputs against ``reference.json``.

Each workload draws its inputs from a fixed pool whose outputs were recorded
by ``make_reference.py``; the workload seed chooses and orders the pool
entries.  A round is a list of CLI commands.  Rounds that are run again
repeat the same pool entries, so the amount of work in a round does not
depend on where a run happens to stop.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from generate import large_document

TOLERANCE_EPSILONS = 10     # cost tolerance, in units of the scenario's solver epsilon


@dataclass
class Command:
    argv: list              # goaltensor CLI arguments
    key: str                # entry of reference.json holding this command's outputs
    out: Path               # output directory given to the CLI
    work: int               # units counted by work_per_s (grid cells or slots)
    ops: int                # cells or replicas attempted
    pairs: int              # (cell, algorithm) pairs the command solves


def run_cli(main, argv):
    """Run ``goaltensor.cli.main`` with its stdout swallowed; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main([str(a) for a in argv])


def _cell_key(p_success, sampling_cost):
    return f"{float(p_success)!r}:{float(sampling_cost)!r}"


def _grid_keys(command):
    """Cell keys of the command's ``--grid ps=...;cs=...`` argument."""
    grid = command.argv[command.argv.index("--grid") + 1]
    ps, cs = (part.split("=")[1].split(",") for part in grid.split(";"))
    return [_cell_key(p, c) for p in ps for c in cs]


def _grid(p_values, c_values):
    return f"ps={','.join(map(repr, p_values))};cs={','.join(map(repr, c_values))}"


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    name = ""

    def __init__(self, root: Path, run_dir: Path, seed: int):
        self.root, self.run_dir, self.seed = root, run_dir, seed

    def prepare(self):
        """Write the input files for this seed (repeatable)."""
        raise NotImplementedError

    def warm_up(self, main):
        """One untimed call that exercises the path of the timed commands."""
        scenario = self.round(0)[0].argv[2]
        run_cli(main, ["solve", "--algorithm", "jesp", "--scenario", scenario,
                       "--out", self.run_dir / "warm-up"])

    def round(self, index) -> list:
        raise NotImplementedError

    def pool(self) -> list:
        """Every command whose outputs ``reference.json`` records."""
        raise NotImplementedError

    def read(self, command: Command) -> dict:
        """The command's outputs, keyed as in ``reference.json``."""
        raise NotImplementedError

    def failed(self, command: Command, got: dict, want: dict) -> int:
        """Number of the command's ops whose outputs do not match the reference."""
        raise NotImplementedError

    def _write(self, name, document):
        path = self.run_dir / name
        path.write_text(json.dumps(document, indent=2) + "\n")
        return path

    def _write_bundled(self):
        """Copy the bundled scenario into the run; returns its document."""
        document = json.loads((self.root / "scenarios" / "default.json").read_text())
        self.scenario = self._write("default.json", document)
        return document

    def _bundled_grid(self):
        """Bundled scenario, with the grid values in an order drawn from the seed."""
        self.tol = _tolerance(self._write_bundled())
        rng = np.random.default_rng(self.seed)
        self.p_values = [float(p) for p in rng.permutation(self.P_VALUES)]
        self.c_values = [float(c) for c in rng.permutation(self.C_VALUES)]


def _tolerance(document):
    return TOLERANCE_EPSILONS * document.get("solver", {}).get("epsilon", 1e-6)


class _ExactGrid(Workload):
    """``goaltensor gap``: brute force plus jesp per grid cell."""

    def _gap(self, scenario, key, out, p_values, c_values):
        cells = len(p_values) * len(c_values)
        return Command(["gap", "--scenario", scenario, "--out", out,
                        "--grid", _grid(p_values, c_values)],
                       key=key, out=out, work=cells, ops=cells, pairs=2 * cells)

    def read(self, command):
        return {_cell_key(r["pS"], r["CS"]): {"theta_bf": float(r["theta_bf"]),
                                              "theta_jesp": float(r["theta_jesp"])}
                for r in _rows(command.out / "gap.csv")}

    def failed(self, command, got, want):
        failed = 0
        for key in _grid_keys(command):
            row, ref = got.get(key), want.get(key)
            if (row is None or ref is None
                    or abs(row["theta_bf"] - ref["theta_bf"]) > self.tol
                    or row["theta_jesp"] < row["theta_bf"] - self.tol):
                failed += 1
        return failed


class ExactDefault(_ExactGrid):
    name = "exact-default"
    P_VALUES = (0.2, 0.6, 1.0)
    C_VALUES = (0.0, 10.0)

    def prepare(self):
        self._bundled_grid()

    def round(self, index):
        return [self._gap(self.scenario, "grid", self.run_dir / "gap",
                          self.p_values, self.c_values)]

    def pool(self):
        return [self._gap(self.scenario, "grid", self.run_dir / "gap",
                          list(self.P_VALUES), list(self.C_VALUES))]


class ExactLarge(_ExactGrid):
    name = "exact-large"
    POOL = 6                        # generated scenarios, all solved in every round
    CELLS = ((0.6, 0.5), (1.0, 0.5))

    def prepare(self):
        documents = {gen: large_document(gen) for gen in range(self.POOL)}
        self.tol = _tolerance(documents[0])
        self.paths = {gen: self._write(f"large-{gen}.json", doc)
                      for gen, doc in documents.items()}
        self.order = [int(g) for g in np.random.default_rng(self.seed).permutation(self.POOL)]

    def _command(self, gen, cell):
        p_success, sampling_cost = cell
        return self._gap(self.paths[gen], f"large-{gen}", self.run_dir / f"gap-{gen}",
                         [p_success], [sampling_cost])

    def round(self, index):
        # the seed orders the scenarios and so decides which cell each gets;
        # alternating the cells keeps the same mix of them in every round
        return [self._command(gen, self.CELLS[j % 2]) for j, gen in enumerate(self.order)]

    def pool(self):
        return [self._command(gen, cell) for gen in range(self.POOL) for cell in self.CELLS]


class CompareDefault(Workload):
    name = "compare-default"
    P_VALUES = (0.2, 0.4, 0.6, 0.8, 1.0)
    C_VALUES = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
    COSTS = ("sampling", "actuation", "inherent")

    def prepare(self):
        self._bundled_grid()

    def _compare(self, p_success, c_values):
        out = self.run_dir / "compare"
        return Command(["compare", "--scenario", self.scenario, "--out", out,
                        "--include-classic", "--algorithm", "jesp",
                        "--grid", _grid([p_success], c_values)],
                       key="grid", out=out, work=len(c_values), ops=len(c_values),
                       pairs=len(c_values))

    def round(self, index):
        return [self._compare(p, self.c_values) for p in self.p_values]

    def pool(self):
        return [self._compare(p, list(self.C_VALUES)) for p in self.P_VALUES]

    def read(self, command):
        cells = {}
        for r in _rows(command.out / "compare.csv"):
            cells.setdefault(_cell_key(r["pS"], r["CS"]), {})[r["policy"]] = float(r["cost"])
        for r in _rows(command.out / "decomp.csv"):
            cell = cells.setdefault(_cell_key(r["pS"], r["CS"]), {})
            cell.update({name: float(r[name]) for name in self.COSTS})
        return cells

    def failed(self, command, got, want):
        failed = 0
        for key in _grid_keys(command):
            row, ref = got.get(key, {}), want.get(key, {})
            if not ref or row.keys() != ref.keys() or any(abs(row[k] - ref[k]) > self.tol
                                                          for k in ref):
                failed += 1
        return failed


class _Simulation(Workload):
    POOL = 16                       # simulation seeds with recorded digests

    def prepare(self):
        self._write_bundled()
        self.order = [int(i) for i in np.random.default_rng(self.seed).permutation(self.POOL)]

    def warm_up(self, main):
        run_cli(main, ["simulate", "--scenario", self.scenario, "--out",
                       self.run_dir / "warm-up", "--policy", "uniform", "--param", "2",
                       "--horizon", "2000", "--seed", "1"])

    def round(self, index):
        return self._commands(self.order[index % self.POOL])

    def pool(self):
        return [c for entry in range(self.POOL) for c in self._commands(entry)]

    def failed(self, command, got, want):
        return 0 if got == want else command.ops


class SimSweep(_Simulation):
    name = "sim-sweep"
    HORIZON = 10_000
    # (families, sweep grid points); every point runs the scenario's 3 seeds
    FAMILIES = (("uniform", 20), ("age", 51), ("change,aoii", 2))

    def _commands(self, entry):
        commands = []
        for families, points in self.FAMILIES:
            out = self.run_dir / f"sweep-{families}"
            commands.append(Command(
                ["sweep", "--scenario", self.scenario, "--out", out, "--families", families,
                 "--horizon", self.HORIZON, "--seed", 1000 + 3 * entry],
                key=f"{entry}:{families}", out=out, work=3 * points * self.HORIZON,
                ops=3 * points, pairs=0))
        return commands

    def read(self, command):
        return {"sweep.csv": _digest(command.out / "sweep.csv")}


class SimTrace(_Simulation):
    name = "sim-trace"
    HORIZON = 25_000
    POLICIES = (("uniform", "4"), ("age", "3"), ("change", None), ("aoii", None))

    def _commands(self, entry):
        commands = []
        for policy, param in self.POLICIES:
            out = self.run_dir / f"simulate-{policy}"
            argv = ["simulate", "--scenario", self.scenario, "--out", out,
                    "--policy", policy, "--horizon", self.HORIZON, "--seed", 5000 + entry]
            if param is not None:
                argv += ["--param", param]
            commands.append(Command(argv, key=f"{entry}:{policy}", out=out,
                                    work=self.HORIZON, ops=1, pairs=0))
        return commands

    def read(self, command):
        return {"trace.csv": _digest(command.out / "trace.csv")}


WORKLOADS = {w.name: w for w in (ExactDefault, ExactLarge, CompareDefault, SimSweep, SimTrace)}
