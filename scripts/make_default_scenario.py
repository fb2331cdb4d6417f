#!/usr/bin/env python3
"""Regenerate the bundled reference scenario file."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from goaltensor.scenario import default_document, default_scenario, load_scenario, save_scenario

out = Path(__file__).resolve().parents[1] / "scenarios" / "default.json"
out.parent.mkdir(exist_ok=True)
save_scenario(default_document(), out)
# round-trip check: the file reloads to the model the package builds in memory
loaded, bundled = load_scenario(out).model, default_scenario().model
if not (np.array_equal(loaded.kernels, bundled.kernels)
        and np.array_equal(loaded.action_cost, bundled.action_cost)):
    sys.exit(f"{out} does not reload to the bundled scenario's model")
print(f"wrote {out}")
