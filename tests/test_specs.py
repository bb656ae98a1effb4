"""Every shipped campaign spec under specs/ runs through the CLI.

Each spec is shrunk to a seconds-long run by replacing values only: every
key stays, so a misspelt or retired key in a shipped spec exits 2 here.
"""

import json
from pathlib import Path

import pytest

from seisrate.cli import main

ROOT = Path(__file__).resolve().parents[1]
SPECS = sorted((ROOT / "specs").glob("*.json"))

SHRUNK = {"replications": 1, "budgets": [[3, 4]], "budget": [3, 4],
          "num_gps": 4, "num_gws": 2, "gp_counts": [2, 4], "gw_counts": [1, 2]}
OUTPUTS = {"run": {"traces.csv", "summary.csv"},
           "gw-sizing": {"gw_sizing.csv", "gw_sizing_supported.json"}}


def command_for(doc):
    return "gw-sizing" if "gp_counts" in doc else "run"


def test_specs_ship():
    assert {p.name for p in SPECS} >= {"small_network.json", "gw_sizing.json"}


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_shrunken_spec_runs(tmp_path, path):
    doc = json.loads(path.read_text())
    assert doc["output_dir"].startswith("results/")
    shrunk = {key: SHRUNK.get(key, value) for key, value in doc.items()}
    shrunk["output_dir"] = str(tmp_path / "out")
    spec = tmp_path / path.name
    spec.write_text(json.dumps(shrunk))
    command = command_for(doc)
    assert main(["experiment", command, str(spec)]) == 0
    assert {p.name for p in (tmp_path / "out").iterdir()} == OUTPUTS[command]


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_readme_names_the_run_command(path):
    doc = json.loads(path.read_text())
    readme = (ROOT / "README.md").read_text()
    command = f"seisrate experiment {command_for(doc)} specs/{path.name}"
    assert command in readme
    assert f"`{doc['output_dir']}/`" in readme
