"""The package imports scipy only where a Gaussian family needs it.

``import scipy.special`` costs about as much as the rest of the package's
import and more than a small ``bounds`` report, so it is deferred to the
first Gaussian draw.  Each check runs in a fresh
interpreter, since this test session has long imported scipy itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kronchaos

SRC = Path(kronchaos.__file__).resolve().parent.parent

# Prints, after each step, the scipy modules the interpreter has loaded.
SCRIPT = """
import json, sys, tempfile

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

steps = {}
import kronchaos, kronchaos.cli, kronchaos.bounds
steps["import"] = scipy_modules()
with tempfile.TemporaryDirectory() as cache:
    assert kronchaos.cli.main(["bounds", "--dims", "2,2", "--cache", cache]) == 0
    steps["bounds"] = scipy_modules()
    assert kronchaos.cli.main(["verify", "decoupling", "--dims", "2,2", "--dist", "rademacher",
                               "--samples", "1000", "--cache", cache]) == 0
    steps["rademacher decoupling"] = scipy_modules()
from kronchaos.montecarlo import FactorSampler, distribution
FactorSampler(kronchaos.Dims([2, 2]), distribution("gaussian"), 0, 0).batch(0, 10)
steps["gaussian draw"] = scipy_modules()
print(json.dumps(steps))
"""


@pytest.fixture(scope="module")
def loaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_importing_the_package_loads_no_scipy(loaded):
    assert loaded["import"] == []


@pytest.mark.parametrize("step", ["bounds", "rademacher decoupling"])
def test_runs_without_gaussian_entries_load_no_scipy(loaded, step):
    assert loaded[step] == []


def test_a_gaussian_draw_loads_scipy_special(loaded):
    assert "scipy.special" in loaded["gaussian draw"]
