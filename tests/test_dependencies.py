"""The package has no runtime dependencies: nothing in it loads numpy or scipy.

Importing the package and running every command, `count` included, leaves
both out of `sys.modules`, and `dataclasses` and `inspect` too: the records
are NamedTuples, which cost a fraction of a dataclass's import.  numpy is a
test dependency only.  Within the package, each command loads only its own
engine: `import lrcone.cli` loads the horizon model and the leaf `couplings`
module, and the series engine (`pathcount`, `lrbound`, `velocity`) only when
a command runs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lrcone import couplings, lrbound, velocity

SRC = Path(__file__).resolve().parent.parent / "src"

IMPORT_CHECK = """\
import os, sys
import lrcone.cli, lrcone.velocity, lrcone.cosmo, lrcone.lrbound, lrcone.pathcount
from lrcone import cli

def heavy():
    return sorted(
        m for m in sys.modules
        if m.split('.')[0] in ('numpy', 'scipy') or m in ('dataclasses', 'inspect')
    )

assert not heavy(), heavy()
out = sys.argv[1]
runs = [
    ['bound', '--t', '0.5,1.0', '--d', '2,4'],
    ['velocity', '--dmin', '4', '--dmax', '10', '--dstep', '2', '--epsilon', '1e-6'],
    ['scan-dim', '--num', '4'],
    ['horizon', '--steps', '5'],
    ['horizon', '--steps', '5', '--format', 'json'],
]
for k, argv in enumerate(runs):
    code = cli.main([*argv, '--output', os.path.join(out, f'run{k}')])
    assert code == cli.EXIT_OK, (argv, code)
# The paper's formula disagrees with the dynamic program at this size.
code = cli.main(['count', '--nmax', '12', '--output', os.path.join(out, 'count')])
assert code == cli.EXIT_MISMATCH, code
assert not heavy(), heavy()
"""


def run_fresh(script: str, *args: str) -> None:
    """Run `script` in a fresh interpreter on the source tree; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_no_command_loads_numpy_or_scipy(tmp_path):
    run_fresh(IMPORT_CHECK, str(tmp_path))
    assert len(list(tmp_path.iterdir())) >= 6


COMMAND_IMPORTS = """\
import json, os, sys

def loaded():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'lrcone')

import lrcone.cli
front = ['lrcone', 'lrcone.cli', 'lrcone.cosmo', 'lrcone.couplings']
assert loaded() == front, loaded()
out, runs = sys.argv[1], json.loads(sys.argv[2])
for k, (argv, expected_code, engine) in enumerate(runs):
    code = lrcone.cli.main([*argv, '--output', os.path.join(out, f'run{k}')])
    assert code == expected_code, (argv, code)
    assert loaded() == sorted(front + engine), (argv, loaded())
"""

# Each run: (argv, exit code, lrcone modules the command adds to the front end).
# count exits 2 at this size: the paper's formula disagrees with the dynamic program.
COMMAND_RUNS = {
    "horizon and scan-dim": [
        (["horizon", "--steps", "5"], 0, []),
        (["horizon", "--steps", "5", "--format", "json"], 0, []),
        (["scan-dim", "--num", "4"], 0, []),
    ],
    "count": [(["count", "--nmax", "12"], 2, ["lrcone.pathcount"])],
    "bound": [
        (["bound", "--t", "0.5,1.0", "--d", "2,4"], 0, ["lrcone.lrbound", "lrcone.pathcount"]),
    ],
    "velocity": [
        (
            ["velocity", "--dmin", "4", "--dmax", "10", "--epsilon", "1e-6"],
            0,
            ["lrcone.lrbound", "lrcone.pathcount", "lrcone.velocity"],
        ),
    ],
}


@pytest.mark.parametrize("runs", COMMAND_RUNS.values(), ids=COMMAND_RUNS.keys())
def test_each_command_loads_only_its_engine(tmp_path, runs):
    run_fresh(COMMAND_IMPORTS, str(tmp_path), json.dumps(runs))


def test_numerical_failures_share_one_base_and_one_couplings_record():
    assert issubclass(lrbound.ConvergenceError, couplings.NumericalFailure)
    assert issubclass(velocity.ThresholdUnreachableError, couplings.NumericalFailure)
    assert lrbound.Couplings is couplings.Couplings
