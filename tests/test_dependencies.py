"""The package has no runtime dependencies: nothing in it loads numpy or scipy.

Importing the package and running every command, `count` included, leaves
both out of `sys.modules`.  numpy is a test dependency only.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

IMPORT_CHECK = """\
import os, sys
import lrcone.cli, lrcone.velocity, lrcone.cosmo, lrcone.lrbound, lrcone.pathcount
from lrcone import cli

def heavy():
    return sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))

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


def test_no_command_loads_numpy_or_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CHECK, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.iterdir())) >= 6
