"""What `import heli` pulls in.

Every command and every run pays for the import, so a subpackage that
comes in with it adds to startup time and peak memory for all of them:
`scipy.signal` alone took ~0.75 s and ~48 MB when the observer still
imported it for `place_poles`.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_only_scipy_linalg():
    code = ("import sys, heli\n"
            "print(' '.join(sorted(name for name, mod in sys.modules.items()\n"
            "    if name.startswith('scipy.') and name.count('.') == 1\n"
            "    and not name.split('.')[1].startswith('_')\n"
            "    and hasattr(mod, '__path__'))))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["scipy.linalg"]
