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


def _after_fresh_import(code: str) -> str:
    """Stdout of `code` run in a new interpreter right after `import heli`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-c", "import sys, heli\n" + code],
                          env=env, check=True, capture_output=True,
                          text=True).stdout


def test_import_loads_no_public_scipy_subpackage():
    # LAPACK's dgees is loaded from scipy's extension file; `import
    # scipy.linalg` alone would add ~0.3 s and ~26 MB to every command
    out = _after_fresh_import(
        "print(' '.join(sorted(name for name, mod in sys.modules.items()\n"
        "    if name.startswith('scipy.') and name.count('.') == 1\n"
        "    and not name.split('.')[1].startswith('_')\n"
        "    and hasattr(mod, '__path__'))))\n")
    assert out.split() == []


def test_design_path_does_not_load_scipy_linalg():
    # what `heli synthesize` runs; only a scenario run needs the exponential,
    # so its extension file stays unloaded too
    out = _after_fresh_import(
        "from heli.config import ToolkitConfig\n"
        "cfg = ToolkitConfig()\n"
        "trim = heli.find_trim(cfg.params)\n"
        "plant = heli.linearize(cfg.params, trim)\n"
        "result, _, _ = heli.synthesize(plant, cfg.weights, tol=cfg.gamma_tol,\n"
        "                               margin=cfg.gamma_margin)\n"
        "heli.design_reduced_observer(plant, cfg.observer_poles)\n"
        "out_map = heli.build_output_map(cfg.weights)\n"
        "norm = heli.hinf_norm(plant.a + plant.b @ result.f, plant.e,\n"
        "                      out_map.c + out_map.d @ result.f)\n"
        "print(norm > 0.0, 'scipy.linalg' in sys.modules,\n"
        "      'scipy.linalg._matfuncs_expm' in sys.modules)\n")
    assert out.split() == ["True", "False", "False"]


def test_scenario_run_does_not_load_scipy_linalg():
    # the observer's exponential comes from scipy/linalg/_matfuncs_expm
    # alone; the package init added ~18 MB to a paper-hover-climb run's
    # peak RSS.  The file registers itself in sys.modules, so the first
    # check shows the run did load it.
    out = _after_fresh_import(
        "from dataclasses import replace\n"
        "params = heli.HelicopterParams()\n"
        "plant = heli.linearize(params, heli.find_trim(params))\n"
        "result, _, _ = heli.synthesize(plant)\n"
        "artifacts = heli.SimArtifacts(\n"
        "    trim=plant.trim, synthesis=result,\n"
        "    observer=heli.design_reduced_observer(plant))\n"
        "scenario = replace(heli.builtin_scenario('hover-hold'), duration=1.0,\n"
        "                   controller='hinf')\n"
        "log, _ = heli.run_scenario(scenario, params, artifacts)\n"
        "print(len(log.t), 'scipy.linalg._matfuncs_expm' in sys.modules,\n"
        "      'scipy.linalg' in sys.modules)\n")
    assert out.split() == ["501", "True", "False"]


def test_import_does_not_load_multiprocessing():
    # `compare_controllers` forks with `os.fork`; a process pool would add
    # `multiprocessing` and its imports to every command's start-up
    out = _after_fresh_import("print('multiprocessing' in sys.modules)\n")
    assert out.split() == ["False"]
