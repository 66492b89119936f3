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
    # what `heli synthesize` runs: LAPACK's file is loaded, the package
    # is not
    out = _after_fresh_import(
        "from heli.config import ToolkitConfig\n"
        "cfg = ToolkitConfig()\n"
        "plant, artifacts, _, _ = heli.build_design(cfg)\n"
        "result = artifacts.synthesis\n"
        "out_map = heli.build_output_map(cfg.weights)\n"
        "norm = heli.hinf_norm(plant.a + plant.b @ result.f, plant.e,\n"
        "                      out_map.c + out_map.d @ result.f)\n"
        "print(norm > 0.0, *sorted(name for name in sys.modules\n"
        "                          if name.startswith('scipy.linalg')))\n")
    assert out.split() == ["True", "scipy.linalg._flapack"]


def test_scenario_run_does_not_load_scipy_linalg():
    # the observer's exponential is plain numpy, so LAPACK's file is the
    # only part of scipy.linalg a run loads; the package init added ~18 MB
    # to a paper-hover-climb run's peak RSS
    out = _after_fresh_import(
        "from dataclasses import replace\n"
        "from heli.config import ToolkitConfig\n"
        "cfg = ToolkitConfig()\n"
        "_, artifacts, _, _ = heli.build_design(cfg)\n"
        "scenario = replace(heli.builtin_scenario('hover-hold'), duration=1.0,\n"
        "                   controller='hinf')\n"
        "log, _ = heli.run_scenario(scenario, cfg.params, artifacts)\n"
        "print(len(log.t), *sorted(name for name in sys.modules\n"
        "                          if name.startswith('scipy.linalg')))\n")
    assert out.split() == ["501", "scipy.linalg._flapack"]


def test_import_does_not_load_multiprocessing():
    # `compare_controllers` forks with `os.fork`; a process pool would add
    # `multiprocessing` and its imports to every command's start-up
    out = _after_fresh_import("print('multiprocessing' in sys.modules)\n")
    assert out.split() == ["False"]


def test_only_the_two_configs_are_dataclasses():
    # building a dataclass's methods took 0.6-1.3 ms per class at import, a
    # NamedTuple ~0.08 ms: the records are NamedTuples, and only the two
    # configs that `dataclasses.replace` and the loaders rework stay
    # dataclasses
    out = _after_fresh_import(
        "import heli.config\n"
        "from dataclasses import is_dataclass\n"
        "print(*sorted(value.__name__ for name, module in list(sys.modules.items())\n"
        "              if name.split('.')[0] == 'heli'\n"
        "              for value in vars(module).values()\n"
        "              if isinstance(value, type) and value.__module__ == name\n"
        "              and is_dataclass(value)))\n")
    assert out.split() == ["ScenarioConfig", "ToolkitConfig"]


def test_import_does_not_load_configparser():
    # the config reader imports configparser when it reads a file, so a
    # command that reads none does not pay ~3 ms for it
    out = _after_fresh_import(
        "import heli.config\n"
        "print('configparser' in sys.modules)\n")
    assert out.split() == ["False"]
