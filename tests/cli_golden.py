"""Byte-identity gate for the command line.

Runs 23 `heli` commands, each in a fresh interpreter in the repository's
root with its own output directory: trim, linearize, synthesize (also with
`--config configs/default.cfg`, which must write what the defaults write),
gamma-search, `simulate --seed 2026` for every built-in scenario under each
controller, `compare --seed 2026` for every built-in scenario, `simulate`
of the scenario file `tests/golden_scenario.cfg`, which sets every key the
scenario-file reader knows except `att_ref`, which a scenario with
references refuses, and `synthesize --config
tests/rank_deficient_weights.cfg`, whose input weights fail the rank test
of D: an error path, exit 1 with one line on stderr.  It compares the exit
code and the sha256 of every file a command writes, of its stdout and of
its stderr against the table in `cli_golden.json`, with the output
directory replaced by `<out>` in stdout and stderr.

    python tests/cli_golden.py            # exit 1 on any difference
    python tests/cli_golden.py --write    # re-pin the table

The table records the numpy and scipy versions it was taken with; on other
versions the script fails with a message that names both.  pytest does not
collect this file (it is not named test_*.py): the 23 commands take ~35 s
on a 2-vCPU host.
"""
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "cli_golden.json"
SCENARIOS = ("gust-attitude-hold", "hover-hold", "paper-hover-climb",
             "step-offset")
COMMANDS = (
    ("trim",), ("linearize",), ("synthesize",),
    ("synthesize", "--config", "configs/default.cfg"), ("gamma-search",),
    *(("simulate", "--scenario", s, "--seed", "2026", "--controller", c)
      for s in SCENARIOS for c in ("hinf", "pid", "open_loop")),
    *(("compare", "--scenario", s, "--seed", "2026") for s in SCENARIOS),
    ("simulate", "--scenario", "tests/golden_scenario.cfg"),
    ("synthesize", "--config", "tests/rank_deficient_weights.cfg"),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(args: tuple, out: Path) -> dict:
    """Exit code and digests of one `heli` command writing into `out`,
    keyed by "<command> | <what>"."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-m", "heli.cli", *args,
                           "--out", str(out)], env=env, capture_output=True,
                          cwd=ROOT)
    tag = str(out).encode()
    command = " ".join(args)
    return {
        f"{command} | exit": proc.returncode,
        f"{command} | stdout": _sha(proc.stdout.replace(tag, b"<out>")),
        f"{command} | stderr": _sha(proc.stderr.replace(tag, b"<out>")),
        **{f"{command} | {path.name}": _sha(path.read_bytes())
           for path in sorted(out.iterdir())},
    }


def main(argv) -> int:
    versions = {name: version(name) for name in ("numpy", "scipy")}
    digests = {}
    with tempfile.TemporaryDirectory() as scratch:
        for k, args in enumerate(COMMANDS):
            out = Path(scratch) / str(k)
            out.mkdir()
            digests.update(run(args, out))
    if argv[1:] == ["--write"]:
        TABLE.write_text(json.dumps({"versions": versions,
                                     "digests": digests}, indent=1) + "\n",
                         encoding="utf-8")
        print(f"wrote {len(digests)} digests to {TABLE}")
        return 0
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    if table["versions"] != versions:
        print(f"the table was taken with {table['versions']}; this is "
              f"{versions}: compare on the pinned versions or re-pin it",
              file=sys.stderr)
        return 1
    want = table["digests"]
    bad = sorted(key for key in want.keys() | digests.keys()
                 if want.get(key) != digests.get(key))
    for key in bad:
        print(f"differs: heli {key}", file=sys.stderr)
    print(f"{len(COMMANDS)} commands, {len(digests)} digests, "
          f"{len(bad)} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
