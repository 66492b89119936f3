"""Byte-identity gate for the command line: `cli_golden.json` is the one
record of pinned output bits.

Runs 25 `heli` commands, each in a fresh interpreter in the repository's
root with its own output directory: trim, linearize, synthesize (also with
`--config configs/default.cfg`, which must write what the defaults write,
and with `--plant tests/golden_plant`, the five plant files `heli
linearize` writes, which must write what the recomputed plant gives),
gamma-search, `simulate --seed 2026` for every built-in scenario under each
controller, `compare --seed 2026` for every built-in scenario, `simulate`
of the scenario file `tests/golden_scenario.cfg`, which sets every key the
scenario-file reader knows except `att_ref`, which a scenario with
references refuses, and two error paths, exit 1 with one line on stderr:
`synthesize --config tests/rank_deficient_weights.cfg`, whose input weights
fail the rank test of D, and `synthesize --config
tests/zero_lock_number.cfg`, whose blade Lock number the flap coupling
divides by.  It compares the exit code and the sha256 of every file a
command writes, of its stdout and of its stderr against the table, with the
output directory replaced by `<out>` in stdout and stderr.

    python tests/cli_golden.py            # exit 1 on any difference
    python tests/cli_golden.py --write    # re-pin the table

The table records the numpy and scipy versions it was taken with; on other
versions `pinned_digests` fails with a message that names both.  pytest
does not collect this file (it is not named test_*.py): the 25 commands
take ~35 s on a 2-vCPU host.  `tests/test_golden.py` checks the slice of
four commands that pins the design and the hover flight, through `run` and
`pinned_digests`, in tier-1.
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
    ("synthesize", "--config", "configs/default.cfg"),
    ("synthesize", "--plant", "tests/golden_plant"), ("gamma-search",),
    *(("simulate", "--scenario", s, "--seed", "2026", "--controller", c)
      for s in SCENARIOS for c in ("hinf", "pid", "open_loop")),
    *(("compare", "--scenario", s, "--seed", "2026") for s in SCENARIOS),
    ("simulate", "--scenario", "tests/golden_scenario.cfg"),
    ("synthesize", "--config", "tests/rank_deficient_weights.cfg"),
    ("synthesize", "--config", "tests/zero_lock_number.cfg"),
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


def _versions() -> dict:
    return {name: version(name) for name in ("numpy", "scipy")}


def pinned_digests() -> dict:
    """The table's digests, keyed as `run` keys them; exits with a message
    naming both version sets when numpy or scipy is not the version the
    table was taken with, since other versions may round differently for
    reasons outside heli."""
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    if table["versions"] != _versions():
        raise SystemExit(f"the table was taken with {table['versions']}; "
                         f"this is {_versions()}: compare on the pinned "
                         f"versions or re-pin it")
    return table["digests"]


def main(argv) -> int:
    write = argv[1:] == ["--write"]
    want = None if write else pinned_digests()
    digests = {}
    with tempfile.TemporaryDirectory() as scratch:
        for k, args in enumerate(COMMANDS):
            out = Path(scratch) / str(k)
            out.mkdir()
            digests.update(run(args, out))
    if write:
        TABLE.write_text(json.dumps({"versions": _versions(),
                                     "digests": digests}, indent=1) + "\n",
                         encoding="utf-8")
        print(f"wrote {len(digests)} digests to {TABLE}")
        return 0
    bad = sorted(key for key in want.keys() | digests.keys()
                 if want.get(key) != digests.get(key))
    for key in bad:
        print(f"differs: heli {key}", file=sys.stderr)
    print(f"{len(COMMANDS)} commands, {len(digests)} digests, "
          f"{len(bad)} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
