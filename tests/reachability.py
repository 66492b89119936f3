"""Which functions of `src/heli` the command line never enters.

Runs `heli.cli.main` for each command of `cli_golden.COMMANDS`, all in this
one process in the repository's root under `sys.setprofile`, with `heli`
imported after the profile is set, so that what runs at import counts.  It
then prints every function and method defined in `src/heli/*.py` whose code
was never entered, as `module.qualname  path:line`.  Lambdas,
comprehensions and the methods `dataclasses` and `NamedTuple` generate are
not listed.

A body that runs only in a child made by `os.fork()` (the half of
`ScenarioLog.to_csv` its child formats, the run `compare_controllers` hands
its child) is entered in that child, which this profile cannot see, so it
is listed although the commands run it.

    python tests/reachability.py

It is for information: the exit code is 1 only when a command exits with
another code than `cli_golden.json` pins for it (1 for the two error-path
commands, 0 for the rest), and it stops, as `cli_golden.py` does, on numpy
or scipy versions other than the table's.  It needs Python 3.11 or later
(`co_qualname`).  pytest does not collect this file (it is not named
test_*.py); the 25 commands take ~50 s under the profile on a 2-vCPU host.
"""
import contextlib
import io
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(TESTS)]

from cli_golden import COMMANDS, pinned_digests  # noqa: E402  (no heli)


def defined_functions(package: Path) -> dict:
    """(path, qualname, first line) -> module name, for every named
    function or method in the package's source files."""
    found = {}
    for path in sorted(package.glob("*.py")):
        module = f"{package.name}.{path.stem}".removesuffix(".__init__")
        todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if not code.co_name.startswith("<"):
                found[str(path), code.co_qualname, code.co_firstlineno] = module
    return found


def main() -> int:
    entered = set()
    pinned = pinned_digests()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    failed = []
    sys.setprofile(profile)
    try:
        from heli.cli import main as heli_main
        with tempfile.TemporaryDirectory() as scratch, contextlib.chdir(ROOT):
            for k, args in enumerate(COMMANDS):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    status = heli_main([*args, "--out", f"{scratch}/{k}"])
                command = " ".join(args)
                if status != pinned[f"{command} | exit"]:
                    failed.append(f"{command} (exit {status})")
    finally:
        sys.setprofile(None)

    seen = {(str(Path(c.co_filename).resolve()), c.co_qualname,
             c.co_firstlineno) for c in entered}
    never = sorted((path, line, qualname, module)
                   for (path, qualname, line), module
                   in defined_functions(SRC / "heli").items()
                   if (path, qualname, line) not in seen)
    print(f"{len(never)} functions in src/heli never entered by the "
          f"{len(COMMANDS)} commands of cli_golden.COMMANDS (a body run only "
          "in a forked child is listed too: this profile cannot see it):")
    for path, line, qualname, module in never:
        print(f"  {module}.{qualname}  "
              f"{Path(path).relative_to(SRC.parent)}:{line}")
    for command in failed:
        print(f"exit code not the pinned one: heli {command}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
