"""Golden sha256 digests: one scenario run, the default design, and every
file `heli linearize` and `heli synthesize` write.

A change to any bit of these outputs fails here.  The digests were taken
with the numpy and scipy versions in `VERSIONS`; other versions may round
differently for reasons outside heli, so there every test fails with a
message that names both version sets.  A change that moves bits on purpose
re-pins `GOLDEN` in the same diff and lists each changed entry in
CHANGES.md; `PYTHONPATH=src python tests/test_golden.py` prints the table
for the code at hand.
"""
import contextlib
import hashlib
import io
import tempfile
from importlib.metadata import version
from pathlib import Path

import numpy as np
import pytest

from heli.cli import main

VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}

LOG_ARRAYS = ("t", "states", "inputs", "wind", "att_ref", "estimates",
              "sat_flags")

GOLDEN = {
    "log/t": "2b5230fd6c4a07b6975f611ae2be774e77140b69e988abfbbddfab77f1b92c41",
    "log/states": "6289b8ff0a29f6e0c304a3866603c52d708b0597d6f2e77ec2139100f9b215ad",
    "log/inputs": "fb3c0302b52327d90983e0e510e29b68e3e2337025d5880313d64c9310403dcb",
    "log/wind": "8b2e9488e317c009f242525928073631af5184cb2906689dbc248be69bca5ab2",
    "log/att_ref": "9cc0e7985d7a393239dc724fdf04ed6ac8da34d329e53a5e396f166d05450c73",
    "log/estimates": "f75b2fd973b4138b722f9ef0b4838a3a8414a416c26a7f9f0d75e83601d74d2c",
    "log/sat_flags": "f36b6132e8e86597ba0ec0e7ebfabb2bf5c5e216e5f38b21189617779bbb2eae",
    "design/P": "a26b23d3ff645ef6341ddb3b3d92ccf67474ecc7211cda16caea1b1e2206a8ae",
    "design/F": "68e72ba2f1dc4ef6a14fa549c496f4e4fe9b4136f7812a7c6e40584bcc76c429",
    "design/G": "829c3c0af932c22266c95cf95123f74c40f13e9885e857506299581933bfbbcd",
    "design/gamma_star": "dc0fc23c9ee1487f613cb28f319296427be8a4fc85aff04c9275c0be210127d6",
    "design/gamma_used": "00f9cb06dcd533a74480997b949c65d939062cbec85095ff36194c349773d654",
    "design/gammas": "26098a2948049e95fd683b31aed8f0bfcddbc7a46a4f565e94848cc079e356e3",
    "design/verdicts": "b1a4bfdf99a8ac248f731ba8b034b08551943863823851c02e149a88caa5f6e5",
    "linearize/A.csv": "ce86f9a4ffd39ec32c5f17f0919fc7da418b537c38da6ca6f45aba0d6c940738",
    "linearize/B.csv": "6fe3dc155a4738e7f29bd2814be763f25b0462ee5e7ea63fe0141db07fec13b1",
    "linearize/E.csv": "5c5ed9a8c2956800fde2ce7b6af6f5973ffac001004302729d83b95eb038c566",
    "linearize/trim_inputs.csv": "f18974f995654906402bab39c6475a13241e15d0ff6efd91f65780f2c9ebe89e",
    "linearize/trim_report.txt": "770c602f078fe34f1077acdbfa286fcbcc97edd638a56dba661be0cab6709abf",
    "linearize/trim_state.csv": "eea70d18bcd54a3fb2dcf333b246d838a811e09d457f1ae566d3f7cf54c6c162",
    "synthesize/F.csv": "50801b08a667ed3d8dab737d4658aeee61eebdc158fa34ab06b837976d79263b",
    "synthesize/G.csv": "016abc9574108a6873e0ac725d03bce00d96794350b933ceb2b1eec5d41f53ea",
    "synthesize/P.csv": "29b9fb7efc1e94d6ce80a10593cac5406407c4ed5ff23bc5169e766f9deba623",
    "synthesize/observer_A.csv": "f8fcce5398b0163673313dd2a1f240f9ff7a746fe4fc188a3ea52ee5b71b0ce6",
    "synthesize/observer_B.csv": "ff422e77e382cb4368f92b06479f76347c5e2d37bf4ebcd6947ab23104482a74",
    "synthesize/observer_H.csv": "e9f3f28151b753b449b8d9d2c1ba2d0c1555495aa5a143e783c7f8b08b38b84e",
    "synthesize/observer_K.csv": "703d22c03d5c2903634fcf627fcd4ac2543845395fd90f58588c3955e51cc99a",
    "synthesize/synthesis_report.txt": "e1863a98f38abc982f9be8205bd3c6d1d7b0dc0fcfadd63a63bc29bca6b531cd",
}


def _versions() -> dict:
    return {name: version(name) for name in VERSIONS}


def _digest(values) -> str:
    """sha256 of an array's dtype, shape and bytes."""
    a = np.ascontiguousarray(values)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def log_digests(log) -> dict:
    return {f"log/{name}": _digest(getattr(log, name)) for name in LOG_ARRAYS}


def design_digests(result, search) -> dict:
    return {
        "design/P": _digest(result.riccati.p),
        "design/F": _digest(result.f),
        "design/G": _digest(result.g),
        "design/gamma_star": _digest(search.gamma_star),
        "design/gamma_used": _digest([result.gamma, result.gamma]),
        "design/gammas": _digest(np.asarray(search.gammas)),
        "design/verdicts": _digest(np.frombuffer(search.verdicts, np.uint8)),
    }


def cli_digests(command: str, out: Path) -> dict:
    """Run `heli <command> --out <out>` and digest every file it wrote."""
    assert main([command, "--out", str(out)]) == 0
    return {f"{command}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def _expected(prefix: str) -> dict:
    return {key: value for key, value in GOLDEN.items()
            if key.startswith(prefix + "/")}


@pytest.fixture(autouse=True)
def same_versions():
    here = _versions()
    if here != VERSIONS:
        pytest.fail(f"golden digests were taken with {VERSIONS}; this is "
                    f"{here}: compare on the pinned versions or re-pin GOLDEN")


def test_scenario_log_arrays(hover_climb):
    _, log, _ = hover_climb
    assert log_digests(log) == _expected("log")


def test_design(synthesis):
    result, search, _ = synthesis
    assert design_digests(result, search) == _expected("design")


@pytest.mark.parametrize("command", ("linearize", "synthesize"))
def test_cli_files(command, tmp_path):
    assert cli_digests(command, tmp_path) == _expected(command)


if __name__ == "__main__":
    from heli import build_design, builtin_scenario, run_scenario
    from heli.config import ToolkitConfig

    cfg = ToolkitConfig()
    _, artifacts, search, _ = build_design(cfg)
    log, _ = run_scenario(builtin_scenario("paper-hover-climb", seed=2026),
                          cfg.params, artifacts)
    table = {**log_digests(log), **design_digests(artifacts.synthesis, search)}
    for command in ("linearize", "synthesize"):
        with tempfile.TemporaryDirectory() as out, \
                contextlib.redirect_stdout(io.StringIO()):
            table.update(cli_digests(command, Path(out)))
    print(f"VERSIONS = {_versions()!r}\n\nGOLDEN = {{")
    for key, value in table.items():
        print(f'    "{key}": "{value}",')
    print("}")
