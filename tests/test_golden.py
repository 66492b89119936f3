"""Tier-1's slice of the CLI golden table, `tests/cli_golden.json`.

Four commands pin the paper's result: the linear plant (`linearize`), the
H-infinity design and its observer (`synthesize`), the gamma search
(`gamma-search`) and the hover flight the design flies (`simulate` of
paper-hover-climb under hinf, seed 2026).  Each runs through
`cli_golden.run`, and its exit code and the sha256 of its stdout, stderr
and every file it writes must equal that command's entries in the table.
The CSVs write every float as its shortest round-trip `repr`, so they pin
the bits of P, F, G, the gamma probes and the scenario log.  gamma* and the
gamma used, which the files print to 6 digits, are pinned through the
probes (`test_design`), and the flag bits the hover flight never sets
through README's bit layout (`test_flag_bits`).

This file holds no digest: `python tests/cli_golden.py --write` re-pins the
table, and `python tests/cli_golden.py` checks all of its commands.
"""
import pytest

import cli_golden
from heli.config import ToolkitConfig
from heli.state import (
    SAT_DCOL,
    SAT_DLAT,
    SAT_DLON,
    SAT_DPED,
    SAT_FLAP,
    SAT_GYRO,
    SAT_TILT,
)

SLICE = {
    "linearize": ("linearize",),
    "synthesize": ("synthesize",),
    "gamma-search": ("gamma-search",),
    "simulate": ("simulate", "--scenario", "paper-hover-climb",
                 "--seed", "2026", "--controller", "hinf"),
}


@pytest.fixture(scope="module", autouse=True)
def pinned():
    """The table's digests, after the version check `cli_golden` makes."""
    return cli_golden.pinned_digests()


@pytest.mark.parametrize("args", SLICE.values(), ids=SLICE)
def test_cli_files(args, pinned, tmp_path):
    assert args in cli_golden.COMMANDS
    prefix = " ".join(args) + " | "
    assert cli_golden.run(args, tmp_path) == {
        key: value for key, value in pinned.items() if key.startswith(prefix)}


def test_design(synthesis):
    # gamma* is the smallest feasible probe, whose bits gamma_trace.csv
    # pins, and the gamma used is the margin above it
    result, search, _ = synthesis
    margin = ToolkitConfig().gamma_margin
    assert search.gamma_star == min(g for g, ok, _ in search.trace if ok)
    assert result.gamma == search.gamma_star * (1.0 + margin)


def test_flag_bits():
    # the sat_flags column's bit layout, as README documents it: the hover
    # flight sets bit 8 alone, so its CSV pins no other bit's value
    assert (SAT_DLAT, SAT_DLON, SAT_DPED, SAT_DCOL, SAT_FLAP, SAT_TILT,
            SAT_GYRO) == (1, 2, 4, 8, 16, 32, 64)
