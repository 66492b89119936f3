"""The design pipeline: hover trim -> linearization -> H-infinity synthesis
-> reduced-order observer, from one `heli.config.ToolkitConfig`.

`build_design` is the one place these stages are chained with the settings
each takes from the configuration; the CLI and the tests call it.  The
linear model can instead be read back, bit for bit, from the CSV files
`heli linearize` writes (`PLANT_FILES`).
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError
from .hinf import synthesize
from .observer import design_reduced_observer
from .sim import SimArtifacts
from .state import (
    INPUT_LABELS,
    INPUT_LIMIT,
    MODEL_INPUT_LABELS,
    MODEL_STATE_LABELS,
    STATE_LABELS,
    WIND_LABELS,
)
from .trim import LinearPlant, TrimPoint, find_trim, linearize

# the files of a plant directory, in the order of A, B, E, the trim state
# and the trim inputs: name, column labels, row labels (None: one row)
PLANT_FILES = (
    ("A.csv", MODEL_STATE_LABELS, MODEL_STATE_LABELS),
    ("B.csv", MODEL_INPUT_LABELS, MODEL_STATE_LABELS),
    ("E.csv", WIND_LABELS, MODEL_STATE_LABELS),
    ("trim_state.csv", STATE_LABELS, None),
    ("trim_inputs.csv", INPUT_LABELS, None),
)
# largest hover residual a read trim point may have: `heli linearize` writes
# one below `trim.TRIM_TOL` (1e-10), a trim state rounded to 6 significant
# digits gives ~4e-6, and 0.3 rad added to phi gives 2.93
PLANT_TRIM_RESIDUAL = 1e-4


def _read_matrix_csv(path: Path, cols: tuple, rows) -> np.ndarray:
    """A matrix CSV labelled as `heli linearize` writes it: `cols` over the
    columns, `rows` down the rows (None: one unlabelled row).  A ConfigError
    names the file unless it is readable, so labelled, numeric and finite:
    a swapped file or a NaN would only fail later, inside synthesis."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.split(",") for line in map(str.strip, fh) if line]
    except OSError as exc:
        raise ConfigError(f"cannot read plant file: {exc}") from exc
    lead = [""] if rows else []
    if lines[:1] != [lead + list(cols)]:
        raise ConfigError(f"{path}: expected the column labels {','.join(cols)}")
    if rows and [line[0] for line in lines[1:]] != list(rows):
        raise ConfigError(f"{path}: expected the row labels {','.join(rows)}")
    try:
        values = [[float(v) for v in line[len(lead):]] for line in lines[1:]]
    except ValueError as exc:
        raise ConfigError(f"{path}: not a numeric CSV ({exc})") from exc
    n_rows = len(rows) if rows else 1
    if len(values) != n_rows or any(len(row) != len(cols) for row in values):
        raise ConfigError(f"{path}: expected a {n_rows}x{len(cols)} matrix")
    matrix = np.array(values)
    if not np.all(np.isfinite(matrix)):
        raise ConfigError(f"{path}: expected finite numbers")
    return matrix


def linear_plant(cfg, plant_dir=None) -> LinearPlant:
    """The linear design model: read from the CSV files `heli linearize`
    wrote to `plant_dir`, else trim -> linearize on `cfg.params`.  A read
    trim point whose hover residual under `cfg.params` is above
    `PLANT_TRIM_RESIDUAL` is no equilibrium, and raises a ConfigError that
    names its trim_state.csv."""
    if plant_dir is None:
        return linearize(cfg.params, find_trim(cfg.params))
    a, b, e, x, u = (_read_matrix_csv(Path(plant_dir) / name, cols, rows)
                     for name, cols, rows in PLANT_FILES)
    trim = TrimPoint.from_vectors(x[0], u[0], cfg.params)
    if not trim.residual <= PLANT_TRIM_RESIDUAL:
        raise ConfigError(
            f"{Path(plant_dir) / 'trim_state.csv'}: not a hover equilibrium "
            f"of these parameters (residual {trim.residual:.3g} > "
            f"{PLANT_TRIM_RESIDUAL:g})")
    return LinearPlant(a=a, b=b, e=e, trim=trim)


def build_design(cfg, plant_dir=None):
    """The design `cfg` describes: `(plant, artifacts, search, zeros)`.

    `plant` is `linear_plant(cfg, plant_dir)`; `artifacts` the `SimArtifacts`
    with its trim, the synthesis (`cfg.weights`, `gamma_tol`, `gamma_margin`),
    the observer (`cfg.observer_poles`), `cfg.pid` and `cfg.outer`; `search`
    and `zeros` as `heli.synthesize` returns them.  `cfg.validate()` runs
    first, so a setting no design can use raises a ConfigError naming it,
    and a trim input outside the servo range raises one naming its
    channel: no scenario can fly that trim."""
    cfg.validate()
    plant = linear_plant(cfg, plant_dir)
    for label, u in zip(INPUT_LABELS, plant.trim.inputs):
        if abs(u) > INPUT_LIMIT:
            raise ConfigError(f"hover trim needs {label} = {u:.3f}, outside "
                              f"the servo range ({-INPUT_LIMIT:g}, "
                              f"{INPUT_LIMIT:g})")
    result, search, zeros = synthesize(plant, cfg.weights, tol=cfg.gamma_tol,
                                       margin=cfg.gamma_margin)
    observer = design_reduced_observer(plant, cfg.observer_poles)
    artifacts = SimArtifacts(trim=plant.trim, synthesis=result,
                             observer=observer, pid_gains=cfg.pid,
                             outer_gains=cfg.outer)
    return plant, artifacts, search, zeros
