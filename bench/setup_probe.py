"""Set-up cost of a fresh process, and the design pipeline it runs.

Run as a script, this times `import heli` and the build of the default
`SimArtifacts` (trim -> linearize -> synthesize -> observer), which every
`heli simulate` and `heli compare` pays before its first step, and prints
both, and their sum at the reference speed of gauge.py, as one JSON line.  Imported as a module it only defines the pipeline,
so the benchmark and the probe build artifacts the same way.
"""
import json
import sys
import time
from pathlib import Path


def design(params, cfg):
    """trim -> linearize -> synthesize -> observer, as `heli synthesize`."""
    import heli.hinf
    import heli.observer
    import heli.trim

    trim = heli.trim.find_trim(params)
    plant = heli.trim.linearize(params, trim)
    result, search, _ = heli.hinf.synthesize(plant, cfg.weights,
                                             tol=cfg.gamma_tol,
                                             margin=cfg.gamma_margin)
    observer = heli.observer.design_reduced_observer(plant, cfg.observer_poles)
    return trim, plant, result, search, observer


def default_artifacts(cfg):
    """The `SimArtifacts` a scenario command builds from a toolkit config."""
    import heli

    trim, _, result, search, observer = design(cfg.params, cfg)
    artifacts = heli.SimArtifacts(trim=trim, synthesis=result,
                                  observer=observer, pid_gains=cfg.pid,
                                  outer_gains=cfg.outer)
    return artifacts, search


def main() -> int:
    from gauge import SpeedGauge

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    with SpeedGauge() as gauge:
        t0 = time.perf_counter()
        import heli.config
        t1 = time.perf_counter()
        default_artifacts(heli.config.ToolkitConfig())
        t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "artifacts_s": t2 - t1,
                      "setup_s": gauge.scaled(t0, t2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
