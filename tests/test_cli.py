import numpy as np
import pytest

from heli.cli import main
from heli.config import ToolkitConfig
from heli.pipeline import linear_plant

from oracles import read_log_csv


def _read_matrix(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        labeled = header.startswith(",")
        for line in fh:
            cells = line.strip().split(",")
            if labeled:
                cells = cells[1:]
            rows.append([float(v) for v in cells])
    return np.array(rows)


class TestCli:
    def test_trim_writes_report(self, tmp_path, capsys):
        assert main(["trim", "--out", str(tmp_path)]) == 0
        report = (tmp_path / "trim_report.txt").read_text()
        assert "residual" in report
        state = _read_matrix(tmp_path / "trim_state.csv")
        assert state.shape == (1, 15)
        assert "trim residual" in capsys.readouterr().out

    def test_linearize_writes_labeled_matrices(self, tmp_path):
        assert main(["linearize", "--out", str(tmp_path)]) == 0
        a = _read_matrix(tmp_path / "A.csv")
        assert a.shape == (9, 9)
        header = (tmp_path / "A.csv").read_text().splitlines()[0]
        assert header == ",phi,theta,p,q,a_s,b_s,r,dped,psi"
        assert _read_matrix(tmp_path / "B.csv").shape == (9, 3)
        assert _read_matrix(tmp_path / "E.csv").shape == (9, 3)

    def test_synthesize_writes_gains_and_report(self, tmp_path):
        assert main(["synthesize", "--out", str(tmp_path)]) == 0
        assert _read_matrix(tmp_path / "F.csv").shape == (3, 9)
        assert _read_matrix(tmp_path / "G.csv").shape == (3, 3)
        assert _read_matrix(tmp_path / "P.csv").shape == (9, 9)
        assert _read_matrix(tmp_path / "observer_A.csv").shape == (3, 3)
        report = (tmp_path / "synthesis_report.txt").read_text()
        assert "gamma" in report
        assert "norm" in report

    def test_gamma_search_writes_trace(self, tmp_path, capsys):
        assert main(["gamma-search", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "gamma_trace.csv").read_text().splitlines()
        assert lines[0] == "gamma,feasible,reason"
        assert len(lines) > 10
        # gamma* is the smallest gamma the search found feasible
        rows = [line.split(",") for line in lines[1:]]
        smallest = min(float(g) for g, ok, _ in rows if ok == "1")
        out = capsys.readouterr().out
        assert out.startswith(f"gamma_star ~= {smallest:.6g} "
                              f"({len(rows)} evaluations)")

    @pytest.mark.parametrize("command, output", [
        ("synthesize", "F.csv"),
        ("gamma-search", "gamma_trace.csv"),
    ], ids=["synthesize", "gamma-search"])
    def test_synthesize_from_plant_csvs(self, tmp_path, command, output):
        lin = tmp_path / "lin"
        direct = tmp_path / "direct"
        from_csv = tmp_path / "from_csv"
        assert main(["linearize", "--out", str(lin)]) == 0
        assert main([command, "--out", str(direct)]) == 0
        assert main([command, "--plant", str(lin),
                     "--out", str(from_csv)]) == 0
        # full round-trip precision in the CSVs: identical designs
        assert ((direct / output).read_bytes()
                == (from_csv / output).read_bytes())

    def test_plant_csvs_reproduce_trim(self, tmp_path, trim):
        assert main(["linearize", "--out", str(tmp_path)]) == 0
        loaded = linear_plant(ToolkitConfig(), tmp_path).trim
        assert np.array_equal(loaded.state.as_vector(),
                              trim.state.as_vector())
        assert np.array_equal(loaded.inputs.as_vector(),
                              trim.inputs.as_vector())
        assert np.array_equal(loaded.y_trim, trim.y_trim)
        assert np.array_equal(loaded.h_out_trim, trim.h_out_trim)
        assert loaded.dped_prime == trim.dped_prime
        assert loaded.residual < 1e-8
        assert loaded.residual == trim.residual

    @pytest.mark.parametrize("damage, command", [
        *(pytest.param(damage, "synthesize", id=damage) for damage in (
            "missing-dir", "truncated-A", "unparsable-B", "short-trim-state",
            "long-trim-inputs", "nan-A", "inf-trim-state",
            "tilted-trim-state")),
        pytest.param("nan-A", "gamma-search", id="nan-A-gamma-search"),
    ])
    def test_bad_plant_dir_fails_with_one_line(self, tmp_path, capsys, damage,
                                               command):
        lin = tmp_path / "lin"
        assert main(["linearize", "--out", str(lin)]) == 0
        if damage == "missing-dir":
            lin = tmp_path / "absent"
        elif damage == "truncated-A":
            text = (lin / "A.csv").read_text()
            (lin / "A.csv").write_text(text[:len(text) // 2])
        elif damage == "unparsable-B":
            text = (lin / "B.csv").read_text().splitlines()
            text[2] = text[2].rsplit(",", 1)[0] + ",abc"
            (lin / "B.csv").write_text("\n".join(text) + "\n")
        elif damage == "short-trim-state":
            header, row = (lin / "trim_state.csv").read_text().splitlines()
            (lin / "trim_state.csv").write_text(
                header + "\n" + row.rsplit(",", 1)[0] + "\n")
        elif damage == "long-trim-inputs":
            header, row = (lin / "trim_inputs.csv").read_text().splitlines()
            (lin / "trim_inputs.csv").write_text(header + "\n" + row + ",0.0\n")
        elif damage == "nan-A":
            text = (lin / "A.csv").read_text().splitlines()
            text[3] = text[3].rsplit(",", 1)[0] + ",nan"
            (lin / "A.csv").write_text("\n".join(text) + "\n")
        elif damage == "tilted-trim-state":
            # 0.3 rad added to phi: every value is finite, but the point is
            # no hover equilibrium (residual 2.93)
            header, row = (lin / "trim_state.csv").read_text().splitlines()
            values = row.split(",")
            phi = header.split(",").index("phi")
            values[phi] = repr(float(values[phi]) + 0.3)
            (lin / "trim_state.csv").write_text(
                header + "\n" + ",".join(values) + "\n")
        else:  # pn, the first value, parses but no trim state means it
            header, row = (lin / "trim_state.csv").read_text().splitlines()
            (lin / "trim_state.csv").write_text(
                header + "\n" + "inf," + row.split(",", 1)[1] + "\n")
        capsys.readouterr()
        code = main([command, "--plant", str(lin),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("damage, name, message", [
        # B and E are both 9x3: by shape alone the swap used to be read,
        # and the search then failed at its upper bound
        pytest.param("swapped-B-E", "B.csv",
                     "expected the column labels dlat,dlon,dped",
                     id="swapped-B-E"),
        # rows in another order used to be read as another plant
        pytest.param("reordered-A-rows", "A.csv",
                     "expected the row labels phi,theta,p,q,a_s,b_s,r,dped,psi",
                     id="reordered-A-rows"),
        pytest.param("reordered-trim-inputs", "trim_inputs.csv",
                     "expected the column labels dlat,dlon,dped,dcol",
                     id="reordered-trim-inputs"),
    ])
    def test_mislabelled_plant_file_is_named(self, tmp_path, capsys, damage,
                                             name, message):
        lin = tmp_path / "lin"
        assert main(["linearize", "--out", str(lin)]) == 0
        if damage == "swapped-B-E":
            b, e = (lin / "B.csv").read_text(), (lin / "E.csv").read_text()
            (lin / "B.csv").write_text(e)
            (lin / "E.csv").write_text(b)
        elif damage == "reordered-A-rows":
            lines = (lin / "A.csv").read_text().splitlines()
            lines[1], lines[2] = lines[2], lines[1]
            (lin / "A.csv").write_text("\n".join(lines) + "\n")
        else:  # the first two labels and their values swapped
            rows = [line.split(",") for line in
                    (lin / "trim_inputs.csv").read_text().splitlines()]
            for row in rows:
                row[0], row[1] = row[1], row[0]
            (lin / "trim_inputs.csv").write_text(
                "\n".join(",".join(row) for row in rows) + "\n")
        capsys.readouterr()
        code = main(["synthesize", "--plant", str(lin),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {lin / name}: {message}\n"

    @pytest.mark.parametrize("command", ["synthesize", "gamma-search"])
    @pytest.mark.parametrize("d11", ["1, 1, 1e-9", "1e6, 1e6, 1e-4"])
    def test_rank_deficient_input_weight_fails_with_one_line(
            self, tmp_path, capsys, command, d11):
        # D'D is singular to working precision; these used to pass the
        # determinant and D-rank tests and end in a ValueError traceback
        cfg = tmp_path / "w.cfg"
        cfg.write_text(f"[weights]\nd11_diag = {d11}\n", encoding="utf-8")
        code = main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
        assert code == 1
        assert (capsys.readouterr().err
                == "error: output map D is column rank deficient\n")

    @pytest.mark.parametrize("command", ["synthesize", "gamma-search"])
    def test_small_input_weight_is_not_singular(self, tmp_path, capsys,
                                                command):
        # d11 = 1e-5 I has condition number 1; its determinant, 1e-15, used
        # to be read as singular.  The search itself then finds no
        # verifiable solution at its upper bound.
        cfg = tmp_path / "w.cfg"
        cfg.write_text("[weights]\nd11_diag = 1e-5, 1e-5, 1e-5\n",
                       encoding="utf-8")
        code = main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: problem infeasible at the upper bound")
        assert len(err.strip().splitlines()) == 1

    def test_simulate_builtin_scenario(self, tmp_path):
        out = tmp_path / "runs"
        scn = tmp_path / "short.cfg"
        scn.write_text(
            "[scenario]\nduration = 2\ncontroller = hinf\nseed = 4\n",
            encoding="utf-8")
        assert main(["simulate", "--scenario", str(scn),
                     "--out", str(out)]) == 0
        logs = list(out.glob("*_hinf.csv"))
        assert len(logs) == 1
        cols = read_log_csv(logs[0])
        assert cols["t"].size == 1001

    def test_simulate_seed_override_changes_name_not_grid(self, tmp_path,
                                                             capsys):
        scn = tmp_path / "short.cfg"
        scn.write_text(
            "[scenario]\nduration = 1\ncontroller = open_loop\n",
            encoding="utf-8")
        assert main(["simulate", "--scenario", str(scn), "--seed", "9",
                     "--out", str(tmp_path)]) == 0
        assert "seed 9" in capsys.readouterr().out
        cols = read_log_csv(tmp_path / "short_open_loop.csv")
        assert cols["t"].size == 501

    def test_compare_writes_table(self, tmp_path):
        scn = tmp_path / "short.cfg"
        scn.write_text(
            "[scenario]\nduration = 2\nseed = 3\n"
            "[wind]\nmean = 2.0, 1.0, 0.0\nsigma = 0.4\n", encoding="utf-8")
        assert main(["compare", "--scenario", str(scn),
                     "--out", str(tmp_path)]) == 0
        table = (tmp_path / "short_comparison.txt").read_text()
        assert "ratio" in table
        assert (tmp_path / "short_hinf.csv").exists()
        assert (tmp_path / "short_pid.csv").exists()

    def test_unknown_scenario_fails_with_one_line(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "nope", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    # a built-in scenario with --seed, a file's seed, and --seed over a file
    @pytest.mark.parametrize("scenario, file_seed, seed_args", [
        ("gust-attitude-hold", None, ["--seed", "-1"]),
        ("short.cfg", -1, []),
        ("short.cfg", 3, ["--seed", "-1"]),
    ])
    def test_negative_seed_fails_with_one_line(self, tmp_path, capsys,
                                               scenario, file_seed, seed_args):
        if file_seed is not None:
            scenario = tmp_path / scenario
            scenario.write_text(
                f"[scenario]\nduration = 1\nseed = {file_seed}\n"
                "[wind]\nsigma = 0.4\n", encoding="utf-8")
        code = main(["simulate", "--scenario", str(scenario), *seed_args,
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed ")
        assert len(err.strip().splitlines()) == 1
        assert not list(tmp_path.glob("*.csv"))

    def test_bad_config_fails_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[mass]\nm = -2\n", encoding="utf-8")
        code = main(["trim", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("poles", ["50, -50, -60", "-50, -40+5j, -60"])
    def test_bad_observer_poles_fail_with_one_line(self, tmp_path, capsys,
                                                   poles):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[observer]\npoles = {poles}\n", encoding="utf-8")
        code = main(["synthesize", "--config", str(bad), "--out",
                     str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [observer] ")
        assert len(err.strip().splitlines()) == 1

    def test_trim_outside_the_servo_range_fails_with_one_line(self, tmp_path,
                                                              capsys):
        heavy = tmp_path / "heavy.cfg"
        heavy.write_text("[mass]\nm = 20\n", encoding="utf-8")
        code = main(["synthesize", "--config", str(heavy), "--out",
                     str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: hover trim needs dcol = 1.619, ")
        assert len(err.strip().splitlines()) == 1

    def test_custom_config_feeds_pipeline(self, tmp_path):
        cfgf = tmp_path / "heavy.cfg"
        cfgf.write_text("[mass]\nm = 10.5\n", encoding="utf-8")
        assert main(["trim", "--config", str(cfgf),
                     "--out", str(tmp_path)]) == 0
        report = (tmp_path / "trim_report.txt").read_text()
        # heavier machine trims at higher collective than the default
        line = [ln for ln in report.splitlines() if ln.startswith("dcol")][0]
        assert float(line.split("=")[1]) > -0.179
