import csv
import json
from dataclasses import fields

import numpy as np
import pytest

from bosegas import ConfigurationError
from bosegas.cli import RunConfig, build_argparser, emit, main, parse_config, run

GAUSS = ["--potential", "gaussian", "--amp", "1", "--width", "1"]
SOLVE = ["--mode", "solve"] + GAUSS
SWEEP = ["--mode", "sweep"] + GAUSS + ["--e-min", "1e-3", "--e-max", "0.3"]
OBSERVABLES = ["--mode", "observables"] + GAUSS + ["--e", "1e-3"]


class TestParseConfig:
    def test_valid_solve_config(self):
        cfg = parse_config("mode=solve\npotential=gaussian\namp=1\nwidth=1\ne=0.01")
        assert cfg.mode == "solve"
        assert cfg.potential == "gaussian"
        assert cfg.e == 0.01

    def test_missing_keys_all_reported(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config("mode=solve")
        text = " ".join(err.value.messages)
        assert "'e'" in text
        assert "'potential'" in text

    def test_validate_explicit_config(self):
        cfg = parse_config("mode=validate-explicit\nb=1\nc=0.5\ne=1")
        assert cfg.b == 1.0 and cfg.c == 0.5 and cfg.e == 1.0

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config("mode=solve\npotential=gaussian\namp=1\nwidth=1\ne=1\nfoo=2")
        assert any("foo" in m for m in err.value.messages)

    def test_type_error_reported_with_line(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config("mode=solve\npotential=gaussian\namp=x\nwidth=1\ne=1")
        assert any("amp" in m for m in err.value.messages)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n\nmode=audit # trailing\npotential=gaussian\n"
                           "amp=1\nwidth=1\ne=0.5\n")
        assert cfg.mode == "audit"

    def test_flag_overrides_file(self):
        cfg = parse_config("mode=solve\npotential=gaussian\namp=1\nwidth=1\ne=1",
                           overrides={"e": 2.0})
        assert cfg.e == 2.0

    def test_every_field_is_a_flag_and_a_file_key(self, tmp_path):
        values = {"mode": "sweep", "potential": "explicit", "table": "v.dat",
                  "amp": "2", "width": "0.5", "b": "1", "c": "0.5", "v_e": "0.1",
                  "e": "0.3", "e_min": "1e-3", "e_max": "0.3", "e_steps": "5",
                  "rho": "0.05", "grid_n": "4095", "r_max": "400",
                  "scheme": "cross_validated", "k_min": "0.1", "k_max": "2",
                  "k_steps": "8", "out": "x", "format": "json"}
        assert set(values) == {f.name for f in fields(RunConfig)}
        parser = build_argparser()
        flags = {opt for action in parser._actions for opt in action.option_strings}
        assert flags - {"-h", "--help"} == {"--config"} | {
            "--" + name.replace("_", "-") for name in values}
        from_file = parse_config("\n".join(f"{k}={v}" for k, v in values.items()))
        for name, value in values.items():
            text = "\n".join(f"{k}={v}" for k, v in values.items() if k != name)
            args = parser.parse_args(["--" + name.replace("_", "-"), value])
            overrides = {k: v for k, v in vars(args).items() if k != "config"}
            assert parse_config(text, overrides) == from_file, name

        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mode=solve\npotential=gaussian\namp=1\nwidth=1\ne=1\n"
                       "scheme=newton\n")
        assert main(["--config", str(cfg)]) == 2
        with pytest.raises(SystemExit) as exc:
            main(SOLVE + ["--e", "1", "--scheme", "newton"])
        assert exc.value.code == 2


class TestRunModes:
    def test_validate_explicit_status_zero(self, tmp_path):
        code = main(["--mode", "validate-explicit", "--b", "1", "--c", "0.5",
                     "--e", "1", "--grid-n", "8191", "--r-max", "400",
                     "--out", str(tmp_path / "ve")])
        assert code == 0
        header, row = (tmp_path / "ve.csv").read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["max_u_error"]) <= 1e-4
        assert float(cols["rho_rel_error"]) <= 1e-6

    def test_under_resolved_run_exits_4(self, tmp_path, capsys):
        code = main(["--mode", "solve", "--potential", "gaussian", "--amp", "1",
                     "--width", "1", "--e", "1.0", "--grid-n", "64",
                     "--r-max", "8", "--out", str(tmp_path / "bad")])
        assert code == 4
        assert "increase r_max" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [["--mode", "solve", "--e", "0.1"],
                                      ["--mode", "invert", "--rho", "0.05"]])
    def test_potential_between_grid_nodes_exits_4(self, tmp_path, capsys, mode):
        # a width-1e-6 Gaussian is 0 at every node: the k-space iterate
        # overshot u = 1, the Newton fallback too, and the run exited 3
        code = main(mode + ["--potential", "gaussian", "--amp", "1", "--width", "1e-6",
                            "--grid-n", "4095", "--out", str(tmp_path / "narrow")])
        assert code == 4
        assert "v is 0 at every grid node (dr = 0.308816)" in capsys.readouterr().err

    def test_bracket_violation_exits_4_without_grid_hint(self, tmp_path, capsys):
        # rho = 5.14e-3 against 4e/||v||_1 = 3.59e-3 on this grid and on finer
        # ones, so the message must not send the user to refine the grid
        code = main(["--mode", "solve", "--potential", "gaussian", "--amp", "10",
                     "--width", "1", "--e", "0.05", "--grid-n", "4095",
                     "--r-max", "100", "--out", str(tmp_path / "strong")])
        assert code == 4
        err = capsys.readouterr().err
        assert "con4B_high" in err
        assert "increase r_max" not in err

    def test_config_error_exits_2(self, capsys):
        assert main(["--mode", "solve"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_convergence_error_exits_3(self, tmp_path, monkeypatch):
        from bosegas import cli
        from bosegas.errors import ConvergenceError

        def boom(config):
            raise ConvergenceError("stalled")
        monkeypatch.setattr(cli, "run", boom)
        assert cli.main(["--mode", "solve", "--potential", "gaussian",
                         "--amp", "1", "--width", "1", "--e", "1"]) == 3

    def test_cg_breakdown_exits_3(self, tmp_path, capsys):
        # r_max = 4e-148: the K_e v solve underflows and must stall cleanly
        code = main(["--mode", "solve", "--potential", "gaussian", "--amp", "1",
                     "--width", "1", "--e", "1e300", "--out", str(tmp_path / "big")])
        assert code == 3
        err = capsys.readouterr().err
        assert "K_e v solve stalled" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        SOLVE + ["--e", "nan"],
        SOLVE + ["--e", "0.01", "--r-max", "nan"],
        SOLVE + ["--e", "0.01", "--r-max", "inf"],
        SOLVE + ["--e", "inf"],
        SWEEP + ["--e-steps", "0"],
        SWEEP + ["--e-steps", "-2"],
        OBSERVABLES + ["--k-min", "0.05", "--k-max", "0.4", "--k-steps", "-1"],
        OBSERVABLES + ["--k-min", "-1"],
        OBSERVABLES + ["--k-max", "inf"],
        OBSERVABLES + ["--k-max", "nan"],
        OBSERVABLES + ["--k-min", "5", "--k-max", "1"],
    ])
    def test_non_finite_input_exits_2(self, flags, capsys):
        code = main(flags)
        assert code == 2
        assert "must be positive and finite" in capsys.readouterr().err

    def test_offgrid_momentum_exits_2(self, tmp_path, capsys):
        # k_max = 1000 lies beyond this grid's last wavenumber, 64.33
        code = main(["--mode", "observables"] + GAUSS
                    + ["--e", "0.01", "--grid-n", "8191", "--r-max", "400",
                       "--k-max", "1000", "--out", str(tmp_path / "obs")])
        assert code == 2
        assert "momentum samples need 0 < k <= 64.332" in capsys.readouterr().err

    @pytest.mark.parametrize("bound, message", [
        # the default k_max is 0.5 (half the inverse width), 10 sqrt(e) is 0.32
        (["--k-min", "1"], "k_min = 1 >= k_max = 0.5"),
        (["--k-max", "0.1"], "k_min = 0.316228 >= k_max = 0.1"),
    ])
    def test_user_bound_emptying_the_window_exits_2(self, bound, message,
                                                     tmp_path, capsys):
        code = main(OBSERVABLES + ["--grid-n", "8191", "--out", str(tmp_path / "obs")]
                    + bound)
        assert code == 2
        assert message in capsys.readouterr().err

    def test_collapsed_default_window_warns_with_its_bounds(self, tmp_path, capsys):
        # 10 sqrt(0.5) = 7.07 exceeds the default k_max of 0.5
        code = main(["--mode", "observables"] + GAUSS
                    + ["--e", "0.5", "--grid-n", "4095", "--out", str(tmp_path / "obs")])
        assert code == 0
        assert "momentum window [7.07107, 0.5] is empty" in capsys.readouterr().err

    def test_strong_potential_exits_with_package_error(self, tmp_path, capsys):
        # the iterate reaches u = 1 on the support of v, so int (1-u) v = 0
        code = main(["--mode", "solve", "--potential", "gaussian", "--amp", "10000",
                     "--width", "1", "--e", "0.01", "--grid-n", "4095",
                     "--out", str(tmp_path / "strong")])
        assert code in (3, 4)
        assert "Traceback" not in capsys.readouterr().err

    def test_sweep_single_row_warns(self, tmp_path, capsys):
        code = main(["--mode", "sweep", "--potential", "gaussian", "--amp", "1",
                     "--width", "1", "--e-min", "0.3", "--e-max", "0.3",
                     "--e-steps", "1", "--grid-n", "2047", "--r-max", "60",
                     "--out", str(tmp_path / "sw")])
        assert code == 0
        assert "insufficient rows" in capsys.readouterr().err

    def test_unbounded_explicit_sweep_exits_zero(self, tmp_path, capsys):
        # the c = 1 closed form has ||v||_2 = inf; its regime label read a
        # complex v_l2 and the sweep exited 1 with a traceback
        code = main(["--mode", "sweep", "--potential", "explicit", "--b", "1",
                     "--c", "1", "--v-e", "1", "--e-min", "0.9", "--e-max", "1",
                     "--e-steps", "2", "--grid-n", "4095", "--r-max", "100",
                     "--out", str(tmp_path / "c1")])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        assert (tmp_path / "c1.csv").exists()

    def test_tabulated_potential_run(self, tmp_path):
        table = tmp_path / "v.dat"
        rows = [f"{r:.6f} {np.exp(-r):.10f}" for r in np.linspace(0, 20, 200)]
        table.write_text("# r v\n" + "\n".join(rows) + "\n")
        code = main(["--mode", "solve", "--potential", "tabulated",
                     "--table", str(table), "--e", "0.5", "--grid-n", "8191",
                     "--r-max", "200", "--out", str(tmp_path / "tab")])
        assert code == 0

    def test_observables_mode_emits_momentum_table(self, tmp_path):
        code = main(["--mode", "observables", "--potential", "gaussian",
                     "--amp", "1", "--width", "1", "--e", "0.5",
                     "--grid-n", "8191", "--r-max", "200", "--k-steps", "8",
                     "--k-min", "0.5", "--k-max", "5.0",
                     "--out", str(tmp_path / "obs")])
        assert code == 0
        momentum = list(tmp_path.glob("obs_momentum_*.csv"))
        assert len(momentum) == 1
        header = momentum[0].read_text().splitlines()[0]
        assert header == "k,M,k4_M"

    def test_audit_mode(self, tmp_path):
        code = main(["--mode", "audit", "--potential", "gaussian", "--amp", "1",
                     "--width", "1", "--e", "0.5", "--grid-n", "8191",
                     "--r-max", "200", "--out", str(tmp_path / "aud")])
        assert code == 0
        audit = (tmp_path / "aud_audit.csv").read_text().splitlines()
        assert audit[0].startswith("name,lhs,rhs,margin,passed")
        assert len(audit) > 10

    def test_invert_mode(self, tmp_path):
        code = main(["--mode", "invert", "--potential", "gaussian", "--amp", "1",
                     "--width", "1", "--rho", "0.05", "--grid-n", "8191",
                     "--r-max", "200", "--out", str(tmp_path / "inv")])
        assert code == 0
        header, row = (tmp_path / "inv.csv").read_text().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["rho"]) == pytest.approx(0.05, rel=1e-8)


@pytest.fixture(scope="module")
def bundle():
    config = parse_config(
        "mode=solve\npotential=gaussian\namp=1\nwidth=1\ne=0.5\n"
        "grid_n=8191\nr_max=200")
    return config, run(config)


class TestExtremeInputs:
    """Inputs at the edge of double precision end in a package exit code with
    an error line, never in a raw exception; solve mode exits 0 only after
    ``require_invariants`` has passed."""

    @pytest.mark.parametrize("args, expected", [
        # the capacitance solve overflows: the K_e v solve breaks down
        (["--potential", "gaussian", "--amp", "1e300", "--width", "1", "--e", "1"], 3),
        (["--potential", "tabulated", "--table", "TABLE", "--e", "1"], 3),
        # ||v||_1 = pi^(3/2) 1e900 is not representable
        (["--potential", "gaussian", "--amp", "1", "--width", "1e300", "--e", "0.1"], 2),
        # finite norms; the grid cannot hold a range of 1e100
        (["--potential", "explicit", "--b", "1e-100", "--c", "0.5", "--e", "1"], 4),
        # v^2 underflows to 0: the PDE residual is measured on v / max v
        (["--potential", "gaussian", "--amp", "1e-300", "--width", "1", "--e", "1"], 4),
        (["--potential", "gaussian", "--amp", "1", "--width", "1e-6", "--e", "0.1"], 4),
    ], ids=["amp1e300", "table1e300", "width1e300", "b1e-100", "amp1e-300", "width1e-6"])
    def test_ends_in_a_package_exit_code(self, tmp_path, capsys, args, expected):
        table = tmp_path / "v.dat"
        table.write_text("".join(f"{r} 1e300\n" for r in range(6)))
        args = [str(table) if a == "TABLE" else a for a in args]
        code = main(["--mode", "solve", "--grid-n", "4095",
                     "--out", str(tmp_path / "x")] + args)
        err = capsys.readouterr().err
        assert code == expected, err
        assert "error: " in err and "nan" not in err

    def test_underflowing_u_squared_is_named(self, tmp_path, capsys):
        # u ~ 1e-300, so u*u is 0 and no grid clears pde_residual
        code = main(["--mode", "solve", "--potential", "gaussian", "--amp", "1e-300",
                     "--width", "1", "--e", "1", "--grid-n", "4095",
                     "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 4, err
        assert "pde_residual" in err and "u*u underflows" in err
        assert "increase r_max" not in err

    def test_overflowing_norm_square_sweeps(self, tmp_path, capsys):
        # ||v||_1^2 overflows: e_star = 0 and e_large = inf, no OverflowError
        code = main(["--mode", "sweep", "--potential", "explicit", "--b", "1e-100",
                     "--c", "0.5", "--v-e", "1", "--e-min", "1", "--e-max", "2",
                     "--e-steps", "2", "--grid-n", "4095", "--out", str(tmp_path / "sw")])
        err = capsys.readouterr().err
        assert code == 0, err
        with open(tmp_path / "sw.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["regime"] for row in rows] == ["outside proven monotonicity regime"] * 2

    def test_strong_invert_exits_on_con4B_high(self, tmp_path, capsys):
        # the root lies below the first bracket, where rho > 4e/||v||_1
        code = main(["--mode", "invert", "--potential", "gaussian", "--amp", "100",
                     "--width", "1", "--rho", "1e-4", "--grid-n", "8191",
                     "--r-max", "1000", "--out", str(tmp_path / "inv")])
        err = capsys.readouterr().err
        assert code == 4, err
        assert "con4B_high" in err and "no e with" not in err


class TestEmission:

    def test_csv_determinism(self, bundle, tmp_path):
        config, _ = bundle
        first = run(config)
        second = run(config)
        emit(first, "csv", str(tmp_path / "a"))
        emit(second, "csv", str(tmp_path / "b"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_json_round_trip(self, bundle, tmp_path):
        config, result = bundle
        emit(result, "json", str(tmp_path / "r"))
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["schema_version"] == 2
        loaded = dict(zip(payload["table"]["columns"], payload["table"]["rows"][0]))
        original = dict(zip(result.columns, result.rows[0]))
        for key, value in original.items():
            if isinstance(value, float):
                assert loaded[key] == value    # exact float round trip
            else:
                assert str(loaded[key]) == str(value)

    def test_sweep_json_is_strict(self, tmp_path):
        # the edge rows' rho_prime_fd and convexity_indicator are nan, which
        # the bundle wrote as bare NaN tokens; the CSV keeps writing nan
        code = main(["--mode", "sweep"] + GAUSS
                    + ["--e-min", "0.01", "--e-max", "1", "--e-steps", "3", "--grid-n", "4095",
                       "--format", "json", "--out", str(tmp_path / "sw")])
        assert code == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        with open(tmp_path / "sw.json") as fh:
            payload = json.load(fh, parse_constant=reject)
        columns = payload["table"]["columns"]
        rows = [dict(zip(columns, row)) for row in payload["table"]["rows"]]
        assert [row["rho_prime_fd"] for row in rows][::2] == [None, None]
        assert [row["convexity_indicator"] for row in rows][::2] == [None, None]
        assert all(isinstance(rows[1][key], float)
                   for key in ("rho_prime_fd", "convexity_indicator"))

    def test_csv_17_digits(self, bundle, tmp_path):
        _, result = bundle
        emit(result, "csv", str(tmp_path / "p"))
        row = (tmp_path / "p.csv").read_text().splitlines()[1]
        rho_text = row.split(",")[1]
        assert len(rho_text.replace(".", "").replace("-", "").lstrip("0")) >= 16
