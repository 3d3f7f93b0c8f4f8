import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pmrisk
from pmrisk import Rng, gh_quantile, paper_portfolio, portfolio_to_doc
from pmrisk.cli import (EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, MAX_GRID_POINTS,
                        _parse_tau_grid, ingest_csv, main)
from pmrisk.errors import DataError, UsageError
from pmrisk.presets import resolve_portfolio

from conftest import CAR_ROWS, GH_ROWS


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_import_leaves_scipy_stats_unloaded():
    # only fit uses these; the simulator needs numpy and scipy.special alone, and
    # scipy.stats by itself would double its start-up
    fit_only = ("scipy.stats", "scipy.optimize", "scipy.interpolate", "scipy.linalg")
    code = f"import sys, pmrisk.cli; print([m for m in {fit_only!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(pmrisk.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestIngest:
    def test_three_city_file(self, tmp_path):
        rows = ["day,city,pm25"]
        for day in range(1, 6):
            for city in ("a", "b", "c"):
                rows.append(f"{day},{city},{100 + day}")
        series = ingest_csv(_write(tmp_path / "ok.csv", "\n".join(rows) + "\n"))
        assert {s.city for s in series} == {"a", "b", "c"}
        assert all(s.days.size == 5 for s in series)

    def test_na_days_become_gaps(self, tmp_path):
        rows = ["day,city,pm25"]
        for day in range(1, 366):
            value = "NA" if day in (361, 362) else "90.5"
            rows.append(f"{day},bj,{value}")
        series = ingest_csv(_write(tmp_path / "gaps.csv", "\n".join(rows) + "\n"))
        assert series[0].days.size == 363
        assert 361 not in series[0].days and 362 not in series[0].days

    def test_wrong_field_count_names_line(self, tmp_path):
        text = "day,city,pm25\n1,bj,10\n2,bj\n"
        with pytest.raises(DataError, match=":3"):
            ingest_csv(_write(tmp_path / "bad.csv", text))

    def test_nonpositive_concentration(self, tmp_path):
        text = "day,city,pm25\n1,bj,0\n"
        with pytest.raises(DataError, match="nonpositive"):
            ingest_csv(_write(tmp_path / "bad.csv", text))

    def test_duplicate_rejected(self, tmp_path):
        text = "day,city,pm25\n1,bj,10\n1,bj,11\n"
        with pytest.raises(DataError, match="duplicate"):
            ingest_csv(_write(tmp_path / "bad.csv", text))


class TestRunModes:
    def test_simulate_writes_report(self, tmp_path):
        out = tmp_path / "report.csv"
        rc = main([
            "simulate", "--preset", "paper", "--estimator", "is",
            "--alpha", "0.05", "--budget", "5000", "--seed", "1",
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        text = out.read_text()
        assert "# seed: 1" in text
        assert "# model_sha256: " in text
        assert text.splitlines()[-1].startswith("0.05,")

    def test_is_report_at_small_budget_completes(self, tmp_path):
        # the alpha=0.005 CaR loop used to two-cycle (413.4 <-> 414.4) and exit 3
        rc = main([
            "simulate", "--preset", "paper", "--estimator", "is",
            "--budget", "5000", "--seed", "2", "--out", str(tmp_path / "report.csv"),
        ])
        assert rc == EXIT_OK

    def test_small_sis_car_lands_in_its_band(self, tmp_path):
        # this query used to two-cycle (352.3 <-> 353.4) and exit 3
        out = tmp_path / "car.csv"
        rc = main([
            "car", "--preset", "paper", "--estimator", "sis", "--alpha", "0.01",
            "--budget", "5000", "--seed", "1", "--out", str(out),
        ])
        assert rc == EXIT_OK
        alpha, car = out.read_text().splitlines()[-1].split(",")
        assert alpha == "0.01"
        assert abs(float(car) / CAR_ROWS[1][1] - 1.0) <= 0.015

    def test_byte_identical_rerun(self, tmp_path):
        args = [
            "simulate", "--preset", "paper", "--estimator", "sis",
            "--alpha", "0.05,0.01", "--budget", "6000", "--seed", "9",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "car"])
    def test_seed_reaches_every_row(self, tmp_path, command):
        def artifact(seed, alphas):
            out = tmp_path / f"{command}-{seed}-{alphas}.csv"
            assert main([command, "--preset", "paper", "--estimator", "sis", "--alpha", alphas,
                         "--budget", "5000", "--seed", str(seed), "--out", str(out)]) == EXIT_OK
            return out.read_bytes()

        def rows(data):
            return [line for line in data.decode().splitlines() if not line.startswith("#")][1:]

        one = artifact(1, "0.01,0.001")
        assert all(a != b for a, b in zip(rows(one), rows(artifact(2, "0.01,0.001"))))
        assert artifact(1, "0.01,0.001") == one
        # row 0 of a multi-alpha run is the one-alpha run
        assert rows(artifact(1, "0.01")) == rows(one)[:1]

    def test_curve_monotone(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main([
            "curve", "--preset", "paper", "--estimator", "naive",
            "--tau-grid", "100:700:20", "--budget", "4000", "--seed", "2",
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        eps = [float(r.split(",")[1]) for r in rows[1:]]
        assert len(eps) == 31
        assert all(a >= b for a, b in zip(eps, eps[1:]))

    def test_usage_errors(self, tmp_path):
        assert main(["simulate", "--estimator", "is", "--out", "x.csv"]) == EXIT_USAGE
        assert (
            main([
                "simulate", "--preset", "paper", "--model", "also.json",
                "--out", str(tmp_path / "x.csv"),
            ])
            == EXIT_USAGE
        )
        assert (
            main([
                "simulate", "--preset", "paper", "--alpha", "0.7",
                "--out", str(tmp_path / "x.csv"),
            ])
            == EXIT_USAGE
        )
        assert (
            main([
                "curve", "--preset", "paper",
                "--out", str(tmp_path / "x.csv"),
            ])
            == EXIT_USAGE
        )
        out = tmp_path / "x.csv"
        for grid in ("nan:700:20", "100:700:nan", "0:inf:1"):
            assert main(["curve", "--preset", "paper", "--tau-grid", grid,
                         "--out", str(out)]) == EXIT_USAGE
        csv_path = _synthetic_csv(tmp_path, ["Bj"], 60, 1)
        assert main(["fit", "--csv", str(csv_path), "--train-fraction", "1.5",
                     "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp.*"))

    @pytest.mark.parametrize("grid", ["0:1e12:1", "0:10001:1", "0:1e308:1e-300"])
    def test_oversized_tau_grid_is_refused_before_it_is_built(self, tmp_path, capsys, grid):
        out = tmp_path / "x.csv"
        assert main(["curve", "--preset", "paper", "--tau-grid", grid,
                     "--out", str(out)]) == EXIT_USAGE
        assert f"more than {MAX_GRID_POINTS} points" in capsys.readouterr().err
        assert not out.exists()

    def test_tau_grid_parses_its_points(self):
        grid = _parse_tau_grid("100:900:10")
        assert len(grid) == 81 and grid[0] == 100.0 and grid[-1] == 900.0
        assert len(_parse_tau_grid("0:10000:1")) == MAX_GRID_POINTS

    @pytest.mark.parametrize("mode,budget", [("car", "500"), ("simulate", "999")])
    def test_budget_below_query_floor_is_usage_error(self, tmp_path, mode, budget):
        out = tmp_path / "x.csv"
        rc = main([
            mode, "--preset", "paper", "--alpha", "0.05", "--budget", budget,
            "--out", str(out),
        ])
        assert rc == EXIT_USAGE
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_curve_keeps_its_own_budget_floor(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main([
            "curve", "--preset", "paper", "--estimator", "naive",
            "--tau-grid", "100:300:100", "--budget", "500", "--seed", "2",
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        assert out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--alpha", "0.05"],
        ["car", "--alpha", "0.05"],
        ["curve", "--tau-grid", "200:400:100"],
    ])
    def test_calibration_warning_reaches_stderr(self, tmp_path, monkeypatch, capsys, argv):
        import pmrisk.risk as risk_mod

        args = argv + ["--preset", "paper", "--estimator", "is", "--budget", "4000",
                       "--seed", "3"]
        plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
        assert main(args + ["--out", str(plain)]) == EXIT_OK
        assert "warning:" not in capsys.readouterr().err

        calibrate = risk_mod.calibrate_is

        def failing(portfolio, tau, **kwargs):
            params = calibrate(portfolio, tau, **kwargs)
            return dataclasses.replace(params, warning="IS calibration failed (synthetic)")

        monkeypatch.setattr(risk_mod, "calibrate_is", failing)
        assert main(args + ["--out", str(flagged)]) == EXIT_OK
        err = capsys.readouterr().err
        assert "warning: " in err and "IS calibration failed (synthetic)" in err
        assert flagged.read_bytes() == plain.read_bytes()

    def test_missing_model_file_is_data_error(self, tmp_path):
        rc = main([
            "simulate", "--model", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("preset, model", [("paper", "x.json"), (None, None),
                                               ("other", None)])
    def test_resolve_portfolio_caller_mistake_is_usage_error(self, preset, model):
        with pytest.raises(UsageError):
            resolve_portfolio(preset, model)

    @pytest.mark.parametrize("kind", ["list", "cities-string", "ragged-sigma",
                                      "weight-string", "nu-string"])
    def test_malformed_model_document_is_data_error(self, tmp_path, capsys, kind):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(_malformed_doc(kind)))
        out = tmp_path / "x.csv"
        rc = main(["car", "--model", str(model), "--alpha", "0.05", "--budget", "1000",
                   "--out", str(out)])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: ")
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_car_writes_one_row_per_distinct_alpha(self, tmp_path):
        rows = {}
        for alphas in ("0.05", "0.05,0.05"):
            out = tmp_path / f"car-{alphas}.csv"
            assert main(["car", "--preset", "paper", "--alpha", alphas, "--budget", "1000",
                         "--out", str(out)]) == EXIT_OK
            rows[alphas] = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows["0.05,0.05"]) == 2  # header and one row
        assert rows["0.05,0.05"] == rows["0.05"]

    def test_no_partial_artifact_on_failure(self, tmp_path, monkeypatch):
        out = tmp_path / "report.csv"
        import pmrisk.cli as cli_mod

        def boom(*args, **kwargs):
            raise cli_mod.NumericError("synthetic failure")

        monkeypatch.setattr(cli_mod, "build_report", boom)
        rc = main([
            "simulate", "--preset", "paper", "--alpha", "0.05",
            "--budget", "5000", "--seed", "1", "--out", str(out),
        ])
        assert rc == EXIT_NUMERIC
        assert not out.exists()
        assert not list(tmp_path.glob("*.tmp.*"))

    @pytest.mark.parametrize("target", ["missing/car.csv", "taken"])
    def test_unwritable_out_is_data_error(self, tmp_path, capsys, target):
        # "taken" is a directory, refused before the temporary file is opened
        (tmp_path / "taken").mkdir()
        rc = main(["car", "--preset", "paper", "--alpha", "0.05", "--budget", "1000",
                   "--out", str(tmp_path / target)])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: ")
        assert not list(tmp_path.rglob("*.tmp.*"))


def _malformed_doc(kind):
    doc = portfolio_to_doc(paper_portfolio())
    if kind == "list":
        return [doc]
    if kind == "cities-string":
        doc["cities"] = "Bj,Tj,Cd,Hs,Xt"
    elif kind == "ragged-sigma":
        doc["copula"]["sigma"][0] = doc["copula"]["sigma"][0][:-1]
    elif kind == "weight-string":
        doc["cities"][0]["weight"] = "heavy"
    elif kind == "nu-string":
        doc["copula"]["nu"] = "eleven"
    return doc


def _synthetic_csv(tmp_path, cities, n_days, seed):
    rows = ["day,city,pm25"]
    for j, city in enumerate(cities):
        params = GH_ROWS[city]
        u = Rng(seed).split(j).generator().random(n_days - 1)
        ratios = gh_quantile(params, np.clip(u, 1e-12, 1.0 - 1e-12))
        level = 80.0
        rows.append(f"1,{city},{level!r}")
        for day in range(2, n_days + 1):
            level = max(level * float(np.exp(ratios[day - 2])), 1e-3)
            rows.append(f"{day},{city},{level!r}")
    path = tmp_path / "synthetic.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestFit:
    def test_single_city_fit_writes_identity_copula(self, tmp_path):
        csv_path = _synthetic_csv(tmp_path, ["Bj"], 500, 7)
        out = tmp_path / "model.json"
        rc = main(["fit", "--csv", str(csv_path), "--out", str(out), "--seed", "3"])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["copula"]["sigma"] == [[1.0]]
        assert len(doc["cities"]) == 1
        assert doc["meta"]["copula"]["note"].startswith("single city")

    def test_fitted_model_loads_and_runs(self, tmp_path):
        csv_path = _synthetic_csv(tmp_path, ["Bj"], 400, 11)
        model = tmp_path / "model.json"
        assert main(["fit", "--csv", str(csv_path), "--out", str(model), "--seed", "3"]) == EXIT_OK
        out = tmp_path / "car.csv"
        rc = main([
            "car", "--model", str(model), "--estimator", "naive",
            "--alpha", "0.05", "--budget", "5000", "--seed", "4",
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        assert out.read_text().splitlines()[-1].startswith("0.05,")

    def test_multi_city_fit_document_shape(self, tmp_path):
        csv_path = _synthetic_csv(tmp_path, ["Bj", "Tj", "Cd"], 300, 13)
        out = tmp_path / "model.json"
        rc = main(["fit", "--csv", str(csv_path), "--out", str(out), "--seed", "2"])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert [c["name"] for c in doc["cities"]] == ["Bj", "Tj", "Cd"]
        sigma = np.array(doc["copula"]["sigma"])
        assert sigma.shape == (3, 3)
        assert np.allclose(np.diag(sigma), 1.0)
        assert doc["copula"]["family"] == "t" and doc["copula"]["nu"] > 0.0
        assert "loglik_t" in doc["meta"]["copula"]
        assert doc["meta"]["train_rows"] + doc["meta"]["holdout_rows"] == 299
        holdout = doc["meta"]["holdout_logliks"]
        assert sorted(holdout) == ["Bj", "Cd", "Tj"]
        for city in holdout.values():
            assert city["rows"] == doc["meta"]["holdout_rows"]
            assert np.isfinite(city["loglik"]) and city["loglik"] != 0.0
        search = doc["meta"]["marginal_search"]
        assert sorted(search) == ["Bj", "Cd", "Tj"]
        for city in search.values():
            assert sorted(city) == ["at_bound", "candidate", "evaluations"]
            assert city["evaluations"] > 0
            assert city["candidate"] in ("interior", "ridge")
            assert set(city["at_bound"]) <= {"lam", "log_gamma", "log_delta", "beta"}

    def test_byte_identical_rerun(self, tmp_path):
        csv_path = _synthetic_csv(tmp_path, ["Bj", "Tj"], 300, 17)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            rc = main(["fit", "--csv", str(csv_path), "--out", str(out), "--seed", "4"])
            assert rc == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_unwritable_out_is_data_error(self, tmp_path, capsys):
        csv_path = _synthetic_csv(tmp_path, ["Bj"], 400, 11)
        rc = main(["fit", "--csv", str(csv_path), "--out", str(tmp_path / "missing" / "m.json")])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: ")
        assert not list(tmp_path.rglob("*.tmp.*"))

    def test_small_sample_warning_reaches_stderr(self, tmp_path, capsys):
        csv_path = _synthetic_csv(tmp_path, ["Bj"], 60, 11)
        out = tmp_path / "model.json"
        assert main(["fit", "--csv", str(csv_path), "--out", str(out), "--seed", "3"]) == EXIT_OK
        assert capsys.readouterr().err == "warning: Bj: fewer than 100 samples; fit is fragile\n"

    def test_empty_csv_no_output(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("", encoding="utf-8")
        out = tmp_path / "model.json"
        rc = main(["fit", "--csv", str(bad), "--out", str(out)])
        assert rc == EXIT_DATA
        assert not out.exists()


@pytest.mark.parametrize("command", ["car", "fit"])
def test_unwritable_out_fails_before_the_work(tmp_path, monkeypatch, capsys, command):
    import pmrisk.cli as cli_mod

    def never(*args, **kwargs):
        pytest.fail("the work ran before --out was checked")

    monkeypatch.setattr(cli_mod, "solve_cars", never)
    monkeypatch.setattr(cli_mod, "fit_gh_marginal", never)
    if command == "car":
        argv = ["car", "--preset", "paper", "--alpha", "0.05", "--budget", "1000"]
    else:
        argv = ["fit", "--csv", str(_synthetic_csv(tmp_path, ["Bj"], 400, 11))]
    (tmp_path / "taken").mkdir()
    for target in (tmp_path / "missing" / "x.out", tmp_path / "taken"):
        assert main(argv + ["--out", str(target)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: ")
        assert not list(tmp_path.rglob("*.tmp.*"))
