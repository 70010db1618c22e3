"""Command-line interface: formats, determinism, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import qsa
from qsa.cli import cli
from qsa.fitting import HarmonicExpr, known_mean


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(cli, args)
    assert result.exit_code == 0, result.output
    return result.output


class TestPgfCommand:
    def test_csv_rows_match_reference(self, runner):
        out = run_ok(runner, ["pgf", "--n", "3", "--format", "csv"])
        assert out.splitlines() == ["2,1,3", "3,2,3"]

    def test_json_shape(self, runner):
        payload = json.loads(run_ok(runner, ["pgf", "--n", "4", "--format", "json"]))
        assert payload["n"] == 4
        assert payload["coeffs"] == [[4, "1", "2"], [5, "1", "6"], [6, "1", "3"]]

    def test_oracle_agrees_with_pgf(self, runner):
        a = run_ok(runner, ["pgf", "--n", "6"])
        b = run_ok(runner, ["oracle", "--n", "6"])
        assert a == b

    def test_out_file(self, runner, tmp_path):
        target = tmp_path / "dist.csv"
        run_ok(runner, ["pgf", "--n", "3", "--out", str(target)])
        assert target.read_text() == "2,1,3\n3,2,3\n"


class TestMomentCommands:
    def test_single_moment_json(self, runner):
        payload = json.loads(run_ok(runner, ["moment", "--n", "3", "--r", "2"]))
        assert payload == {"n": 3, "r": 2, "kind": "central", "num": "2", "den": "9"}

    def test_single_moment_csv(self, runner):
        out = run_ok(
            runner, ["moment", "--n", "4", "--r", "1", "--kind", "raw", "--format", "csv"]
        )
        assert out.strip() == "4,1,29,6"

    def test_table_rows(self, runner):
        out = run_ok(runner, ["moments-table", "--nmax", "6", "--rmax", "2"])
        rows = [line.split(",") for line in out.splitlines()]
        assert ["3", "2", "2", "9"] in rows
        # every (n, r) pair with 1 <= n <= 6, 1 <= r <= 2 appears once
        assert len(rows) == 12

    def test_table_exact_source_agrees(self, runner):
        fast = run_ok(runner, ["moments-table", "--nmax", "8", "--rmax", "3"])
        slow = run_ok(
            runner, ["moments-table", "--nmax", "8", "--rmax", "3", "--source", "exact"]
        )
        assert fast == slow


class TestGuessCommand:
    def test_classical_mean_recovery(self, runner):
        out = run_ok(
            runner, ["guess", "--r", "1", "--train", "1..9", "--test", "10..306"]
        )
        payload = json.loads(out)
        assert payload["status"] == "verified"
        assert payload["train"] == "1..9"
        assert payload["test"] == "10..306"
        assert HarmonicExpr.from_json(payload["expr"]) == known_mean()

    def test_train_without_test_is_usage_error(self, runner):
        result = runner.invoke(cli, ["guess", "--r", "1", "--train", "1..9"])
        assert result.exit_code == 2

    def test_insufficient_training_data_fails_with_one(self, runner):
        result = runner.invoke(
            cli, ["guess", "--r", "1", "--train", "1..5", "--test", "6..20"]
        )
        assert result.exit_code == 1

    def test_order_above_default_truncation_fails_before_any_data(
        self, runner, monkeypatch
    ):
        def no_data(*args, **kwargs):
            raise AssertionError("moment data built")

        monkeypatch.setattr("qsa.fitting.moment_table", no_data)
        result = runner.invoke(cli, ["guess", "--r", "11"])
        assert result.exit_code == 1
        assert "order 11 exceeds series truncation 10" in result.output


class TestLimitsCommand:
    def test_skewness_limit_value(self, runner):
        out = run_ok(runner, ["limits", "--r", "3", "--precision", "50"])
        payload = json.loads(out)
        assert payload["r"] == 3
        assert payload["value"].startswith("0.8548818671325885")
        assert payload["stable_digits"] >= 12

    def test_order_without_zeta_constant_fails_before_fitting(
        self, runner, monkeypatch
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("guess_moment called")

        monkeypatch.setattr("qsa.cli.guess_moment", no_fit)
        result = runner.invoke(cli, ["limits", "--r", "3..9"])
        assert result.exit_code == 1
        assert "ZETA_MAX = 8" in result.output


class TestDistributionCommands:
    def test_density_rows(self, runner):
        out = run_ok(runner, ["density", "--n", "12", "--bin", "0.5"])
        rows = [line.split(",") for line in out.splitlines()]
        assert all(len(r) == 3 for r in rows)
        total = sum(float(r[2]) for r in rows)
        assert abs(total - 1) < 1e-12
        # edges tile the z axis
        for a, b in zip(rows, rows[1:]):
            assert a[1] == b[0]

    def test_tail_json(self, runner):
        payload = json.loads(
            run_ok(runner, ["tail", "--n", "10000", "--x", "0", "--surrogate", "30"])
        )
        assert payload["saturated"] is True
        assert payload["probability"].startswith("1.0")

    def test_tail_interior(self, runner):
        payload = json.loads(
            run_ok(runner, ["tail", "--n", "5000", "--x", "68000", "--surrogate", "30"])
        )
        assert payload["saturated"] is False
        assert 0 < float(payload["probability"]) < 1


class TestSimulationCommands:
    def test_simulate_deterministic_output(self, runner):
        args = ["simulate", "--n", "30", "--trials", "300", "--seed", "42"]
        assert run_ok(runner, args) == run_ok(runner, args)

    def test_simulate_fields(self, runner):
        payload = json.loads(
            run_ok(runner, ["simulate", "--n", "2", "--trials", "10", "--seed", "1"])
        )
        assert payload["mean"] == 1.0
        assert payload["variance"] == 0.0
        assert payload["min"] == payload["max"] == 1

    def test_selection_count(self, runner):
        payload = json.loads(
            run_ok(runner, ["selection-count", "--n", "8", "--trials", "3", "--seed", "2"])
        )
        assert payload["formula"] == 28
        assert payload["counts"] == [28, 28, 28]
        assert payload["all_match"] is True


class TestPrecisionRange:
    @pytest.mark.parametrize("precision", ["30", "100"])
    @pytest.mark.parametrize(
        "args",
        [
            ["limits", "--r", "3"],
            ["density", "--n", "10", "--bin", "0.5"],
            ["tail", "--n", "5000", "--x", "68000", "--surrogate", "20"],
        ],
        ids=["limits", "density", "tail"],
    )
    def test_both_ends_accepted(self, runner, args, precision):
        run_ok(runner, [*args, "--precision", precision])

    @pytest.mark.parametrize("precision", ["29", "101"])
    def test_outside_is_usage_error(self, runner, precision):
        result = runner.invoke(cli, ["limits", "--r", "3", "--precision", precision])
        assert result.exit_code == 2


def test_import_does_not_load_numpy():
    # numpy is needed only by fits; a fresh interpreter must not pay for it
    src = str(Path(qsa.__file__).resolve().parents[1])
    code = "import sys, qsa.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "False"


class TestUsageErrors:
    def test_unknown_option(self, runner):
        assert runner.invoke(cli, ["pgf", "--bogus", "1"]).exit_code == 2

    def test_missing_required(self, runner):
        assert runner.invoke(cli, ["pgf"]).exit_code == 2

    def test_bad_range_syntax(self, runner):
        result = runner.invoke(
            cli, ["guess", "--r", "1", "--train", "9..1", "--test", "10..20"]
        )
        assert result.exit_code == 2

    def test_oracle_guard_is_usage_error(self, runner):
        assert runner.invoke(cli, ["oracle", "--n", "13"]).exit_code == 2

    def test_env_var_default(self, runner, monkeypatch):
        monkeypatch.setenv("QSA_PRECISION", "31")
        payload = json.loads(
            run_ok(runner, ["tail", "--n", "5000", "--x", "68000", "--surrogate", "30"])
        )
        # precision 31 shortens the reported probability string
        assert len(payload["probability"]) < 40
