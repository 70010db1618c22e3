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
from qsa.distribution import scale
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

    def test_out_into_missing_directory_is_usage_error(
        self, runner, tmp_path, monkeypatch
    ):
        # refused while the options are parsed, before anything is computed
        monkeypatch.setattr("qsa.cli.exact_pgf", lambda n: pytest.fail("computed"))
        target = tmp_path / "missing" / "dist.csv"
        result = runner.invoke(cli, ["pgf", "--n", "3", "--out", str(target)])
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines() if "Error" in line]
        assert errors == [
            f"Error: Invalid value for '--out': directory "
            f"{str(target.parent)!r} does not exist or is not writable"
        ]
        assert not target.parent.exists()

    def test_out_to_existing_file_in_read_only_directory(
        self, runner, tmp_path, monkeypatch
    ):
        # an existing file is written in place; its directory need not be
        # writable. The directory is reported unwritable to every caller, as
        # it is to a user without write permission on it, whoever runs this.
        target = tmp_path / "dist.csv"
        target.write_text("old\n")
        access = os.access
        monkeypatch.setattr(
            os, "access",
            lambda path, mode, **kw: False if os.path.isdir(path) and mode & os.W_OK
            else access(path, mode, **kw),
        )
        run_ok(runner, ["pgf", "--n", "3", "--out", str(target)])
        assert target.read_text() == "2,1,3\n3,2,3\n"

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="needs a null device")
    def test_out_to_null_device(self, runner):
        assert run_ok(runner, ["pgf", "--n", "3", "--out", os.devnull]) == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_fails_with_one_line(self, runner):
        # /dev/full accepts the open and refuses the write (ENOSPC)
        result = runner.invoke(cli, ["pgf", "--n", "3", "--out", "/dev/full"])
        assert result.exit_code == 1
        assert result.output.count("\n") == 1
        assert result.output.startswith("Error: [Errno 28]")


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

    def test_overlapping_windows_fail_with_one(self, runner):
        result = runner.invoke(
            cli, ["guess", "--r", "2", "--train", "1..20", "--test", "5..30"]
        )
        assert result.exit_code == 1
        assert "share 16 point(s) in n = 5..20" in result.output

    def test_order_above_default_truncation_fails_before_any_data(
        self, runner, monkeypatch
    ):
        def no_data(*args, **kwargs):
            raise AssertionError("moment data built")

        monkeypatch.setattr("qsa.fitting.moment_table", no_data)
        for r in (9, 10, 11):
            result = runner.invoke(cli, ["guess", "--r", str(r)])
            assert result.exit_code == 1
            assert f"order {r} exceeds MAX_FIT_ORDER = 8" in result.output
            assert "970-monomial template" in result.output


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
        def no_work(*args, **kwargs):
            raise AssertionError("moment data built or a fit run")

        monkeypatch.setattr("qsa.fitting.moment_table", no_work)
        monkeypatch.setattr("qsa.fitting.fit", no_work)
        result = runner.invoke(cli, ["limits", "--r", "3..9"])
        assert result.exit_code == 1
        assert "moment order 9 exceeds MAX_FIT_ORDER = 8" in result.output
        assert "970-monomial template" in result.output

    def test_builds_no_moment_data(self):
        # the forms are derived from the generating function, not fitted
        src = str(Path(qsa.__file__).resolve().parents[1])
        code = (
            "from qsa.cli import cli\n"
            "import qsa.moments\n"
            "from qsa.moments import SeriesCache\n"
            "ensure, grown = SeriesCache.ensure, []\n"
            "def recorded(self, n):\n"
            "    if len(self._cols[self.order]) <= n:\n"
            "        grown.append((self.order, n))\n"
            "    ensure(self, n)\n"
            "SeriesCache.ensure = recorded\n"
            "try:\n"
            "    cli.main(['limits', '--r', '3..6', '--precision', '30'])\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "print(grown)\n"
            "print(qsa.moments._shared_series.order)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stdout.strip().splitlines()[-2:] == ["[]", "0"]


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

    def test_tail_at_a_billion_needs_no_exact_harmonics(self, runner, monkeypatch):
        # the surrogate's own exact closed forms are built first; after that
        # no exact harmonic number may be asked for
        scale(30, 50)

        def no_harmonic(*args, **kwargs):
            raise AssertionError("exact harmonic number built")

        monkeypatch.setattr("qsa.numeric.harmonic", no_harmonic)
        monkeypatch.setattr("qsa.fitting.harmonic", no_harmonic)
        args = ["tail", "--n", "1000000000", "--x", "38600000000", "--surrogate", "30"]
        payload = json.loads(run_ok(runner, args))
        assert payload["saturated"] is False
        assert 0 < float(payload["probability"]) < 1
        assert payload["z"].startswith("-0.0014855")


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
    # no code path needs numpy; a fresh interpreter must not load it
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

    @pytest.mark.parametrize(
        "train, test", [("0..9", "10..40"), ("-3..9", "10..40"), ("1..9", "0..40")]
    )
    def test_window_below_one_is_usage_error(self, runner, train, test):
        result = runner.invoke(
            cli, ["guess", "--r", "1", "--train", train, "--test", test]
        )
        assert result.exit_code == 2
        assert "must start at 1 or above" in result.output

    def test_oracle_guard_is_usage_error(self, runner):
        assert runner.invoke(cli, ["oracle", "--n", "13"]).exit_code == 2

    def test_central_moment_of_order_zero_is_usage_error(self, runner):
        result = runner.invoke(cli, ["moment", "--n", "5", "--r", "0"])
        assert result.exit_code == 2
        assert "central moments require r >= 1" in result.output

    def test_raw_moment_of_order_zero_is_one(self, runner):
        payload = json.loads(
            run_ok(runner, ["moment", "--n", "5", "--r", "0", "--kind", "raw"])
        )
        assert (payload["num"], payload["den"]) == ("1", "1")

    @pytest.mark.parametrize("width", ["1/0", "abc", "nan", "inf", "0", "-1/2"])
    def test_bad_bin_width_is_usage_error(self, runner, width):
        result = runner.invoke(cli, ["density", "--n", "10", "--bin", width])
        assert result.exit_code == 2
        assert "Invalid value for '--bin'" in result.output

    def test_bin_width_too_small_to_index_fails_with_one(self, runner):
        result = runner.invoke(cli, ["density", "--n", "10", "--bin", "1e-300"])
        assert result.exit_code == 1
        assert "more than MAX_DENSITY_BINS" in result.output

    def test_bin_count_beyond_memory_fails_with_one_line(self, runner):
        # 6.6e18 bins fit an index, but a list of them does not fit in memory
        result = runner.invoke(cli, ["density", "--n", "10", "--bin", "1e-18"])
        assert result.exit_code == 1
        assert result.output.count("\n") == 1
        assert "more than MAX_DENSITY_BINS = 1000000" in result.output

    def test_bin_width_as_fraction(self, runner):
        a = run_ok(runner, ["density", "--n", "12", "--bin", "1/2"])
        assert a == run_ok(runner, ["density", "--n", "12", "--bin", "0.5"])

    def test_env_var_default(self, runner, monkeypatch):
        monkeypatch.setenv("QSA_PRECISION", "31")
        payload = json.loads(
            run_ok(runner, ["tail", "--n", "5000", "--x", "68000", "--surrogate", "30"])
        )
        # precision 31 shortens the reported probability string
        assert len(payload["probability"]) < 40
