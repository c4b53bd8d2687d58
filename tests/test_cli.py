import csv
import io
import json
import math

from cylgauge.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_STATISTICAL,
    SEED_ENV_VAR,
    main,
    _exit_code,
)
from cylgauge.montecarlo import MCEstimate
from cylgauge.reporting import CSV_HEADER, Report, ReportRow


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPushforwardCommand:
    def test_u1_closed_form_example(self, capsys):
        code, out, err = run_cli(
            capsys, "pushforward", "--group", "u1", "--k", "1", "--s", "1",
            "--links", "64", "--samples", "100000", "--seed", "7",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        cells = lines[1].split(",")
        target = float(cells[4])
        z = float(cells[6])
        assert abs(target - math.exp(-0.5)) < 1e-12
        assert z < 3.0

    def test_su2_trivial_label_zero_variance(self, capsys):
        code, out, _ = run_cli(
            capsys, "pushforward", "--group", "su2", "--n", "0",
            "--s", "1", "--links", "16", "--samples", "1000", "--seed", "1",
        )
        assert code == EXIT_OK
        cells = out.strip().splitlines()[1].split(",")
        assert float(cells[1]) == 1.0  # estimate_re
        assert float(cells[3]) == 0.0  # std_error

    def test_determinism_same_seed(self, capsys):
        args = ["pushforward", "--group", "su2", "--n", "1", "--s", "1",
                "--links", "16", "--samples", "20000", "--seed", "5"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_worker_count_does_not_change_output(self, capsys):
        base = ["pushforward", "--group", "su2", "--n", "1", "--s", "1",
                "--links", "16", "--samples", "20000", "--seed", "5"]
        _, out1, _ = run_cli(capsys, *base, "--workers", "1")
        _, out2, _ = run_cli(capsys, *base, "--workers", "4")
        assert out1 == out2

    def test_json_determinism_modulo_elapsed(self, capsys):
        args = ["pushforward", "--group", "u1", "--k", "2", "--s", "1",
                "--links", "8", "--samples", "5000", "--seed", "3",
                "--format", "json"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        doc1, doc2 = json.loads(out1), json.loads(out2)
        doc1.pop("elapsed_s"), doc2.pop("elapsed_s")
        assert doc1 == doc2

    def test_env_var_supplies_default_seed(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "11")
        args = ["pushforward", "--group", "u1", "--k", "1", "--s", "1",
                "--links", "8", "--samples", "2000"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args, "--seed", "11")
        assert out1 == out2


class TestConfigHandling:
    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "gram", "--s", "0.2", "--hbar", "0.5", "--samples", "100", "--seed", "1",
        )
        assert code == EXIT_CONFIG
        doc = json.loads(err.strip())
        assert doc["error"]["kind"] == "config"

    def test_zero_samples_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "pushforward", "--group", "u1", "--k", "1",
            "--samples", "0", "--seed", "1",
        )
        assert code == EXIT_CONFIG

    def assert_config_error(self, capsys, message, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG and out == ""
        assert json.loads(err.strip())["error"] == {"kind": "config", "message": message}

    def test_gram_zero_links_exit_2(self, capsys):
        self.assert_config_error(capsys, "need at least 2 links",
                                 "gram", "--links", "0", "--samples", "100", "--seed", "1")

    def test_resolution_check_zero_links_exit_2(self, capsys):
        self.assert_config_error(capsys, "need at least 2 links",
                                 "resolution-check", "--links", "0", "--samples", "100", "--seed", "1")

    def test_gram_negative_n_max_exit_2(self, capsys):
        self.assert_config_error(capsys, "n_max must be >= 0",
                                 "gram", "--n-max", "-1", "--samples", "100", "--seed", "1")

    def test_negative_workers_exit_2(self, capsys):
        self.assert_config_error(capsys, "workers must be >= 1",
                                 "pushforward", "--workers", "-3", "--samples", "100", "--seed", "1")

    def test_config_file_defaults_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[pushforward]\ngroup = u1\nlabel = 1\ns = 1.0\nlinks = 8\n"
            "samples = 4000\nseed = 9\n"
        )
        code, out1, _ = run_cli(capsys, "pushforward", "--config", str(cfg))
        assert code == EXIT_OK
        assert ",8," in out1.splitlines()[1]
        # explicit flag overrides the file value
        _, out2, _ = run_cli(capsys, "pushforward", "--config", str(cfg), "--links", "16")
        assert ",16," in out2.splitlines()[1]

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "pushforward", "--config", "/nonexistent.ini")
        assert code == EXIT_CONFIG

    def test_batch_runs_all_sections(self, capsys, tmp_path):
        cfg = tmp_path / "suite.ini"
        cfg.write_text(
            "[warm]\ncommand = pushforward\ngroup = u1\nlabel = 1\ns = 1.0\n"
            "links = 8\nsamples = 4000\nseed = 2\n\n"
            "[radial]\ncommand = radial-laplacian\nprofile = log\n"
        )
        out_dir = tmp_path / "reports"
        out_dir.mkdir()
        code, out, _ = run_cli(capsys, "batch", str(cfg), "--output-dir", str(out_dir))
        assert code == EXIT_OK
        assert (out_dir / "warm.csv").exists()
        assert (out_dir / "radial.csv").exists()

    def test_batch_unknown_command(self, capsys, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[mystery]\ncommand = frobnicate\n")
        code, _, err = run_cli(capsys, "batch", str(cfg))
        assert code == EXIT_CONFIG


class TestOtherCommands:
    def test_euclid_unitarity(self, capsys):
        code, out, _ = run_cli(
            capsys, "euclid-unitarity", "--s", "1", "--hbar", "0.5", "--degree", "8",
        )
        assert code == EXIT_OK
        assert float(out.splitlines()[1].split(",")[1]) < 1e-7

    def test_laplacian_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "laplacian-check", "--group", "u1", "--k", "2",
            "--links", "16", "--seed", "4",
        )
        assert code == EXIT_OK

    def test_semigroup_check(self, capsys):
        code, _, _ = run_cli(
            capsys, "semigroup-check", "--group", "u1", "--k", "1", "--links", "16",
            "--hbar", "0.5", "--samples", "20000", "--seed", "6",
        )
        assert code == EXIT_OK

    def test_coherent_overlap(self, capsys):
        code, out, _ = run_cli(
            capsys, "coherent-overlap", "--group", "su2", "--hbar", "0.8",
            "--trials", "3", "--seed", "8",
        )
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 4  # header + 3 trials

    def test_resolution_check(self, capsys):
        code, _, _ = run_cli(
            capsys, "resolution-check", "--group", "u1", "--n-max", "1",
            "--hbar", "0.5", "--s-list", "2,8", "--links", "8",
            "--samples", "20000", "--seed", "10",
        )
        assert code == EXIT_OK

    def test_geodesic(self, capsys):
        code, _, _ = run_cli(
            capsys, "geodesic", "--group", "su2", "--links", "64", "--seed", "3",
        )
        assert code == EXIT_OK

    def test_submersion(self, capsys):
        code, out, _ = run_cli(
            capsys, "submersion-check", "--group", "su2", "--links", "16", "--seed", "3",
        )
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 4  # header + three singular values

    def test_gram_small(self, capsys):
        code, _, _ = run_cli(
            capsys, "gram", "--group", "u1", "--n-max", "1", "--s", "2",
            "--hbar", "0.5", "--links", "8", "--samples", "20000", "--seed", "12",
        )
        assert code == EXIT_OK

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "radial-laplacian", "--profile", "quadratic", "--output", str(path),
        )
        assert code == EXIT_OK
        assert out == ""
        assert path.read_text().startswith(CSV_HEADER)

    def test_heat_kernel_check(self, capsys):
        code, out, _ = run_cli(capsys, "heat-kernel-check")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 5  # u1 gap + three su2 masses

    def test_casimir_check(self, capsys):
        code, out, _ = run_cli(capsys, "casimir-check", "--seed", "1")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 1 + 5 + 9

    def test_polar_check(self, capsys):
        code, _, _ = run_cli(capsys, "polar-check", "--seed", "1")
        assert code == EXIT_OK

    def test_gauge_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "gauge-check", "--group", "su2", "--links", "16",
            "--trials", "100", "--seed", "2",
        )
        assert code == EXIT_OK
        assert "algebra_drift_halving_ratio" in out

    def test_euclid_unitarity_includes_gaussian_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "euclid-unitarity", "--s", "1", "--hbar", "0.5",
            "--degree", "4", "--seed", "1",
        )
        assert code == EXIT_OK
        assert "flat_gaussian_closed_form" in out


class TestExitCodes:
    def test_statistical_failure_distinct_code(self):
        report = Report(
            command="x", params={},
            rows=[ReportRow("bad", 1.0 + 0j, std_error=0.01, target=2.0 + 0j, z=100.0)],
        )
        assert _exit_code(report) == EXIT_STATISTICAL

    def test_numerical_failure_wins(self):
        report = Report(
            command="x", params={},
            rows=[
                ReportRow("bad_mc", 1.0 + 0j, std_error=0.01, target=2.0 + 0j, z=100.0),
                ReportRow.deterministic("bad_det", 1.0, 2.0, 1e-9),
            ],
        )
        assert _exit_code(report) == EXIT_NUMERICAL

    def test_all_pass(self):
        report = Report(
            command="x", params={},
            rows=[ReportRow.deterministic("ok", 1.0, 1.0, 1e-9)],
        )
        assert _exit_code(report) == EXIT_OK

    def test_numerical_exception_exit_4(self, capsys):
        # the heat-kernel series at hbar = 1e-4 needs more terms than its cap
        code, out, err = run_cli(
            capsys, "coherent-overlap", "--group", "su2", "--hbar", "1e-4",
            "--trials", "5", "--seed", "2",
        )
        assert code == EXIT_NUMERICAL
        assert out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "numerical"
        assert error["message"] == "series peak near term 51697 exceeds the 10000 cap"


class TestCsvReport:
    def test_gram_rows_parse_to_twelve_fields(self, capsys):
        _, out, _ = run_cli(
            capsys, "gram", "--group", "su2", "--n-max", "2", "--s", "2", "--hbar", "0.5",
            "--links", "8", "--samples", "2000", "--seed", "1",
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + 6
        assert all(len(row) == 12 for row in rows)
        assert rows[1][0] == "gram[0,0]"

    def test_rows_without_comma_unchanged(self):
        report = Report(
            command="x", params={"N": 4, "s": 1.0, "samples": 10},
            rows=[
                ReportRow.from_estimate("chi[1]", MCEstimate(0.5 + 0.25j, 0.125, 10), 0.5),
                ReportRow.deterministic("gap", 1e-9, 0.0, 1e-8),
            ],
            seed=3,
        )
        assert report.to_csv() == (
            CSV_HEADER + "\n"
            + "chi[1],0.5,0.25,0.125,0.5,0.0,2.0,4,1.0,,10,3\n"
            + "gap,1e-09,0.0,,0.0,0.0,,4,1.0,,10,3\n"
        )
