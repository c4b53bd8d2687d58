import csv
import io
import json
import math

import pytest

from cylgauge import cli
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

from test_readme_commands import readme_commands

HBAR_MESSAGE = "hbar must be positive and finite"
S_MESSAGE = "need finite s > hbar/2 (got s={s}, hbar=0.5); the transform is unitary only in that range"
RADII_MESSAGE = "radii must be finite and above 1e-3, ten steps from the singular orbit r = 0"


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

    @pytest.mark.parametrize("command", ["gauge-check", "coherent-overlap"])
    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_exit_2(self, capsys, command, trials):
        self.assert_config_error(capsys, "trials must be >= 1",
                                 command, "--trials", trials, "--seed", "1")

    @pytest.mark.parametrize("message, argv", [
        ("s_list must not be empty", ["resolution-check", "--s-list="]),
        ("radii must not be empty", ["radial-laplacian", "--radii="]),
        ("t_steps must be >= 1", ["geodesic", "--t-steps", "0"]),
        ("quad_level must be >= 1", ["coherent-overlap", "--quad-level", "0"]),
        ("s must exceed hbar/2 (math.inf selects the limit states)", ["coherent-overlap", "--s", "0"]),
        ("s must exceed hbar/2 (math.inf selects the limit states)", ["coherent-overlap", "--s=-inf"]),
    ], ids=["empty-s-list", "empty-radii", "zero-t-steps", "zero-quad-level", "s-zero", "s-minus-inf"])
    def test_empty_or_zero_options_exit_2(self, capsys, message, argv):
        self.assert_config_error(capsys, message, *argv, "--seed", "1")

    @pytest.mark.parametrize("message, argv", [
        (S_MESSAGE.format(s="nan"), ["euclid-unitarity", "--s", "nan"]),
        (HBAR_MESSAGE, ["euclid-unitarity", "--hbar", "nan"]),
        (S_MESSAGE.format(s="inf"), ["euclid-unitarity", "--s", "inf"]),
        (RADII_MESSAGE, ["radial-laplacian", "--radii", "nan"]),
        (RADII_MESSAGE, ["radial-laplacian", "--radii", "inf"]),
        ("variance parameter s must be finite and nonnegative (got s=inf)",
         ["pushforward", "--s", "inf", "--samples", "100"]),
        (S_MESSAGE.format(s="inf"), ["gram", "--s", "inf", "--samples", "100"]),
        (HBAR_MESSAGE, ["semigroup-check", "--hbar", "inf", "--samples", "100"]),
        (S_MESSAGE.format(s="inf"), ["resolution-check", "--s-list", "2,inf", "--samples", "100"]),
        (HBAR_MESSAGE, ["coherent-overlap", "--hbar", "nan"]),
    ], ids=["euclid-s-nan", "euclid-hbar-nan", "euclid-s-inf", "radii-nan", "radii-inf", "pushforward-s-inf",
            "gram-s-inf", "semigroup-hbar-inf", "resolution-s-inf", "coherent-hbar-nan"])
    def test_non_finite_parameters_exit_2(self, capsys, message, argv):
        self.assert_config_error(capsys, message, *argv, "--seed", "1")

    @pytest.mark.parametrize("message, argv", [
        ("s=1e+200 is too large for degree 8: the norm (2j-1)!! s^j of q^j overflows at j=2",
         ["euclid-unitarity", "--s", "1e200"]),
        ("s=1e+308 is too large: r = 2s - hbar overflows", ["euclid-unitarity", "--s", "1e308"]),
        ("s=1e+308 is too large for N=32 sites: the draw's scale overflows",
         ["pushforward", "--s", "1e308", "--samples", "100"]),
        ("s=1e+308 is too large: r = 2s - hbar overflows", ["gram", "--s", "1e308", "--samples", "100"]),
        ("s=1e+307 is too large for N=32 sites: the draw's scale overflows",
         ["gram", "--s", "1e307", "--samples", "100"]),
        ("s=1e+307 is too large for N=32 sites: the draw's scale overflows",
         ["resolution-check", "--s-list", "2,1e307", "--samples", "100"]),
        ("s=1e+308 is too large for N=32 sites: the draw's scale overflows", ["gauge-check", "--s", "1e308"]),
    ], ids=["euclid-basis", "euclid-r", "pushforward", "gram-r", "gram-draw", "resolution-draw", "gauge-check"])
    def test_huge_finite_s_exit_2(self, capsys, message, argv):
        self.assert_config_error(capsys, message, *argv, "--seed", "1")

    @pytest.mark.parametrize("command, option", [
        ("laplacian-check", "amplitude"), ("submersion-check", "amplitude"),
        ("semigroup-check", "amplitude"), ("geodesic", "t_max"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_option_is_named(self, capsys, command, option, value):
        flag = "--" + option.replace("_", "-")
        self.assert_config_error(capsys, f"{option} must be finite (got {option}={value})",
                                 command, f"{flag}={value}", "--seed", "1")

    def test_coherent_overlap_default_s_is_limit_states(self, capsys):
        code, out, _ = run_cli(capsys, "coherent-overlap", "--trials", "1", "--seed", "1")
        assert code == EXIT_OK
        header, row = out.splitlines()[:2]
        assert row.split(",")[header.split(",").index("s")] == "inf"

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

    def test_typed_ini_keys_resolve(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "typed.ini"
        cfg.write_text(
            "[geo]\ncommand = geodesic\ngroup = u1\nlinks = 8\nt_steps = 5\nt_max = 1.5\n\n"
            "[euclid]\ncommand = euclid-unitarity\ns = 100\ndegree = 4\nc_limit = yes\n\n"
            "[res]\ncommand = resolution-check\ngroup = u1\nn_max = 1\nlinks = 8\n"
            "s_list = 2 8\nsamples = 20000\nseed = 10\n\n"
            "[radial]\ncommand = radial-laplacian\nprofile = log\nradii = 0.5,1\n"
        )
        resolved = {}
        resolve = cli._resolve_options

        def capture(command, cli_values, section):
            resolved[command] = resolve(command, cli_values, section)
            return resolved[command]

        monkeypatch.setattr(cli, "_resolve_options", capture)
        code, _, _ = run_cli(capsys, "batch", str(cfg), "--output-dir", str(tmp_path))
        assert code == EXIT_OK
        geo = resolved["geodesic"]
        assert type(geo["t_steps"]) is int and geo["t_steps"] == 5
        assert type(geo["t_max"]) is float and geo["t_max"] == 1.5
        assert type(geo["links"]) is int and geo["links"] == 8
        assert resolved["euclid-unitarity"]["c_limit"] is True
        s_list = resolved["resolution-check"]["s_list"]
        assert s_list == [2.0, 8.0] and all(type(s) is float for s in s_list)
        radial = resolved["radial-laplacian"]
        assert radial["radii"] == [0.5, 1.0] and all(type(r) is float for r in radial["radii"])
        assert radial["profile"] == "log"

    def test_batch_unknown_command(self, capsys, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[mystery]\ncommand = frobnicate\n")
        code, _, err = run_cli(capsys, "batch", str(cfg))
        assert code == EXIT_CONFIG


def test_cached_parser_keeps_no_parsed_state(monkeypatch):
    """main parses with one parser per process; each call must see only its
    own command and flags."""
    seen = []
    monkeypatch.setattr(cli, "_run_single", lambda command, values: seen.append((command, values)) or EXIT_OK)
    calls = [
        ["euclid-unitarity", "--c-limit", "--s", "75", "--seed", "3"],
        ["polar-check", "--group", "u1", "--format", "json"],
        ["euclid-unitarity"],
        ["pushforward", "--samples", "50", "--links", "4"],
    ]
    for argv in calls:
        assert main(argv) == EXIT_OK
    assert cli._build_parser() is cli._build_parser()
    (c1, v1), (c2, v2), (c3, v3), (c4, v4) = seen
    assert (c1, v1["c_limit"], v1["s"], v1["seed"]) == ("euclid-unitarity", True, 75.0, 3)
    assert c2 == "polar-check" and (v2["group"], v2["format"]) == ("u1", "json")
    assert set(v2) == set(cli.COMMANDS["polar-check"].keys)
    assert c3 == "euclid-unitarity" and set(v3) == set(v1) and all(v is None for v in v3.values())
    assert (c4, v4["samples"], v4["links"], v4["group"], v4["seed"]) == ("pushforward", 50, 4, None, None)


def test_readme_commands_are_table_keys():
    assert {line.split()[1] for line in readme_commands()} <= set(cli.COMMANDS)


@pytest.mark.parametrize("command", [*cli.COMMANDS, "batch"])
def test_subcommand_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: cylgauge {command}")


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

    def test_u1_laplacian_check_at_default_step(self, capsys):
        # a step of 1e-4 max|A| left finite-difference roundoff, which grows
        # as (N / step)^2, above the 1e-6 tolerance: exit 4
        code, _, _ = run_cli(capsys, "laplacian-check", "--group", "u1", "--links", "32", "--seed", "1")
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

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    def test_gauge_check_u1(self, capsys, seed):
        code, out, _ = run_cli(
            capsys, "gauge-check", "--group", "u1", "--links", "16",
            "--trials", "50", "--seed", seed,
        )
        assert code == EXIT_OK
        quantities = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert quantities == ["link_holonomy_drift", "algebra_holonomy_drift"]

    @pytest.mark.parametrize("s, expected", [("75", EXIT_OK), ("74", EXIT_NUMERICAL)])
    def test_euclid_unitarity_c_limit_range(self, capsys, s, expected):
        # the flat-limit rows deviate by about 0.74/s against a 1e-2 tolerance;
        # s = 75 is the smallest integer the --c-limit help text promises
        code, out, _ = run_cli(capsys, "euclid-unitarity", "--c-limit", "--s", s)
        assert code == expected
        assert "flat_limit_range" in out

    @pytest.mark.parametrize("hbar, expected", [("1.98", EXIT_OK), ("2", EXIT_NUMERICAL)])
    def test_euclid_unitarity_c_limit_hbar_range(self, capsys, hbar, expected):
        # 1.98 is the largest hbar the --c-limit help text promises; above
        # it c_transform's kernel outgrows its nodes (TailTruncationError)
        code, _, _ = run_cli(capsys, "euclid-unitarity", "--c-limit", "--s", "100", "--hbar", hbar)
        assert code == expected

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
