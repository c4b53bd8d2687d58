"""Command-line front end: one experiment per invocation, CSV/JSON reports.

Every check in the toolkit is reachable as a subcommand; a declarative INI
file (one experiment per section, key = value) can supply defaults, with
explicit flags taking precedence, and `batch` runs every section of a file.

The command table is the one place a command's options live: `OPTIONS`
gives each option its flags, type, default and help, and `COMMANDS` gives
each subcommand its runner, help line and option keys.  The argument
parser, the defaults, the coercion of INI values and the Monte Carlo sample
check are all read from it.

Exit codes: 0 success, 2 configuration error, 3 statistical failure
(some z-score >= 4), 4 numerical failure (a deterministic row out of
tolerance, or one of NUMERICAL_ERRORS raised).
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import bargmann, coherent, dynamics, lattice, reduction
from .groups import (
    AlgebraVector,
    BranchCutError,
    ComplexGroupElement,
    ConvergenceError,
    GroupElement,
    GroupKind,
    exp_map,
    haar_integrate,
    polar_decompose,
)
from .reporting import Report, ReportRow
from .spectral import CharacterSeries, finite_difference_casimir, heat_kernel, irrep_info

SEED_ENV_VAR = "CYLGAUGE_SEED"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STATISTICAL = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    pass


# failures of the computation (exit 4); several of them subclass ValueError
NUMERICAL_ERRORS = (ConvergenceError, reduction.FDStepError, BranchCutError, bargmann.TailTruncationError,
                    np.linalg.LinAlgError, ZeroDivisionError, FloatingPointError, OverflowError)


def _group_of(name: str) -> GroupKind:
    try:
        return GroupKind(name.lower())
    except ValueError:
        raise ConfigError(f"unknown group {name!r}; expected u1 or su2")


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# Experiment runners: options dict -> Report
# ---------------------------------------------------------------------------


def run_pushforward(o: dict) -> Report:
    group = _group_of(o["group"])
    _require(o["s"] > 0, "s must be positive")
    est, target = lattice.pushforward_moment(
        group, o["label"], o["s"], o["links"], o["samples"], o["seed"],
        n_workers=o["workers"],
    )
    row = ReportRow.from_estimate(f"pushforward_chi[{o['label']}]", est, target)
    return Report(
        command="pushforward",
        params={"N": o["links"], "s": o["s"], "samples": o["samples"],
                "group": group.value, "label": o["label"]},
        rows=[row],
        seed=o["seed"],
    )


def run_gram(o: dict) -> Report:
    group = _group_of(o["group"])
    return reduction.gram_isometry_check(
        group, o["n_max"], o["s"], o["hbar"], o["links"], o["samples"], o["seed"],
        n_workers=o["workers"],
    )


def run_laplacian_check(o: dict) -> Report:
    group = _group_of(o["group"])
    rng = np.random.default_rng(o["seed"])
    L = lattice.smooth_connection(group, o["links"], rng, amplitude=o["amplitude"])
    rep = reduction.laplacian_reduction_check(CharacterSeries.single(group, o["label"]), L)
    rep.seed = o["seed"]
    return rep


def run_semigroup_check(o: dict) -> Report:
    group = _group_of(o["group"])
    rng = np.random.default_rng(o["seed"] + 1)
    base = lattice.smooth_connection(group, o["links"], rng, amplitude=o["amplitude"])
    if o["complex_base"]:
        imag = lattice.smooth_connection(group, o["links"], rng, amplitude=0.3 * o["amplitude"])
        base = lattice.LatticeConnection(group, base.values + 1j * imag.values)
    return reduction.semigroup_reduction_check(
        CharacterSeries.single(group, o["label"]), base, o["hbar"], o["samples"], o["seed"],
        n_workers=o["workers"],
    )


def run_euclid_unitarity(o: dict) -> Report:
    params = bargmann.HeatParams(o["s"], o["hbar"])
    result = bargmann.s_transform_gram_check(params, o["degree"])
    rows = [
        ReportRow.deterministic("gram_deviation", result.max_deviation, 0.0, 1e-7)
    ]
    # flat-transform closed form: Gaussian input reproduces 2^{-1/2} e^{-z^2/4h}
    hbar = o["hbar"]
    sampled = bargmann.SampledFunction1D.from_callable(
        lambda q: np.exp(-(q**2) / (2.0 * hbar)), math.sqrt(hbar), 96
    )
    rng = np.random.default_rng(o["seed"])
    worst = 0.0
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) * math.sqrt(hbar)
        expected = math.sqrt(0.5) * np.exp(-(z**2) / (4.0 * hbar))
        worst = max(worst, abs(bargmann.c_transform(sampled, hbar, z) - expected))
    rows.append(ReportRow.deterministic("flat_gaussian_closed_form", worst, 0.0, 1e-8))
    notes = {}
    if o["c_limit"]:
        limit = bargmann.c_limit_gram_check(o["hbar"], o["s"])
        rows.append(
            ReportRow.deterministic(
                "flat_limit_domain", limit["domain_deviation"], 0.0, 1e-2
            )
        )
        rows.append(
            ReportRow.deterministic(
                "flat_limit_range", limit["range_deviation"], 0.0, 1e-2
            )
        )
        notes["flat_limit"] = limit
    return Report(
        command="euclid-unitarity",
        params={"s": o["s"], "hbar": o["hbar"], "degree": o["degree"]},
        rows=rows,
        seed=o["seed"],
        notes=notes,
    )


def run_heat_kernel_check(o: dict) -> Report:
    worst_u1 = 0.0
    for t in (0.5, 1.0):
        for theta in np.linspace(-math.pi, math.pi, 100):
            series = heat_kernel(GroupKind.U1, t, GroupElement(GroupKind.U1, np.exp(1j * theta)))
            oracle = math.sqrt(2.0 * math.pi / t) * sum(
                math.exp(-((theta + 2.0 * math.pi * m) ** 2) / (2.0 * t))
                for m in range(-30, 31)
            )
            worst_u1 = max(worst_u1, abs(series - oracle))
    rows = [ReportRow.deterministic("u1_wrapped_gaussian_gap", worst_u1, 0.0, 1e-10)]
    for t in (0.5, 1.0, 2.0):
        res = haar_integrate(
            GroupKind.SU2, lambda g: heat_kernel(GroupKind.SU2, t, g),
            level=24, class_function=True,
        )
        rows.append(
            ReportRow.deterministic(f"su2_total_mass[t={t:g}]", res.value, 1.0, 1e-9)
        )
    return Report(command="heat-kernel-check", params={}, rows=rows)


def run_casimir_check(o: dict) -> Report:
    rows = []
    for group, labels in ((GroupKind.SU2, range(5)), (GroupKind.U1, range(-4, 5))):
        for label in labels:
            info = irrep_info(group, label)
            oracle = finite_difference_casimir(group, label, seed=o["seed"])
            rows.append(
                ReportRow.deterministic(
                    f"casimir[{group.value},{label}]", oracle, info.casimir, 1e-6
                )
            )
    return Report(command="casimir-check", params={}, rows=rows, seed=o["seed"])


def run_polar_check(o: dict) -> Report:
    rng = np.random.default_rng(o["seed"])
    worst = 0.0
    for _ in range(1000):
        group = GroupKind.SU2 if rng.uniform() < 0.7 else GroupKind.U1
        dim = group.algebra_dim
        g = exp_map(
            AlgebraVector(group, rng.normal(size=dim)),
            AlgebraVector(group, rng.normal(scale=0.8, size=dim)),
        )
        rec = polar_decompose(g).reconstruct()
        scale = max(1.0, float(np.max(np.abs(np.asarray(g.value)))))
        gap = float(np.max(np.abs(np.asarray(rec.value) - np.asarray(g.value)))) / scale
        worst = max(worst, gap)
    rows = [ReportRow.deterministic("roundtrip_rel_error", worst, 0.0, 1e-9)]
    g = ComplexGroupElement(GroupKind.SU2, np.diag([2.0, 0.5]))
    pc = polar_decompose(g)
    evals, vecs = np.linalg.eigh(g.value.conj().T @ g.value)
    xi = (vecs * (0.5 * np.log(evals))) @ vecs.conj().T
    gap = float(np.max(np.abs(pc.y.embed() - (-1j) * xi)))
    rows.append(ReportRow.deterministic("hermitian_log_example", gap, 0.0, 1e-12))
    return Report(command="polar-check", params={}, rows=rows, seed=o["seed"])


def run_gauge_check(o: dict) -> Report:
    group = _group_of(o["group"])
    rng = np.random.default_rng(o["seed"])
    n = o["links"]
    L = lattice.sample_connection(group, n, o["s"], rng)
    worst = lattice.haar_gauge_drift(L, o["trials"], rng)
    rows = [ReportRow.deterministic("link_holonomy_drift", worst, 0.0, 1e-10)]

    drifts = []
    for k in range(5):
        for m in (16, 32):
            Ls = lattice.smooth_connection(group, m, np.random.default_rng(o["seed"] + 600 + k))
            gm = lattice.smooth_gauge_map(group, m, np.random.default_rng(o["seed"] + 700 + k))
            out = lattice.gauge_transform(Ls, gm, level="algebra")
            drifts.append(
                float(np.max(np.abs(np.asarray(lattice.holonomy(out).value)
                                    - np.asarray(lattice.holonomy(Ls).value))))
            )
    if group is GroupKind.U1:
        # abelian: the algebra-level action keeps the holonomy up to roundoff
        rows.append(ReportRow.deterministic("algebra_holonomy_drift", max(drifts), 0.0, 1e-10))
    else:
        ratios = [fine / coarse for coarse, fine in zip(drifts[0::2], drifts[1::2])]
        rows.append(
            ReportRow.deterministic("algebra_drift_halving_ratio", float(np.mean(ratios)), 0.5, 0.2)
        )
    return Report(
        command="gauge-check",
        params={"N": n, "s": o["s"], "group": group.value, "trials": o["trials"]},
        rows=rows,
        seed=o["seed"],
    )


def run_coherent_overlap(o: dict) -> Report:
    group = _group_of(o["group"])
    rng = np.random.default_rng(o["seed"])
    rows = []
    for trial in range(o["trials"]):
        g = _random_complex_point(group, rng)
        label = coherent.CoherentLabel(g, o["hbar"], o["s"])
        max_label = 3 if group is GroupKind.SU2 else 2
        phi_label = int(rng.integers(0, max_label + 1))
        phi = CharacterSeries.single(group, phi_label)
        res = coherent.coherent_overlap(label, phi, quad_level=o["quad_level"])
        rows.append(
            ReportRow.deterministic(
                f"overlap_route_gap[{trial}]", res.route_analytic,
                res.route_quadrature, 1e-7,
            )
        )
    return Report(
        command="coherent-overlap",
        params={"hbar": o["hbar"], "s": "inf" if math.isinf(o["s"]) else o["s"],
                "group": group.value, "trials": o["trials"]},
        rows=rows,
        seed=o["seed"],
    )


def _random_complex_point(group: GroupKind, rng: np.random.Generator):
    dim = group.algebra_dim
    x = AlgebraVector(group, rng.normal(scale=0.8, size=dim))
    y = AlgebraVector(group, rng.normal(scale=0.4, size=dim))
    return exp_map(x, y)


def run_resolution_check(o: dict) -> Report:
    group = _group_of(o["group"])
    for s in o["s_list"]:  # every s, before the first is sampled
        bargmann.HeatParams(s, o["hbar"])
    return coherent.resolution_identity_check(
        group, o["n_max"], o["hbar"], o["s_list"], o["links"], o["samples"],
        o["seed"], n_workers=o["workers"],
    )


def run_geodesic(o: dict) -> Report:
    group = _group_of(o["group"])
    _require(math.isfinite(o["t_max"]), f"t_max must be finite (got t_max={o['t_max']})")
    rng = np.random.default_rng(o["seed"])
    L = lattice.smooth_connection(group, o["links"], rng, amplitude=o["amplitude"])
    x0 = rng.normal(size=group.algebra_dim)
    x0 = AlgebraVector(group, x0 / np.linalg.norm(x0))
    pt = dynamics.make_constrained_pair(L, x0)
    t_grid = np.linspace(0.0, o["t_max"], o["t_steps"])
    dev, _ = dynamics.geodesic_compare(pt, t_grid)
    tol = 1e-9 if group is GroupKind.U1 else 4.0 / o["links"]
    bad = dynamics.PhasePoint(L, rng.normal(size=L.values.shape))
    dev_bad, _ = dynamics.geodesic_compare(bad, t_grid)
    return Report(
        command="geodesic",
        params={"N": o["links"], "group": group.value, "t_max": o["t_max"]},
        rows=[ReportRow.deterministic("geodesic_deviation", dev, 0.0, tol)],
        seed=o["seed"],
        notes={"unconstrained_deviation": dev_bad},
    )


_PROFILES = {
    "quadratic": (lambda r: r**2, lambda r: 2.0 * r, lambda r: 2.0),
    "log": (math.log, lambda r: 1.0 / r, lambda r: -1.0 / r**2),
    "gaussian": (
        lambda r: math.exp(-(r**2)),
        lambda r: -2.0 * r * math.exp(-(r**2)),
        lambda r: (4.0 * r**2 - 2.0) * math.exp(-(r**2)),
    ),
}


def run_radial_laplacian(o: dict) -> Report:
    _require(o["profile"] in _PROFILES, f"unknown profile {o['profile']!r}")
    f, fp, fpp = _PROFILES[o["profile"]]
    return reduction.radial_laplacian_check(
        f, o["radii"], f_prime=fp, f_second=fpp
    )


def run_submersion_check(o: dict) -> Report:
    group = _group_of(o["group"])
    rng = np.random.default_rng(o["seed"])
    L = lattice.smooth_connection(group, o["links"], rng, amplitude=o["amplitude"])
    _, rep = reduction.submersion_check(L)
    rep.seed = o["seed"]
    return rep


# ---------------------------------------------------------------------------
# The command table
# ---------------------------------------------------------------------------


class Option(NamedTuple):
    flags: tuple
    kind: object  # int, float, bool (a flag), list (comma-separated floats), str or a tuple of choices
    default: object = None  # builtin value; an INI section overrides it, an explicit flag both
    help: Optional[str] = None


class Command(NamedTuple):
    run: Callable[[dict], Report]
    help: str
    keys: tuple


OPTIONS = {
    "group": Option(("--group",), ("u1", "su2"), "su2"),
    "links": Option(("--links",), int, 32, "lattice sites N"),
    "seed": Option(("--seed",), int),
    "config": Option(("--config",), str, help="INI file with defaults"),
    "output": Option(("--output",), str, help="report file (default stdout)"),
    "format": Option(("--format",), ("csv", "json"), "csv"),
    "samples": Option(("--samples",), int, 100_000),
    "workers": Option(("--workers",), int),
    "s": Option(("--s",), float, 1.0, "variance or heat time s (coherent-overlap: omit for limit states)"),
    "hbar": Option(("--hbar",), float, 0.5),
    "label": Option(("--k", "--n"), int, 1, "character label (U1 winding k / SU2 index n)"),
    "n_max": Option(("--n-max",), int, 2),
    "amplitude": Option(("--amplitude",), float, 1.0),
    "complex_base": Option(("--complex-base",), bool, False),
    "degree": Option(("--degree",), int, 8),
    "c_limit": Option(("--c-limit",), bool, False,
                      "add the flat-limit rows; they deviate by about 0.74/s and pass for --s >= 75 "
                      "and --hbar <= 1.98 (above it the transform outruns its quadrature nodes)"),
    "trials": Option(("--trials",), int, 5),
    "quad_level": Option(("--quad-level",), int, 16),
    "s_list": Option(("--s-list",), list, [2.0, 8.0, 32.0], "comma-separated s values"),
    "t_max": Option(("--t-max",), float, 2.0),
    "t_steps": Option(("--t-steps",), int, 9),
    "profile": Option(("--profile",), tuple(sorted(_PROFILES)), "quadratic"),
    "radii": Option(("--radii",), list, [0.5, 1.0, 2.0], "comma-separated radii"),
}

COMMON = ("group", "links", "seed", "config", "output", "format")
MONTE_CARLO = COMMON + ("samples", "workers")

COMMANDS = {
    "pushforward": Command(run_pushforward, "heat-kernel moment of the holonomy pushforward",
                           MONTE_CARLO + ("s", "label")),
    "gram": Command(run_gram, "transform unitarity Gram under the complex Gaussian",
                    MONTE_CARLO + ("s", "hbar", "n_max")),
    "laplacian-check": Command(run_laplacian_check, "lattice Laplacian vs group Laplacian",
                               COMMON + ("label", "amplitude")),
    "semigroup-check": Command(run_semigroup_check, "heat smoothing vs flowed series",
                               MONTE_CARLO + ("hbar", "label", "amplitude", "complex_base")),
    "euclid-unitarity": Command(run_euclid_unitarity, "flat-space transform Gram check",
                                COMMON + ("s", "hbar", "degree", "c_limit")),
    "coherent-overlap": Command(run_coherent_overlap, "overlap route A vs route B",
                                COMMON + ("hbar", "s", "trials", "quad_level")),
    "resolution-check": Command(run_resolution_check, "resolution-of-identity Grams over s",
                                MONTE_CARLO + ("hbar", "n_max", "s_list")),
    "geodesic": Command(run_geodesic, "constrained holonomy follows group geodesics",
                        COMMON + ("amplitude", "t_max", "t_steps")),
    "radial-laplacian": Command(run_radial_laplacian, "planar Laplacian on radial functions",
                                COMMON + ("profile", "radii")),
    "submersion-check": Command(run_submersion_check, "singular values of the holonomy differential",
                                COMMON + ("amplitude",)),
    # oracle-validation commands so the whole acceptance surface is
    # reachable from the command line
    "heat-kernel-check": Command(run_heat_kernel_check, "heat kernel vs wrapped-Gaussian and mass oracles",
                                 COMMON),
    "casimir-check": Command(run_casimir_check, "finite-difference Casimir oracle, labels <= 4", COMMON),
    "polar-check": Command(run_polar_check, "polar decomposition round trips", COMMON),
    "gauge-check": Command(run_gauge_check, "holonomy invariance under based gauge maps",
                           COMMON + ("s", "trials")),
}


def _coerce(key: str, raw):
    """An INI string as the option's type; other values, and keys outside
    the table, pass through."""
    kind = OPTIONS[key].kind if key in OPTIONS else str
    if not isinstance(raw, str) or kind is str or isinstance(kind, tuple):
        return raw
    if kind is bool:
        return raw.strip().lower() in ("1", "true", "yes", "on")
    if kind is list:
        return [float(part) for part in raw.replace(",", " ").split()]
    return kind(raw)


def _resolve_options(command: str, cli_values: dict, config_section) -> dict:
    options = {key: option.default for key, option in OPTIONS.items()}
    if command == "coherent-overlap":
        options["s"] = math.inf  # limit states unless s is given explicitly
    if config_section is not None:
        for key, raw in config_section.items():
            key = key.replace("-", "_")
            options[key] = _coerce(key, raw)
    for key, value in cli_values.items():
        if value is not None:
            options[key] = _coerce(key, value)
    if options.get("seed") is None:
        env_seed = os.environ.get(SEED_ENV_VAR)
        options["seed"] = int(env_seed) if env_seed else 0
    if options.get("workers") is None:
        options["workers"] = os.cpu_count()  # never affects numerical output
    _require(options["links"] >= 2, "need at least 2 links")
    _require(options["n_max"] >= 0, "n_max must be >= 0")
    _require(options["workers"] >= 1, "workers must be >= 1")
    for key in COMMANDS[command].keys:
        if key in ("samples", "trials", "t_steps", "quad_level"):
            _require(int(options[key]) >= 1, f"{key} must be >= 1")
        elif OPTIONS[key].kind is list:
            _require(len(options[key]) > 0, f"{key} must not be empty")
    return options


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


@functools.cache  # built once per process; each parse_args call fills a new namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylgauge",
        description="Holonomy, heat-kernel, and coherent-state checks for "
                    "lattice gauge fields on the circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key in command.keys:
            option = OPTIONS[key]
            # an absent flag parses to None and leaves the INI or builtin value
            kwargs = {"dest": key, "default": None, "help": option.help}
            if option.kind is bool:
                kwargs.update(action="store_const", const=True)
            elif isinstance(option.kind, tuple):
                kwargs["choices"] = list(option.kind)
            elif option.kind in (int, float):
                kwargs["type"] = option.kind
            p.add_argument(*option.flags, **kwargs)

    p = sub.add_parser("batch", help="run every experiment section of an INI file")
    p.add_argument("config_file")
    p.add_argument("--output-dir", default=None)

    return parser


def _read_config(path: str) -> dict:
    """{section: {key: raw value}} of an INI file, read once."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    return {section: dict(parser.items(section)) for section in parser.sections()}


def _emit(report: Report, fmt: str, output: Optional[str]):
    text = report.to_csv() if fmt == "csv" else report.to_json()
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _exit_code(report: Report) -> int:
    kind = report.failure_kind()
    if kind == "numerical":
        return EXIT_NUMERICAL
    if kind == "statistical":
        return EXIT_STATISTICAL
    return EXIT_OK


def _run(command: str, cli_values: dict, section, output_stem: Optional[str] = None) -> int:
    """Resolve options, run and time one command, emit its report to the
    `output` option, else to output_stem plus the format's suffix, else to
    stdout; return the exit code."""
    options = _resolve_options(command, cli_values, section)
    fmt = options.get("format") or "csv"
    started = time.perf_counter()
    report = COMMANDS[command].run(options)
    report.elapsed_s = time.perf_counter() - started
    output = options.get("output")
    if output_stem and not output:
        output = f"{output_stem}.{'csv' if fmt == 'csv' else 'json'}"
    _emit(report, fmt, output)
    return _exit_code(report)


def _run_single(command: str, cli_values: dict) -> int:
    path = cli_values.pop("config", None)
    section = None if path is None else _read_config(path).get(command)
    return _run(command, cli_values, section)


def _run_batch(config_file: str, output_dir: Optional[str]) -> int:
    worst = EXIT_OK
    for section, values in _read_config(config_file).items():
        command = values.pop("command", section)
        if command not in COMMANDS:
            raise ConfigError(f"section [{section}]: unknown command {command!r}")
        stem = os.path.join(output_dir, section) if output_dir else None
        worst = max(worst, _run(command, {}, values, stem))
    return worst


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    values = {k: v for k, v in vars(args).items() if k != "command"}
    try:
        if args.command == "batch":
            return _run_batch(args.config_file, args.output_dir)
        return _run_single(args.command, values)
    except NUMERICAL_ERRORS as exc:
        sys.stderr.write(json.dumps({"error": {"kind": "numerical", "message": str(exc)}}) + "\n")
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(json.dumps({"error": {"kind": "config", "message": str(exc)}}) + "\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
