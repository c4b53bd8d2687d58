"""Command-line front end: one experiment per invocation, CSV/JSON reports.

Every check in the toolkit is reachable as a subcommand; a declarative INI
file (one experiment per section, key = value) can supply defaults, with
explicit flags taking precedence, and `batch` runs every section of a file.

Exit codes: 0 success, 2 configuration error, 3 statistical failure
(some z-score >= 4), 4 numerical failure (a deterministic row out of
tolerance, or one of NUMERICAL_ERRORS raised).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from typing import Optional

import numpy as np

from . import bargmann, coherent, dynamics, lattice, reduction
from .groups import BranchCutError, ConvergenceError, GroupKind
from .reporting import Report, ReportRow
from .spectral import CharacterSeries

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


def _phi_single(group: GroupKind, label: int) -> CharacterSeries:
    return CharacterSeries.single(group, label)


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
    _require(o["s"] > o["hbar"] / 2.0, "need s > hbar/2")
    rep = reduction.gram_isometry_check(
        group, o["n_max"], o["s"], o["hbar"], o["links"], o["samples"], o["seed"],
        n_workers=o["workers"],
    )
    rep.params["samples"] = o["samples"]
    return rep


def run_laplacian_check(o: dict) -> Report:
    group = _group_of(o["group"])
    rng = np.random.default_rng(o["seed"])
    L = lattice.smooth_connection(group, o["links"], rng, amplitude=o["amplitude"])
    rep = reduction.laplacian_reduction_check(_phi_single(group, o["label"]), L)
    rep.seed = o["seed"]
    return rep


def run_semigroup_check(o: dict) -> Report:
    group = _group_of(o["group"])
    _require(o["hbar"] > 0, "hbar must be positive")
    rng = np.random.default_rng(o["seed"] + 1)
    base = lattice.smooth_connection(group, o["links"], rng, amplitude=o["amplitude"])
    if o["complex_base"]:
        imag = lattice.smooth_connection(group, o["links"], rng, amplitude=0.3 * o["amplitude"])
        base = lattice.ComplexLatticeConnection(group, base.values, imag.values)
    return reduction.semigroup_reduction_check(
        _phi_single(group, o["label"]), base, o["hbar"], o["samples"], o["seed"],
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
    from .groups import GroupElement, haar_integrate
    from .spectral import heat_kernel

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
    from .spectral import finite_difference_casimir, irrep_info

    rows = []
    for group, labels in ((GroupKind.SU2, range(5)), (GroupKind.U1, range(-4, 5))):
        for label in labels:
            info = irrep_info(group, abs(label) if group is GroupKind.U1 else label)
            oracle = finite_difference_casimir(group, label, seed=o["seed"])
            rows.append(
                ReportRow.deterministic(
                    f"casimir[{group.value},{label}]", oracle, info.casimir, 1e-6
                )
            )
    return Report(command="casimir-check", params={}, rows=rows, seed=o["seed"])


def run_polar_check(o: dict) -> Report:
    from .groups import AlgebraVector, ComplexGroupElement, exp_map, polar_decompose

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
    from .groups import haar_sample, identity as group_identity

    group = _group_of(o["group"])
    rng = np.random.default_rng(o["seed"])
    n = o["links"]
    L = lattice.sample_connection(group, n, o["s"], rng)
    h0 = np.asarray(lattice.holonomy(L).value)
    worst = 0.0
    for _ in range(o["trials"]):
        elems = [group_identity(group)] + [haar_sample(group, rng) for _ in range(n - 1)]
        gm = lattice.LatticeGaugeMap(group, tuple(elems))
        h1 = np.asarray(lattice.gauge_transform(L, gm, level="link").holonomy().value)
        worst = max(worst, float(np.max(np.abs(h1 - h0))))
    rows = [ReportRow.deterministic("link_holonomy_drift", worst, 0.0, 1e-10)]

    ratios = []
    for k in range(5):
        drifts = []
        for m in (16, 32):
            Ls = lattice.smooth_connection(group, m, np.random.default_rng(o["seed"] + 600 + k))
            gm = lattice.smooth_gauge_map(group, m, np.random.default_rng(o["seed"] + 700 + k))
            out = lattice.gauge_transform(Ls, gm, level="algebra")
            drifts.append(
                float(np.max(np.abs(np.asarray(lattice.holonomy(out).value)
                                    - np.asarray(lattice.holonomy(Ls).value))))
            )
        ratios.append(drifts[1] / drifts[0])
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
        label = coherent.CoherentLabel(g, o["hbar"], o["s"] if o["s"] else math.inf)
        max_label = 3 if group is GroupKind.SU2 else 2
        phi_label = int(rng.integers(0, max_label + 1))
        phi = _phi_single(group, phi_label)
        res = coherent.coherent_overlap(label, phi, quad_level=o["quad_level"])
        rows.append(
            ReportRow.deterministic(
                f"overlap_route_gap[{trial}]", res.route_analytic,
                res.route_quadrature, 1e-7,
            )
        )
    return Report(
        command="coherent-overlap",
        params={"hbar": o["hbar"], "s": o["s"] if o["s"] else "inf",
                "group": group.value, "trials": o["trials"]},
        rows=rows,
        seed=o["seed"],
    )


def _random_complex_point(group: GroupKind, rng: np.random.Generator):
    from .groups import AlgebraVector, exp_map

    dim = group.algebra_dim
    x = AlgebraVector(group, rng.normal(scale=0.8, size=dim))
    y = AlgebraVector(group, rng.normal(scale=0.4, size=dim))
    return exp_map(x, y)


def run_resolution_check(o: dict) -> Report:
    group = _group_of(o["group"])
    for s in o["s_list"]:
        _require(s > o["hbar"] / 2.0, f"s = {s} must exceed hbar/2")
    rep = coherent.resolution_identity_check(
        group, o["n_max"], o["hbar"], o["s_list"], o["links"], o["samples"],
        o["seed"], n_workers=o["workers"],
    )
    rep.params["samples"] = o["samples"]
    return rep


def run_geodesic(o: dict) -> Report:
    group = _group_of(o["group"])
    rng = np.random.default_rng(o["seed"])
    L = lattice.smooth_connection(group, o["links"], rng, amplitude=o["amplitude"])
    from .groups import AlgebraVector

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


RUNNERS = {
    "pushforward": run_pushforward,
    "gram": run_gram,
    "laplacian-check": run_laplacian_check,
    "semigroup-check": run_semigroup_check,
    "euclid-unitarity": run_euclid_unitarity,
    "coherent-overlap": run_coherent_overlap,
    "resolution-check": run_resolution_check,
    "geodesic": run_geodesic,
    "radial-laplacian": run_radial_laplacian,
    "submersion-check": run_submersion_check,
    # oracle-validation commands so the whole acceptance surface is
    # reachable from the command line
    "heat-kernel-check": run_heat_kernel_check,
    "casimir-check": run_casimir_check,
    "polar-check": run_polar_check,
    "gauge-check": run_gauge_check,
}

# builtin defaults; an INI section may override, explicit flags win
DEFAULTS = {
    "group": "su2",
    "links": 32,
    "s": 1.0,
    "hbar": 0.5,
    "label": 1,
    "n_max": 2,
    "samples": 100_000,
    "workers": None,
    "amplitude": 1.0,
    "degree": 8,
    "c_limit": False,
    "complex_base": False,
    "trials": 5,
    "quad_level": 16,
    "s_list": [2.0, 8.0, 32.0],
    "t_max": 2.0,
    "t_steps": 9,
    "profile": "quadratic",
    "radii": [0.5, 1.0, 2.0],
    "format": "csv",
    "output": None,
}

_INT_KEYS = {"links", "label", "n_max", "samples", "workers", "degree",
             "trials", "quad_level", "t_steps", "seed"}
_FLOAT_KEYS = {"s", "hbar", "amplitude", "t_max"}
_BOOL_KEYS = {"c_limit", "complex_base"}
_LIST_KEYS = {"s_list", "radii"}


def _coerce(key: str, raw):
    if raw is None:
        return None
    if isinstance(raw, str):
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _BOOL_KEYS:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        if key in _LIST_KEYS:
            return [float(part) for part in raw.replace(",", " ").split()]
    return raw


def _resolve_options(command: str, cli_values: dict, config_section) -> dict:
    options = dict(DEFAULTS)
    if command == "coherent-overlap":
        options["s"] = 0.0  # falsy: limit states unless s is given explicitly
    options["seed"] = None
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
    if command in ("pushforward", "gram", "semigroup-check", "resolution-check"):
        _require(int(options["samples"]) >= 1, "samples must be >= 1")
    return options


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylgauge",
        description="Holonomy, heat-kernel, and coherent-state checks for "
                    "lattice gauge fields on the circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, mc: bool = False):
        p.add_argument("--group", choices=["u1", "su2"], default=None)
        p.add_argument("--links", type=int, default=None, help="lattice sites N")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="INI file with defaults")
        p.add_argument("--output", default=None, help="report file (default stdout)")
        p.add_argument("--format", choices=["csv", "json"], default=None)
        if mc:
            p.add_argument("--samples", type=int, default=None)
            p.add_argument("--workers", type=int, default=None)

    p = sub.add_parser("pushforward", help="heat-kernel moment of the holonomy pushforward")
    add_common(p, mc=True)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--k", "--n", dest="label", type=int, default=None,
                   help="character label (U1 winding k / SU2 index n)")

    p = sub.add_parser("gram", help="transform unitarity Gram under the complex Gaussian")
    add_common(p, mc=True)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)

    p = sub.add_parser("laplacian-check", help="lattice Laplacian vs group Laplacian")
    add_common(p)
    p.add_argument("--k", "--n", dest="label", type=int, default=None)
    p.add_argument("--amplitude", type=float, default=None)

    p = sub.add_parser("semigroup-check", help="heat smoothing vs flowed series")
    add_common(p, mc=True)
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--k", "--n", dest="label", type=int, default=None)
    p.add_argument("--amplitude", type=float, default=None)
    p.add_argument("--complex-base", dest="complex_base", action="store_const",
                   const=True, default=None)

    p = sub.add_parser("euclid-unitarity", help="flat-space transform Gram check")
    add_common(p)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--c-limit", dest="c_limit", action="store_const",
                   const=True, default=None)

    p = sub.add_parser("coherent-overlap", help="overlap route A vs route B")
    add_common(p)
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--s", type=float, default=None, help="finite s (omit for limit states)")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--quad-level", dest="quad_level", type=int, default=None)

    p = sub.add_parser("resolution-check", help="resolution-of-identity Grams over s")
    add_common(p, mc=True)
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--s-list", dest="s_list", default=None,
                   help="comma-separated s values")

    p = sub.add_parser("geodesic", help="constrained holonomy follows group geodesics")
    add_common(p)
    p.add_argument("--amplitude", type=float, default=None)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--t-steps", dest="t_steps", type=int, default=None)

    p = sub.add_parser("radial-laplacian", help="planar Laplacian on radial functions")
    add_common(p)
    p.add_argument("--profile", choices=sorted(_PROFILES), default=None)
    p.add_argument("--radii", default=None, help="comma-separated radii")

    p = sub.add_parser("submersion-check", help="singular values of the holonomy differential")
    add_common(p)
    p.add_argument("--amplitude", type=float, default=None)

    p = sub.add_parser("heat-kernel-check", help="heat kernel vs wrapped-Gaussian and mass oracles")
    add_common(p)

    p = sub.add_parser("casimir-check", help="finite-difference Casimir oracle, labels <= 4")
    add_common(p)

    p = sub.add_parser("polar-check", help="polar decomposition round trips")
    add_common(p)

    p = sub.add_parser("gauge-check", help="holonomy invariance under based gauge maps")
    add_common(p)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)

    p = sub.add_parser("batch", help="run every experiment section of an INI file")
    p.add_argument("config_file")
    p.add_argument("--output-dir", default=None)

    return parser


def _load_section(path: Optional[str], section: str):
    if path is None:
        return None
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if parser.has_section(section):
        return dict(parser.items(section))
    return None


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
    report = RUNNERS[command](options)
    report.elapsed_s = time.perf_counter() - started
    output = options.get("output")
    if output_stem and not output:
        output = f"{output_stem}.{'csv' if fmt == 'csv' else 'json'}"
    _emit(report, fmt, output)
    return _exit_code(report)


def _run_single(command: str, cli_values: dict) -> int:
    section = _load_section(cli_values.pop("config", None), command)
    return _run(command, cli_values, section)


def _run_batch(config_file: str, output_dir: Optional[str]) -> int:
    parser = configparser.ConfigParser()
    if not parser.read(config_file):
        raise ConfigError(f"cannot read config file {config_file!r}")
    worst = EXIT_OK
    for section in parser.sections():
        values = dict(parser.items(section))
        command = values.pop("command", section)
        if command not in RUNNERS:
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
