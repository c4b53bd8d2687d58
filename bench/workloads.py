"""The three benchmark workloads: each is a fixed list of operations on
inputs drawn from the benchmark seed, with every output checked against the
closed forms in closed_forms.py.

An operation that raises counts as failed; an output that misses its closed
form is recorded in `Pass.mismatches` and makes the run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import closed_forms as cf
from cylgauge import cli, coherent, groups, lattice, reduction, spectral

OUT_DIR = Path(__file__).resolve().parent / "out"  # run outputs, ignored by git

SU2 = groups.GroupKind.SU2
U1 = groups.GroupKind.U1

# Family-wise gate on z-scores: about 10 gated rows per pass and a few dozen
# seeds per comparison put the chance of a false alarm at 5 sigma near 1e-4.
Z_GATE = 5.0
# Raw SU(2) rows at N sites carry a lattice bias of c * s / N (s the heat
# time).  Measured c: 0.05 for the pushforward moment at s=1, up to 0.15 for
# the Gram entries at s=8; the budget allows 0.5.
BIAS_BUDGET = 0.5


@dataclass
class Pass:
    """Counts and timings of one pass over a workload's operations."""

    attempted: int = 0
    failed: int = 0
    op_s: dict = field(default_factory=dict)  # seconds per operation name
    mismatches: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    samples: int = 0  # Monte Carlo samples drawn inside estimator calls
    estimator_s: float = 0.0
    reference_s: float = 0.0  # time of the reference estimator
    reference_se: float = 0.0  # and its standard error

    def run(self, name, op):
        self.attempted += 1
        start = time.perf_counter()
        try:
            op()
        except Exception as exc:  # a raising operation is a failed one; keep going
            self.failed += 1
            self.errors.append(f"{name}: {exc!r}")
        self.op_s[name] = self.op_s.get(name, 0.0) + time.perf_counter() - start

    def check(self, ok, message):
        if not ok:
            self.mismatches.append(message)

    def estimator(self, fn, samples, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.samples += samples
        self.estimator_s += elapsed
        return result, elapsed

    def reference(self, seconds, std_error):
        self.reference_s, self.reference_se = seconds, std_error

    def near(self, name, value, target, tol):
        gap = abs(complex(value) - complex(target))
        self.check(gap <= tol, f"{name}: {value} vs closed form {target} (gap {gap:.3g} > {tol:.3g})")

    def gated(self, name, mean, se, target, budget=0.0):
        """Stochastic row: within Z_GATE standard errors plus a bias budget."""
        self.near(name, mean, target, Z_GATE * se + budget + 1e-12)


def _seed(seed, k):
    return (1000 * seed + k) % 2**63  # numpy takes non-negative seeds only


# ---------------------------------------------------------------------------
# mc-refinement: the vectorised Monte Carlo hot path
# ---------------------------------------------------------------------------

MC_WARMUP = ((SU2, (0, 1, 2)), (U1, (1,)))


def _check_study(p, name, study, target, s):
    for n, est, t in zip(study.n_sites, study.estimates, study.targets):
        p.near(f"{name} target at N={n}", t, target, 1e-12)
        p.gated(f"{name} at N={n}", est.mean, est.std_error, target, BIAS_BUDGET * s / n)
    # Richardson removes the O(1/N) bias: only this row gets a bare z-gate
    p.gated(f"{name} extrapolated", study.extrapolated.mean, study.extrapolated.std_error, target)


def mc_refinement(seed, p, span):
    def pushforward_refinement():
        study, dt = p.estimator(
            reduction.pushforward_refinement, 100_000,
            SU2, 1, 1.0, 64, 100_000, _seed(seed, 0), n_levels=3, n_workers=1,
        )
        p.reference(dt, study.extrapolated.std_error)
        _check_study(p, "pushforward_refinement", study, cf.su2_heat_moment(1, 1.0), 1.0)

    def gram_matrix_refinement():
        studies, _ = p.estimator(
            reduction.gram_matrix_refinement, 60_000,
            SU2, 2, 8.0, 0.5, 64, 60_000, _seed(seed, 1), n_levels=2, n_workers=1,
        )
        p.check(sorted(studies) == [(a, b) for a in range(3) for b in range(a, 3)],
                f"gram_matrix_refinement: entries {sorted(studies)}")
        for (a, b), study in studies.items():
            _check_study(p, f"gram[{a},{b}]", study, cf.su2_gram_target(a, b, 8.0), 8.0)

    def pushforward_moment():
        (est, target), _ = p.estimator(
            lattice.pushforward_moment, 100_000,
            U1, 1, 1.0, 64, 100_000, _seed(seed, 2), n_workers=1,
        )
        p.near("u1 pushforward target", target, cf.u1_heat_moment(1, 1.0), 1e-12)
        p.gated("u1 pushforward", est.mean, est.std_error, cf.u1_heat_moment(1, 1.0))

    p.run("pushforward_refinement", pushforward_refinement)
    p.run("gram_matrix_refinement", gram_matrix_refinement)
    p.run("pushforward_moment", pushforward_moment)


# ---------------------------------------------------------------------------
# element-quadrature: scalar group elements and Python-level quadrature
# ---------------------------------------------------------------------------

EQ_WARMUP = ((SU2, (0, 1, 2, 3)), (U1, (1,)))
CHAIN_LENGTH = 100_000


def _su2_chain(p, rng):
    coords = rng.normal(scale=0.3, size=(64, 3))
    factors = [groups.exp_map(groups.AlgebraVector(SU2, c)) for c in coords]
    g = groups.identity(SU2)
    for i in range(CHAIN_LENGTH):
        g = factors[i % 64] * g
    # closed form: whole cycles of the 64 factors, then the leftover ones
    cycle = np.eye(2, dtype=complex)
    for c in coords:
        cycle = cf.su2_exp(c) @ cycle
    rest = np.eye(2, dtype=complex)
    for c in coords[: CHAIN_LENGTH % 64]:
        rest = cf.su2_exp(c) @ rest
    expected = rest @ np.linalg.matrix_power(cycle, CHAIN_LENGTH // 64)
    p.near("su2 chain unitarity defect", cf.unitarity_defect(g.value), 0.0, 1e-10)
    p.near("su2 chain determinant", cf.det2(g.value), 1.0, 1e-10)
    p.near("su2 chain product", np.max(np.abs(g.value - expected)), 0.0, 1e-8)


def _u1_chain(p, rng):
    theta = rng.uniform(-math.pi, math.pi)
    z = groups.exp_map(groups.AlgebraVector(U1, [theta]))
    g = groups.identity(U1)
    for _ in range(CHAIN_LENGTH):
        g = z * g
    p.near("u1 chain modulus", abs(g.value), 1.0, 1e-12)
    p.near("u1 chain product", g.value, np.exp(1j * CHAIN_LENGTH * theta), 1e-8)


def _exp_log(p, group, x):
    back = groups.group_log(groups.exp_map(groups.AlgebraVector(group, x))).coords
    p.near(f"log(exp(x)) on {group.value}", np.max(np.abs(back - x)), 0.0, 1e-9)


def _polar(p, group, x, y):
    g = groups.exp_map(groups.AlgebraVector(group, x), groups.AlgebraVector(group, y))
    pc = groups.polar_decompose(g)
    rec = np.asarray(pc.reconstruct().value)
    value = np.asarray(g.value)
    scale = max(1.0, float(np.max(np.abs(value))))
    p.near(f"polar round trip on {group.value}", np.max(np.abs(rec - value)) / scale, 0.0, 1e-9)
    if group is SU2:
        p.near("polar unitary factor", cf.unitarity_defect(pc.x.value), 0.0, 1e-10)


def _convolution(p, g):
    # integral of rho_1(g x^-1) chi_1(x) dx is the heat-flowed chi_1 at g
    res = groups.haar_integrate(
        SU2, lambda x: spectral.heat_kernel(SU2, 1.0, g * x.inverse()) * spectral.character(SU2, 1, x),
        level=12,
    )
    p.near("convolution identity", res.value, cf.heat_flowed_character(1, 1.0, np.trace(g.value)), 1e-8)


def _heat_mass(p, t):
    res = groups.haar_integrate(
        SU2, lambda g: spectral.heat_kernel(SU2, t, g), level=24, class_function=True
    )
    p.near(f"heat-kernel mass at t={t}", res.value, 1.0, 1e-9)


def _haar_mc(p, seed):
    est, dt = p.estimator(
        groups.haar_integrate, 20_000,
        SU2, lambda g: spectral.heat_kernel(SU2, 1.0, g),
        method="monte_carlo", n_samples=20_000, seed=seed,
    )
    p.reference(dt, est.std_error)
    p.gated("Haar Monte Carlo mass of rho_1", est.mean, est.std_error, 1.0)


def _overlap(p, x, y, n, s):
    g = groups.exp_map(groups.AlgebraVector(SU2, x), groups.AlgebraVector(SU2, y))
    label = coherent.CoherentLabel(g, 0.8, s)
    res = coherent.coherent_overlap(label, spectral.CharacterSeries.single(SU2, n), quad_level=16)
    expected = cf.heat_flowed_character(n, 0.8, np.trace(g.value))
    scale = max(1.0, abs(expected))
    p.near("overlap by the series", res.route_analytic, expected, 1e-10 * scale)
    p.near("overlap by quadrature", res.route_quadrature, expected, 1e-7 * scale)


def _gauge(p, links, h0, rng):
    elems = [groups.identity(SU2)] + [groups.haar_sample(SU2, rng) for _ in range(15)]
    gm = lattice.LatticeGaugeMap(SU2, tuple(elems))
    out = lattice.gauge_transform(links, gm, level="link")
    p.near("holonomy under a link gauge map", np.max(np.abs(out.holonomy().value - h0)), 0.0, 1e-10)


def element_quadrature(seed, p, span):
    rng = np.random.default_rng(_seed(seed, 10))
    p.run("su2 product chain", lambda: _su2_chain(p, rng))
    p.run("u1 product chain", lambda: _u1_chain(p, rng))
    for _ in range(400):
        direction = rng.normal(size=3)
        x = rng.uniform(0.0, 3.0) * direction / np.linalg.norm(direction)
        p.run("su2 exp/log", lambda: _exp_log(p, SU2, x))
    for theta in rng.uniform(-3.0, 3.0, size=100):
        p.run("u1 exp/log", lambda: _exp_log(p, U1, np.array([theta])))
    for _ in range(400):
        x, y = rng.normal(size=3), rng.normal(scale=0.8, size=3)
        p.run("su2 polar", lambda: _polar(p, SU2, x, y))
    for _ in range(100):
        x, y = rng.normal(size=1), rng.normal(scale=0.8, size=1)
        p.run("u1 polar", lambda: _polar(p, U1, x, y))
    g = groups.haar_sample(SU2, rng)
    p.run("convolution", lambda: _convolution(p, g))
    for t in (0.5, 1.0, 2.0):
        p.run("heat mass", lambda: _heat_mass(p, t))
    p.run("haar monte carlo", lambda: _haar_mc(p, _seed(seed, 11)))
    for k in range(20):
        x, y = rng.normal(scale=0.8, size=3), rng.normal(scale=0.4, size=3)
        n = int(rng.integers(0, 4))
        p.run("coherent_overlap", lambda: _overlap(p, x, y, n, math.inf if k % 2 else 2.0))
    conn = lattice.sample_connection(SU2, 16, 1.0, rng)
    links = lattice.links_of(conn)
    h0 = cf.su2_holonomy(conn.values)
    for _ in range(200):
        p.run("gauge_transform", lambda: _gauge(p, links, h0, rng))


# ---------------------------------------------------------------------------
# cli-readme: the README commands, in process
# ---------------------------------------------------------------------------

CLI_WARMUP = ((SU2, (0, 1, 2, 3, 4)), (U1, (0, 1, 2, 3, 4)))

# The README's commands at their documented settings and seeds.  Left out:
# resolution-check, which exits 3 at its documented settings (see CHANGES.md).
README_COMMANDS = (
    "pushforward --group u1 --k 1 --s 1 --links 64 --samples 100000 --seed 7",
    "gram --group su2 --n-max 2 --s 2 --hbar 0.5 --links 32 --samples 100000 --seed 1",
    "laplacian-check --group su2 --n 1 --links 32 --seed 3",
    "semigroup-check --group su2 --n 1 --hbar 0.5 --links 32 --complex-base --seed 5",
    "euclid-unitarity --s 1 --hbar 0.5 --degree 8",
    "coherent-overlap --group su2 --hbar 0.8 --trials 5 --seed 2",
    "geodesic --group su2 --links 64 --seed 3",
    "radial-laplacian --profile log --radii 0.5,1,2",
    "submersion-check --group su2 --links 32 --seed 6",
    "heat-kernel-check",
    "casimir-check",
    "polar-check --seed 1",
    "gauge-check --group su2 --links 16 --trials 1000 --seed 2",
)
MC_COMMANDS = {"pushforward", "gram", "semigroup-check"}  # samples 100000 each
SAMPLES_PER_MC_COMMAND = 100_000


def nproc():
    return len(os.sched_getaffinity(0))


def _smooth(seed, links, amplitude, draws):
    """The smooth connections a CLI command builds from its documented seed:
    default_rng(seed), then smooth_connection once per entry of `draws`."""
    rng = np.random.default_rng(seed)
    return [lattice.smooth_connection(SU2, links, rng, amplitude=amplitude * a).values for a in draws]


def _check_rows(p, command, doc):
    rows = {r["quantity"]: r for r in doc["rows"]}

    def target(name, value, tol=1e-12):
        row = rows[name]
        p.near(f"{command} {name} target", complex(row["target_re"], row["target_im"]), value, tol)

    def estimate(name, value, tol):
        row = rows[name]
        p.near(f"{command} {name}", complex(row["estimate_re"], row["estimate_im"]), value, tol)

    if command == "pushforward":
        target("pushforward_chi[1]", cf.u1_heat_moment(1, 1.0))
        r = rows["pushforward_chi[1]"]
        p.gated("pushforward_chi[1]", complex(r["estimate_re"], r["estimate_im"]), r["std_error"],
                cf.u1_heat_moment(1, 1.0))
    elif command == "gram":
        for a in range(3):
            for b in range(a, 3):
                name, t = f"gram[{a},{b}]", cf.su2_gram_target(a, b, 2.0)
                target(name, t)
                r = rows[name]
                p.gated(name, complex(r["estimate_re"], r["estimate_im"]), r["std_error"], t,
                        BIAS_BUDGET * 2.0 / 32)
    elif command == "laplacian-check":
        (values,) = _smooth(3, 32, 1.0, (1.0,))
        # Delta chi_1 = -c_1 chi_1 at the holonomy
        target("lattice_laplacian", -cf.su2_casimir(1) * np.trace(cf.su2_holonomy(values)), 1e-9)
    elif command == "semigroup-check":
        re, im = _smooth(5 + 1, 32, 1.0, (1.0, 0.3))
        t = cf.heat_flowed_character(1, 0.5, np.trace(cf.su2_holonomy(re + 1j * im)))
        target("semigroup_moment", t, 1e-9)
        r = rows["semigroup_moment"]
        p.gated("semigroup_moment", complex(r["estimate_re"], r["estimate_im"]), r["std_error"], t,
                BIAS_BUDGET * 0.5 / 32)
    elif command == "euclid-unitarity":
        target("gram_deviation", 0.0)
        target("flat_gaussian_closed_form", 0.0)
    elif command == "coherent-overlap":
        rng = np.random.default_rng(2)
        for trial in range(5):
            x, y = rng.normal(scale=0.8, size=3), rng.normal(scale=0.4, size=3)
            n = int(rng.integers(0, 4))
            expected = cf.heat_flowed_character(n, 0.8, np.trace(cf.su2_exp(x + 1j * y)))
            scale = max(1.0, abs(expected))
            estimate(f"overlap_route_gap[{trial}]", expected, 1e-10 * scale)
            target(f"overlap_route_gap[{trial}]", expected, 1e-7 * scale)
    elif command == "geodesic":
        target("geodesic_deviation", 0.0)
    elif command == "radial-laplacian":
        for r in (0.5, 1.0, 2.0):
            # f = log r: f'' + f'/r = 0 and the orbit-volume term f'/r = 1/r^2
            target(f"planar_laplacian[r={r:g}]", 0.0)
            target(f"volume_term[r={r:g}]", 1.0 / r**2)
    elif command == "submersion-check":
        for j in range(3):
            target(f"singular_value[{j}]", 1.0)
    elif command == "heat-kernel-check":
        target("u1_wrapped_gaussian_gap", 0.0)
        for t in ("0.5", "1", "2"):
            target(f"su2_total_mass[t={t}]", 1.0)
    elif command == "casimir-check":
        for n in range(5):
            target(f"casimir[su2,{n}]", cf.su2_casimir(n))
        for k in range(-4, 5):
            target(f"casimir[u1,{k}]", float(k * k))
    elif command == "polar-check":
        target("roundtrip_rel_error", 0.0)
        target("hermitian_log_example", 0.0)
    elif command == "gauge-check":
        target("link_holonomy_drift", 0.0)
        target("algebra_drift_halving_ratio", 0.5)
    for row in doc["rows"]:
        # deterministic rows: recompute the verdict instead of trusting it
        if row["std_error"] is None:
            gap = abs(complex(row["estimate_re"], row["estimate_im"])
                      - complex(row["target_re"], row["target_im"]))
            p.check(gap <= row["tol"], f"{command} {row['quantity']}: error {gap} > tol {row['tol']}")
        p.check(row["passed"], f"{command} {row['quantity']}: passed is false")
    p.check(doc["passed"], f"{command}: report not passed")


def cli_readme(seed, p, span):
    workers = str(nproc())
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        report = os.path.join(tmp, "report")
        for line in README_COMMANDS:
            argv = line.split()
            command = argv[0]
            mc = command in MC_COMMANDS
            argv += ["--format", "json", "--output", report] + (["--workers", workers] if mc else [])

            def op():
                with span(f"cli.{command}"):
                    start = time.perf_counter()
                    code = cli.main(argv)
                    elapsed = time.perf_counter() - start
                if mc:
                    p.samples += SAMPLES_PER_MC_COMMAND
                    p.estimator_s += elapsed
                p.check(code == 0, f"{command}: exit code {code}")
                with open(report) as fh:
                    doc = json.load(fh)
                _check_rows(p, command, doc)
                if command == "gram":
                    p.reference(elapsed, max(r["std_error"] for r in doc["rows"]))

            p.run(command, op)

        # results must not depend on --workers: byte-identical CSV
        csv_text = {}
        for w in ("1", workers):
            def replay():
                path = os.path.join(tmp, f"workers{w}.csv")
                argv = ["pushforward", "--group", "u1", "--k", "1", "--s", "1", "--links", "64",
                        "--samples", "100000", "--seed", str(_seed(seed, 20)), "--workers", w,
                        "--output", path]
                code = cli.main(argv)
                # the CLI gates at z >= 4 (exit 3); the benchmark's own gate is Z_GATE
                p.check(code in (0, 3), f"workers replay: exit code {code}")
                with open(path, "rb") as fh:
                    csv_text[w] = fh.read()
                header, row = list(csv.reader(io.StringIO(csv_text[w].decode())))
                cells = dict(zip(header, row))
                p.near("workers replay target", float(cells["target_re"]), cf.u1_heat_moment(1, 1.0), 1e-12)
                p.gated("workers replay", float(cells["estimate_re"]), float(cells["std_error"]),
                        cf.u1_heat_moment(1, 1.0))

            p.run(f"pushforward --workers {w}", replay)
        p.check(len(set(csv_text.values())) == 1, "CSV differs between --workers 1 and --workers " + workers)


WORKLOADS = {
    "mc-refinement": (mc_refinement, MC_WARMUP),
    "element-quadrature": (element_quadrature, EQ_WARMUP),
    "cli-readme": (cli_readme, CLI_WARMUP),
}


def warm_up(name):
    """First-call work a user pays once per process: the finite-difference
    validation behind irrep_info for every label the workload uses."""
    for group, labels in WORKLOADS[name][1]:
        for label in labels:
            spectral.irrep_info(group, label)
