"""End-to-end acceptance suite.

One test per criterion; each prints a single pass/fail line.  The heavy
shared solves (both cosh-mode families at h = 1/64 and 1/128) live in
session fixtures.  Expected values come from closed forms, hand-built
dense eigensolves, tensor-product eigenvalue oracles and brute-force
quotient minimization; they are computed here, never copied from the
implementation under test.
"""

import json
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from conftest import (
    BS,
    cosh_energy,
    face_mask,
    grads_at_quads,
    make_strip,
    numeric_cutoff_minimum,
    solve_cosh_dirichlet,
    solve_cosh_neumann,
    solve_linear,
)
from svplab import asymptotics as asym
from svplab import energetics as en
from svplab import frequency as fr
from svplab import geometry as geo
from svplab import solver as sv
from svplab import structure as st
from svplab import zones as zn
from svplab.config import parse_config
from svplab.runner import run

PI = math.pi
PI2 = math.pi**2


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def fields64():
    return {
        "dirichlet": solve_cosh_dirichlet(1 / 64),
        "neumann": solve_cosh_neumann(1 / 64),
    }


@pytest.fixture(scope="module")
def fields128():
    return {
        "dirichlet": solve_cosh_dirichlet(1 / 128),
        "neumann": solve_cosh_neumann(1 / 128),
    }


def sym_stations():
    return np.arange(-2.75, 2.751, 0.25)


def lam_profile():
    return en.constant_rate_profile("lambda", 2.0, sym_stations(), PI2)


def mu_profile():
    return en.constant_rate_profile("mu", 2.0, sym_stations(), PI2)


def test_criterion_1_structure_suite():
    op = st.StructureOperator(p=3.0, nu1=1.0, nu2=2.0,
                              coefficient=st.Coefficient("oscillation", (2.0,), 1.0, 2.0))
    rep = st.check_structure(op, 10000, seed=0, tol=1e-12)
    ok = rep.passed
    # potential-gradient finite differences at h = 1e-5, 1e-6 relative
    rng = np.random.default_rng(1)
    h = 1e-5
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        opp = st.constant_operator(p)
        for _ in range(200):
            xi = rng.normal(size=3)
            xi *= rng.uniform(0.1, 10.0) / np.linalg.norm(xi)
            eps = rng.normal(size=3)
            eps /= np.linalg.norm(eps)
            fd = (st.potential(opp, 0.0, xi + h * eps)
                  - st.potential(opp, 0.0, xi - h * eps)) / (2 * h)
            exact = float(st.evaluate(opp, 0.0, xi) @ eps)
            worst = max(worst, abs(fd - exact) / max(abs(exact), 1e-12))
    ok = ok and worst <= 1e-6
    report(1, ok, f"structure margins (homog {rep.worst_homogeneity:.2e}, "
                  f"ellipticity {min(rep.worst_lower, rep.worst_upper):.2e}), "
                  f"potential FD worst {worst:.2e}")


def dense_interval(length, cells, bc):
    h = length / cells
    n = cells + 1
    K = np.zeros((n, n))
    M = np.zeros((n, n))
    for e in range(cells):
        K[e:e + 2, e:e + 2] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
        M[e:e + 2, e:e + 2] += h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    keep = {"dirichlet": slice(1, n - 1), "left": slice(1, n), "neumann": slice(0, n)}[bc]
    K, M = K[keep, keep], M[keep, keep]
    return np.sort(scipy.linalg.eigh(K, M, eigvals_only=True))


def test_criterion_2_frequency_oracles():
    checks = []
    sec = geo.interval_section(1.0, 256)
    lam = fr.compute_frequency(sec, 2.0, fr.FIRST)
    oracle = dense_interval(1.0, 256, "dirichlet")[0]
    checks.append(abs(lam.value - PI2) / PI2 <= 0.005)
    checks.append(abs(lam.value - oracle) / oracle <= 1e-8)

    third = fr.compute_frequency(geo.interval_section(1.0, 256, dirichlet="low"), 2.0,
                                 fr.THIRD)
    oracle = dense_interval(1.0, 256, "left")[0]
    checks.append(abs(third.value - PI2 / 4) / (PI2 / 4) <= 0.005)
    checks.append(abs(third.value - oracle) / oracle <= 1e-8)

    mu = fr.compute_frequency(sec, 2.0, fr.SECOND)
    oracle = dense_interval(1.0, 256, "neumann")[1]
    checks.append(abs(mu.value - PI2) / PI2 <= 0.005)
    checks.append(abs(mu.value - oracle) / oracle <= 1e-8)

    sq = geo.rectangle_section((1.0, 1.0), (256, 256))
    musq = fr.compute_frequency(sq, 2.0, fr.SECOND)
    eigs1d = dense_interval(1.0, 256, "neumann")
    sums = np.sort([a + b for a in eigs1d[:3] for b in eigs1d[:3]])
    tensor_oracle = sums[sums > 1e-10][0]
    checks.append(abs(musq.value - PI2) / PI2 <= 0.01)
    checks.append(abs(musq.value - tensor_oracle) / tensor_oracle <= 1e-8)

    scale_ok = True
    for p in (1.5, 2.0, 3.0):
        v1 = fr.compute_frequency(geo.interval_section(1.0, 256), p, fr.FIRST).value
        v2 = fr.compute_frequency(geo.interval_section(2.0, 256), p, fr.FIRST).value
        scale_ok = scale_ok and abs(v2 - v1 / 2.0**p) / (v1 / 2.0**p) <= 1e-8
    checks.append(scale_ok)
    report(2, all(checks),
           f"lambda={lam.value:.6f}, lambda_one_end={third.value:.6f}, "
           f"mu={mu.value:.6f}, mu_square={musq.value:.6f}, scaling to 1e-8")


def test_criterion_3_general_p_frequency():
    cells = 128
    sec = geo.interval_section(1.0, cells)
    res = fr.compute_frequency(sec, 3.0, fr.FIRST)
    grid = sec.grid
    w = grid.quad_weights
    free = ~face_mask(grid, sec.pinned)

    def quotient(ufree):
        u = np.zeros(grid.n_nodes)
        u[free] = ufree
        g = grads_at_quads(grid, u)
        num = float(np.sum(w * np.sum(g**2, axis=-1) ** 1.5))
        den = float(np.sum(w * np.abs(grid.vals_at_quads(u)) ** 3))
        return num / den

    x0 = np.sin(PI * np.linspace(0.0, 1.0, grid.n_nodes))[free]
    brute = scipy.optimize.minimize(quotient, x0, method="L-BFGS-B",
                                    options={"maxiter": 20000, "ftol": 1e-14})
    ok = abs(res.value - brute.fun) / brute.fun <= 0.01
    report(3, ok, f"lambda_3 inverse iteration {res.value:.6f} vs brute force {brute.fun:.6f}")


def test_criterion_4_solver_exactness(fields64):
    ok = True
    for p in (2.0, 4.0):
        dom = make_strip(("neumann", "neumann"), 1.0)
        mesh = geo.build_mesh(dom, 1 / 8)
        bc = sv.BoundarySpec(g_low=lambda x: np.full(len(x), -1.0),
                             g_high=lambda x: np.full(len(x), 1.0),
                             lateral=("neumann", "neumann"))
        f = sv.solve(dom, mesh, st.constant_operator(p), bc)
        err = np.max(np.abs(f.values - mesh.grid.nodes[:, 1]))
        ok = ok and err <= 1e-12

    errs = []
    hs = (1 / 16, 1 / 32, 1 / 64)
    for h in hs:
        f = fields64["dirichlet"] if h == 1 / 64 else solve_cosh_dirichlet(h)
        nodes = f.mesh.grid.nodes
        exact = np.cosh(PI * nodes[:, 1]) * np.sin(PI * nodes[:, 0]) / math.cosh(PI * BS)
        errs.append(np.max(np.abs(f.values - exact)))
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    ok = ok and order >= 1.9
    report(4, ok, f"linear fields exact to 1e-12 (p=2,4); cosh order {order:.3f} >= 1.9")


DIRICHLET_PAIRS = [(0.0, 1.0, 2.0), (0.0, 1.0, 2.5), (0.0, 0.5, 2.5), (0.0, 0.5, 2.0), (0.25, 1.0, 2.0)]
NEUMANN_PAIRS = [(0.0, 1.0, 2.0), (0.0, 1.0, 2.5), (0.0, 0.5, 2.5)]
SYM_PAIRS = [(1.0, 2.0), (1.0, 2.5), (0.5, 2.5)]


def closed_form_margin_neumann(t, t1, t2):
    c1 = (2.0 / PI) * math.cosh(PI * t) / math.cosh(PI * BS)
    lhs = cosh_energy(t, t1) + c1
    rhs = (cosh_energy(t, t2) + c1) * math.exp(-PI * (t2 - t1))
    return rhs - lhs


def test_criterion_5_saint_venant(fields64, fields128):
    ok = True
    details = []
    for family, pairs, profile in (
        ("dirichlet", DIRICHLET_PAIRS, lam_profile()),
        ("neumann", NEUMANN_PAIRS, mu_profile()),
    ):
        check_fn = en.svp_check_dirichlet if family == "dirichlet" else en.svp_check_neumann
        for (t, t1, t2) in pairs:
            if family == "neumann":
                assert closed_form_margin_neumann(t, t1, t2) > 0  # oracle sanity
            chk = check_fn(fields64[family], profile, t, t1, t2)
            chk2 = check_fn(fields128[family], profile, t, t1, t2)
            tol = 2.0 * abs(chk.margin - chk2.margin)
            ok = ok and chk.margin >= -tol
        for (t1, t2) in SYM_PAIRS:
            chk = en.svp_symmetric_check(fields64[family], profile, t1, t2)
            chk2 = en.svp_symmetric_check(fields128[family], profile, t1, t2)
            tol = 2.0 * abs(chk.margin - chk2.margin)
            ok = ok and chk.margin >= -tol
            # bound factor realizes rate pi for p = 2
            expected = math.exp(-PI * (t2 - t1))
            ok = ok and abs(chk.extra["factor_right"] - expected) / expected <= 0.005

    prof = en.energy_profile(fields64["dirichlet"], 0.0, np.arange(0.25, 2.751, 0.25),
                             fit_window=(1.0, 2.5))
    slope_ok = abs(prof.slope - 2 * PI) / (2 * PI) <= 0.02
    ok = ok and slope_ok
    rate = math.sqrt(PI2)
    report(5, ok, f"all decay checks pass within calibrated tolerance; "
                  f"log I2 slope {prof.slope:.4f} = 2pi +- 2%; bound rate {rate:.5f} = pi")


def test_criterion_6_coarea(fields64, fields128):
    rels = []
    for f in (fields64["dirichlet"], fields128["dirichlet"]):
        prof = en.energy_profile(f, 0.0, [1.0, 1.5, 2.0, 2.5])
        rels.append(float(np.max(np.abs(prof.dI_dtau - prof.section_energies)
                                 / prof.section_energies)))
    ok = rels[0] <= 0.03 and rels[1] < rels[0]
    report(6, ok, f"|dI/dtau - section energy| {rels[0]:.4f} <= 3% at h=1/64, "
                  f"{rels[1]:.4f} at h=1/128")


def test_criterion_7_optimal_cutoff(fields64, fields128):
    ok = True
    # analytic cases
    stt = np.linspace(1.0, 2.0, 257)
    res_const = asym.optimal_cutoff(
        asym.SectionMassProfile(stt, np.full(257, 3.0), 0.0, 2.0), 1.0, 2.0, 2.0)
    ok = ok and abs(res_const.value - 3.0) <= 1e-10
    res_lin = asym.optimal_cutoff(
        asym.SectionMassProfile(stt, stt.copy(), 0.0, 2.0), 1.0, 2.0, 2.0)
    ok = ok and abs(res_lin.value - 1.0 / math.log(2.0)) / (1.0 / math.log(2.0)) <= 1e-4
    # numeric piecewise-linear minimum within 0.5% at 256 sub-stations
    mass = asym.SectionMassProfile(stt, 1.0 + np.sin(3.0 * stt) ** 2, 0.0, 3.0)
    res = asym.optimal_cutoff(mass, 1.0, 2.0, 3.0)
    numeric = numeric_cutoff_minimum(mass, 1.0, 2.0, 3.0)
    ok = ok and abs(numeric - res.value) / res.value <= 0.005
    # the bound with C7 = 2 p^p (nu2/nu1)^p passes on every solved field
    ok = ok and asym.bound_constant(st.constant_operator(2.0)) == 8.0
    for fields in (fields64, fields128):
        for family, c in (("dirichlet", 0.0), ("neumann", 0.0)):
            f = fields[family]
            res_b = asym.cutoff_bound(f, c, 1.0, 2.0)
            ok = ok and res_b.passed and res_b.margin > 0
    report(7, ok, f"closed-form A vs numeric min rel "
                  f"{abs(numeric - res.value) / res.value:.2e}; "
                  f"analytic cases exact; bound passes on all solved fields")


def test_criterion_8_zones(fields64):
    ok = True
    f = fields64["dirichlet"]
    sweep = np.logspace(-7, -2, 10)
    prof = lam_profile()
    for fn, kwargs in ((zn.w1p_zone, {}), (zn.lp_zone, {"C5": 1.0}), (zn.sup_zone, {"C6": 1.0})):
        taus = [fn(f, s).tau_meas for s in sweep]
        ok = ok and all(a <= b + 1e-12 for a, b in zip(taus, taus[1:]))
        for s in sweep:
            rep_ = fn(f, s, rate_profile=prof, tau_outer=2.5, **kwargs)
            if rep_.tau_pred is not None:
                ok = ok and rep_.tau_pred <= rep_.tau_meas + 1e-12
    fn_ = fields64["neumann"]
    for s in sweep:
        rep_ = zn.w1p_zone(fn_, s, rate_profile=mu_profile(), tau_outer=2.5)
        if rep_.tau_pred is not None:
            ok = ok and rep_.tau_pred <= rep_.tau_meas + 1e-12
    # linear-field closed forms hit the predicted stations exactly (h = 1/16)
    lin = solve_linear(1 / 16)
    h = 1 / 16
    ok = ok and zn.w1p_zone(lin, 0.5).tau_meas == pytest.approx(0.25 - h, rel=1e-12)
    ok = ok and zn.lp_zone(lin, 2.0 / 3.0).tau_meas == pytest.approx(1.0 - h, rel=1e-12)
    ok = ok and zn.sup_zone(lin, 0.25).tau_meas == pytest.approx(0.25 - h, rel=1e-12)
    report(8, ok, "zone monotonicity over 10-point sweep, prediction soundness, "
                  "linear-field stations exact")


def test_criterion_9_rate_identity_and_radial_profile():
    dom = make_strip(("neumann", "neumann"), 2.0)
    mesh = geo.build_mesh(dom, 1 / 16)
    pairs = fr.frequency_profile(mesh, 2.0, fr.SECOND, [-1.5, -0.5, 0.0, 0.5, 1.5], {})
    vals = np.array([r.value for _, r in pairs])
    layer_ok = (vals.max() - vals.min()) <= 1e-10 * vals.max()

    rdom = geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial",
                               alpha=1.0, beta=5.0, lateral_bc=("neumann", "neumann"))
    rmesh = geo.build_mesh(rdom, 1 / 16)
    stations = [1.5, 2.0, 3.0, 4.0]
    rpairs = fr.frequency_profile(rmesh, 2.0, fr.SECOND, stations, {})
    rvals = np.array([r.value for _, r in rpairs])
    expected = np.array([min(PI2, 1.0 / t**2) for t in stations])
    radial_ok = np.all(np.abs(rvals - expected) / expected <= 0.01)
    monotone_ok = np.all(np.diff(rvals) <= 1e-14)
    ok = layer_ok and radial_ok and monotone_ok
    report(9, ok, f"layer mu profile constant to 1e-10; radial profile "
                  f"{[f'{v:.4f}' for v in rvals]} = min(pi^2/L^2, 1/tau^2) +- 1%, non-increasing")


NEGATIVE_CONTROL_CONFIG = """\
schema 1
[domain]
n = 2
k = 1
base = 0 1
axial = layer
alpha = 1
beta = 7
lateral = dirichlet0 dirichlet0
[operator]
p = 2
nu1 = 1
nu2 = 1
[bc]
g_low = sin(pi*x1)
g_high = sin(pi*x1)
[mesh]
h = 0.0625
[output]
formats = json csv
[task svp]
t = 0
stations = 0.5 1 1.5 2 2.5
pairs = 0 1 2 ; 0 1 2.5
corrupt = 0.05
"""


def test_criterion_10_growth_trends(tmp_path):
    dom = make_strip(("neumann", "neumann"), 2.0)
    op = st.constant_operator(2.0)
    bounded = sv.BoundarySpec(g_low=lambda x: np.cos(PI * x[:, 0]),
                              g_high=lambda x: np.cos(PI * x[:, 0]),
                              lateral=("neumann", "neumann"))
    rep_b = asym.pl_check(dom, op, bounded, [2.0, 3.0, 4.0], "starI", 1 / 16, {})
    ok = rep_b.verdict == asym.FORCES_TRIVIALITY and rep_b.slope <= -PI * 0.98

    grower = lambda x: np.cosh(PI * x[:, 1]) * np.cos(PI * x[:, 0]) / math.cosh(PI * BS)
    growing = sv.BoundarySpec(g_low=grower, g_high=grower, lateral=("neumann", "neumann"))
    rep_g = asym.pl_check(dom, op, growing, [2.0, 3.0, 4.0], "starI", 1 / 16, {})
    ok = ok and rep_g.verdict == asym.NO_CONCLUSION

    result = run(parse_config(NEGATIVE_CONTROL_CONFIG), out_dir=str(tmp_path), seed=0)
    ok = ok and result.exit_code == 1
    report(10, ok, f"bounded family slope {rep_b.slope:.4f} <= -pi + 2%, verdict forces "
                   f"triviality; growing family verdict no conclusion; corrupted run exit 1")


DETERMINISM_CONFIG = """\
schema 1
[domain]
n = 2
k = 1
base = 0 1
axial = layer
alpha = 1
beta = 3
lateral = dirichlet0 dirichlet0
[operator]
p = 3
nu1 = 1
nu2 = 1
[bc]
g_low = sin(pi*x1)
g_high = sin(pi*x1)
[mesh]
h = 0.125
[output]
formats = json csv svg
[task solve]
snapshot = true
[task svp]
t = 0
stations = 0.25 0.5 0.75
pairs = 0 0.25 0.75
[task frequencies]
kinds = second
stations = 0
"""


def test_criterion_11_determinism(tmp_path):
    cfg = parse_config(DETERMINISM_CONFIG)
    run(cfg, out_dir=str(tmp_path / "a"), seed=7)
    run(cfg, out_dir=str(tmp_path / "b"), seed=7)
    names = ["report.json", "svp.csv", "field.csv", "svp.svg", "frequencies_second.csv"]
    ok = all((tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
             for n in names)
    report(11, ok, f"repeated seeded runs byte-identical across {len(names)} artifacts")
