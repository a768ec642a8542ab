import math
import tracemalloc
from functools import reduce
from itertools import product

import numpy as np
import pytest

from conftest import (cg_from_zero, face_mask, face_node_ids, gather_csr, grads_at_quads,
                      half_layer_reduction, pattern_grids, pin, reference_box_stencil,
                      reference_dirichlet_data, reference_free_box, reference_galerkin,
                      reference_gradient_s, unequal_caps, whole_layer_solve)
from svplab import energetics as en
from svplab import geometry as geo
from svplab import solver as sv
from svplab import structure as st
from svplab.config import parse_config
from svplab.runner import run

BS = 3.0  # band half-width of the cosh-mode strip


def strip(lateral, beta_star=1.0):
    return geo.CanonicalDomain(n=2, k=1, base=((0.0, 1.0),), axial_kind="layer",
                               alpha=1.0, beta=1.0 + 2.0 * beta_star, lateral_bc=lateral)


def linear_problem(p, h=0.25):
    dom = strip(("neumann", "neumann"))
    mesh = geo.build_mesh(dom, h)
    bc = sv.BoundarySpec(g_low=lambda x: np.full(len(x), -1.0),
                         g_high=lambda x: np.full(len(x), 1.0),
                         lateral=("neumann", "neumann"))
    return dom, mesh, st.constant_operator(p), bc


def cosh_problem(h, beta_star=BS):
    dom = strip(("dirichlet0", "dirichlet0"), beta_star)
    mesh = geo.build_mesh(dom, h)
    g = lambda x: np.sin(np.pi * x[:, 0])
    bc = sv.BoundarySpec(g_low=g, g_high=g, lateral=("dirichlet0", "dirichlet0"))
    return dom, mesh, st.constant_operator(2.0), bc


def cosh_exact(nodes, beta_star=BS):
    return np.cosh(np.pi * nodes[:, 1]) * np.sin(np.pi * nodes[:, 0]) / math.cosh(math.pi * beta_star)


class TestLinearExactness:
    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_linear_field_reproduced(self, p):
        dom, mesh, op, bc = linear_problem(p)
        f = sv.solve(dom, mesh, op, bc)
        assert f.diagnostics.converged
        exact = mesh.grid.nodes[:, 1]  # f = axial coordinate
        assert np.max(np.abs(f.values - exact)) <= 1e-12

    def test_p2_single_outer_iteration(self):
        dom, mesh, op, bc = linear_problem(2.0)
        f = sv.solve(dom, mesh, op, bc)
        assert f.diagnostics.outer_iterations == 1

    def test_eps_reg_reported(self):
        dom, mesh, op, bc = linear_problem(3.0)
        f = sv.solve(dom, mesh, op, bc)
        assert f.diagnostics.eps_reg == pytest.approx(1e-8, rel=1e-12)


class TestCoshMode:
    def test_convergence_order(self):
        errs = []
        hs = (1 / 8, 1 / 16, 1 / 32)
        for h in hs:
            dom, mesh, op, bc = cosh_problem(h)
            f = sv.solve(dom, mesh, op, bc)
            errs.append(np.max(np.abs(f.values - cosh_exact(mesh.grid.nodes))))
        order = np.polyfit(np.log([1 / h for h in hs]), np.log(errs), 1)[0]
        assert -order >= 1.9

    def test_symmetry(self):
        dom, mesh, op, bc = cosh_problem(1 / 8)
        f = sv.solve(dom, mesh, op, bc)
        vals = f.values.reshape(mesh.grid.shape)
        assert np.max(np.abs(vals - vals[:, ::-1])) <= 1e-12


class TestGeneralP:
    def test_newton_converges_and_decreases(self):
        dom = strip(("dirichlet0", "dirichlet0"))
        mesh = geo.build_mesh(dom, 1 / 8)
        g = lambda x: np.sin(np.pi * x[:, 0])
        bc = sv.BoundarySpec(g_low=g, g_high=g, lateral=("dirichlet0", "dirichlet0"))
        f = sv.solve(dom, mesh, st.constant_operator(3.0), bc)
        assert f.diagnostics.converged
        assert f.diagnostics.last_decrease >= 0.0
        assert f.diagnostics.outer_iterations > 1


class TestFluxIntegral:
    def test_unit_axial_gradient(self):
        dom, mesh, op, bc = linear_problem(2.0)
        f = sv.solve(dom, mesh, op, bc)
        res = sv.flux_integral(f, 0.0, weight="one")
        assert res.value == pytest.approx(1.0, rel=1e-12)
        assert res.side in ("below", "above")

    def test_constant_field_zero_flux(self):
        dom, mesh, op, bc = linear_problem(2.0)
        f = sv.solve(dom, mesh, op, bc).with_values(np.full(mesh.n_nodes, 3.0))
        for weight in ("one", "f", "f_minus_C"):
            assert sv.flux_integral(f, 0.5, weight=weight, C=1.0).value == 0.0

    def test_odd_weight_vanishes_at_center(self):
        dom, mesh, op, bc = linear_problem(2.0)
        f = sv.solve(dom, mesh, op, bc)
        res = sv.flux_integral(f, 0.0, weight="f")
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_off_grid_rejected(self):
        dom, mesh, op, bc = linear_problem(2.0)
        f = sv.solve(dom, mesh, op, bc)
        with pytest.raises(ValueError):
            sv.flux_integral(f, 0.1234, weight="one")

    def test_neumann_conservation(self):
        # total flux is station-independent; a varying coefficient makes the
        # flux genuinely nonzero so the relative drift is meaningful
        coeff = st.Coefficient("oscillation", (2.0,), 1.0, 2.0)
        op = st.StructureOperator(p=2.0, nu1=1.0, nu2=2.0, coefficient=coeff)
        dom = strip(("neumann", "neumann"))
        bc = sv.BoundarySpec(g_low=lambda x: np.zeros(len(x)),
                             g_high=lambda x: np.ones(len(x)),
                             lateral=("neumann", "neumann"))
        drifts = []
        for h in (1 / 32, 1 / 64):
            mesh = geo.build_mesh(dom, h)
            f = sv.solve(dom, mesh, op, bc)
            fluxes = [sv.flux_integral(f, tau, weight="one", side="above").value
                      for tau in (-0.75, -0.25, 0.0, 0.25, 0.75)]
            scale = max(abs(v) for v in fluxes)
            drifts.append((max(fluxes) - min(fluxes)) / scale)
        assert drifts[0] <= 0.025
        assert drifts[1] <= 0.02
        assert drifts[1] <= 0.55 * drifts[0]


def cosh_neumann(h, beta_star=BS):
    dom = strip(("neumann", "neumann"), beta_star)
    mesh = geo.build_mesh(dom, h)
    g = lambda x: np.cos(np.pi * x[:, 0])
    bc = sv.BoundarySpec(g_low=g, g_high=g, lateral=("neumann", "neumann"))
    return dom, mesh, st.constant_operator(2.0), bc


class TestBoundaryHandling:
    def test_lateral_mismatch_rejected(self):
        dom, mesh, op, _ = linear_problem(2.0)
        bad = sv.BoundarySpec(g_low=lambda x: np.zeros(len(x)),
                              g_high=lambda x: np.ones(len(x)),
                              lateral=("dirichlet0", "dirichlet0"))
        with pytest.raises(ValueError):
            sv.solve(dom, mesh, op, bad)

    def test_nonfinite_cap_data_rejected(self):
        dom, mesh, op, _ = linear_problem(2.0)
        bad = sv.BoundarySpec(g_low=lambda x: np.full(len(x), np.nan),
                              g_high=lambda x: np.ones(len(x)),
                              lateral=("neumann", "neumann"))
        with pytest.raises(ValueError):
            sv.solve(dom, mesh, op, bad)

    def test_dirichlet_zero_wins_at_corners(self):
        dom = strip(("dirichlet0", "neumann"))
        mesh = geo.build_mesh(dom, 0.25)
        bc = sv.BoundarySpec(g_low=lambda x: np.ones(len(x)),
                             g_high=lambda x: np.ones(len(x)),
                             lateral=("dirichlet0", "neumann"))
        f = sv.solve(dom, mesh, st.constant_operator(2.0), bc)
        assert np.all(f.values[face_node_ids(mesh.grid, 0, "low")] == 0.0)


class TestRadialSolve:
    def test_log_radius_solution(self):
        # axisymmetric harmonic field independent of x1: f = ln(r)/ln-range
        dom = geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial",
                                  alpha=1.0, beta=2.0, lateral_bc=("neumann", "neumann"))
        errs = []
        for h in (1 / 8, 1 / 16):
            mesh = geo.build_mesh(dom, h)
            bc = sv.BoundarySpec(g_low=lambda x: np.zeros(len(x)),
                                 g_high=lambda x: np.ones(len(x)),
                                 lateral=("neumann", "neumann"))
            f = sv.solve(dom, mesh, st.constant_operator(2.0), bc)
            exact = np.log(mesh.grid.nodes[:, 1]) / math.log(2.0)
            errs.append(np.max(np.abs(f.values - exact)))
        assert errs[1] <= 0.3 * errs[0]


def layer3d(h, beta_star=1.0):
    """k = 2 layer over (0,1)^2 with caps sin(pi x) sin(pi y) and zero laterals."""
    lateral = ("dirichlet0",) * 4
    dom = geo.CanonicalDomain(n=3, k=2, base=((0.0, 1.0), (0.0, 1.0)), axial_kind="layer",
                              alpha=1.0, beta=1.0 + 2.0 * beta_star, lateral_bc=lateral)
    mesh = geo.build_mesh(dom, h)
    g = lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    bc = sv.BoundarySpec(g_low=g, g_high=g, lateral=lateral)
    return dom, mesh, st.constant_operator(2.0), bc


def general_p_problem(p, h=1 / 8):
    dom = strip(("dirichlet0", "dirichlet0"))
    mesh = geo.build_mesh(dom, h)
    g = lambda x: np.sin(np.pi * x[:, 0])
    bc = sv.BoundarySpec(g_low=g, g_high=g, lateral=("dirichlet0", "dirichlet0"))
    return dom, mesh, st.constant_operator(p), bc


class TestCoshMode3D:
    def test_energy_order(self):
        # f = sin(pi x) sin(pi y) cosh(k z) / cosh(k beta*), k = sqrt2 pi, beta* = 1
        k = math.sqrt(2.0) * math.pi
        exact = k / 4.0 * math.tanh(k)
        hs = (1 / 8, 1 / 16, 1 / 24)
        errs = []
        for h in hs:
            f = sv.solve(*layer3d(h))
            assert f.diagnostics.linear_solver == "separable"
            errs.append(abs(f.diagnostics.energy - exact))
        orders = [math.log(errs[i] / errs[i + 1]) / math.log(hs[i] / hs[i + 1]) for i in range(2)]
        assert all(1.8 <= r <= 2.2 for r in orders), orders


class TestLinearLayer:
    def test_dispatch_by_dimension(self):
        # p = 2 solves separably in 2-D and 3-D; every outer step runs CG
        assert sv.solve(*layer3d(1 / 4)).diagnostics.linear_solver == "separable"
        dom, mesh, op, bc = cosh_problem(1 / 8)
        assert sv.solve(dom, mesh, op, bc).diagnostics.linear_solver == "separable"
        assert sv.solve(*general_p_problem(3.0)).diagnostics.linear_solver == "cg-mg"
        # every node Dirichlet: one axial cell, whose two node planes are the caps
        dom, mesh, op, bc = cosh_problem(1 / 8, beta_star=1 / 16)
        assert mesh.grid.shape[-1] == 2
        pinned, vals = sv.dirichlet_data(mesh, bc)
        system = sv._FreeSystem(mesh.grid, pinned, vals)
        assert system.method == "none"
        assert system.restrict(mesh.grid.stiffness_stencil()) is None
        assert np.array_equal(system.solve(None, vals), vals)
        assert np.array_equal(sv._separable_solve(system, op.a(mesh.pk_at_quads())), vals)
        assert system.linear_iterations == []

    def test_direct_and_cg_agree(self):
        dom, mesh, op, bc = cosh_problem(1 / 16)
        cg, iterations = cg_from_zero(mesh, op, bc)
        assert len(iterations) == 1
        assert 0 < iterations[0] <= 12
        # reference: a sparse LU of the same free-node block
        pinned, vals = sv.dirichlet_data(mesh, bc)
        free = ~face_mask(mesh.grid, pinned)
        K = gather_csr(mesh.grid, mesh.grid.stiffness_stencil(coeff=op.a(mesh.pk_at_quads())))
        lu = sv.factor_spd(K[free][:, free].tocsc(), "reference system")
        direct = vals.copy()
        direct[free] = lu.solve(-(K @ vals)[free])
        assert np.max(np.abs(cg - direct)) <= 1e-10
        assert np.max(np.abs(sv.solve(dom, mesh, op, bc).values - direct)) <= 1e-10

    def test_small_grid_factors_whole(self, vcycle_levels):
        # at most MG_COARSEST free nodes: no coarse level, so the V-cycle is
        # an exact solve and every outer step's CG takes one iteration
        dom, mesh, op, bc = general_p_problem(1.5)
        pinned, _ = sv.dirichlet_data(mesh, bc)
        assert np.count_nonzero(~face_mask(mesh.grid, pinned)) <= sv.MG_COARSEST
        d = sv.solve(dom, mesh, op, bc).diagnostics
        assert d.linear_solver == "cg-mg" and d.outer_iterations > 2
        assert d.linear_iterations == (1,) * (d.outer_iterations - 1)
        assert vcycle_levels == [0] * (d.outer_iterations - 1)

    def test_warm_and_cold_cg_agree(self, monkeypatch, cg_calls):
        # a warm solve runs CG on the correction from the iterate; the cold
        # reference drops the iterate for the Dirichlet data, and with
        # CG_FORCING = 0 every CG solve starts from zero and runs to CG_RTOL
        problem = general_p_problem(3.0)
        solve = sv._FreeSystem.solve
        warm_starts = []

        def recording(self, restricted, x0):
            warm_starts.append(not np.array_equal(x0, self.vals))
            return solve(self, restricted, x0)

        monkeypatch.setattr(sv._FreeSystem, "solve", recording)
        warm = sv.solve(*problem)
        assert all(warm_starts) and len(warm_starts) == warm.diagnostics.outer_iterations - 1 > 0
        assert len(cg_calls) == len(warm_starts)
        assert all(c["rtol"] == 0.0 and c["atol"] > 0.0 for c in cg_calls)
        monkeypatch.setattr(sv._FreeSystem, "solve",
                            lambda self, restricted, x0: solve(self, restricted, self.vals))
        monkeypatch.setattr(sv, "CG_FORCING", 0.0)
        cg_calls.clear()
        cold = sv.solve(*problem)
        assert cg_calls and all(c["rtol"] == 0.0 and c["atol"] == sv.CG_RTOL * np.linalg.norm(c["b"])
                                for c in cg_calls)
        assert warm.diagnostics.converged and cold.diagnostics.converged
        assert warm.diagnostics.outer_iterations == cold.diagnostics.outer_iterations
        assert np.max(np.abs(warm.values - cold.values)) <= 1e-9

    def test_cg_out_of_iterations_raises(self, monkeypatch, vcycle_levels):
        cg = sv.spla.cg
        monkeypatch.setattr(sv.spla, "cg",
                            lambda A, b, **kwargs: cg(A, b, **{**kwargs, "maxiter": 1}))
        # at h = 1/16 the V-cycle has a coarse level, so it is not an exact
        # solve and an outer step's CG needs more than one iteration
        dom, mesh, _, bc = layer3d(1 / 16)
        with pytest.raises(sv.SolverError, match="conjugate gradient did not converge"):
            sv.solve(dom, mesh, st.constant_operator(1.5), bc)
        assert vcycle_levels and min(vcycle_levels) >= 1


# the README domain and caps (beta = 7, sin(pi x1)), solve only
README_SOLVE = """\
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
p = {p}
nu1 = 1
nu2 = 1

[bc]
g_low = sin(pi*x1)
g_high = sin(pi*x1)

[mesh]
h = {h}

[output]
formats = json

[task solve]
snapshot = false
"""


def regularized_energy(mesh, op, values, eps):
    """The solver's regularized energy of a nodal field."""
    terms = sv._gradient_terms(mesh.grid, values, eps, op.p, op.a(mesh.pk_at_quads()))
    return sv._regularized_energy(mesh.grid, op.p, terms)


def readme_problem(p, h):
    dom = geo.CanonicalDomain(n=2, k=1, base=((0.0, 1.0),), axial_kind="layer",
                              alpha=1.0, beta=7.0, lateral_bc=("dirichlet0", "dirichlet0"))
    g = lambda x: np.sin(np.pi * x[:, 0])
    bc = sv.BoundarySpec(g_low=g, g_high=g, lateral=("dirichlet0", "dirichlet0"))
    return dom, geo.build_mesh(dom, h), st.constant_operator(p), bc


def test_energy_stop_keeps_the_stagnation_quantities(monkeypatch):
    """The TOL_ENERGY stop leaves the slab energy I(0, 1/4) and the section
    flux constant C2 at 0 of the README config at p = 1.5, h = 1/8 within
    1e-3 relative of the solve run on to TOL_ENERGY = 1e-16.  A stop that
    ends the outer loop earlier at a larger gradient residual fails it."""
    problem = readme_problem(1.5, 1 / 8)
    field = sv.solve(*problem)
    monkeypatch.setattr(sv, "TOL_ENERGY", 1e-16)
    tight = sv.solve(*problem)
    assert tight.diagnostics.outer_iterations > field.diagnostics.outer_iterations
    for quantity in (lambda f: en.energy(f, 0.0, 0.25),
                     lambda f: en.section_flux_constants(f, 0.0)["C2"]):
        assert quantity(field) == pytest.approx(quantity(tight), rel=1e-3)


class TestOuterLoopGeometry:
    """The outer loop evaluates a(x) once and never forms quadrature points."""

    @staticmethod
    def oscillating_problem(p):
        dom, mesh, _, bc = readme_problem(p, 1 / 8)
        coeff = st.Coefficient("oscillation", (2.0,), 1.0, 2.0)
        return dom, mesh, st.StructureOperator(p=p, nu1=1.0, nu2=2.0, coefficient=coeff), bc

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_layer_solve_builds_no_quad_points(self, monkeypatch, p):
        problem = self.oscillating_problem(p)
        calls = []
        evaluate = st.Coefficient.__call__
        monkeypatch.setattr(st.Coefficient, "__call__",
                            lambda self, pk: calls.append(pk) or evaluate(self, pk))
        field = sv.solve(*problem)
        assert field.diagnostics.outer_iterations > 1
        assert "quad_points" not in field.mesh.grid.__dict__
        assert len(calls) == 1  # a(x) once per solve

    @pytest.mark.parametrize("case", ["2d-p1.5", "2d-p3", "3d-p2"])
    def test_layer_solve_builds_no_connectivity_or_nodes(self, case):
        """Values at quadrature points gather by slices, as the grid keeps no
        connectivity table, and the caps are evaluated on coordinates taken
        from the axes."""
        if case == "3d-p2":
            problem = layer3d(1 / 8)
        else:
            problem = self.oscillating_problem(float(case.split("-p")[1]))
        field = sv.solve(*problem)
        assert field.diagnostics.converged
        assert "nodes" not in field.mesh.grid.__dict__

    def test_energy_with_given_coefficient(self):
        dom, mesh, op, bc = self.oscillating_problem(1.5)
        f = sv.solve(dom, mesh, op, bc)
        assert regularized_energy(mesh, op, f.values, f.diagnostics.eps_reg) \
            == f.diagnostics.energy


def iterate_energy(mesh, op, bc, values, eps, mirrored, energy):
    """energy(grid, p, terms) of the nodal field values on the grid that
    solve iterates on: the whole mesh, or for a mirrored solve the upper
    half layer (conftest.half_layer_reduction), whose energy counts twice."""
    grid, a_q = mesh.grid, op.a(mesh.pk_at_quads())
    if mirrored:
        grid, _, _, a_q, _ = half_layer_reduction(mesh, op, bc)
        values = np.reshape(values, mesh.grid.shape)[..., mesh.grid.cell_shape[-1] // 2:].ravel()
    e = energy(grid, op.p, sv._gradient_terms(grid, values, eps, op.p, a_q))
    return 2.0 * e if mirrored else e


class TestRejectedStep:
    """Each test runs the half-layer path (equal caps) and the whole-layer
    path (g_high = 2 g_low) of general_p_problem(3)."""

    @staticmethod
    def problems():
        problem = general_p_problem(3.0)
        return {True: problem, False: unequal_caps(problem)}

    def test_rejected_step_keeps_iterate_and_is_not_convergence(self):
        for mirrored, (dom, mesh, op, bc) in self.problems().items():
            # the first iterate solves with the p = 2 coefficient
            first = sv.solve(dom, mesh, st.constant_operator(2.0), bc)
            energy = sv._regularized_energy
            calls = []

            def rising(*args):
                calls.append(args)
                return energy(*args) + len(calls)  # every later evaluation is higher

            with pytest.MonkeyPatch.context() as m:
                m.setattr(sv, "_regularized_energy", rising)
                f = sv.solve(dom, mesh, op, bc)
            d = f.diagnostics
            assert d.mirrored == mirrored
            assert not d.converged
            assert d.damping_final == 2.0**-30
            assert len(calls) == 32  # the first iterate, then theta = 1, 1/2, ..., 2^-30
            assert d.outer_iterations == 2
            assert np.array_equal(f.values, first.values)
            assert d.energy == iterate_energy(mesh, op, bc, first.values, d.eps_reg, mirrored,
                                              lambda *args: energy(*args) + 1)

    def test_nonfinite_energy_is_rejected(self, tmp_path):
        for mirrored, (dom, mesh, op, bc) in self.problems().items():
            first = sv.solve(dom, mesh, st.constant_operator(2.0), bc)
            energy = sv._regularized_energy
            calls = []

            def nan_after_first(*args):
                calls.append(args)
                return energy(*args) if len(calls) == 1 else math.nan

            with pytest.MonkeyPatch.context() as m:
                m.setattr(sv, "_regularized_energy", nan_after_first)
                f = sv.solve(dom, mesh, op, bc)
            d = f.diagnostics
            assert d.mirrored == mirrored
            assert not d.converged
            assert d.outer_iterations == 2
            assert np.array_equal(f.values, first.values)
            assert d.energy == iterate_energy(mesh, op, bc, first.values, d.eps_reg, mirrored,
                                              energy)
        calls.clear()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(sv, "_regularized_energy", nan_after_first)
            result = run(parse_config(README_SOLVE.format(p=3, h=0.125)),
                         out_dir=str(tmp_path), seed=0)
        assert result.exit_code == 3
        assert "did not converge" in result.report["error"]


def separable_problems():
    """p = 2 problems on every kind of canonical mesh: the README domain with
    Dirichlet, mixed and Neumann laterals, a radial mesh and a k = 2 layer
    with mixed laterals, with constant, step and oscillating a(x)."""
    coeffs = {"constant": None, "step": st.Coefficient("step", (3.3,), 1.0, 2.0),
              "oscillation": st.Coefficient("oscillation", (3.0,), 1.0, 2.0)}
    problems = {}
    for name, lateral in (("DD", ("dirichlet0", "dirichlet0")),
                          ("DN", ("dirichlet0", "neumann")), ("NN", ("neumann", "neumann"))):
        dom = geo.CanonicalDomain(n=2, k=1, base=((0.0, 1.0),), axial_kind="layer",
                                  alpha=1.0, beta=7.0, lateral_bc=lateral)
        problems[name] = (dom, 1 / 8, lambda x: np.sin(np.pi * x[:, 0]) + 0.5)
    problems["radial"] = (geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial",
                                              alpha=1.0, beta=4.0,
                                              lateral_bc=("neumann", "dirichlet0")),
                          1 / 8, lambda x: np.cos(np.pi * x[:, 0]) * x[:, 1])
    problems["k2"] = (geo.CanonicalDomain(n=3, k=2, base=((0.0, 1.0), (0.0, 1.5)),
                                          axial_kind="layer", alpha=3.0, beta=5.0,
                                          lateral_bc=("dirichlet0", "neumann", "neumann",
                                                      "dirichlet0")),
                      1 / 4, lambda x: np.sin(np.pi * x[:, 0]) * np.cos(x[:, 1]) + x[:, 2])
    for name, (dom, h, g) in problems.items():
        for kind, coeff in coeffs.items():
            op = st.StructureOperator(p=2.0, nu1=1.0, nu2=2.0, coefficient=coeff)
            yield f"{name}-{kind}", (dom, geo.build_mesh(dom, h), op,
                                     sv.BoundarySpec(g_low=g, g_high=g, lateral=dom.lateral_bc))


SEPARABLE_PROBLEMS = dict(separable_problems())


class TestSeparableSolve:
    """The cold solve by separation of variables: the stiffness of a
    canonical mesh is a Kronecker sum of 1-D matrices, and the solve is
    that system's direct solution."""

    @pytest.mark.parametrize("name", list(SEPARABLE_PROBLEMS))
    def test_kronecker_sum_is_the_stiffness(self, name):
        _, mesh, op, _ = SEPARABLE_PROBLEMS[name]
        grid = mesh.grid
        a_q = op.a(mesh.pk_at_quads())
        lines = [(sv._line_block(S, slice(None)), sv._line_block(M, slice(None)))
                 for S, M in sv._line_stencils(grid, a_q)]
        K = sum(reduce(np.kron, [S if b == ax else M for b, (S, M) in enumerate(lines)])
                for ax in range(grid.dim))
        ref = gather_csr(grid, grid.stiffness_stencil(coeff=a_q)).toarray()
        assert np.max(np.abs(K - ref)) <= 1e-14 * np.max(np.abs(ref))

    # the half-layer systems of the DD, DN and NN constant problems, whose
    # low axial end (the centre plane) is natural
    @pytest.mark.parametrize("name", list(SEPARABLE_PROBLEMS) + ["DD-half", "DN-half", "NN-half"])
    def test_cold_solve_is_the_sparse_lu(self, name):
        dom, mesh, op, bc = SEPARABLE_PROBLEMS[name.replace("-half", "-constant")]
        grid = mesh.grid
        pinned, vals = sv.dirichlet_data(mesh, bc)
        a_q = op.a(mesh.pk_at_quads())
        if name.endswith("-half"):
            grid, pinned, vals, a_q, _ = half_layer_reduction(mesh, op, bc)
        mask = face_mask(grid, pinned)
        K = gather_csr(grid, grid.stiffness_stencil(coeff=a_q))
        direct = vals.copy()
        direct[~mask] = sv.factor_spd(K[~mask][:, ~mask].tocsc(), "reference").solve(
            -(K @ vals)[~mask])
        x = sv._separable_solve(sv._FreeSystem(grid, pinned, vals), a_q)
        assert np.array_equal(x[mask], vals[mask])
        assert np.max(np.abs(x - direct)) <= 1e-12 * np.max(np.abs(direct))
        if name.endswith("-half"):
            return
        field = sv.solve(dom, mesh, op, bc)
        d = field.diagnostics
        assert (d.linear_solver, d.linear_iterations, d.outer_iterations) == ("separable", (), 1)
        # the layers with constant a(x) and the same caps on both ends
        assert d.mirrored == (name in ("DD-constant", "DN-constant", "NN-constant"))
        if d.mirrored:
            half, pinned, vals, a_q, mirror = half_layer_reduction(mesh, op, bc)
            x_half = mirror(sv._separable_solve(sv._FreeSystem(half, pinned, vals), a_q))
            assert np.max(np.abs(x_half - direct)) <= 1e-12 * np.max(np.abs(direct))
            x = x_half
        assert field.values.tobytes() == x.tobytes()

    @pytest.mark.parametrize("part", ["base-mass", "axial"])
    def test_failed_factorization_is_a_solver_failure(self, monkeypatch, tmp_path, part):
        # a base axis's mass that is not positive definite fails its
        # eigendecomposition; negated axial matrices fail the banded Cholesky
        line_stencils = sv._line_stencils

        def broken(grid, a_q):
            lines = line_stencils(grid, a_q)
            if part == "base-mass":
                lines[0] = (lines[0][0], -lines[0][1])
            else:
                lines[-1] = (-lines[-1][0], -lines[-1][1])
            return lines

        monkeypatch.setattr(sv, "_line_stencils", broken)
        with pytest.raises(sv.SolverError, match="separable solve failed"):
            sv.solve(*readme_problem(2.0, 1 / 8))
        result = run(parse_config(README_SOLVE.format(p=2, h=0.125)), out_dir=str(tmp_path), seed=0)
        assert result.exit_code == 3
        assert "separable solve failed" in result.report["error"]


class TestNonpositiveDiagonal:
    """A free-node block with a nonpositive diagonal entry is a solver
    failure: the first outer step's, at p = 1.5."""

    @pytest.fixture
    def zero_diagonal(self, monkeypatch):
        box_stencil = sv._box_stencil

        def zeroed(stencil, box, *periodic):
            # the finest level's first diagonal entry
            D = box_stencil(stencil, box, *periodic)
            D[len(D) // 2].flat[0] = 0.0
            return D

        monkeypatch.setattr(sv, "_box_stencil", zeroed)

    # h = 1/8 has no coarse level, h = 1/32 has some
    @pytest.mark.parametrize("h", [1 / 8, 1 / 32])
    def test_solve_raises(self, zero_diagonal, h):
        with pytest.raises(sv.SolverError, match="nonpositive diagonal"):
            sv.solve(*readme_problem(1.5, h))

    def test_run_exits_3(self, zero_diagonal, tmp_path):
        result = run(parse_config(README_SOLVE.format(p=1.5, h=0.125)), out_dir=str(tmp_path),
                     seed=0)
        assert result.exit_code == 3
        assert "nonpositive diagonal" in result.report["error"]


class TestNonFiniteCG:
    """CG stops at its first non-finite iterate, not at its iteration cap."""

    def test_solve_raises_at_once(self, nan_vcycle, monkeypatch):
        cg = sv.spla.cg
        iterations = []

        def counted(A, b, callback, **kwargs):
            def count(xk):
                iterations.append(1)
                callback(xk)

            return cg(A, b, callback=count, **kwargs)

        monkeypatch.setattr(sv.spla, "cg", counted)
        with pytest.raises(sv.SolverError, match="not finite"):
            sv.solve(*readme_problem(1.5, 1 / 32))
        assert 1 <= len(iterations) <= 2


class TestNewtonHessian:
    """The p > 2 step matrix is the Hessian of the regularized energy."""

    @pytest.fixture(scope="class")
    def grids(self):
        return pattern_grids()

    @pytest.mark.parametrize("p", [3.0, 4.0])
    @pytest.mark.parametrize("name", list(pattern_grids()))
    def test_hessian_matches_gradient_difference(self, grids, name, p):
        grid = grids[name]
        rng = np.random.default_rng(7)
        f = rng.normal(size=grid.n_nodes)
        a_q = rng.uniform(0.5, 2.0, size=grid.quad_weights.shape)
        eps = 0.1

        def gradient(u):  # K(c(u)) u, the gradient of the regularized energy
            s = np.sum(grads_at_quads(grid, u) ** 2, axis=-1) + eps**2
            return gather_csr(grid, grid.stiffness_stencil(coeff=a_q * s ** (0.5 * (p - 2.0)))) @ u

        stencil, load = sv._step_system(grid, f, p, sv._gradient_terms(grid, f, eps, p, a_q))
        H = gather_csr(grid, stencil)
        step = 1e-5
        fd = np.empty((grid.n_nodes,) * 2)
        for j in range(grid.n_nodes):
            e = np.zeros(grid.n_nodes)
            e[j] = step
            fd[:, j] = (gradient(f + e) - gradient(f - e)) / (2.0 * step)
        Hd = H.toarray()
        scale = np.max(np.abs(Hd))
        assert np.max(np.abs(Hd - fd)) <= 1e-6 * scale
        if 2 in [n for n, per in zip(grid.shape, grid.periodic) if per]:
            # both wraps of a 2-node periodic axis add to one entry, summed in
            # a different element order in its row and in its column
            assert np.max(np.abs(Hd - Hd.T)) <= 1e-15 * scale
        else:
            assert np.array_equal(Hd, Hd.T)
        # the load makes the solve a Newton step: load = H f - gradient
        assert np.max(np.abs(load - (H @ f - gradient(f)))) <= 1e-12 * np.max(np.abs(H @ f))
        # the stencil product is the CSR product; on a non-periodic grid both
        # sum a row in ascending column order
        Hf = grid.apply_stencil(stencil, f)
        if any(grid.periodic):
            assert np.max(np.abs(Hf - H @ f)) <= 1e-14 * np.max(np.abs(H @ f))
        else:
            assert np.array_equal(Hf, H @ f)


class TestNewtonConvergence:
    @pytest.mark.parametrize("h", [1 / 16, 1 / 32])
    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_readme_domain_converges_undamped(self, p, h):
        d = sv.solve(*readme_problem(p, h)).diagnostics
        assert d.converged
        assert d.damping_final == 1.0
        assert d.outer_iterations <= 12


def reference_system(mesh, op, bc, half):
    """(grid, system, a_q, eps, mirror) of the whole-layer problem, or with
    half of its upper half layer (conftest.half_layer_reduction); mirror
    maps the system's field to the whole mesh's."""
    pinned, vals = sv.dirichlet_data(mesh, bc)
    eps = sv.EPS_REG_REL * float(np.max(np.abs(vals)))
    grid, a_q, mirror = mesh.grid, op.a(mesh.pk_at_quads()), lambda f: f
    if half:
        grid, pinned, vals, a_q, mirror = half_layer_reduction(mesh, op, bc)
    return grid, sv._FreeSystem(grid, pinned, vals), a_q, eps, mirror


def kacanov_reference(dom, mesh, op, bc, half=False):
    """The undamped Kacanov loop: each step solves with K(a s^((p-2)/2)),
    on the whole layer or, with half, on its upper half, mirrored."""
    grid, system, a_q, eps, mirror = reference_system(mesh, op, bc, half)

    def energy(f):
        return sv._regularized_energy(grid, op.p, sv._gradient_terms(grid, f, eps, op.p, a_q))

    f = sv._separable_solve(system, a_q)
    e = energy(f)
    for _ in range(sv.MAX_OUTER - 1):
        g = grads_at_quads(grid, f)
        s = np.sum(g**2, axis=-1) + eps**2
        K = grid.stiffness_stencil(coeff=a_q * s ** (0.5 * (op.p - 2.0)))
        f_hat = system.solve(system.restrict(K), x0=f)
        f_new = f + 1.0 * (f_hat - f)
        e_new = energy(f_new)
        assert e_new <= e  # K(c) majorizes the Hessian for p < 2
        decrease = (e - e_new) / abs(e)
        f, e = f_new, e_new
        if decrease < sv.TOL_ENERGY:
            return mirror(f)
    raise AssertionError("reference Kacanov loop did not converge")


def outer_loop_reference(dom, mesh, op, bc, half=False):
    """The outer loop of solve as it was written before the shared kernel,
    from the separable cold solve: damped Kacanov or Newton steps to
    TOL_ENERGY, on the whole layer or, with half, on its upper half, the
    field mirrored and the energy doubled."""
    grid, system, a_q, eps, mirror = reference_system(mesh, op, bc, half)
    f = sv._separable_solve(system, a_q)
    terms = sv._gradient_terms(grid, f, eps, op.p, a_q)
    energy = sv._regularized_energy(grid, op.p, terms)
    iters, converged = 1, op.p == 2.0
    while not converged and iters < sv.MAX_OUTER:
        H, load = sv._step_system(grid, f, op.p, terms)
        f_hat = system.solve(system.restrict(H, load), x0=f)
        iters += 1
        theta = 1.0
        while True:
            f_new = f + theta * (f_hat - f)
            terms_new = sv._gradient_terms(grid, f_new, eps, op.p, a_q)
            e_new = sv._regularized_energy(grid, op.p, terms_new)
            if e_new <= energy or theta <= 2**-30:
                break
            theta *= 0.5
        assert e_new <= energy
        decrease = (energy - e_new) / abs(energy)
        f, energy, terms = f_new, e_new, terms_new
        converged = decrease < sv.TOL_ENERGY
    assert converged
    return mirror(f), 2.0 * energy if half else energy, iters, tuple(system.linear_iterations)


class TestSharedKernel:
    """solve is its cold solve followed by the shared outer loop
    (_minimize), with the arithmetic of the loop that it replaced: on the
    upper half layer of the README and k = 2 problems, whose caps are
    equal, and on the whole layer once g_high = 2 g_low."""

    @staticmethod
    def check(problem, half):
        dom, mesh, op, bc = problem
        field = sv.solve(dom, mesh, op, bc)
        f, energy, iters, linear = outer_loop_reference(dom, mesh, op, bc, half)
        assert field.values.tobytes() == f.tobytes()
        d = field.diagnostics
        assert d.converged and (d.energy, d.outer_iterations, d.linear_iterations, d.mirrored) \
            == (energy, iters, linear, half)
        assert (iters == 1) == (op.p == 2.0) and len(linear) == iters - 1

    @staticmethod
    def problem(k, p):
        dom, mesh, _, bc = readme_problem(p, 1 / 16) if k == 1 else layer3d(1 / 8)
        return dom, mesh, st.constant_operator(p), bc

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("k", [1, 2])
    def test_bitwise_the_reference_loop(self, k, p):
        self.check(self.problem(k, p), half=True)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("k", [1, 2])
    def test_whole_layer_bitwise_the_reference_loop(self, k, p):
        self.check(unequal_caps(self.problem(k, p)), half=False)


class TestKacanovUnchanged:
    # 0: the deepest multigrid hierarchy; 20000: no coarse level, so the
    # V-cycle factors the whole free-node block
    @pytest.mark.parametrize("mg_coarsest", [0, 20000])
    def test_p_below_two_is_plain_kacanov(self, monkeypatch, mg_coarsest):
        monkeypatch.setattr(sv, "MG_COARSEST", mg_coarsest)
        # the half-layer path, and the whole layer under unequal caps
        for half, problem in ((True, readme_problem(1.5, 1 / 16)),
                              (False, unequal_caps(readme_problem(1.5, 1 / 16)))):
            f = sv.solve(*problem)
            assert f.diagnostics.linear_solver == "cg-mg"
            assert f.diagnostics.mirrored == half
            assert f.diagnostics.converged and f.diagnostics.damping_final == 1.0
            assert np.array_equal(f.values, kacanov_reference(*problem, half=half))


class TestHalfLayer:
    """A mirror-symmetric layer problem is solved on its upper half layer
    and mirrored; every other input keeps the whole-layer path, the
    solve as it was before (conftest.whole_layer_solve)."""

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("k", [1, 2])
    def test_mirrored_field_matches_the_whole_layer(self, k, p):
        dom, mesh, _, bc = readme_problem(p, 1 / 32) if k == 1 else layer3d(1 / 8)
        problem = dom, mesh, st.constant_operator(p), bc
        field = sv.solve(*problem)
        ref = whole_layer_solve(*problem)
        d, dr = field.diagnostics, ref.diagnostics
        assert d.mirrored and not dr.mirrored
        planes = field.values.reshape(mesh.grid.shape)
        assert planes.tobytes() == planes[..., ::-1].tobytes()
        assert d.converged and dr.converged
        assert d.outer_iterations == dr.outer_iterations
        assert np.max(np.abs(field.values - ref.values)) <= (1e-13 if p == 2.0 else 1e-7)
        assert d.energy == pytest.approx(dr.energy, rel=1e-11)

    @staticmethod
    def declined_problem(case):
        if case == "radial":  # equal caps, but the 2 pi r measure
            lateral = ("neumann", "dirichlet0")
            dom = geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial",
                                      alpha=1.0, beta=3.0, lateral_bc=lateral)
            g = lambda x: np.cos(np.pi * x[:, 0])
            bc = sv.BoundarySpec(g_low=g, g_high=g, lateral=lateral)
            return dom, geo.build_mesh(dom, 1 / 8), st.constant_operator(1.5), bc
        if case == "unequal-caps":
            return unequal_caps(readme_problem(1.5, 1 / 8))
        if case == "oscillation":
            return TestOuterLoopGeometry.oscillating_problem(1.5)
        # 45 axial cells over the README band of width 6
        return readme_problem(1.5, 2 / 15)

    @pytest.mark.parametrize("case", ["radial", "unequal-caps", "oscillation", "odd-cells"])
    def test_selector_declines(self, case):
        problem = self.declined_problem(case)
        if case == "odd-cells":
            assert problem[1].grid.cell_shape[-1] == 45
        field = sv.solve(*problem)
        ref = whole_layer_solve(*problem)
        assert not field.diagnostics.mirrored
        assert field.values.tobytes() == ref.values.tobytes()
        assert field.diagnostics == ref.diagnostics

    def test_report_records_the_path(self, tmp_path):
        text = README_SOLVE.format(p=1.5, h=0.125)
        unequal = text.replace("g_high = sin(pi*x1)", "g_high = 2*sin(pi*x1)")
        assert unequal != text
        for cfg, mirrored in ((text, True), (unequal, False)):
            result = run(parse_config(cfg), out_dir=str(tmp_path / str(mirrored)), seed=0)
            assert result.exit_code == 0
            assert result.report["solver"]["mirrored"] is mirrored


def global_residual(field):
    """max |K(c) f| over max (|K(c)| |f|) on the free nodes: the
    Euler-Lagrange residual of the regularized energy at the field."""
    mesh, op = field.mesh, field.op
    mask = face_mask(mesh.grid, sv.dirichlet_data(mesh, field.bc)[0])
    s = np.sum(grads_at_quads(mesh.grid, field.values) ** 2, axis=-1) \
        + field.diagnostics.eps_reg**2
    K = gather_csr(mesh.grid, mesh.grid.stiffness_stencil(
        coeff=op.a(mesh.pk_at_quads()) * s ** (0.5 * (op.p - 2.0))))
    r = (K @ field.values)[~mask]
    return np.max(np.abs(r)) / np.max((abs(K) @ np.abs(field.values))[~mask])


@pytest.fixture
def cg_calls(monkeypatch):
    """Keyword arguments, and the right-hand side as "b", of every spla.cg
    call made during the test."""
    cg = sv.spla.cg
    calls = []

    def recording(A, b, **kwargs):
        calls.append({**kwargs, "b": b})
        return cg(A, b, **kwargs)

    monkeypatch.setattr(sv.spla, "cg", recording)
    return calls


class TestInexactInnerSolve:
    """Warm CG solves stop at CG_FORCING times their initial residual."""

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_forcing_keeps_the_solution(self, monkeypatch, cg_calls, p):
        problem = readme_problem(p, 1 / 32)
        inexact = sv.solve(*problem)
        warm = list(cg_calls)
        # every CG solve is an outer step's: it runs CG from zero on the
        # correction, whose right-hand side is the residual at the iterate,
        # and stops at CG_FORCING of it
        assert len(warm) == inexact.diagnostics.outer_iterations - 1 > 0
        assert all("x0" not in c and c["rtol"] == 0.0 for c in warm)
        assert all(c["atol"] >= sv.CG_FORCING * np.linalg.norm(c["b"]) > 0.0 for c in warm)
        monkeypatch.setattr(sv, "CG_FORCING", 0.0)
        cg_calls.clear()
        exact = sv.solve(*problem)
        di, de = inexact.diagnostics, exact.diagnostics
        assert di.converged and de.converged
        assert di.linear_solver == de.linear_solver == "cg-mg"
        assert di.outer_iterations == de.outer_iterations
        # both start from the separable cold solve
        assert warm[0]["b"].tobytes() == cg_calls[0]["b"].tobytes()
        assert 2 * sum(di.linear_iterations) <= sum(de.linear_iterations)
        assert abs(di.energy - de.energy) <= 1e-12 * abs(de.energy)
        assert np.max(np.abs(inexact.values - exact.values)) <= 1e-6
        assert global_residual(inexact) <= 1.5 * global_residual(exact)

    def test_warm_stop_is_forcing_times_initial_residual(self, cg_calls):
        dom, mesh, op, bc = readme_problem(1.5, 1 / 16)
        pinned, vals = sv.dirichlet_data(mesh, bc)
        mask = face_mask(mesh.grid, pinned)
        system = sv._FreeSystem(mesh.grid, pinned, vals)
        a_q = op.a(mesh.pk_at_quads())
        f = sv._separable_solve(system, a_q)
        terms = sv._gradient_terms(mesh.grid, f, sv.EPS_REG_REL, op.p, a_q)
        stencil, _ = sv._step_system(mesh.grid, f, op.p, terms)
        cg_calls.clear()
        f_hat = system.solve(system.restrict(stencil.copy()), x0=f)  # restrict consumes
        H = gather_csr(mesh.grid, stencil)
        gradient = (H @ f)[~mask]  # K(c) f, the energy gradient at f
        (call,) = cg_calls
        # CG solves for the correction: its right-hand side is the residual
        # at f, minus the gradient
        assert np.max(np.abs(call["b"] + gradient)) <= 1e-12 * np.max(np.abs(gradient))
        atol = call["atol"]
        assert atol == pytest.approx(sv.CG_FORCING * np.linalg.norm(gradient), rel=1e-12)
        assert np.linalg.norm((H @ f_hat)[~mask]) < atol


class TestGradientOncePerIterate:
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_one_gradient_per_energy_evaluation(self, monkeypatch, p):
        """Each energy evaluation forms |grad f|^2 once, from one pass of the
        kernel; the (E, Q, dim) gradient is formed only where a Newton step
        reads it, above p = 2."""
        problem = readme_problem(p, 1 / 16)
        passes, energies = [], []
        quad_terms = geo.TensorGrid.quad_terms
        energy = sv._regularized_energy
        monkeypatch.setattr(geo.TensorGrid, "quad_terms",
                            lambda self, u, **kw: passes.append(kw) or quad_terms(self, u, **kw))
        monkeypatch.setattr(sv, "_regularized_energy",
                            lambda *args: energies.append(1) or energy(*args))
        d = sv.solve(*problem).diagnostics
        assert d.converged and d.outer_iterations > 2
        assert len(energies) >= d.outer_iterations
        assert len(passes) == len(energies)
        assert all(kw["square_plus"] == d.eps_reg**2 and not kw.get("vals") for kw in passes)
        assert sum(bool(kw.get("grads")) for kw in passes) == (len(energies) if p > 2.0 else 0)


def galerkin_grids():
    """Non-periodic grids with pinned faces: 2-D and 3-D, Dirichlet and
    Neumann laterals (the caps are the last axis), and an axis of odd cell
    count."""
    strip = geo.TensorGrid([np.linspace(0, 1, 17), np.linspace(0, 2, 33)])
    box3 = geo.TensorGrid([np.linspace(0, 1, 9), np.linspace(0, 1, 8), np.linspace(0, 2, 17)])
    caps = [(1, 0), (1, -1)]
    return {
        "2d-dirichlet": (strip, pin(2, caps + [(0, 0), (0, -1)])),
        "2d-neumann": (strip, pin(2, caps)),
        "2d-mixed": (strip, pin(2, caps + [(0, -1)])),
        "3d-dirichlet-odd": (box3, pin(3, [(2, 0), (2, -1), (0, 0), (0, -1), (1, 0), (1, -1)])),
        "3d-neumann-odd": (box3, pin(3, [(2, 0), (2, -1)])),
    }


class TestMultigrid:
    def test_prolongation_is_restricted_kronecker(self, monkeypatch):
        # axes of 5, 4 (odd cell count: identity) and 9 nodes, with one
        # Dirichlet face pinned, two, and none
        monkeypatch.setattr(sv, "MG_COARSEST", 0)
        grid = geo.TensorGrid([np.linspace(0, 1, 5), np.linspace(0, 1, 4), np.linspace(0, 2, 9)])

        def interp(n):
            if (n - 1) % 2:
                return np.eye(n)
            out = np.zeros((n, n // 2 + 1))
            for i in range(n):
                out[i, i // 2] += 0.5 if i % 2 else 1.0
                if i % 2:
                    out[i, i // 2 + 1] += 0.5
            return out

        full = np.kron(np.kron(interp(5), interp(4)), interp(9))
        for faces in ([(0, 0)], [(0, 0), (2, -1)], []):
            pinned = pin(3, faces)
            mask = face_mask(grid, pinned)
            P, axes = sv._hierarchy(grid.shape, sv._free_box(grid, pinned))[0]
            # a coarse node is free when its fine twin is
            twins = (~mask).reshape(grid.shape)[::2, :, ::2]
            assert axes[1] is None
            assert (axes[0][1], axes[2][1]) == (np.count_nonzero(twins.any(axis=(1, 2))),
                                                np.count_nonzero(twins.any(axis=(0, 1))))
            assert np.array_equal(P.toarray(), full[~mask][:, twins.ravel()])
            assert P.has_sorted_indices

    @pytest.mark.parametrize("problem", [lambda: readme_problem(2.0, 1 / 32),
                                         lambda: layer3d(1 / 24)], ids=["2d", "3d"])
    def test_vcycle_symmetric_positive_definite(self, problem):
        dom, mesh, op, bc = problem()
        pinned, vals = sv.dirichlet_data(mesh, bc)
        mask = face_mask(mesh.grid, pinned)
        system = sv._FreeSystem(mesh.grid, pinned, vals)
        assert len(system.hierarchy) >= 2
        rng = np.random.default_rng(7)
        # a rough positive coefficient, spanning four decades
        coeff = 10.0 ** rng.uniform(-2.0, 2.0, mesh.grid.quad_weights.shape)
        M = sv._VCycle(sv._box_stencil(mesh.grid.stiffness_stencil(coeff=coeff), system.box),
                       system.hierarchy)
        n = M.matrix.shape[0]
        axial = mesh.grid.nodes[~mask, -1]
        probes = [rng.standard_normal(n) for _ in range(4)]
        probes += [np.ones(n), np.cos(3.0 * axial), (-1.0) ** np.arange(n)]
        for x in probes:
            assert x @ M(x) > 0
            for y in probes:
                My = M(y)
                assert abs(x @ My - y @ M(x)) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(My)

    def test_restriction_built_once_per_level(self, monkeypatch):
        """Each level keeps P^T, the CSC view of P's arrays, so a V-cycle
        transposes nothing, and its product has the bytes of P.T's."""
        dom, mesh, op, bc = readme_problem(2.0, 1 / 64)
        system = sv._FreeSystem(mesh.grid, *sv.dirichlet_data(mesh, bc))
        M = sv._VCycle(sv._box_stencil(mesh.grid.stiffness_stencil(), system.box),
                       system.hierarchy)
        assert len(M.levels) >= 2
        rng = np.random.default_rng(9)
        for _, _, P, R in M.levels:
            assert R.format == "csc" and R.shape == P.shape[::-1]
            assert all(np.shares_memory(a, b) for a, b in ((R.data, P.data),
                                                            (R.indices, P.indices),
                                                            (R.indptr, P.indptr)))
            x = rng.standard_normal(P.shape[0])
            assert (R @ x).tobytes() == (P.T @ x).tobytes()
        calls = []
        matrix_type = type(M.levels[0][2])
        transpose = matrix_type.transpose
        monkeypatch.setattr(matrix_type, "transpose",
                            lambda self, *a, **k: calls.append(1) or transpose(self, *a, **k))
        M(rng.standard_normal(M.matrix.shape[0]))
        assert calls == []

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_iterations_flat_under_refinement_2d(self, p):
        # p = 2: CG on the p = 2 system from zero, as a cold solve ran it;
        # otherwise the outer steps' CG solves
        worst = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            problem = readme_problem(p, h)
            if p == 2.0:
                _, iterations = cg_from_zero(*problem[1:])
                assert len(iterations) == 1
            else:
                d = sv.solve(*problem).diagnostics
                assert d.converged and d.linear_solver == "cg-mg"
                assert len(d.linear_iterations) == d.outer_iterations - 1
                iterations = d.linear_iterations
            assert min(iterations) > 0
            worst.append(max(iterations))
        assert max(worst) <= 12 and worst[-1] <= worst[0] + 2, worst

    def test_iterations_flat_under_refinement_3d(self):
        # CG on the p = 2 system from zero, as a cold solve ran it
        worst = []
        for h in (1 / 8, 1 / 16, 1 / 24):
            _, iterations = cg_from_zero(*layer3d(h)[1:])
            assert len(iterations) == 1
            worst.append(iterations[0])
        # h = 1/8 is small enough to factor whole: one iteration
        assert max(worst) <= 12 and worst[-1] <= worst[1] + 2, worst


def dirichlet_meshes():
    """Meshes with cap data that do not vanish on the laterals: the README
    strip with each lateral pair, a k = 2 layer with mixed laterals and a
    radial mesh with a Dirichlet-zero inner face."""
    def strip_case(lateral):
        return geo.build_mesh(strip(lateral, 3.0), 1 / 16), lateral

    k2 = geo.CanonicalDomain(n=3, k=2, base=((0.0, 1.0), (0.0, 1.5)), axial_kind="layer",
                             alpha=1.0, beta=3.0,
                             lateral_bc=("dirichlet0", "neumann", "neumann", "dirichlet0"))
    radial = geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial", alpha=1.0,
                                 beta=3.0, lateral_bc=("dirichlet0", "neumann"))
    cases = {f"readme-{a[0].upper()}{b[0].upper()}": strip_case((a, b))
             for a in ("dirichlet0", "neumann") for b in ("dirichlet0", "neumann")}
    cases["k2-mixed"] = geo.build_mesh(k2, 1 / 8), k2.lateral_bc
    cases["radial"] = geo.build_mesh(radial, 1 / 8), radial.lateral_bc
    return {name: (mesh, sv.BoundarySpec(g_low=lambda x: 1.0 + np.sum(x[:, :-1], axis=1),
                                         g_high=lambda x: np.cos(np.pi * x[:, 0]) - 2.0,
                                         lateral=lateral))
            for name, (mesh, lateral) in cases.items()}


class TestFreeBoxFromFaces:
    """A Dirichlet set is whole faces, one (low, high) pair of pinned flags
    per axis: the free box and the prescribed values come from the flags,
    with the box and the bytes of the mask analysis and the node-id
    construction that they replaced."""

    @pytest.mark.parametrize("name", list(pattern_grids()) + ["two-node"])
    def test_every_flag_combination_is_the_mask_box(self, name):
        if name == "two-node":  # pinned at both faces, its box is empty
            grid = geo.TensorGrid([np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 2)])
        else:
            grid = pattern_grids()[name]
        ends = list(product((False, True), repeat=2))
        boxes = []
        for pinned in product(*([(False, False)] if per else ends for per in grid.periodic)):
            box = sv._free_box(grid, pinned)
            assert box == reference_free_box(grid, face_mask(grid, pinned))
            boxes.append(box)
        assert (None in boxes) == (name == "two-node")

    @pytest.mark.parametrize("name", list(dirichlet_meshes()))
    def test_dirichlet_data_is_the_id_construction(self, name):
        mesh, bc = dirichlet_meshes()[name]
        pinned, vals = sv.dirichlet_data(mesh, bc)
        mask, ref = reference_dirichlet_data(mesh, bc)
        assert pinned == mesh.domain.lateral_pinned + ((True, True),)
        assert np.array_equal(face_mask(mesh.grid, pinned), mask)
        assert vals.dtype == ref.dtype and vals.shape == ref.shape
        assert vals.tobytes() == ref.tobytes()
        assert np.any(vals[mask] == 0.0) == ("dirichlet0" in bc.lateral)


class TestStencilLevels:
    """The V-cycle's levels are DIA matrices over the free box, the coarse
    ones formed by stencil slice adds."""

    @pytest.mark.parametrize("mg_coarsest", [100, 0])
    @pytest.mark.parametrize("name", list(galerkin_grids()))
    def test_galerkin_matches_sparse_products(self, monkeypatch, name, mg_coarsest):
        monkeypatch.setattr(sv, "MG_COARSEST", mg_coarsest)
        grid, pinned = galerkin_grids()[name]
        coeff = 10.0 ** np.random.default_rng(2).uniform(-1.0, 1.0, grid.quad_weights.shape)
        stencil = grid.stiffness_stencil(coeff=coeff)
        free = ~face_mask(grid, pinned)
        A = gather_csr(grid, stencil)[free][:, free]
        box = sv._free_box(grid, pinned)
        D = sv._box_stencil(stencil, box)
        hierarchy = sv._hierarchy(grid.shape, box)
        assert len(hierarchy) >= (1 if mg_coarsest else 3)
        for P, axes in hierarchy:
            A = ((A @ P).T @ P).T
            D = sv._galerkin(D, axes)
            level = sv._dia(D).toarray()
            assert level.shape == A.shape
            if A.shape[0]:
                ref = A.toarray()
                assert np.max(np.abs(level - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", list(galerkin_grids()))
    def test_finest_level_is_the_csr_block(self, name):
        grid, pinned = galerkin_grids()[name]
        free = ~face_mask(grid, pinned)
        rng = np.random.default_rng(4)
        stencil = grid.stiffness_stencil(coeff=rng.uniform(0.5, 2.0, grid.quad_weights.shape))
        block = gather_csr(grid, stencil)[free][:, free]
        A = sv._dia(sv._box_stencil(stencil, sv._free_box(grid, pinned)))
        assert np.all(np.diff(A.offsets) > 0)
        assert np.array_equal(A.toarray(), block.toarray())
        x = rng.standard_normal(A.shape[0])
        assert (A @ x).tobytes() == (block @ x).tobytes()

    def test_thin_box_offsets_merge(self):
        # a box two nodes wide after the first axis: offsets of different
        # digits coincide, and the merged diagonals keep the block exactly
        grid = geo.TensorGrid([np.linspace(0, 1, 5), np.linspace(0, 1, 3), np.linspace(0, 1, 4)])
        pinned = pin(3, [(1, 0), (2, 0), (2, -1)])
        mask = face_mask(grid, pinned)
        stencil = grid.stiffness_stencil()
        A = sv._dia(sv._box_stencil(stencil.copy(), sv._free_box(grid, pinned)))
        assert np.all(np.diff(A.offsets) > 0) and len(A.offsets) < 27
        assert np.array_equal(A.toarray(), gather_csr(grid, stencil)[~mask][:, ~mask].toarray())

    @pytest.mark.parametrize("name", list(pattern_grids()))
    def test_face_layer_rhs_equals_whole_product(self, name):
        """-K_fc g summed on the box's face layers alone is, byte for byte,
        the free rows of the whole-grid stencil product, -0.0 included."""
        grid = pattern_grids()[name]
        rng = np.random.default_rng(7)
        stencil = rng.standard_normal((3**grid.dim,) + grid.shape)
        sides = [(ax, side) for ax in np.flatnonzero(~np.asarray(grid.periodic))
                 for side in (0, -1)]
        cases = [pin(grid.dim, sides)] + [pin(grid.dim, [face]) for face in sides]
        cases += [pin(grid.dim, [(ax, 0), (ax, -1)]) for ax, _ in sides[::2]]
        for pinned in cases:
            mask = face_mask(grid, pinned)
            vals = np.where(mask, rng.uniform(-1.0, 1.0, grid.n_nodes), 0.0)
            system = sv._FreeSystem(grid, pinned, vals)
            rhs, _ = system.restrict(stencil.copy())  # restrict consumes its stencil
            whole = -grid.apply_stencil(stencil, vals)[~mask]
            assert rhs.tobytes() == whole.tobytes()
            assert np.signbit(rhs[rhs == 0.0]).all()

    @pytest.mark.parametrize("name", list(pattern_grids()))
    def test_box_stencil_in_place_matches_copy(self, name):
        """_box_stencil writes the box block over its argument's buffer, with
        the bytes of the copying version, on every face box of each grid:
        periodic axes, boxes one node wide and the whole grid included."""
        grid = pattern_grids()[name]
        rng = np.random.default_rng(3)
        stencil = rng.standard_normal((3**grid.dim,) + grid.shape)
        sides = [(ax, side) for ax in np.flatnonzero(~np.asarray(grid.periodic))
                 for side in (0, -1)]
        cases = [pin(grid.dim, []), pin(grid.dim, sides)]
        cases += [pin(grid.dim, [face]) for face in sides]
        cases += [pin(grid.dim, [(ax, 0), (ax, -1)]) for ax, _ in sides[::2]]
        for pinned in cases:
            box = sv._free_box(grid, pinned)
            ref = reference_box_stencil(stencil, box, grid.periodic)
            work = stencil.copy()
            D = sv._box_stencil(work, box, grid.periodic)
            assert np.shares_memory(D, work)
            assert D.shape == ref.shape and D.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("chunk", [1, 100_000, geo.ASSEMBLY_CHUNK_BYTES])
    @pytest.mark.parametrize("mg_coarsest", [0, 100, 1000])
    @pytest.mark.parametrize("name", list(galerkin_grids()) + ["3d-thin"])
    def test_blocked_galerkin_matches_one_pass(self, monkeypatch, name, mg_coarsest, chunk):
        """The Galerkin passes, blocked by coarse rows of the first coarsened
        axis (one row a block at chunk 1), give the bytes of one pass over
        the whole level, down to coarse axes of odd size, 1 and 0."""
        monkeypatch.setattr(sv, "MG_COARSEST", mg_coarsest)
        monkeypatch.setattr(sv, "ASSEMBLY_CHUNK_BYTES", chunk)
        if name == "3d-thin":  # box (15, 9, 17): coarse axes of 7, 1 and 0 nodes
            grid = geo.TensorGrid([np.linspace(0, 1, n) for n in (17, 11, 19)])
            pinned = ((True, True),) * 3
        else:
            grid, pinned = galerkin_grids()[name]
        coeff = 10.0 ** np.random.default_rng(2).uniform(-1.0, 1.0, grid.quad_weights.shape)
        box = sv._free_box(grid, pinned)
        D = sv._box_stencil(grid.stiffness_stencil(coeff=coeff), box)
        hierarchy = sv._hierarchy(grid.shape, box)
        assert len(hierarchy) >= (3 if mg_coarsest == 0 else 0)
        sizes = set()
        for _, axes in hierarchy:
            ref = reference_galerkin(D, axes)
            D = sv._galerkin(D, axes)
            assert D.shape == ref.shape and D.tobytes() == ref.tobytes()
            sizes |= {spec[1] for spec in axes if spec is not None}
        if name == "3d-thin" and mg_coarsest == 0:
            assert {0, 1, 7} <= sizes

    @pytest.mark.parametrize("mg_coarsest", [sv.MG_COARSEST, 0])
    @pytest.mark.parametrize("lateral", [("dirichlet0", "dirichlet0"), ("dirichlet0", "neumann")],
                             ids=["dirichlet", "mixed"])
    def test_periodic_free_system_matches_direct_solve(self, monkeypatch, lateral, mg_coarsest):
        """A radial section's free box spans its periodic angle, which the
        V-cycle does not coarsen: its stencil Galerkin levels are the sparse
        products, and CG on the wrapped DIA block gives the direct solve of
        that block, with and without coarse levels."""
        monkeypatch.setattr(sv, "MG_COARSEST", mg_coarsest)
        dom = geo.CanonicalDomain(n=3, k=1, base=((0.0, 1.0),), axial_kind="radial", alpha=1.0,
                                  beta=3.0, lateral_bc=lateral)
        sec = geo.build_mesh(dom, 1 / 8).cross_section(2.0)
        grid = sec.grid
        mask = face_mask(grid, sec.pinned)
        box = sv._free_box(grid, sec.pinned)
        assert box[1] == slice(0, grid.shape[1])
        hierarchy = sv._hierarchy(grid.shape, box, grid.periodic)
        assert len(hierarchy) >= (1 if mg_coarsest == 0 else 0)
        assert all(axes[1] is None for _, axes in hierarchy)
        rng = np.random.default_rng(5)
        stencil = grid.stiffness_stencil(coeff=rng.uniform(0.5, 2.0, grid.quad_weights.shape))
        vals = np.where(mask, rng.uniform(-1.0, 1.0, grid.n_nodes), 0.0)
        load = rng.standard_normal(grid.n_nodes)
        system = sv._FreeSystem(grid, sec.pinned, vals)
        # restrict and _box_stencil consume their stencil: each gets a copy
        monkeypatch.setattr(sv, "CG_FORCING", 0.0)  # CG from zero to CG_RTOL
        x = system.solve(system.restrict(stencil.copy(), load), vals)
        block = sv._dia(sv._box_stencil(stencil.copy(), box, grid.periodic),
                        grid.periodic).tocsc()
        rhs = (load - gather_csr(grid, stencil) @ vals)[~mask]
        ref = sv.spla.spsolve(block, rhs)
        A, D = block, sv._box_stencil(stencil.copy(), box, grid.periodic)
        for P, axes in hierarchy:
            A = ((A @ P).T @ P).T
            D = sv._galerkin(D, axes)
            level = sv._dia(D, grid.periodic).toarray()
            assert level.shape == A.shape
            if A.shape[0]:
                ref_level = A.toarray()
                assert np.max(np.abs(level - ref_level)) <= 1e-14 * np.max(np.abs(ref_level))
        assert np.array_equal(x[mask], vals[mask])
        assert np.max(np.abs(x[~mask] - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_solve_never_calls_to_csr(self, p, monkeypatch, vcycle_levels):
        """The solver's levels stay DIA matrices: only the coarsest one is
        converted, to CSC (through CSR) for its factor."""
        tocsr = sv.sp.dia_matrix.tocsr

        def coarsest_only(self, copy=False):
            assert self.shape[0] <= sv.MG_COARSEST, "the solver gathered a fine CSR matrix"
            return tocsr(self, copy=copy)

        monkeypatch.setattr(sv.sp.dia_matrix, "tocsr", coarsest_only)
        # the half layer at h = 1/32 (31 x 96 free nodes) and the whole
        # layer at h = 1/16 (15 x 95) both have a coarse level
        for mirrored, problem in ((True, readme_problem(p, 1 / 32)),
                                  (False, unequal_caps(readme_problem(p, 1 / 16)))):
            d = sv.solve(*problem).diagnostics
            assert d.converged and d.mirrored == mirrored
            assert min(vcycle_levels) >= 1
            vcycle_levels.clear()


class TestWorkingSet:
    """A solve holds little more than one grid-sized stencil: restrict
    writes the free-box block over the step's stencil, the Galerkin passes
    run block by block, the quadrature weights and a constant a(x) are
    broadcasts of one value, and at p <= 2 the kernel forms |grad f|^2
    without the gradient, chunk by chunk; the outer loop keeps neither the
    step's stencil nor the previous iterate's gradient terms through the
    step's solve.  A p = 2 solve is separable and builds no grid stencil
    at all."""

    @pytest.mark.parametrize("h, p, bound", [(1 / 16, 2.0, 0.9), (1 / 16, 3.0, 4.6),
                                             (1 / 32, 2.0, 0.45)],
                             ids=["h16-p2", "h16-p3", "h32-p2"])
    def test_3d_solve_peak_in_grid_stencils(self, h, p, bound):
        """Traced peaks of a k = 2 solve, in grid stencils of 3^3 values per
        node: 0.85 at h = 1/16, p = 2, 4.40 at h = 1/16, p = 3 and 0.42 at
        h = 1/32, p = 2, where a p = 2 solve's peak is its one energy
        evaluation, s and the kernel's chunk temporaries.  With |grad f|^2
        summed from the element corners they were 0.85, 4.40 and 0.90, with
        the p = 2 solve by multigrid CG 1.97, 4.43 and 1.74, and 2.39, 4.94
        and 2.61 with the box block
        copied out of the stencil, the passes over whole levels, the
        weights and a(x) materialized and the gradient formed at p = 2
        (3.40, 7.14 and 3.79 while the solve kept each step's stencil
        alive)."""
        sv.solve(*layer3d(1 / 8))  # module-level caches
        dom, mesh, _, bc = layer3d(h)
        stencil_bytes = 27 * mesh.n_nodes * 8
        tracemalloc.start()
        try:
            field = sv.solve(dom, mesh, st.constant_operator(p), bc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert field.diagnostics.converged
        assert peak <= bound * stencil_bytes, peak / stencil_bytes


class TestSquaredGradient:
    """s = |grad f|^2 + eps^2 from the kernel alone, without the gradient,
    where no step reads it, and the step coefficient c = a s^((p-2)/2) from
    the iterate's one fractional power."""

    @pytest.mark.parametrize("name", list(pattern_grids()) + ["readme-h64", "k2-h32"])
    def test_per_axis_s_is_the_gradient_s(self, name):
        if name == "readme-h64":
            grid = readme_problem(2.0, 1 / 64)[1].grid
        elif name == "k2-h32":
            grid = layer3d(1 / 32)[1].grid
        else:
            grid = pattern_grids()[name]
        rng = np.random.default_rng(6)
        u = rng.normal(size=grid.n_nodes)
        a_q = rng.uniform(0.5, 2.0, size=grid.quad_weights.shape)
        ref = reference_gradient_s(grid, u, 0.1)
        for p in (1.2, 2.0):
            g, s, c = sv._gradient_terms(grid, u, 0.1, p, a_q)
            assert g is None and s.tobytes() == ref.tobytes()
            if p == 2.0:  # no power taken
                assert c is a_q
            else:
                assert c.tobytes() == (a_q * ref ** (0.5 * (p - 2.0))).tobytes()
        g, s, c = sv._gradient_terms(grid, u, 0.1, 3.0, a_q)  # a Newton step reads grad f
        assert g.tobytes() == grads_at_quads(grid, u).tobytes()
        assert s.tobytes() == ref.tobytes()
        assert c.tobytes() == (a_q * ref ** 0.5).tobytes()


class TestScaleInvariance:
    """With cap data s g the discrete solve is s times the unit-data solve,
    its energy s^p times the unit-data energy: the regularization eps
    scales with the data, below unit scale too."""

    @pytest.mark.parametrize("p", [1.2, 1.5])
    def test_field_and_energy_scale_with_the_data(self, p):
        dom, mesh, op, _ = readme_problem(p, 1 / 16)

        def solve(scale):
            g = lambda x: scale * np.sin(np.pi * x[:, 0])
            return sv.solve(dom, mesh, op, sv.BoundarySpec(g_low=g, g_high=g,
                                                           lateral=dom.lateral_bc))

        unit = solve(1.0)
        assert unit.diagnostics.converged
        for scale in (1e-2, 1e2):
            f = solve(scale)
            d = f.diagnostics
            assert d.converged and d.eps_reg == sv.EPS_REG_REL * scale
            assert np.max(np.abs(f.values / scale - unit.values)) \
                <= 1e-12 * np.max(np.abs(unit.values))
            assert abs(d.energy / scale**p - unit.diagnostics.energy) \
                <= 1e-12 * unit.diagnostics.energy
        # zero caps: f = 0, and eps keeps the unit scale
        zero = solve(0.0)
        assert zero.diagnostics.converged and zero.diagnostics.eps_reg == sv.EPS_REG_REL
        assert not zero.values.any()
