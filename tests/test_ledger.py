"""The per-field quadrature ledger against the whole-mesh formulas it replaced."""

import numpy as np
import pytest

from conftest import make_strip, reference_kernel_trace, reference_slab_elements
from svplab import asymptotics as asym
from svplab import energetics as en
from svplab import geometry as geo
from svplab import solver as sv
from svplab import structure as st
from svplab import zones as zn


def solve_small(p):
    dom = make_strip(("dirichlet0", "dirichlet0"), 1.0)
    mesh = geo.build_mesh(dom, 1 / 8)
    g = lambda x: np.sin(np.pi * x[:, 0]) * (1.0 + 0.3 * x[:, 1])
    bc = sv.BoundarySpec(g_low=g, g_high=g, lateral=("dirichlet0", "dirichlet0"))
    return sv.solve(dom, mesh, st.constant_operator(p), bc)


# --- whole-mesh reference formulas: every call re-evaluates the field ---------

def ref_energy(f, t, tau):
    mesh = f.mesh
    elems = reference_slab_elements(mesh, t, tau)
    g = mesh.grid.grads_at_quads(f.values)[elems]
    s = np.sum(g**2, axis=-1)
    w = mesh.grid.quad_weights[elems]
    return float(np.sum(w * s ** (0.5 * f.op.p)))


def ref_trace(f, j, side):
    return reference_kernel_trace(f.mesh, f.values, j, side)[1:]


def ref_section_energy(f, j):
    sides = (["below"] if j > 0 else []) + (["above"] if j < f.mesh.stations.size - 1 else [])
    vals = []
    for side in sides:
        w, _, gr = ref_trace(f, j, side)
        vals.append(float(np.sum(w * np.sum(gr**2, axis=-1) ** (0.5 * f.op.p))))
    return float(np.mean(vals))


def ref_section_mass(f, C, j):
    st_ = f.mesh.stations
    side = "above" if st_[j] <= 0.5 * (st_[0] + st_[-1]) else "below"
    w, fvals, _ = ref_trace(f, j, side)
    floor = 16.0 * np.finfo(float).eps * max(abs(C), float(np.max(np.abs(f.values))), 1e-300)
    dev = np.abs(fvals - C)
    dev[dev <= floor] = 0.0
    return float(np.sum(w * dev**f.op.p))


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_ledger_matches_whole_mesh_formulas_exactly(p):
    f = solve_small(p)
    stations = f.mesh.stations
    n = stations.size
    for i in range(n):
        for k in range(i + 1, n):
            assert en.energy(f, stations[i], stations[k]) == ref_energy(f, stations[i], stations[k])
    c = 0.1
    masses = asym.section_mass(f, c, stations).values
    for j in range(n):
        assert en.section_energy(f, stations[j]) == ref_section_energy(f, j)
        assert masses[j] == ref_section_mass(f, c, j)


def test_with_values_starts_a_fresh_ledger():
    f = solve_small(2.0)
    before = en.energy(f, -0.5, 0.5)
    noisy = f.with_values(f.values + 0.05 * np.random.default_rng(0).normal(size=f.values.shape))
    after = en.energy(noisy, -0.5, 0.5)
    assert after != before
    assert after == ref_energy(noisy, -0.5, 0.5)
    assert en.energy(f, -0.5, 0.5) == before


def test_post_processing_evaluates_the_field_once(monkeypatch):
    """Values and |grad f|^2 of the ledger come from one pass of the kernel,
    the traces from one pass on the lower node planes and one on the top
    layer's upper plane, and no corner is gathered."""
    f = solve_small(2.0)
    calls = {"corner_values": 0, "grads_at_quads": 0, "vals_at_quads": 0, "quad_terms": 0,
             "face_terms": 0}
    for name in calls:
        orig = getattr(geo.TensorGrid, name)

        def counted(self, u, *args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(self, u, *args, **kwargs)

        monkeypatch.setattr(geo.TensorGrid, name, counted)
    stations = [s for s in f.mesh.stations if s > 0]
    rate = en.constant_rate_profile("lambda", 2.0, f.mesh.stations, np.pi**2)
    en.energy_profile(f, 0.0, stations, fit_window=(stations[0], stations[-1]))
    for s in (1e-3, 1e-2):
        zn.w1p_zone(f, s, rate_profile=rate, tau_outer=0.875)
        zn.lp_zone(f, s, C5=1.0, rate_profile=rate, tau_outer=0.875)
        zn.sup_zone(f, s, C6=1.0, rate_profile=rate, tau_outer=0.875)
    asym.cutoff_bound(f, 0.0, 0.25, 0.75)
    assert calls == {"corner_values": 0, "grads_at_quads": 0, "vals_at_quads": 0, "quad_terms": 1,
                     "face_terms": 2}
