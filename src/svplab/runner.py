"""Config-driven experiment orchestration.

Tasks run in dependency order (one shared solve feeds the svp / zones /
cutoff checks; pl solves its own truncation family).  With the refine
flag the svp checks and cutoff bounds are repeated at h/2, and each
one's discretization tolerance is calibrated as twice the margin drift
between the two resolutions; the h/2 pass skips the frequencies, zones
and pl tasks and the energy profile, whose output the report takes from
h alone.  Exit codes: 0 all checks pass, 1 at least one inequality
violated beyond tolerance, 2 config error, 3 solver failure:
non-convergence or any numerical error (RuntimeError, numpy LinAlgError,
FloatingPointError); any other ValueError is a config error.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import report as rep
from .asymptotics import cutoff_bound, pl_check
from .config import ConfigError, RunConfig
from .energetics import (
    RateProfile,
    energy,
    energy_profile,
    rate_profile,
    svp_check_dirichlet,
    svp_check_neumann,
    svp_symmetric_check,
)
from .frequency import SECOND, THIRD, frequency_profile
from .geometry import DIRICHLET0, LAYER, build_mesh
from .solver import TOL_ENERGY, BoundarySpec, SolverError, solve
from .structure import check_structure
from .zones import lp_zone, sup_zone, w1p_zone

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_SOLVER_FAILED = 3

# errors raised by numerics rather than by the config: exit 3, not 2;
# LinAlgError is a ValueError, so it must be caught first
_NUMERICAL_FAILURES = (RuntimeError, np.linalg.LinAlgError, FloatingPointError)


@dataclass
class RunResult:
    exit_code: int
    report: dict
    files: list


def _needs_field(config):
    return any(t.name in ("solve", "svp", "zones", "cutoff") for t in config.tasks)


def _family(config):
    if any(k == DIRICHLET0 for k in config.domain.lateral_bc):
        return "dirichlet"
    return "neumann"


def _boundary_spec(config):
    return BoundarySpec(g_low=config.g_low, g_high=config.g_high,
                        lateral=config.domain.lateral_bc)


def _validate_station(mesh, value, what):
    try:
        mesh.station_index(value, snap_tol=mesh.snap_tolerance())
    except ValueError as exc:
        raise ConfigError(f"{what} {value} is not a mesh station: {exc}") from exc


def _family_kind(config):
    """The frequency kind of the config's family: lambda (THIRD) for a
    Dirichlet family, mu (SECOND) for a Neumann one."""
    return THIRD if _family(config) == "dirichlet" else SECOND


def _rate_profile(config, mesh, kind, stations, memo):
    """The mu (SECOND) or lambda (THIRD) rate profile over +/- the requested
    stations, and the (tau, FrequencyResult) pairs it was built from; memo is
    frequency_profile's."""
    p = config.operator.p
    name = "mu" if kind == SECOND else "lambda"
    pos = sorted({float(s) for s in stations})
    pairs = frequency_profile(mesh, p, kind, pos, memo)
    if mesh.domain.axial_kind != LAYER:
        return rate_profile(name, p, pairs), pairs
    # layer sections are identical: mirror the station values
    taus = [t for t, _ in pairs]
    vals = [r.value for _, r in pairs]
    full = sorted(set([-t for t in taus] + [0.0] + taus))
    lookup = dict(zip(taus, vals))
    allv = [lookup.get(abs(t), vals[0]) for t in full]
    profile = RateProfile(kind=name, p=p, stations=np.asarray(full), values=np.asarray(allv))
    return profile, pairs


# tasks whose output only the main pass reports; the refine pass skips them
_MAIN_ONLY_TASKS = ("frequencies", "zones", "pl")


def _execute(config, h, seed, refined=False):
    """Run the tasks at one resolution; returns raw results.

    The refine pass (refined=True) computes only what the report reads from
    it, the svp check and cutoff margins: it solves, builds the family's rate
    profile and the checks for svp, and runs the cutoff bounds.  Every task of
    the pass shares one frequency memo, so each distinct section is computed
    once per pass; the memo dies with the pass.
    """
    results = {
        "h": h,
        "checks": [],
        "zones": [],
        "frequencies": {},
        "cutoff": [],
        "pl": [],
        "profile": None,
        "solver": None,
        "mesh": None,
        "field": None,
        "structure": None,
    }
    mesh = build_mesh(config.domain, h)
    results["mesh"] = mesh
    memo = {}
    field_ = None
    if _needs_field(config):
        field_ = solve(config.domain, mesh, config.operator, _boundary_spec(config))
        if not field_.diagnostics.converged:
            raise SolverError(
                f"solver did not converge in {field_.diagnostics.outer_iterations} iterations"
            )
        results["solver"] = field_.diagnostics
        results["field"] = field_

    for task in config.tasks:
        if task.name == "solve" or (refined and task.name in _MAIN_ONLY_TASKS):
            continue
        if task.name == "frequencies":
            kinds = task.params.get("kinds", (SECOND,))
            stations = task.params["stations"]
            for st in stations:
                _validate_station(mesh, st, "frequency station")
            for kind in kinds:
                pairs = frequency_profile(mesh, config.operator.p, kind, stations, memo)
                results["frequencies"][kind] = pairs
        elif task.name == "svp":
            results.update(_run_svp(config, mesh, field_, task, seed, memo, refined))
        elif task.name == "zones":
            results["zones"] = _run_zones(config, mesh, field_, task, memo)
        elif task.name == "cutoff":
            c = task.params.get("C", (0.0,))[0]
            tau1 = task.params.get("tau1", (1.0,))[0]
            tau2 = task.params.get("tau2", (2.0,))[0]
            for v in (tau1, tau2):
                _validate_station(mesh, v, "cutoff window bound")
            results["cutoff"].append(cutoff_bound(field_, c, tau1, tau2))
        elif task.name == "pl":
            forms = task.params.get("form", ("starI",))
            truncations = task.params["truncations"]
            tau_inner = task.params.get("tau_inner", (1.0,))[0]
            window = task.params.get("window", (1.0,))[0]
            for form in forms:
                results["pl"].append(
                    pl_check(config.domain, config.operator, _boundary_spec(config),
                             truncations, form, h, memo, tau_inner=tau_inner,
                             window=window)
                )
    return results


def _run_svp(config, mesh, field_, task, seed, memo, refined=False):
    stations = task.params["stations"]
    for st in stations:
        _validate_station(mesh, st, "svp station")
    t = task.params.get("t", (float(mesh.stations[0]),))[0]
    _validate_station(mesh, t, "svp base station")
    fit_window = task.params.get("fit_window")
    corrupt = task.params.get("corrupt", (0.0,))[0]
    if corrupt > 0:
        rng = np.random.default_rng(seed + 1)
        noisy = field_.values.copy()
        scale = corrupt * max(float(np.max(np.abs(noisy))), 1.0)
        noisy += rng.normal(scale=scale, size=noisy.shape)
        field_ = field_.with_values(noisy)
    family = _family(config)
    kind = _family_kind(config)
    # the checks read only the family's profile
    sym_profile, pairs = _rate_profile(config, mesh, kind, stations, memo)
    pairs = {kind: pairs}
    if not refined:
        # svp.csv tabulates both kinds
        other = SECOND if kind == THIRD else THIRD
        pairs[other] = _rate_profile(config, mesh, other, stations, memo)[1]
        profile = energy_profile(field_, t, stations,
                                 fit_window=fit_window if fit_window else None)
    checks = []
    for tt, tau1, tau2 in task.params.get("pairs", ()):
        for v in (tt, tau1, tau2):
            _validate_station(mesh, v, "svp pair entry")
        if family == "neumann":
            checks.append(svp_check_neumann(field_, sym_profile, tt, tau1, tau2))
        else:
            checks.append(svp_check_dirichlet(field_, sym_profile, tt, tau1, tau2))
        if mesh.domain.axial_kind == LAYER and tau1 > 0:
            checks.append(svp_symmetric_check(field_, sym_profile, tau1, tau2))
    if refined:
        return {"checks": checks}
    return {
        "checks": checks,
        "profile": profile,
        "mu_pairs": pairs[SECOND],
        "lam_pairs": pairs[THIRD],
        "field": field_,
        "corrupted": corrupt > 0,
    }


def _run_zones(config, mesh, field_, task, memo):
    norms = task.params.get("norms", ("w1p", "lp", "sup"))
    s_values = task.params["s_values"]
    tau_outer = task.params.get("tau_outer", (float(mesh.stations[-1]),))[0]
    _validate_station(mesh, tau_outer, "zones tau_outer")
    c5 = task.params.get("C5", (None,))[0]
    c6 = task.params.get("C6", (None,))[0]
    pos = [float(s) for s in mesh.stations if s > 0]
    profile, _ = _rate_profile(config, mesh, _family_kind(config), [pos[0], tau_outer], memo)
    out = []
    for s in s_values:
        for norm in norms:
            if norm == "w1p":
                out.append(w1p_zone(field_, s, rate_profile=profile, tau_outer=tau_outer))
            elif norm == "lp":
                out.append(lp_zone(field_, s, C5=c5, rate_profile=profile, tau_outer=tau_outer))
            elif norm == "sup":
                out.append(sup_zone(field_, s, C6=c6, rate_profile=profile, tau_outer=tau_outer))
            else:
                raise ConfigError(f"unknown zone norm {norm!r}")
    return out


def _entry_key(entry):
    return (entry["name"], tuple(sorted(entry["params"].items())))


def _tol_cap(chk):
    # calibrated tolerance may not exceed a fraction of the compared scale:
    # a drift comparable to the quantities themselves means "not a solution",
    # not "discretization error"
    return 0.25 * max(abs(chk.lhs), abs(chk.rhs), 1e-300)


def _calibrated_entries(found, found_h2):
    """Report entries of checks or cutoff bounds.

    An entry matched at h/2 gets tol_disc = twice the margin drift (capped)
    and its refined margin; an unmatched one keeps tol_disc = 0.
    """
    refined = {_entry_key(r.as_dict()): r for r in found_h2}
    entries = []
    for chk in found:
        entry = chk.as_dict()
        other = refined.get(_entry_key(entry))
        tol = min(2.0 * abs(chk.margin - other.margin), _tol_cap(chk)) if other is not None else 0.0
        entry["tol_disc"] = tol
        entry["passed"] = bool(chk.margin >= -tol)
        if other is not None:
            entry["margin_refined"] = other.margin
        entries.append(entry)
    return entries


def run(config, out_dir=None, seed=0, refine=None):
    """Execute a parsed RunConfig and write its artifacts.

    seed seeds only the svp task's corrupt noise; no section frequency
    draws a random number.  On a mesh whose every lateral face is
    dirichlet0 the first and third kinds share one computation.
    """
    out_dir = out_dir or config.out_dir or os.environ.get("SVPLAB_OUT") or "svplab-out"
    rep.ensure_dir(out_dir)
    do_refine = config.refine if refine is None else refine
    files = []
    try:
        results = _execute(config, config.h, seed)
        results2 = _execute(config, config.h / 2.0, seed, refined=True) if do_refine else None
    except _NUMERICAL_FAILURES as exc:
        payload = {
            "schema": 1,
            "seed": seed,
            "exit_code": EXIT_SOLVER_FAILED,
            "error": str(exc) if isinstance(exc, SolverError) else f"{type(exc).__name__}: {exc}",
            "config_echo": config.source.splitlines(),
        }
        files.append(rep.write_json(os.path.join(out_dir, "report.json"), payload))
        return RunResult(EXIT_SOLVER_FAILED, payload, files)
    except ValueError as exc:
        raise ConfigError(f"task setup failed: {exc}") from exc

    checks_payload = _calibrated_entries(results["checks"], results2["checks"] if results2 else ())
    cutoff_payload = _calibrated_entries(results["cutoff"], results2["cutoff"] if results2 else ())
    passed = all(entry["passed"] for entry in checks_payload + cutoff_payload)
    exit_code = EXIT_OK if passed else EXIT_CHECK_FAILED

    payload = _build_payload(config, seed, results, results2, checks_payload,
                             cutoff_payload, exit_code)
    files.extend(_write_artifacts(config, out_dir, results, payload))
    return RunResult(exit_code, payload, files)


def _build_payload(config, seed, results, results2, checks_payload, cutoff_payload, exit_code):
    mesh = results["mesh"]
    payload = {
        "schema": 1,
        "seed": seed,
        "exit_code": exit_code,
        "config_echo": config.source.splitlines(),
        "provenance": {
            "h": results["h"],
            "h_refined": results2["h"] if results2 else None,
            "spacings": list(mesh.spacings),
            "eps_reg": results["solver"].eps_reg if results["solver"] else None,
            "tol_energy": TOL_ENERGY,
        },
        "mesh": {
            "nodes": mesh.n_nodes,
            "elements": mesh.n_elems,
            "stations": [float(s) for s in mesh.stations],
        },
        "checks": checks_payload,
        "cutoff": cutoff_payload,
        "zones": [z.as_dict() for z in results["zones"]],
        "pl": [p.as_dict() for p in results["pl"]],
        "frequencies": {
            kind: [
                {"tau": tau, **res.as_row()} for tau, res in pairs
            ]
            for kind, pairs in results["frequencies"].items()
        },
    }
    if results["solver"]:
        payload["solver"] = {
            "outer_iterations": results["solver"].outer_iterations,
            "converged": results["solver"].converged,
            "energy": results["solver"].energy,
            "eps_reg": results["solver"].eps_reg,
            "linear_solver": results["solver"].linear_solver,
            "mirrored": results["solver"].mirrored,
        }
    prof = results.get("profile")
    if prof is not None:
        payload["energy_profile"] = {
            "t": prof.t,
            "stations": list(prof.stations),
            "inner_energy": list(prof.inner_energy),
            "symmetric_energy": list(prof.symmetric_energy),
            "slope": prof.slope,
            "slope_rms": prof.slope_rms,
            "slope_flagged": prof.slope_flagged,
            "fit_window": list(prof.fit_window),
        }
    return payload


def _write_artifacts(config, out_dir, results, payload):
    files = [rep.write_json(os.path.join(out_dir, "report.json"), payload)]
    fmts = config.formats
    mesh = results["mesh"]
    if "csv" in fmts and results.get("field") is not None and any(
        t.name == "solve" and t.params.get("snapshot") for t in config.tasks
    ):
        files.append(
            rep.write_field_csv(os.path.join(out_dir, "field.csv"), mesh,
                                results["field"].values)
        )
    prof = results.get("profile")
    if prof is not None and "csv" in fmts:
        mu_lookup = {t: r.value for t, r in results.get("mu_pairs", [])}
        lam_lookup = {t: r.value for t, r in results.get("lam_pairs", [])}
        rows = []
        for i, tau in enumerate(prof.stations):
            rows.append((
                tau,
                prof.inner_energy[i],
                prof.section_energies[i],
                prof.dI_dtau[i],
                prof.c1[i],
                prof.c2[i],
                mu_lookup.get(float(tau), math.nan),
                lam_lookup.get(float(tau), math.nan),
            ))
        files.append(rep.write_csv(
            os.path.join(out_dir, "svp.csv"), rep.SVP_CSV_HEADER, rows,
            comments=[
                "energy/flux table sampled at axial stations",
                "tau: station; I: slab energy from t; sectionEnergy: section integral of |grad f|^p",
                "dIdtau: mesh-spacing central difference of I; C1/C2: section flux constants",
                "mu/lambda: second/third cross-section frequencies at the station",
            ],
        ))
    if prof is not None and "svg" in fmts and prof.symmetric_energy.size:
        sym = prof.symmetric_energy
        pos = prof.stations > 0
        envelope = None
        if sym[pos].size:
            outer_tau = float(prof.stations[pos][-1])
            outer = float(sym[pos][-1])
            key = "lam_pairs" if _family_kind(config) == THIRD else "mu_pairs"
            family_lookup = {t: r.value for t, r in results.get(key, [])}
            if family_lookup:
                rate = list(family_lookup.values())[0] ** (1.0 / config.operator.p)
                env = outer * np.exp(
                    -(config.operator.nu1 / config.operator.nu2)
                    * rate * (outer_tau - prof.stations[pos])
                )
                envelope = ("bound envelope", prof.stations[pos], env, "firebrick")
        series = [("I2(-tau,tau)", prof.stations[pos], sym[pos], "steelblue")]
        if envelope:
            series.append(envelope)
        files.append(rep.svg_semilog(
            os.path.join(out_dir, "svp.svg"), series,
            "symmetric slab energy vs station", "tau", "I2",
        ))
    if results["zones"] and "csv" in fmts:
        rows = [
            (z.kind, z.s, z.tau_meas,
             z.tau_pred if z.tau_pred is not None else math.nan,
             int(z.full_band), z.verdict)
            for z in results["zones"]
        ]
        files.append(rep.write_csv(
            os.path.join(out_dir, "zones.csv"),
            "kind,s,tau_meas,tau_pred,full_band,verdict",
            rows,
            comments=["stagnation zones: measured and predicted symmetric half-widths"],
        ))
    for kind, pairs in results["frequencies"].items():
        if "csv" not in fmts:
            break
        rows = [(tau, res.value, res.residual, res.iterations) for tau, res in pairs]
        files.append(rep.write_csv(
            os.path.join(out_dir, f"frequencies_{kind}.csv"),
            "tau,value,residual,iterations",
            rows,
            comments=[f"{kind} cross-section frequency profile"],
        ))
    if results["pl"]:
        if "csv" in fmts:
            rows = []
            for plr in results["pl"]:
                for row in plr.rows:
                    rows.append((plr.form, row.truncation, row.tau2, row.rhs,
                                 row.inner_energy, plr.slope))
            files.append(rep.write_csv(
                os.path.join(out_dir, "pl.csv"),
                "form,truncation,tau2,rhs,lhs,fitted_slope",
                rows,
                comments=["growth-bound trend rows per truncation"],
            ))
        if "svg" in fmts:
            series = []
            colors = ("steelblue", "firebrick", "seagreen", "darkorange")
            for i, plr in enumerate(results["pl"]):
                xs = [row.tau2 for row in plr.rows]
                ys = [row.rhs for row in plr.rows]
                series.append((f"{plr.form} rhs", np.asarray(xs), np.asarray(ys),
                               colors[i % len(colors)]))
            files.append(rep.svg_semilog(
                os.path.join(out_dir, "pl.svg"), series,
                "growth-bound trend", "tau2", "rhs",
            ))
    return files


def run_structure_check(op, samples=10000, seed=0):
    """Standalone structure suite used by the check-structure subcommand."""
    report = check_structure(op, samples, seed=seed)
    return {
        "samples": report.samples,
        "worst_lower": report.worst_lower,
        "worst_upper": report.worst_upper,
        "worst_homogeneity": report.worst_homogeneity,
        "tol": report.tol,
        "passed": bool(report.passed),
    }
