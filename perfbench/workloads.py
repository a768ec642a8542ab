"""Workloads of the svplab benchmark: ops, closed-form oracles and the output gate.

An op is one in-process call to ``svplab.runner.run(config, seed=SEED)`` on a
config rendered from a template in ``configs/``.  A workload is the list of
ops that one pass runs, one after another (a closed loop with one client).
Each workload loads a different layer of the package; ``WORKLOADS`` records
why each one exists and which layer it loads and which it bypasses, and
``tracing.LAYER_METRICS`` which per-layer metric should move which
end-to-end metric on which workload.

``BENCHMARK.json`` lists the workloads that are timed for every change:
``layer-p2-refine`` and ``solve-sweep``.  Between them they reach every
layer, and each loads a different one.  ``layer-p1.5`` and ``radial-pl``
are left out because their run-to-run spread was the widest: their
pure-Python frequency work slows by up to half in spells of seconds to
minutes on a shared host.  Both still run with ``--workload``, and the
benchmark's own tests run them; ``radial-pl`` is the only workload that
reaches ``asymptotics.pl_check``.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

PREDICTION_SOUND = "prediction-sound"
# asymptotics.FORCES_TRIVIALITY; repeated here so that the gate does not
# trust the module it checks
FORCES_TRIVIALITY = "bound -> 0: forces triviality (f = const / f = 0)"
EXIT_OK = 0
EXIT_SOLVER_FAILED = 3


@dataclass(frozen=True)
class Op:
    """One ``run`` call: a template, its substitutions and what it must give."""

    name: str
    template: str
    params: dict
    smoke_h: float
    expected_exits: tuple = (EXIT_OK,)
    oracles: tuple = ()

    def render(self, smoke=False, **overrides):
        values = {"refine": "false", "corrupt": "0", **self.params, **overrides}
        if smoke:
            values["h"] = self.smoke_h
        values = {k: repr(float(v)) if isinstance(v, float) else str(v)
                  for k, v in values.items()}
        text = (CONFIG_DIR / self.template).read_text(encoding="utf-8")
        return string.Template(text).substitute(values)


@dataclass(frozen=True)
class Workload:
    name: str
    # one line: what it runs, which layer it loads and which it bypasses
    why: str
    ops: tuple
    # gate tolerance on oracle_rel_err, about twice the value measured when
    # the benchmark was defined, at full size and in smoke mode
    oracle_tol: float
    smoke_oracle_tol: float
    # svplab entry points that a pass must reach; a group counts as reached
    # when any member is
    reaches: tuple = ()


# --- closed forms -------------------------------------------------------------

def pi_p(p):
    """pi_p = 2 pi / (p sin(pi/p))."""
    return 2.0 * math.pi / (p * math.sin(math.pi / p))


def interval_frequency(p, length):
    """First p-Laplace eigenvalue of an interval: (p-1) (pi_p / L)^p.

    On an interval the Dirichlet value equals the Neumann (recentered) one,
    so every frequency row of a 1-D section compares against it.
    """
    return (p - 1.0) * (pi_p(p) / length) ** p


def _rel(value, reference):
    return abs(value - reference) / abs(reference)


def oracle_frequency_rows(report, params):
    """Every layer frequency row against the interval closed form (L = 1)."""
    ref = interval_frequency(float(params["p"]), 1.0)
    return [_rel(row["value"], ref)
            for rows in report.get("frequencies", {}).values() for row in rows]


def oracle_profile_slope(report, params):
    """The p = 2 energy-profile slope of the sin(pi x) mode against 2 pi."""
    return [_rel(report["energy_profile"]["slope"], 2.0 * math.pi)]


def oracle_layer3d_energy(report, params):
    """The p = 2 k = 2 solver energy against (sqrt2 pi / 4) tanh(sqrt2 pi beta*)."""
    k = math.sqrt(2.0) * math.pi
    beta_star = 1.0
    return [_rel(report["solver"]["energy"], k / 4.0 * math.tanh(k * beta_star))]


def oracle_radial_damping(report, params):
    """Radial eq7.12 damping against tau_inner / tau1.

    The radial mu-rate is 1/r on these sections, so the damping factor
    exp(-int_{tau_inner}^{tau1} dr / r) is tau_inner / tau1 with
    tau1 = truncation - window.
    """
    tau_inner, window = 1.5, 1.0
    errs = []
    for entry in report["pl"]:
        for row in entry["rows"]:
            errs.append(_rel(row["damping"], tau_inner / (row["truncation"] - window)))
    return errs


ORACLES = {
    "frequency_rows": oracle_frequency_rows,
    "profile_slope": oracle_profile_slope,
    "layer3d_energy": oracle_layer3d_energy,
    "radial_damping": oracle_radial_damping,
}


# --- the output gate ----------------------------------------------------------

@dataclass
class OpOutcome:
    """What one op returned, and the gate's verdict on it."""

    op: str
    exit_code: int | None
    seconds: float
    oracle_rel_err: float
    errors: list

    @property
    def failed(self):
        """Raised or exited 3: the op produced no solution (fail_ratio)."""
        return self.exit_code is None or self.exit_code == EXIT_SOLVER_FAILED

    @property
    def passed(self):
        return not self.errors


def gate(op, exit_code, report, oracle_tol):
    """Check one op's output; returns (oracle_rel_err, list of gate errors)."""
    errors = []
    if exit_code not in op.expected_exits:
        errors.append(f"exit code {exit_code}, expected one of {op.expected_exits}")
    if exit_code == EXIT_SOLVER_FAILED:
        return 0.0, errors
    for key in ("checks", "cutoff"):
        for entry in report.get(key, ()):
            if entry.get("passed") is not True:
                errors.append(f"{key} entry {entry.get('name')} {entry.get('params')} failed")
    for zone in report.get("zones", ()):
        if zone.get("verdict") != PREDICTION_SOUND:
            errors.append(f"zone {zone.get('kind')} s={zone.get('s')} "
                          f"verdict {zone.get('verdict')!r}")
    for entry in report.get("pl", ()):
        if entry.get("verdict") != FORCES_TRIVIALITY:
            errors.append(f"pl {entry.get('form')} verdict {entry.get('verdict')!r}")
    errs = [e for name in op.oracles for e in ORACLES[name](report, op.params)]
    worst = max(errs, default=0.0)
    if not all(math.isfinite(e) for e in errs) or worst > oracle_tol:
        errors.append(f"oracle_rel_err {worst:.3e} above gate tolerance {oracle_tol:.1e}")
    return worst, errors


# --- the workloads ------------------------------------------------------------

README_ENTRY_POINTS = (
    "config.load_config", "config.parse_config", "runner.run", "geometry.build_mesh",
    "solver.solve", "frequency.frequency_profile", "frequency.optimal_constant",
    "energetics.energy", "energetics.energy_profile",
    "energetics.svp_check_dirichlet|energetics.svp_check_neumann",
    "energetics.svp_symmetric_check", "zones.w1p_zone", "zones.lp_zone",
    "zones.sup_zone", "asymptotics.cutoff_bound", "asymptotics.optimal_cutoff",
    "report.write_json", "report.write_csv", "report.write_field_csv",
    "report.svg_semilog",
)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="layer-p2-refine",
            why="README config, p=2, h=1/32, refine: loads post-processing (energetics, zones, "
                "cutoff, optimal_constant) and the h/2 re-solve; bypasses pl_check and the p!=2 descent",
            ops=(Op("readme-p2-refine", "readme.cfg",
                    {"p": 2.0, "h": 1 / 32, "refine": "true"}, smoke_h=1 / 16,
                    oracles=("frequency_rows", "profile_slope")),),
            oracle_tol=2e-3, smoke_oracle_tol=1e-2,
            reaches=README_ENTRY_POINTS,
        ),
        Workload(
            name="layer-p1.5",
            why="README config, p=1.5, h=1/8, no refine: loads section frequencies (descent, "
                "optimal_constant; 35 sections, 3 distinct); bypasses refine and pl_check",
            ops=(Op("readme-p1.5", "readme.cfg", {"p": 1.5, "h": 1 / 8}, smoke_h=1 / 4,
                    oracles=("frequency_rows",)),),
            oracle_tol=2.5e-2, smoke_oracle_tol=1e-1,
            reaches=README_ENTRY_POINTS,
        ),
        Workload(
            name="solve-sweep",
            why="solve-only ops: 2-D p=1.5 CG, 2-D p=3 (exits 3), 3-D k=2 direct and CG: loads "
                "the solver on both sides of the direct/CG switch; bypasses frequency and post-processing",
            ops=(
                Op("readme-p1.5-h64-cg", "readme-solve.cfg", {"p": 1.5, "h": 1 / 64},
                   smoke_h=1 / 8),
                Op("readme-p3-h16-direct", "readme-solve.cfg", {"p": 3.0, "h": 1 / 16},
                   smoke_h=1 / 4, expected_exits=(EXIT_OK, EXIT_SOLVER_FAILED)),
                Op("layer3d-p2-h20-direct", "layer3d-solve.cfg", {"h": 1 / 20},
                   smoke_h=1 / 5, oracles=("layer3d_energy",)),
                Op("layer3d-p2-h32-cg", "layer3d-solve.cfg", {"h": 1 / 32},
                   smoke_h=1 / 8, oracles=("layer3d_energy",)),
            ),
            oracle_tol=1e-2, smoke_oracle_tol=1e-1,
            reaches=("config.load_config", "config.parse_config", "runner.run",
                     "geometry.build_mesh", "solver.solve", "report.write_json"),
        ),
        Workload(
            name="radial-pl",
            why="radial pl_check family, p=2, h=1/16: loads frequencies on 51 sections with 25 "
                "distinct radii and the growth-trend path; bypasses svp, zones and the p!=2 descent",
            ops=(Op("radial-pl-eq7.12", "radial-pl.cfg", {"h": 1 / 16}, smoke_h=1 / 8,
                    oracles=("radial_damping",)),),
            oracle_tol=3e-4, smoke_oracle_tol=5e-3,
            reaches=("config.load_config", "config.parse_config", "runner.run",
                     "geometry.build_mesh", "solver.solve", "frequency.frequency_profile",
                     "frequency.optimal_constant", "energetics.energy",
                     "asymptotics.optimal_cutoff", "asymptotics.pl_check",
                     "report.write_json", "report.write_csv", "report.svg_semilog"),
        ),
    )
}
