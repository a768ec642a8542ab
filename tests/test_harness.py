import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import count_compute_calls
from svplab import cli
from svplab import geometry as geo
from svplab import runner
from svplab.config import ConfigError, parse_config
from svplab.report import SVP_CSV_HEADER, write_csv, write_field_csv
from svplab.runner import run, run_structure_check
from svplab.structure import constant_operator

BASE_CONFIG = """\
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
p = 2
nu1 = 1
nu2 = 1

[bc]
g_low = sin(pi*x1)
g_high = sin(pi*x1)

[mesh]
h = 0.125

[output]
formats = json csv svg
"""

SVP_TASK = """
[task solve]
snapshot = true

[task svp]
t = 0
stations = 0.125 0.25 0.375 0.5 0.625 0.75 0.875
pairs = 0 0.25 0.75
fit_window = 0.25 0.875
"""


LAYER3D_CONFIG = """\
schema 1

[domain]
n = 3
k = 2
base = 0 1 0 1
axial = layer
alpha = 1
beta = 3
lateral = dirichlet0 dirichlet0 dirichlet0 dirichlet0

[operator]
p = 2
nu1 = 1
nu2 = 1

[bc]
g_low = sin(pi*x1)*sin(pi*x2)
g_high = sin(pi*x1)*sin(pi*x2)

[mesh]
h = 0.25

[output]
formats = json
"""

PL_TASK = """
[task pl]
form = starDirichlet
truncations = 2 2.5 3
"""

FREQ_TASK = """
[task frequencies]
kinds = first second
stations = 0 0.5
"""

ZONES_TASK = """
[task zones]
norms = w1p lp sup
s_values = 0.001 0.01
tau_outer = 0.75
C5 = 1
C6 = 1
"""


class TestConfigParsing:
    def test_valid_config(self):
        cfg = parse_config(BASE_CONFIG + SVP_TASK)
        assert cfg.domain.n == 2
        assert cfg.operator.p == 2.0
        assert cfg.h == 0.125
        assert [t.name for t in cfg.tasks] == ["solve", "svp"]

    def test_schema_line_required(self):
        with pytest.raises(ConfigError, match="schema"):
            parse_config("[domain]\nn = 2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(BASE_CONFIG.replace("alpha = 1", "alpha = 1\nwobble = 3"))

    def test_unknown_block_rejected(self):
        with pytest.raises(ConfigError, match="unknown block"):
            parse_config(BASE_CONFIG + "\n[plotting]\nx = 1\n")

    def test_missing_block_rejected(self):
        text = BASE_CONFIG.replace("[operator]\np = 2\nnu1 = 1\nnu2 = 1\n", "")
        with pytest.raises(ConfigError, match="operator"):
            parse_config(text)

    def test_bad_expression_rejected(self):
        with pytest.raises(ConfigError, match="g_low"):
            parse_config(BASE_CONFIG.replace("sin(pi*x1)", "sin(pi*q1)", 1))

    def test_expression_coordinate_beyond_mesh(self):
        with pytest.raises(ConfigError, match="x3"):
            parse_config(BASE_CONFIG.replace("sin(pi*x1)", "sin(pi*x3)", 1))

    def test_duplicate_block_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(BASE_CONFIG + "\n[mesh]\nh = 0.25\n")

    def test_seed_offset_rejected(self, tmp_path):
        text = BASE_CONFIG + "\n[task frequencies]\nkinds = second\nstations = 0\nseed_offset = 1\n"
        with pytest.raises(ConfigError, match="seed_offset"):
            parse_config(text)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2

    @staticmethod
    def assert_exits_two(tmp_path, monkeypatch, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)
        path = tmp_path / "run.cfg"
        path.write_text(text)

        def no_solve(*args):
            raise AssertionError("solved a config that does not parse")

        monkeypatch.setattr(runner, "solve", no_solve)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("value", ["constant abc", "", "step 0.5 x"])
    def test_bad_coefficient_exits_two(self, tmp_path, monkeypatch, value):
        text = BASE_CONFIG.replace("nu2 = 1\n", f"nu2 = 1\ncoefficient = {value}\n")
        self.assert_exits_two(tmp_path, monkeypatch, text, "coefficient")

    @pytest.mark.parametrize("line", ["n = 2.5", "k = 1.9", "n = two", "k = 1 1", "n ="])
    def test_non_integer_dimension_exits_two(self, tmp_path, monkeypatch, line):
        key = line.split()[0]
        text = BASE_CONFIG.replace(f"{key} = {2 if key == 'n' else 1}\n", line + "\n")
        self.assert_exits_two(tmp_path, monkeypatch, text, "integer")

    @pytest.mark.parametrize("text", [
        BASE_CONFIG.replace("h = 0.125", "h = 0.125\nrefine = ture"),
        BASE_CONFIG + SVP_TASK.replace("snapshot = true", "snapshot = yes please"),
    ], ids=["refine", "snapshot"])
    def test_bad_flag_exits_two(self, tmp_path, monkeypatch, text):
        self.assert_exits_two(tmp_path, monkeypatch, text, "expects one of")

    @pytest.mark.parametrize("value, flag", [("true", True), ("1", True), ("yes", True),
                                             ("false", False), ("0", False), ("no", False)])
    def test_flags(self, value, flag):
        cfg = parse_config(BASE_CONFIG.replace("h = 0.125", f"h = 0.125\nrefine = {value}")
                           + SVP_TASK.replace("snapshot = true", f"snapshot = {value}"))
        assert cfg.refine is flag and cfg.tasks[0].params["snapshot"] is flag

    def test_unknown_frequency_kind_exits_two_before_the_solve(self, tmp_path, monkeypatch):
        text = BASE_CONFIG + "\n[task frequencies]\nkinds = first fourth\nstations = 0\n"
        self.assert_exits_two(tmp_path, monkeypatch, text, "fourth")

    @pytest.mark.parametrize("block, key", [(FREQ_TASK, "stations"), (SVP_TASK, "stations"),
                                            (ZONES_TASK, "s_values"), (PL_TASK, "truncations")],
                             ids=["frequencies", "svp", "zones", "pl"])
    def test_missing_required_task_key_exits_two_before_the_solve(self, tmp_path, monkeypatch,
                                                                  block, key):
        # with a solve task, the field would be solved before the task runs
        lines = [line for line in block.splitlines() if not line.startswith(f"{key} =")]
        text = BASE_CONFIG + "\n[task solve]\n" + "\n".join(lines) + "\n"
        self.assert_exits_two(tmp_path, monkeypatch, text, f"needs '{key}'")

    def test_comments_ignored(self):
        cfg = parse_config(BASE_CONFIG.replace("h = 0.125", "h = 0.125  # spacing") + SVP_TASK)
        assert cfg.h == 0.125


class TestRunner:
    def test_empty_task_list_reports_config_echo(self, tmp_path):
        cfg = parse_config(BASE_CONFIG)
        result = run(cfg, out_dir=str(tmp_path), seed=0)
        assert result.exit_code == 0
        report = json.load(open(tmp_path / "report.json"))
        assert report["config_echo"][0] == "schema 1"
        assert report["checks"] == []

    def test_svp_run_passes_and_writes_contract_csv(self, tmp_path):
        cfg = parse_config(BASE_CONFIG + SVP_TASK)
        result = run(cfg, out_dir=str(tmp_path), seed=0)
        assert result.exit_code == 0
        lines = open(tmp_path / "svp.csv").read().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == SVP_CSV_HEADER
        assert (tmp_path / "field.csv").exists()
        assert (tmp_path / "svp.svg").exists()

    def test_refine_calibrates_tolerance(self, tmp_path):
        cfg = parse_config(BASE_CONFIG + SVP_TASK)
        result = run(cfg, out_dir=str(tmp_path), seed=0, refine=True)
        report = json.load(open(tmp_path / "report.json"))
        chk = report["checks"][0]
        assert "margin_refined" in chk
        assert chk["tol_disc"] >= 0.0
        assert report["provenance"]["h_refined"] == pytest.approx(0.0625)

    def test_corrupted_field_fails(self, tmp_path):
        cfg = parse_config(BASE_CONFIG + SVP_TASK + "corrupt = 0.2\n")
        result = run(cfg, out_dir=str(tmp_path), seed=0)
        assert result.exit_code == 1

    def test_determinism_byte_identical(self, tmp_path):
        cfg = parse_config(BASE_CONFIG + SVP_TASK + FREQ_TASK + ZONES_TASK)
        a = run(cfg, out_dir=str(tmp_path / "a"), seed=3)
        b = run(cfg, out_dir=str(tmp_path / "b"), seed=3)
        names = sorted(Path(f).name for f in a.files)
        assert names == sorted(Path(f).name for f in b.files)
        assert {"report.json", "field.csv", "svp.csv", "svp.svg", "zones.csv",
                "frequencies_first.csv", "frequencies_second.csv"} <= set(names)
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_frequencies_do_not_depend_on_seed(self, tmp_path):
        # no frequency draws a random number; the run seed reaches only the
        # corrupt noise
        cfg = parse_config(BASE_CONFIG.replace("p = 2", "p = 1.5") + SVP_TASK + FREQ_TASK)
        reports = []
        for seed in (0, 3):
            run(cfg, out_dir=str(tmp_path / str(seed)), seed=seed)
            reports.append(json.loads((tmp_path / str(seed) / "report.json").read_text()))
        for name in ("frequencies_first.csv", "frequencies_second.csv", "svp.csv"):
            assert (tmp_path / "0" / name).read_bytes() == (tmp_path / "3" / name).read_bytes()
        assert reports[0]["frequencies"] == reports[1]["frequencies"]

    def test_snapshot_false_writes_no_field_csv(self, tmp_path):
        cfg = parse_config(BASE_CONFIG + SVP_TASK.replace("snapshot = true", "snapshot = false"))
        result = run(cfg, out_dir=str(tmp_path), seed=0)
        assert result.exit_code == 0
        assert (tmp_path / "svp.csv").exists()
        assert not (tmp_path / "field.csv").exists()

    def test_off_grid_station_is_config_error(self, tmp_path):
        bad = BASE_CONFIG + SVP_TASK.replace("0.125 0.25", "0.13 0.25")
        cfg = parse_config(bad)
        with pytest.raises(ConfigError):
            run(cfg, out_dir=str(tmp_path), seed=0)

    def test_frequencies_task_csv(self, tmp_path):
        cfg = parse_config(BASE_CONFIG + """
[task frequencies]
kinds = first second
stations = 0 0.5
""")
        result = run(cfg, out_dir=str(tmp_path), seed=0)
        assert result.exit_code == 0
        lines = open(tmp_path / "frequencies_first.csv").read().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "tau,value,residual,iterations"
        report = json.load(open(tmp_path / "report.json"))
        # 8-cell section: discrete eigenvalue within 2% of the continuum
        assert report["frequencies"]["first"][0]["value"] == pytest.approx(math.pi**2, rel=0.02)

    def test_zones_task(self, tmp_path):
        cfg = parse_config(BASE_CONFIG + SVP_TASK + ZONES_TASK)
        result = run(cfg, out_dir=str(tmp_path), seed=0)
        assert result.exit_code == 0
        report = json.load(open(tmp_path / "report.json"))
        assert len(report["zones"]) == 6
        assert (tmp_path / "zones.csv").exists()

    def test_cutoff_task(self, tmp_path):
        cfg = parse_config(BASE_CONFIG + SVP_TASK + """
[task cutoff]
C = 0
tau1 = 0.25
tau2 = 0.75
""")
        result = run(cfg, out_dir=str(tmp_path), seed=0)
        report = json.load(open(tmp_path / "report.json"))
        assert result.exit_code == 0
        assert report["cutoff"][0]["C7"] == 8.0
        assert report["cutoff"][0]["passed"]


class TestCsvWriter:
    @staticmethod
    def body(path):
        """The data rows: every line after the comments and the header."""
        return [ln for ln in path.read_text(encoding="utf-8").splitlines()
                if not ln.startswith("#")][1:]

    def test_non_finite_int_and_str_cells(self, tmp_path):
        rows = [
            (0.1, 2.0, -3e-300),
            (1.5, float("nan"), float("inf"), -float("inf")),
            (np.float64("nan"), np.float64(np.inf), np.float64(-np.inf), np.float64(0.1)),
            (3, "first", 0.25, np.int64(7)),
        ]
        write_csv(tmp_path / "t.csv", "a,b,c,d", rows, comments=["c"])
        assert self.body(tmp_path / "t.csv") == [
            "0.1,2.0,-3e-300",
            "1.5,nan,inf,-inf",
            "nan,inf,-inf,0.1",
            "3.0,first,0.25,7",
        ]

    def test_field_csv_matches_per_value_rows(self, tmp_path):
        # a 2-D mesh, a 3-D mesh, and a 2-D mesh with non-finite values
        for k, nan in ((1, False), (2, False), (1, True)):
            mesh = geo.build_mesh(geo.CanonicalDomain(
                n=k + 1, k=k, base=((0.0, 1.0),) * k, axial_kind="layer", alpha=1.0, beta=3.0,
                lateral_bc=("neumann",) * (2 * k)), 1 / 8)
            values = np.random.default_rng(0).normal(size=mesh.n_nodes)
            if nan:
                values[[3, 17]] = (np.nan, np.inf)
            write_field_csv(tmp_path / "field.csv", mesh, values)
            lines = (tmp_path / "field.csv").read_text(encoding="utf-8").splitlines()
            header = ",".join(f"x{i + 1}" for i in range(k + 1)) + ",value"
            write_csv(tmp_path / "ref.csv", header,
                      [tuple(pt) + (v,) for pt, v in zip(mesh.grid.nodes.tolist(), values.tolist())],
                      comments=[ln[2:] for ln in lines if ln.startswith("# ")])
            assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
            assert len(self.body(tmp_path / "field.csv")) == mesh.n_nodes


class TestStructureRunner:
    def test_structure_suite(self):
        out = run_structure_check(constant_operator(3.0), samples=2000, seed=0)
        assert out["passed"]
        assert out["worst_homogeneity"] <= 1e-12


class TestSolverFailurePath:
    def test_nonconvergence_exits_three(self, tmp_path, monkeypatch):
        import svplab.runner as runner_mod
        from svplab.solver import SolverError

        def failing_solve(*args, **kwargs):
            raise SolverError("solver did not converge in 200 iterations")

        monkeypatch.setattr(runner_mod, "solve", failing_solve)
        cfg = parse_config(BASE_CONFIG + SVP_TASK)
        result = run(cfg, out_dir=str(tmp_path), seed=0)
        assert result.exit_code == 3
        report = json.load(open(tmp_path / "report.json"))
        assert "did not converge" in report["error"]


    def test_truncation_nonconvergence_exits_three(self, tmp_path, monkeypatch):
        import dataclasses

        import svplab.asymptotics as asym_mod

        solve = asym_mod.solve

        def unconverged_solve(*args, **kwargs):
            f = solve(*args, **kwargs)
            diag = dataclasses.replace(f.diagnostics, converged=False)
            return dataclasses.replace(f, diagnostics=diag)

        monkeypatch.setattr(asym_mod, "solve", unconverged_solve)
        text = BASE_CONFIG + PL_TASK
        result = run(parse_config(text), out_dir=str(tmp_path / "run"), seed=0)
        assert result.exit_code == 3
        assert "did not converge at truncation" in result.report["error"]
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "cli")]) == 3

    def test_frequency_factorization_failure_exits_three(self, tmp_path, monkeypatch):
        # the p = 2 start needs no factor, so the only factorization of a
        # section frequency is the coarse level of a p != 2 step's V-cycle;
        # splu fails inside the frequency task alone, after the field solve
        import svplab.frequency as fr_mod
        import svplab.solver as sv_mod

        splu, compute = sv_mod.spla.splu, fr_mod.compute_frequency
        in_task = []

        def failing_splu(*args, **kwargs):
            if in_task:
                raise RuntimeError("Factor is exactly singular")
            return splu(*args, **kwargs)

        def frequency_task(*args, **kwargs):
            in_task.append(1)
            try:
                return compute(*args, **kwargs)
            finally:
                in_task.pop()

        monkeypatch.setattr(sv_mod.spla, "splu", failing_splu)
        monkeypatch.setattr(fr_mod, "compute_frequency", frequency_task)
        text = BASE_CONFIG.replace("p = 2\n", "p = 1.5\n") + FREQ_TASK
        result = run(parse_config(text), out_dir=str(tmp_path / "run"), seed=0)
        assert result.exit_code == 3
        assert "singular coarse multigrid system" in result.report["error"]
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "cli")]) == 3


    def test_frequency_iteration_cap_exits_three(self, tmp_path, monkeypatch):
        from svplab import frequency as fr_mod

        monkeypatch.setattr(fr_mod, "MAX_ITER", 1)
        text = BASE_CONFIG.replace("p = 2\n", "p = 1.5\n") + FREQ_TASK
        result = run(parse_config(text), out_dir=str(tmp_path / "run"), seed=0)
        assert result.exit_code == 3
        report = json.load(open(tmp_path / "run" / "report.json"))
        assert report["exit_code"] == 3
        assert "section frequency did not converge in 1 iterations" in report["error"]
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "cli")]) == 3

    @pytest.mark.parametrize("exc", [
        RuntimeError("iteration diverged"),
        np.linalg.LinAlgError("Singular matrix"),
        FloatingPointError("overflow encountered in power"),
    ], ids=lambda exc: type(exc).__name__)
    def test_numerical_error_exits_three(self, tmp_path, monkeypatch, exc):
        import svplab.runner as runner_mod

        def raising_solve(*args, **kwargs):
            raise exc

        monkeypatch.setattr(runner_mod, "solve", raising_solve)
        text = BASE_CONFIG + SVP_TASK
        result = run(parse_config(text), out_dir=str(tmp_path / "run"), seed=0)
        assert result.exit_code == 3
        report = json.load(open(tmp_path / "run" / "report.json"))
        assert report["exit_code"] == 3
        assert report["error"] == f"{type(exc).__name__}: {exc}"
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "cli")]) == 3

    def test_plain_value_error_is_config_error(self, tmp_path, monkeypatch):
        import svplab.runner as runner_mod

        def raising_solve(*args, **kwargs):
            raise ValueError("mesh was built on a different domain")

        monkeypatch.setattr(runner_mod, "solve", raising_solve)
        text = BASE_CONFIG + SVP_TASK
        with pytest.raises(ConfigError, match="task setup failed"):
            run(parse_config(text), out_dir=str(tmp_path / "run"), seed=0)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "cli")]) == 2

    def test_fully_pinned_section_is_config_error(self, tmp_path):
        # at h = 1 the README section has two nodes, both on Dirichlet faces
        text = readme_config(2, 1).split("[task solve]")[0] + (
            "[task frequencies]\nkinds = third\nstations = 0 1\n\n"
            "[task svp]\nt = 0\nstations = 1 2\n")
        with pytest.raises(ConfigError, match="empty interior"):
            run(parse_config(text), out_dir=str(tmp_path / "run"), seed=0)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "cli")]) == 2

    def test_cg_failure_exits_three(self, tmp_path, monkeypatch, vcycle_levels):
        import svplab.solver as sv_mod

        cg = sv_mod.spla.cg
        monkeypatch.setattr(sv_mod.spla, "cg",
                            lambda A, b, **kwargs: cg(A, b, **{**kwargs, "maxiter": 1}))
        # at h = 1/16 the V-cycle has a coarse level, so it is not an exact
        # solve and an outer step's CG (p = 1.5) needs more than one iteration
        text = LAYER3D_CONFIG.replace("h = 0.25\n", "h = 0.0625\n").replace("p = 2\n", "p = 1.5\n")
        text += "\n[task solve]\nsnapshot = false\n"
        result = run(parse_config(text), out_dir=str(tmp_path / "run"), seed=0)
        assert result.exit_code == 3
        assert "conjugate gradient did not converge" in result.report["error"]
        assert vcycle_levels and min(vcycle_levels) >= 1

    def test_non_finite_cg_exits_three_at_once(self, tmp_path, nan_vcycle):
        # TestNonFiniteCG bounds the stop at two CG iterations; this loose
        # bound only rules out a run that iterates to maxiter (minutes)
        start = time.perf_counter()
        result = run(parse_config(readme_config(1.5, 0.03125)), out_dir=str(tmp_path), seed=0)
        assert time.perf_counter() - start < 60.0
        assert result.exit_code == 3
        assert "not finite" in result.report["error"]


def readme_config(p, h):
    """The README example config at another p and h, without refine."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    text = text.split("```ini\n", 1)[1].split("```", 1)[0]
    for old, new in (("p = 2\n", f"p = {p}\n"), ("h = 0.015625\n", f"h = {h}\n"),
                     ("refine = true\n", "refine = false\n")):
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


def readme_corrupt_config(h, corrupt):
    """The README example config at p = 2 and h, without refine, at the
    given svp noise level."""
    text = readme_config(2, h)
    assert text.count("corrupt = 0 ") == 1
    return parse_config(text.replace("corrupt = 0 ", f"corrupt = {corrupt} "))


class TestRefineContract:
    """The h/2 pass of a refine run yields the svp and cutoff margins of a
    plain run at h/2, and runs none of the tasks whose output the report
    takes from h alone."""

    @pytest.mark.parametrize("corrupt", ["0", "0.2"])
    def test_refined_margin_is_margin_at_half_h(self, tmp_path, corrupt):
        refined = run(readme_corrupt_config(0.125, corrupt), out_dir=str(tmp_path / "h"),
                      seed=0, refine=True).report
        half = run(readme_corrupt_config(0.0625, corrupt), out_dir=str(tmp_path / "h2"),
                   seed=0).report
        for key in ("checks", "cutoff"):
            assert refined[key]
            assert ([(e["name"], e["params"]) for e in refined[key]]
                    == [(e["name"], e["params"]) for e in half[key]])
            assert ([e["margin_refined"] for e in refined[key]]
                    == [e["margin"] for e in half[key]])

    def test_refine_pass_skips_unreported_tasks(self, tmp_path, monkeypatch):
        import svplab.runner as runner_mod

        calls = []

        def record(name, h_of):
            fn = getattr(runner_mod, name)

            def recorded(*args, **kwargs):
                calls.append((name, h_of(*args)))
                return fn(*args, **kwargs)

            monkeypatch.setattr(runner_mod, name, recorded)

        def field_h(field_, *rest):
            return field_.mesh.requested_h

        for name in ("w1p_zone", "lp_zone", "sup_zone", "energy_profile", "cutoff_bound"):
            record(name, field_h)
        record("pl_check", lambda *args: args[5])
        record("frequency_profile", lambda mesh, p, kind, *rest: (mesh.requested_h, kind))

        result = run(readme_corrupt_config(0.125, "0"), out_dir=str(tmp_path), seed=0,
                     refine=True)
        assert result.exit_code == 0

        def seen(*names):
            return sorted({h for name, h in calls if name in names})

        assert seen("w1p_zone", "lp_zone", "sup_zone", "energy_profile", "pl_check") == [0.125]
        assert seen("cutoff_bound") == [0.0625, 0.125]
        frequencies = seen("frequency_profile")
        assert (0.125, "first") in frequencies
        # a Dirichlet family reads lambda, the third frequency, alone at h/2
        assert [kind for h, kind in frequencies if h != 0.125] == ["third"]


class TestOneMemoPerPass:
    """Each resolution pass computes each distinct (kind, p, section) once,
    across the run mesh and the pl truncation meshes."""

    def test_readme_pl_reuses_the_run_section(self, tmp_path, monkeypatch):
        calls = count_compute_calls(monkeypatch)
        result = run(parse_config(readme_config(1.5, 0.125)), out_dir=str(tmp_path), seed=0,
                     refine=True)
        assert result.exit_code == 0 and result.report["pl"]
        # second and third at h (pl's starI reads second), third at h/2: every
        # lateral face is dirichlet0, so the first kind reads the third's
        # result, which the svp task computed first
        assert sorted(kind for kind, _ in calls) == ["second", "third", "third"]

    def test_third_rows_read_first_entry(self, tmp_path, monkeypatch):
        calls = count_compute_calls(monkeypatch)
        cfg = parse_config(BASE_CONFIG + "\n[task frequencies]\nkinds = first third\n"
                           "stations = 0 0.5\n")
        result = run(cfg, out_dir=str(tmp_path), seed=0)
        assert result.exit_code == 0 and calls == [("first", 0.0)]
        rows = result.report["frequencies"]
        assert [r["kind"] for r in rows["third"]] == ["third", "third"]
        assert [{**r, "kind": "first"} for r in rows["third"]] == rows["first"]

    def test_radial_pl_truncations_share_their_radii(self, tmp_path, monkeypatch):
        calls = count_compute_calls(monkeypatch)
        root = Path(__file__).resolve().parents[1]
        text = (root / "perfbench" / "configs" / "radial-pl.cfg").read_text(encoding="utf-8")
        assert text.count("h = $h\n") == 1
        result = run(parse_config(text.replace("h = $h\n", "h = 0.125\n")),
                     out_dir=str(tmp_path), seed=0)
        assert result.exit_code == 0 and len(result.report["pl"][0]["rows"]) == 3
        # the windows [1.5, T - 1] of T = 3, 3.5, 4 hold 5 + 9 + 13 stations,
        # 13 distinct radii
        assert len(calls) == len(set(calls)) == 13


class TestReadmeAboveTwo:
    def test_p3_exits_zero(self, tmp_path):
        text = readme_config(3, 0.0625)
        result = run(parse_config(text), out_dir=str(tmp_path / "run"), seed=0)
        assert result.exit_code == 0
        solver = result.report["solver"]
        assert solver["converged"] and solver["outer_iterations"] <= 8
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "cli")]) == 0


class TestCli:
    def write_cfg(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_run_exit_zero(self, tmp_path):
        path = self.write_cfg(tmp_path, BASE_CONFIG + SVP_TASK)
        code = cli.main(["run", path, "--out", str(tmp_path / "out"), "--seed", "0"])
        assert code == 0

    def test_malformed_config_exit_two(self, tmp_path):
        path = self.write_cfg(tmp_path, "nonsense\n")
        assert cli.main(["run", path]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.cfg")]) == 2

    def test_task_shortcut_requires_block(self, tmp_path):
        path = self.write_cfg(tmp_path, BASE_CONFIG + SVP_TASK)
        assert cli.main(["zones", path, "--out", str(tmp_path / "out")]) == 2

    def test_frequencies_shortcut(self, tmp_path):
        path = self.write_cfg(tmp_path, BASE_CONFIG + """
[task frequencies]
kinds = second
stations = 0
""")
        assert cli.main(["frequencies", path, "--out", str(tmp_path / "out")]) == 0

    def test_check_structure_cli(self, capsys):
        assert cli.main(["check-structure", "--p", "2.5", "--samples", "500"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"]

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SVPLAB_OUT", str(tmp_path / "envout"))
        path = self.write_cfg(tmp_path, BASE_CONFIG)
        assert cli.main(["run", path, "--seed", "0"]) == 0
        assert (tmp_path / "envout" / "report.json").exists()
