import json
import math

import numpy as np
import pytest

from svplab import cli
from svplab.config import ConfigError, parse_config
from svplab.report import SVP_CSV_HEADER
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
        cfg = parse_config(BASE_CONFIG + SVP_TASK)
        run(cfg, out_dir=str(tmp_path / "a"), seed=3)
        run(cfg, out_dir=str(tmp_path / "b"), seed=3)
        for name in ("report.json", "svp.csv", "field.csv", "svp.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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
        cfg = parse_config(BASE_CONFIG + SVP_TASK + """
[task zones]
norms = w1p lp sup
s_values = 0.001 0.01
tau_outer = 0.75
C5 = 1
C6 = 1
""")
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
        import svplab.frequency as fr_mod

        def failing_splu(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(fr_mod.spla, "splu", failing_splu)
        text = BASE_CONFIG + FREQ_TASK
        result = run(parse_config(text), out_dir=str(tmp_path / "run"), seed=0)
        assert result.exit_code == 3
        assert "singular section system" in result.report["error"]
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "cli")]) == 3


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
