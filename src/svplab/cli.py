"""Command-line front end.

Subcommands: run (full config), plus the task shortcuts check-structure,
frequencies, zones and pl.  The default output directory comes from
--out, then the config [output] block, then the SVPLAB_OUT environment
variable.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .config import ConfigError, load_config
from .runner import EXIT_CONFIG_ERROR, run, run_structure_check
from .structure import Coefficient, StructureOperator


def _add_common(sub):
    sub.add_argument("config", help="run-config file")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--refine", action="store_true", default=None,
                     help="repeat checks at h/2 and calibrate tolerances")
    sub.add_argument("--seed", type=int, default=0,
                     help="seeds the svp 'corrupt' noise only; section frequencies "
                          "draw no random numbers")


def _run_config(path, out, seed, refine, only=None):
    try:
        config = load_config(path)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if only is not None:
        tasks = tuple(t for t in config.tasks if t.name in only)
        if not tasks:
            print(f"config error: no [task {'/'.join(only)}] block in {path}",
                  file=sys.stderr)
            return EXIT_CONFIG_ERROR
        config = replace(config, tasks=tasks)
    try:
        result = run(config, out_dir=out, seed=seed, refine=refine)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    for chk in result.report.get("checks", []) + result.report.get("cutoff", []):
        status = "pass" if chk["passed"] else "FAIL"
        print(f"{status} {chk['name']} {chk['params']} margin={chk['margin']:.3e}")
    for z in result.report.get("zones", []):
        print(f"zone {z['kind']} s={z['s']}: tau_meas={z['tau_meas']} verdict={z['verdict']}")
    for p in result.report.get("pl", []):
        print(f"pl {p['form']}: slope={p['slope']:.4f} verdict={p['verdict']}")
    print(f"exit {result.exit_code}; artifacts in {result.files[0] if result.files else '-'}")
    return result.exit_code


def main(argv=None):
    parser = argparse.ArgumentParser(prog="svp-lab")
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("run", help="run every task in a config"))
    for name in ("frequencies", "zones", "pl"):
        _add_common(subs.add_parser(name, help=f"run only the {name} task of a config"))

    cs = subs.add_parser("check-structure", help="randomized structure-condition suite")
    cs.add_argument("--p", type=float, default=2.0)
    cs.add_argument("--nu1", type=float, default=1.0)
    cs.add_argument("--nu2", type=float, default=1.0)
    cs.add_argument("--coefficient", default="constant", choices=("constant", "step", "oscillation"))
    cs.add_argument("--param", type=float, default=None,
                    help="coefficient parameter (value / threshold / omega)")
    cs.add_argument("--samples", type=int, default=10000)
    cs.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.command == "check-structure":
        param = args.param
        if param is None:
            param = args.nu1 if args.coefficient == "constant" else 1.0
        try:
            op = StructureOperator(
                p=args.p, nu1=args.nu1, nu2=args.nu2,
                coefficient=Coefficient(args.coefficient, (param,), args.nu1, args.nu2),
            )
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        out = run_structure_check(op, samples=args.samples, seed=args.seed)
        print(json.dumps(out, sort_keys=True, indent=2))
        return 0 if out["passed"] else 1
    only = None if args.command == "run" else {args.command}
    return _run_config(args.config, args.out, args.seed, args.refine, only=only)


if __name__ == "__main__":
    sys.exit(main())
