"""Strict line-oriented run-configuration format.

A config starts with the schema line ``schema 1`` and continues with
``[block]`` headers and ``key = value`` lines; ``#`` starts a comment.
Recognized blocks: domain, operator, bc, mesh, output and one
``[task NAME]`` block per task (solve, frequencies, svp, zones, cutoff,
pl).  Unknown blocks or keys are errors: configs are meant to be
diff-friendly and unambiguous.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .expressions import ExpressionError, parse_expression
from .frequency import FIRST, SECOND, THIRD
from .geometry import DIRICHLET0, LAYER, NEUMANN, RADIAL, CanonicalDomain
from .structure import Coefficient, StructureOperator

SCHEMA_VERSION = 1
TASK_NAMES = ("solve", "frequencies", "svp", "zones", "cutoff", "pl")
_FLAGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class TaskSpec:
    name: str
    params: dict


@dataclass(frozen=True)
class RunConfig:
    domain: CanonicalDomain
    operator: StructureOperator
    g_low: object
    g_high: object
    h: float
    refine: bool
    out_dir: str
    formats: tuple
    tasks: tuple
    source: str


def _parse_blocks(text):
    blocks = []
    current = None
    schema_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if not schema_seen:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "schema":
                raise ConfigError(f"line {lineno}: first line must be 'schema {SCHEMA_VERSION}'")
            if parts[1] != str(SCHEMA_VERSION):
                raise ConfigError(f"line {lineno}: unsupported schema version {parts[1]}")
            schema_seen = True
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed block header {line!r}")
            current = {"header": line[1:-1].strip(), "items": [], "line": lineno}
            blocks.append(current)
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any block")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        current["items"].append((lineno, key.strip(), value.strip()))
    if not schema_seen:
        raise ConfigError("empty config: missing schema line")
    return blocks


def _floats(value, lineno, key):
    try:
        return [float(v) for v in value.split()]
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad number in {key!r}: {exc}") from exc


def _one_float(value, lineno, key):
    vals = _floats(value, lineno, key)
    if len(vals) != 1:
        raise ConfigError(f"line {lineno}: {key!r} expects a single number")
    return vals[0]


def _one_int(value, lineno, key):
    if not re.fullmatch(r"[+-]?[0-9]+", value):
        raise ConfigError(f"line {lineno}: {key!r} expects a single integer, got {value!r}")
    return int(value)


def _flag(value, lineno, key):
    if value not in _FLAGS:
        raise ConfigError(
            f"line {lineno}: {key!r} expects one of {'/'.join(_FLAGS)}, got {value!r}")
    return _FLAGS[value]


def _as_dict(block, allowed):
    out = {}
    for lineno, key, value in block["items"]:
        if key not in allowed:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{block['header']}]")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = (lineno, value)
    return out


def _build_domain(block):
    items = _as_dict(block, {"n", "k", "base", "axial", "alpha", "beta", "lateral"})
    for req in ("n", "k", "base", "axial", "alpha", "beta", "lateral"):
        if req not in items:
            raise ConfigError(f"[domain] is missing {req!r}")
    n = _one_int(items["n"][1], items["n"][0], "n")
    k = _one_int(items["k"][1], items["k"][0], "k")
    base_vals = _floats(items["base"][1], items["base"][0], "base")
    if len(base_vals) % 2 != 0:
        raise ConfigError("[domain] base expects lo/hi pairs")
    base = tuple((base_vals[i], base_vals[i + 1]) for i in range(0, len(base_vals), 2))
    axial = items["axial"][1].strip()
    if axial not in (LAYER, RADIAL):
        raise ConfigError(f"[domain] axial must be '{LAYER}' or '{RADIAL}'")
    lateral = tuple(items["lateral"][1].split())
    for kind in lateral:
        if kind not in (NEUMANN, DIRICHLET0):
            raise ConfigError(f"[domain] lateral kinds must be '{NEUMANN}' or '{DIRICHLET0}'")
    try:
        return CanonicalDomain(
            n=n, k=k, base=base, axial_kind=axial,
            alpha=_one_float(items["alpha"][1], items["alpha"][0], "alpha"),
            beta=_one_float(items["beta"][1], items["beta"][0], "beta"),
            lateral_bc=lateral,
        )
    except ValueError as exc:
        raise ConfigError(f"[domain]: {exc}") from exc


def _build_operator(block):
    items = _as_dict(block, {"p", "nu1", "nu2", "coefficient"})
    for req in ("p", "nu1", "nu2"):
        if req not in items:
            raise ConfigError(f"[operator] is missing {req!r}")
    p = _one_float(items["p"][1], items["p"][0], "p")
    nu1 = _one_float(items["nu1"][1], items["nu1"][0], "nu1")
    nu2 = _one_float(items["nu2"][1], items["nu2"][0], "nu2")
    if "coefficient" in items:
        lineno, value = items["coefficient"]
        parts = value.split()
        if not parts:
            raise ConfigError(f"line {lineno}: 'coefficient' expects a kind")
        kind = parts[0]
        params = tuple(_floats(" ".join(parts[1:]), lineno, "coefficient"))
        if kind == "constant" and len(params) != 1:
            raise ConfigError(f"line {lineno}: constant coefficient expects one value")
        if kind == "step" and len(params) != 1:
            raise ConfigError(f"line {lineno}: step coefficient expects a threshold")
        if kind == "oscillation" and len(params) != 1:
            raise ConfigError(f"line {lineno}: oscillation coefficient expects omega")
        if kind not in ("constant", "step", "oscillation"):
            raise ConfigError(f"line {lineno}: unknown coefficient kind {kind!r}")
        coeff = Coefficient(kind, params, nu1, nu2)
    else:
        coeff = Coefficient("constant", (nu1,), nu1, nu2)
    try:
        return StructureOperator(p=p, nu1=nu1, nu2=nu2, coefficient=coeff)
    except ValueError as exc:
        raise ConfigError(f"[operator]: {exc}") from exc


def _build_bc(block, domain):
    items = _as_dict(block, {"g_low", "g_high"})
    for req in ("g_low", "g_high"):
        if req not in items:
            raise ConfigError(f"[bc] is missing {req!r}")
    out = []
    for key in ("g_low", "g_high"):
        lineno, value = items[key]
        try:
            expr = parse_expression(value)
        except ExpressionError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from exc
        if expr.max_coordinate > domain.dim:
            raise ConfigError(
                f"line {lineno}: {key} uses x{expr.max_coordinate} but the mesh has "
                f"{domain.dim} coordinates"
            )
        out.append(expr)
    return out


_TASK_KEYS = {
    "solve": {"snapshot"},
    "frequencies": {"kinds", "stations"},
    "svp": {"t", "stations", "pairs", "fit_window", "corrupt"},
    "zones": {"norms", "s_values", "tau_outer", "C5", "C6"},
    "cutoff": {"C", "tau1", "tau2"},
    "pl": {"form", "truncations", "tau_inner", "window"},
}
# keys a task cannot run without, checked before anything is solved
_REQUIRED_TASK_KEYS = {"frequencies": "stations", "svp": "stations", "zones": "s_values",
                       "pl": "truncations"}


def _build_task(block):
    parts = block["header"].split()
    if len(parts) != 2 or parts[0] != "task":
        raise ConfigError(f"line {block['line']}: malformed task header [{block['header']}]")
    name = parts[1]
    if name not in TASK_NAMES:
        raise ConfigError(f"line {block['line']}: unknown task {name!r}")
    items = _as_dict(block, _TASK_KEYS[name])
    required = _REQUIRED_TASK_KEYS.get(name)
    if required is not None and required not in items:
        raise ConfigError(f"[task {name}] needs {required!r}")
    params = {}
    for key, (lineno, value) in items.items():
        if key in ("kinds", "norms", "form"):
            params[key] = tuple(value.split())
            if key == "kinds":
                for kind in params[key]:
                    if kind not in (FIRST, SECOND, THIRD):
                        raise ConfigError(f"line {lineno}: unknown frequency kind {kind!r}")
        elif key == "pairs":
            pairs = []
            for chunk in value.split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                vals = _floats(chunk, lineno, "pairs")
                if len(vals) != 3:
                    raise ConfigError(f"line {lineno}: each pair is 't tau1 tau2'")
                pairs.append(tuple(vals))
            params[key] = tuple(pairs)
        elif key == "snapshot":
            params[key] = _flag(value, lineno, key)
        else:
            params[key] = tuple(_floats(value, lineno, key))
    return TaskSpec(name=name, params=params)


def parse_config(text):
    blocks = _parse_blocks(text)
    seen = {}
    tasks = []
    for block in blocks:
        header = block["header"]
        if header.startswith("task"):
            tasks.append(_build_task(block))
            continue
        if header not in ("domain", "operator", "bc", "mesh", "output"):
            raise ConfigError(f"line {block['line']}: unknown block [{header}]")
        if header in seen:
            raise ConfigError(f"line {block['line']}: duplicate block [{header}]")
        seen[header] = block
    for req in ("domain", "operator", "bc", "mesh"):
        if req not in seen:
            raise ConfigError(f"config is missing the [{req}] block")
    domain = _build_domain(seen["domain"])
    operator = _build_operator(seen["operator"])
    g_low, g_high = _build_bc(seen["bc"], domain)
    mesh_items = _as_dict(seen["mesh"], {"h", "refine"})
    if "h" not in mesh_items:
        raise ConfigError("[mesh] is missing 'h'")
    h = _one_float(mesh_items["h"][1], mesh_items["h"][0], "h")
    if h <= 0:
        raise ConfigError("[mesh] h must be positive")
    refine = False
    if "refine" in mesh_items:
        refine = _flag(mesh_items["refine"][1], mesh_items["refine"][0], "refine")
    out_dir = ""
    formats = ("json", "csv", "svg")
    if "output" in seen:
        out_items = _as_dict(seen["output"], {"dir", "formats"})
        if "dir" in out_items:
            out_dir = out_items["dir"][1].strip()
        if "formats" in out_items:
            formats = tuple(out_items["formats"][1].split())
            for fmt in formats:
                if fmt not in ("json", "csv", "svg"):
                    raise ConfigError(f"unknown output format {fmt!r}")
    return RunConfig(
        domain=domain, operator=operator, g_low=g_low, g_high=g_high,
        h=h, refine=refine, out_dir=out_dir, formats=formats,
        tasks=tuple(tasks), source=text,
    )


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
