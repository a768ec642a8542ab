"""Quasilinear structure field a(x)|xi|^(p-2) xi and its property checks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Coefficient:
    """Scalar coefficient a as a function of the axial distance p_k.

    Catalog: 'constant' (params: value), 'step' (params: threshold; jumps
    from nu1 to nu2 at p_k = threshold), 'oscillation' (params: omega;
    (nu1+nu2)/2 + (nu2-nu1)/2 * sin(omega * p_k)).
    """

    kind: str
    params: tuple[float, ...]
    nu1: float
    nu2: float

    def __call__(self, pk):
        pk = np.asarray(pk, dtype=float)
        if self.kind == "constant":  # one value, read-only, in the shape of pk
            return np.broadcast_to(float(self.params[0]), pk.shape)
        if self.kind == "step":
            return np.where(pk < self.params[0], self.nu1, self.nu2)
        if self.kind == "oscillation":
            mid = 0.5 * (self.nu1 + self.nu2)
            amp = 0.5 * (self.nu2 - self.nu1)
            return mid + amp * np.sin(self.params[0] * pk)
        raise ValueError(f"unknown coefficient kind {self.kind!r}")


@dataclass(frozen=True)
class StructureOperator:
    """Exponent p > 1, ellipticity bounds 0 < nu1 <= nu2, coefficient a.

    The vector field is a(x)|xi|^(p-2) xi, so <xi, A(x, xi)> = a(x)|xi|^p
    and |A(x, xi)| = a(x)|xi|^(p-1); with nu1 <= a <= nu2 both two-sided
    bounds hold with the stored constants, and the p-homogeneity
    A(x, lam xi) = lam |lam|^(p-2) A(x, xi) is an identity.
    """

    p: float
    nu1: float
    nu2: float
    coefficient: Coefficient = None

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError("exponent p must be > 1 (p = 1 is not supported)")
        if not (0 < self.nu1 <= self.nu2):
            raise ValueError("need 0 < nu1 <= nu2")
        if self.coefficient is None:
            object.__setattr__(
                self, "coefficient", Coefficient("constant", (self.nu1,), self.nu1, self.nu2)
            )
        if self.coefficient.kind == "constant":
            c = self.coefficient.params[0]
            if not (self.nu1 <= c <= self.nu2):
                raise ValueError("constant coefficient must lie in [nu1, nu2]")

    def a(self, pk):
        return self.coefficient(pk)


def constant_operator(p, a=1.0, nu1=None, nu2=None):
    """Operator with a constant coefficient (nu1 = nu2 = a by default)."""
    nu1 = a if nu1 is None else nu1
    nu2 = a if nu2 is None else nu2
    return StructureOperator(p=p, nu1=nu1, nu2=nu2, coefficient=Coefficient("constant", (a,), nu1, nu2))


def guarded_power(x, e):
    """x^e where x > 0 and 0 elsewhere: the zero guard of |xi|^(p-2) xi-type fluxes."""
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] ** e
    return out


def squared_norm(x):
    """|x|^2 over the last axis, adding the squares in axis order.

    For the 1 to 3 axes of a mesh this equals np.sum(x**2, axis=-1) to
    the bit, and it is several times faster on a short last axis.
    """
    out = x[..., 0] ** 2
    for j in range(1, x.shape[-1]):
        out += x[..., j] ** 2
    return out


def _gradient_factor(p, xi):
    """|xi|^(p-2) with the continuous extension 0 at xi = 0 for p > 1."""
    s = np.sum(np.asarray(xi, dtype=float) ** 2, axis=-1)
    return guarded_power(s, 0.5 * (p - 2.0))


def evaluate(op, pk, xi):
    """The vector field a(x)|xi|^(p-2) xi; x enters through p_k(x).

    pk is the axial distance of the evaluation point(s); xi has shape
    (..., d).  evaluate(op, pk, 0) = 0 by continuous extension.
    """
    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise ValueError("non-finite gradient argument")
    a = op.a(pk)
    fac = a * _gradient_factor(op.p, xi)
    return fac[..., None] * xi


def potential(op, pk, xi):
    """Energy density a(x)|xi|^p / p; its xi-gradient is evaluate(op, ., .)."""
    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise ValueError("non-finite gradient argument")
    a = op.a(pk)
    s = np.sum(xi**2, axis=-1)
    out = a * s ** (0.5 * op.p) / op.p
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class StructureReport:
    samples: int
    worst_lower: float      # min of (<xi, A> - nu1|xi|^p) / (nu2 |xi|^p)
    worst_upper: float      # min of (nu2|xi|^(p-1) - |A|) / (nu2 |xi|^(p-1))
    worst_homogeneity: float  # max relative homogeneity defect
    tol: float
    passed: bool


def check_structure(op, sample_count, seed=0, tol=1e-12):
    """Randomized check of the two-sided bounds and the p-homogeneity.

    Draws sample_count triples (x, xi, lambda) with |xi| log-uniform in
    [1e-2, 1e2] and reports worst-case normalized margins; all three
    properties are identities for this operator family, so the margins
    stay at roundoff level.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    d = 3
    pk = rng.uniform(0.0, 10.0, size=sample_count)
    xi = rng.normal(size=(sample_count, d))
    xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
    xi *= 10.0 ** rng.uniform(-2.0, 2.0, size=(sample_count, 1))
    lam = rng.uniform(0.1, 3.0, size=sample_count) * rng.choice([-1.0, 1.0], size=sample_count)

    a = op.a(pk)
    norm = np.linalg.norm(xi, axis=-1)
    field = evaluate(op, pk, xi)
    pairing = np.sum(xi * field, axis=-1)
    lower = (pairing - op.nu1 * norm**op.p) / (op.nu2 * norm**op.p)
    upper = (op.nu2 * norm ** (op.p - 1.0) - np.linalg.norm(field, axis=-1)) / (
        op.nu2 * norm ** (op.p - 1.0)
    )
    scaled = evaluate(op, pk, lam[:, None] * xi)
    predicted = (lam * np.abs(lam) ** (op.p - 2.0))[:, None] * field
    scale = np.maximum(np.linalg.norm(scaled, axis=-1), 1e-300)
    homo = np.linalg.norm(scaled - predicted, axis=-1) / scale

    worst_lower = float(lower.min())
    worst_upper = float(upper.min())
    worst_homo = float(homo.max())
    passed = worst_lower >= -tol and worst_upper >= -tol and worst_homo <= tol
    return StructureReport(
        samples=sample_count,
        worst_lower=worst_lower,
        worst_upper=worst_upper,
        worst_homogeneity=worst_homo,
        tol=tol,
        passed=passed,
    )
