"""Projection of lifted eigenvalues to the real line, closed-form limit
densities and CDFs, and goodness-of-fit statistics.

Density variants:

* ``KestenMcKay(d)``   -- 2d sqrt((d-1)-x^2) / (pi (d^2-4x^2)) on [-sqrt(d-1), sqrt(d-1)]
* ``Semicircle()``     -- sqrt(4-x^2) / (2 pi) on [-2, 2]
* ``HyperFixed(d, k)`` -- fixed-(d,k) hypergraph law on [-2, 2]
* ``HyperAlpha(a)``    -- alpha / ((1+alpha+sqrt(alpha) x) pi) * sqrt(1-x^2/4) on [-2, 2]

Every CDF is elementary. With H(c, r, x) the integral of
sqrt(r^2-t^2) / (c-t) over [-r, x] for |c| >= r (`_pole_integral`):

* ``KestenMcKay(d)``   -- (H(d/2, r, x) - H(-d/2, r, x)) / (2 pi), r = sqrt(d-1)
* ``Semicircle()``     -- 1/2 + x sqrt(4-x^2) / (4 pi) + arcsin(x/2) / pi
* ``HyperFixed(d, k)`` -- d (H(c1, 2, x) - H(c2, 2, x)) / (2 pi (c1-c2)),
  c1 = sqrt(q) + 1/sqrt(q), c2 = -(sqrt(p) + 1/sqrt(p)), q = (d-1)(k-1), p = (d-1)/(k-1)
* ``HyperAlpha(a)``    -- -sqrt(a) H(c, 2, x) / (2 pi), c = -(sqrt(a) + 1/sqrt(a))

A pole on the support edge (HyperFixed(d, d), HyperAlpha(1)) makes the
density 1/sqrt-singular there; the closed forms need no special case.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError, InvariantError


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniformly weighted samples, sorted ascending."""

    samples: np.ndarray
    excluded_trivial: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", np.sort(np.asarray(self.samples, dtype=np.float64)))

    def __len__(self) -> int:
        return len(self.samples)


def project_real_parts(spectrum, rescale: str = "none", exclude_trivial: bool = False) -> EmpiricalMeasure:
    """Empirical measure of the real parts of the 2n lifted eigenvalues.

    rescale: "none" keeps raw Re(mu); "graph" and "hypergraph" map
    x -> 2x/sqrt(q), q = (d-1)(k-1) with k = 2 for a graph, and "hypergraph"
    takes only a hypergraph spectrum. For a conjugate pair 2 Re(mu) =
    lambda - (k-2), so 2x/sqrt(q) is the normalized adjacency value with its
    shift already taken out.

    With exclude_trivial, the deterministic pair lifted from lambda_1 is
    removed (exactly two samples); only that pair is ever matched, bulk
    eigenvalues that happen to be real are kept.
    """
    if len(spectrum.lams) == 0:
        raise ValueError("empty spectrum")
    keep = np.ones(len(spectrum.lams), dtype=bool)
    if exclude_trivial:
        t_mu, t_mup = spectrum.model.perron
        top = int(np.argmax(spectrum.lams))
        mu, mup = complex(spectrum.mus[top]), complex(spectrum.mus_prime[top])
        if abs(mu - t_mu) > 1e-9 or abs(mup - t_mup) > 1e-9:
            raise InvariantError(
                f"top pair ({mu}, {mup}) does not match the deterministic pair "
                f"({t_mu}, {t_mup}); is the graph connected?"
            )
        keep[top] = False
    x = np.concatenate([spectrum.mus.real[keep], spectrum.mus_prime.real[keep]])
    if rescale == "hypergraph" and spectrum.k is None:
        raise DomainError("hypergraph rescale needs a hypergraph spectrum")
    if rescale in ("graph", "hypergraph"):
        x = 2.0 * x / spectrum.model.radius
    elif rescale != "none":
        raise DomainError(f"unknown rescale mode {rescale!r}")
    return EmpiricalMeasure(samples=x, excluded_trivial=2 if exclude_trivial else 0)


def _elementwise(x, fn):
    """Evaluate fn on at-least-1d input; scalars in, floats out."""
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = fn(arr)
    return float(out[0]) if np.ndim(x) == 0 else out


def _pole_integral(c: float, r: float, x):
    """H(c, r, x) = integral of sqrt(r^2 - t^2) / (c - t) over [-r, x], |c| >= r.

    Vectorized in x (in [-r, r]). With t = r sin(theta) and
    r^2 - t^2 = (c - t)(c + t) - (c^2 - r^2), for c >= r:
    H = c (phi + pi/2) - r cos(phi) - w^2 * int dtheta / (c - r sin(theta)),
    phi = arcsin(x / r), w = sqrt(c^2 - r^2); the last integral is
    (2/w) arctan(rho tan(psi)) with psi = (phi + pi/2) / 2 and
    rho = w / (c + r). It is evaluated as
    H = 2 psi (c - w) + 2 w arctan((1 - rho) tan(psi) / (1 + rho tan^2(psi))) - r cos(phi),
    with c - w = r^2 / (c + w), so nothing cancels but the last two terms
    (a loss of about c / r in relative accuracy) and a pole on the support
    edge (w = 0) needs no special case. For c <= -r, reflect t -> -t:
    H(c, r, x) = H(|c|, r, -x) - H(|c|, r, r).
    """
    if c < 0:
        return _pole_integral(-c, r, -x) - _pole_integral(-c, r, r)
    w = math.sqrt((c - r) * (c + r))
    rho = w / (c + r)
    one_minus_rho = r * (c + w + r) / ((c + w) * (c + r))
    s = np.sqrt((r - x) * (r + x))  # r cos(phi)
    psi = np.arctan2(np.sqrt(r + x), np.sqrt(r - x))
    # tan(psi)-free form of the arctan term, finite at both support ends
    return 2.0 * psi * r * r / (c + w) + 2.0 * w * np.arctan2(one_minus_rho * s, (r - x) + rho * (r + x)) - s


class _PoleLaw:
    """A law with density sqrt(r^2 - x^2) * sum_j w_j / (c_j - x) on [-r, r].

    Subclasses give `radius` r and `poles`, the (w_j, c_j) of the partial
    fractions, every |c_j| >= r; the pdf and CDF both follow from them.
    `mass` is the density's total mass.
    """

    mass = 1.0

    @property
    def support(self) -> "tuple[float, float]":
        return (-self.radius, self.radius)

    def pdf(self, x):
        def f(arr):
            r = self.radius
            rad = (r - arr) * (r + arr)
            inside = rad > 0
            xi = arr[inside]
            out = np.zeros_like(arr)
            out[inside] = np.sqrt(rad[inside]) * sum(w / (c - xi) for w, c in self.poles)
            return out

        return _elementwise(x, f)

    def cdf(self, x):
        def f(arr):
            r = self.radius
            xi = np.clip(arr, -r, r)
            return sum(w * _pole_integral(c, r, xi) for w, c in self.poles)

        return _elementwise(x, f)


@dataclass(frozen=True)
class KestenMcKay(_PoleLaw):
    d: int

    def __post_init__(self) -> None:
        if self.d < 3:
            raise DomainError("Kesten-McKay projection law requires d >= 3")

    @property
    def radius(self) -> float:
        return math.sqrt(self.d - 1)

    @property
    def poles(self):
        # 2d / (pi (d^2 - 4x^2)) = (1/(2 pi)) (1/(d/2 - x) + 1/(d/2 + x))
        c = self.d / 2.0
        return ((1.0 / (2.0 * math.pi), c), (-1.0 / (2.0 * math.pi), -c))


@dataclass(frozen=True)
class Semicircle:
    mass = 1.0

    @property
    def support(self) -> "tuple[float, float]":
        return (-2.0, 2.0)

    def pdf(self, x):
        def f(arr):
            rad = 4.0 - arr * arr
            inside = rad > 0
            out = np.zeros_like(arr)
            out[inside] = np.sqrt(rad[inside]) / (2.0 * np.pi)
            return out

        return _elementwise(x, f)

    def cdf(self, x):
        def f(arr):
            xi = np.clip(arr, -2.0, 2.0)
            return 0.5 + xi * np.sqrt((2.0 - xi) * (2.0 + xi)) / (4.0 * np.pi) + np.arcsin(xi / 2.0) / np.pi

        return _elementwise(x, f)


@dataclass(frozen=True)
class HyperFixed(_PoleLaw):
    d: int
    k: int

    radius = 2.0

    def __post_init__(self) -> None:
        if self.d < 2 or self.k < 2:
            raise DomainError("hypergraph law requires d >= 2 and k >= 2")

    @property
    def mass(self) -> float:
        # for d < k, A = H H^T - d I has at least n - nd/k eigenvalues -d, outside the density
        return min(1.0, self.d / self.k)

    @property
    def poles(self):
        # (1 + (k-1)/q) sqrt(1 - x^2/4) / (pi f1 f2), q = (d-1)(k-1),
        # f1 = 1 + 1/q - x/sqrt(q), f2 = 1 + (k-1)^2/q + (k-1) x/sqrt(q),
        # is d/(2 pi) sqrt(4 - x^2) / ((c1 - x)(x - c2)) with
        # c1 = sqrt(q) + 1/sqrt(q), c2 = -(sqrt(p) + 1/sqrt(p)), p = (d-1)/(k-1)
        sq = math.sqrt((self.d - 1) * (self.k - 1))
        sp = math.sqrt((self.d - 1) / (self.k - 1))
        c1, c2 = sq + 1.0 / sq, -(sp + 1.0 / sp)
        w = self.d / (2.0 * math.pi * (c1 - c2))
        return ((w, c1), (-w, c2))


#: tolerance of the CDF certificate: monotonicity and total mass
CDF_CERT_TOL = 1e-12

#: the largest alpha of the hyperalpha law, (CDF_CERT_TOL / eps)^2, about 2.03e7.
#: Its CDF subtracts terms of size up to 2 that agree to O(1/sqrt(alpha)), and
#: the weight sqrt(alpha)/(2 pi) scales their rounding back up, so the CDF
#: carries a rounding error that grows as sqrt(alpha) eps: its largest decrease
#: between clustered samples measured 0.80 sqrt(alpha) eps, which at this bound
#: is 8.0e-13, inside the certificate's monotonicity tolerance.
ALPHA_MAX = (CDF_CERT_TOL / sys.float_info.epsilon) ** 2


@dataclass(frozen=True)
class HyperAlpha(_PoleLaw):
    alpha: float

    radius = 2.0

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise DomainError("alpha must be positive")
        if self.alpha > ALPHA_MAX:
            raise DomainError(
                f"alpha = {self.alpha} exceeds {ALPHA_MAX:.4g}, beyond which the closed-form CDF "
                "cannot be certified to its tolerance"
            )
        if self.alpha < 1:
            warnings.warn(
                f"alpha = {self.alpha} < 1 is outside the stated d/k -> alpha >= 1 regime",
                stacklevel=2,
            )

    @property
    def mass(self) -> float:
        # below the stated regime, like HyperFixed with d/k = alpha < 1
        return min(1.0, self.alpha)

    @property
    def poles(self):
        # alpha sqrt(1 - x^2/4) / ((1 + alpha + sqrt(alpha) x) pi)
        # = -(sqrt(alpha)/(2 pi)) sqrt(4 - x^2) / (c - x), c = -(sqrt(alpha) + 1/sqrt(alpha))
        sa = math.sqrt(self.alpha)
        return ((-sa / (2.0 * math.pi), -(sa + 1.0 / sa)),)


def _segment_integral(model, lo: float, hi):
    """Closed-form mass of [lo, hi] under model, vectorized over ascending hi.

    Certified: the CDF values are finite, the mass is non-decreasing along
    hi and the whole support has the model's mass (1 in the stated regimes),
    each to CDF_CERT_TOL; otherwise IntegrationError.
    """
    a, b = model.support
    F = model.cdf(np.concatenate(([a, lo], np.atleast_1d(hi), [b])))
    mass = F[2:-1] - F[1]
    total = F[-1] - F[0]
    drop = float(-np.min(np.diff(mass), initial=0.0))
    if not (np.all(np.isfinite(F)) and abs(total - model.mass) <= CDF_CERT_TOL and drop <= CDF_CERT_TOL):
        raise IntegrationError(
            f"closed-form CDF of {model} failed its certificate: total mass {float(total)!r}, largest decrease {drop!r}"
        )
    return mass if np.ndim(hi) else float(mass[0])


def ks_distance(m: EmpiricalMeasure, model) -> float:
    """One-sample Kolmogorov-Smirnov distance sup |F_emp - F_model|.

    The model CDF is evaluated in closed form at all samples at once.
    """
    xs = m.samples
    if len(xs) == 0:
        raise ValueError("empty empirical measure")
    n = len(xs)
    F = np.minimum(_segment_integral(model, model.support[0], xs), 1.0)
    hi = np.abs(np.arange(1, n + 1) / n - F)
    lo = np.abs(np.arange(0, n) / n - F)
    return float(max(np.max(hi), np.max(lo)))


def consistency_check_k2(d_values=(3, 5), grid_points: int = 401, alpha: float = 1e4) -> dict:
    """Cross-law consistency report.

    For each d, the k=2 hypergraph law must equal the Kesten-McKay law
    transported through x -> 2x/sqrt(d-1) on a uniform grid (<= 1e-10), and
    the alpha -> infinity law must approach the semicircle (<= 1e-3 at the
    given alpha).
    """
    ys = np.linspace(-2.0, 2.0, grid_points)
    k2 = {}
    for d in d_values:
        lhs = HyperFixed(d, 2).pdf(ys)
        scale = math.sqrt(d - 1) / 2.0
        rhs = scale * KestenMcKay(d).pdf(ys * scale)
        k2[int(d)] = float(np.max(np.abs(lhs - rhs)))
    sc_dev = float(np.max(np.abs(HyperAlpha(alpha).pdf(ys) - Semicircle().pdf(ys))))
    passed = max(k2.values()) <= 1e-10 and sc_dev <= 1e-3
    return {
        "k2_max_deviation": k2,
        "alpha": alpha,
        "alpha_semicircle_deviation": sc_dev,
        "pass": bool(passed),
    }


def histogram(m: EmpiricalMeasure, bins=None):
    """(edges, counts, densities); Freedman-Diaconis bin width by default."""
    xs = m.samples
    edges = np.histogram_bin_edges(xs, bins=bins if bins is not None else "fd")
    counts, edges = np.histogram(xs, bins=edges)
    widths = np.diff(edges)
    dens = counts / (len(xs) * widths)
    return edges, counts, dens
