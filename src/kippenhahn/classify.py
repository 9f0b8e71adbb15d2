"""Exact ellipticity classifiers for reciprocal matrices of sizes 3 to 6.

Every classifier consumes only the A_j parameters.  A linear factor
zeta - (x tau + z) of the generating polynomial corresponds to the
origin-centered axis-aligned ellipse with semi-axes sqrt(z +- x); all
criteria below decide when such factors exist, in closed form for
n = 3, 4, 5 and through the reduced-resultant tables for n = 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import rtables
from .nrpoly import cubic_roots
from .trimat import ReciprocalParams

DEFAULT_TOL = 1e-9
# z - |x| below this, relative to max(1, z), collapses a component to its foci
DEGENERATE_TOL = 1e-12
# all-equal A_0 this close to 1 gives the hermitian (normal) matrix
HERMITIAN_TOL = 1e-12

GOLDEN = (math.sqrt(5.0) + 1.0) / 2.0


class WrongSize(ValueError):
    """Classifier called with a parameter vector of the wrong length."""


class NotToeplitzCase(ValueError):
    """toeplitz_components requires all A_j equal."""


@dataclass(frozen=True)
class EllipseComponent:
    """Axis-aligned origin-centered ellipse from a factor zeta - (x tau + z)."""

    x: float
    z: float

    @property
    def semi_major(self) -> float:
        return math.sqrt(self.z + abs(self.x))

    @property
    def semi_minor(self) -> float:
        return math.sqrt(max(self.z - abs(self.x), 0.0))

    @property
    def degenerate(self) -> bool:
        # z = |x| collapses the component to the doubleton of its foci
        return self.z - abs(self.x) <= DEGENERATE_TOL * max(1.0, self.z)


KINDS = ("normal", "all_components_elliptic", "boundary_ellipse_only",
         "non_elliptic", "toeplitz_case")


@dataclass(frozen=True)
class Classification:
    kind: str
    components: tuple = ()
    origin_component: bool = False
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        comps = tuple(sorted(self.components, key=lambda c: -c.z))
        object.__setattr__(self, "components", comps)

    @property
    def elliptic(self) -> bool:
        return self.kind in ("all_components_elliptic", "boundary_ellipse_only",
                             "toeplitz_case")


def _require_size(p: ReciprocalParams, n: int):
    if p.n != n:
        raise WrongSize(f"expected n={n}, got n={p.n}")


def _normal_classification(p: ReciprocalParams) -> Classification:
    endpoint = 2.0 * math.cos(math.pi / (p.n + 1))
    return Classification(
        kind="normal",
        origin_component=(p.n % 2 == 1),
        diagnostics={"spectrum_endpoints": (-endpoint, endpoint)})


def _discriminant(p: ReciprocalParams, S, prod):
    """S^2 - 4 prod clipped at 0; ValueError where the float range overflows,
    as it does for A_j near 1e154 and above."""
    disc = S * S - 4.0 * prod
    if not math.isfinite(disc):
        raise ValueError(f"A = {p.A} is past the float range of the n = {p.n} "
                         "discriminant")
    return max(disc, 0.0)


def classify3(p: ReciprocalParams, tol: float = DEFAULT_TOL) -> Classification:
    """n=3: the curve is always the origin plus one origin-centered ellipse."""
    _require_size(p, 3)
    if p.all_ones:
        return _normal_classification(p)
    A1, A2 = p.A
    comp = EllipseComponent(x=1.0, z=(A1 + A2) / 2.0)
    return Classification(
        kind="all_components_elliptic",
        components=(comp,),
        origin_component=True,
        diagnostics={"factor_residual": 0.0})


def classify4(p: ReciprocalParams, tol: float = DEFAULT_TOL) -> Classification:
    """n=4: elliptic iff A_2 lies on one of the two golden-ratio hyperplanes."""
    _require_size(p, 4)
    A1, A2, A3 = p.A
    scale = max(1.0, max(p.A))
    b1 = A2 - (GOLDEN * A1 - A3 / GOLDEN)
    b2 = A2 - (GOLDEN * A3 - A1 / GOLDEN)
    diag = {"branch_residuals": (b1, b2)}
    if p.all_ones:
        return _normal_classification(p)
    hit1 = abs(b1) <= tol * scale
    hit2 = abs(b2) <= tol * scale
    if not (hit1 or hit2):
        return Classification(kind="non_elliptic", diagnostics=diag)
    S = A1 + A2 + A3
    root = math.sqrt(_discriminant(p, S, A1 * A3))
    # the same discriminant must match sqrt(5)/5 (A1 + 3 A2 + A3) on-manifold
    diag["consistency_identity"] = (root, math.sqrt(5.0) / 5.0 * (A1 + 3.0 * A2 + A3))
    diag["branches_hit"] = (hit1, hit2)
    x_out = (3.0 + math.sqrt(5.0)) / 4.0
    z_out = 0.25 * (S + root)
    outer = EllipseComponent(x=x_out, z=z_out)
    inner = EllipseComponent(x=1.5 - x_out, z=0.5 * S - z_out)
    return Classification(
        kind="all_components_elliptic",
        components=(outer, inner),
        origin_component=False,
        diagnostics=diag)


def classify5(p: ReciprocalParams, tol: float = DEFAULT_TOL) -> Classification:
    """n=5: elliptic iff A_1 = A_4 or A_1 - A_4 = 2(A_3 - A_2)."""
    _require_size(p, 5)
    A1, A2, A3, A4 = p.A
    scale = max(1.0, max(p.A))
    b1 = A1 - A4
    b2 = (A1 - A4) - 2.0 * (A3 - A2)
    diag = {"branch_residuals": (b1, b2)}
    if p.all_ones:
        return _normal_classification(p)
    hit1 = abs(b1) <= tol * scale
    hit2 = abs(b2) <= tol * scale
    S = A1 + A2 + A3 + A4
    disc = _discriminant(p, S, A1 * A3 + A1 * A4 + A2 * A4)
    diag["nested_gap"] = (math.sqrt(disc), A2 + A3)  # equal on-manifold
    diag["branches_hit"] = (hit1, hit2)
    if not (hit1 or hit2):
        return Classification(kind="non_elliptic", origin_component=True,
                              diagnostics=diag)
    if hit1:
        outer = EllipseComponent(x=1.5, z=0.5 * (A1 + A2 + A3))
        inner = EllipseComponent(x=0.5, z=0.5 * A1)
    else:
        outer = EllipseComponent(x=1.5, z=0.5 * (2.0 * A3 + A4))
        inner = EllipseComponent(x=0.5, z=0.5 * (A3 + A4 - A2))
    return Classification(
        kind="all_components_elliptic",
        components=(outer, inner),
        origin_component=True,
        diagnostics=diag)


def _q_polys(A, x):
    """Coefficients in z of the three tau-coefficients of P6(x tau + z, tau).

    Returns (q11, q10), (q22, q21, q20), (q32, q31, q30); the cubic in z is
    monic.  Works for any numeric type.
    """
    A1, A2, A3, A4, A5 = A
    S = A1 + A2 + A3 + A4 + A5
    T = 3 * A1 + 2 * A2 + 2 * A3 + 2 * A4 + 3 * A5
    S2a = A1 * A3 + A3 * A5 + A1 * A4 + A2 * A4 + A1 * A5 + A2 * A5
    S2o = A1 * A3 + A3 * A5 + A1 * A5
    q11 = (3 * x - 5) * x + 1.5
    q10 = -S / 2 * x * x + T / 4 * x - (A1 + A3 + A5) / 8
    q22 = 3 * x - 2.5
    q21 = -S * x + T / 4
    q20 = S2a / 4 * x - S2o / 8
    q32 = -S / 2
    q31 = S2a / 4
    q30 = -A1 * A3 * A5 / 8
    return (q11, q10), (q22, q21, q20), (q32, q31, q30)


def contains_ellipse6(p: ReciprocalParams, tol: float = DEFAULT_TOL) -> Classification:
    """n=6: find roots of the slope cubic where both reduced resultants vanish.

    At each such root the linear-in-z coefficient pins the factor constant
    z; the factor is certified by direct substitution and the component is
    emitted when z >= x (z = x degenerates to the doubleton of foci).
    """
    _require_size(p, 6)
    if p.all_ones:
        return _normal_classification(p)
    rtables.check_n6_scale(p.A)
    # one product gives every table this test and the three-ellipse test read
    c12, c11, c10, c22, c21, c20, *ell3 = rtables.n6_values(p.A).tolist()
    sumA = sum(p.A)
    scale1 = tol * max(1.0, sumA ** 2)
    scale2 = tol * max(1.0, sumA ** 3)
    components = []
    root_hits = []
    diag = {}
    for xr in cubic_roots():
        r1v = c12 * xr * xr + c11 * xr + c10
        r2v = c22 * xr * xr + c21 * xr + c20
        root_hits.append((xr, r1v, r2v))
        if abs(r1v) > scale1 or abs(r2v) > scale2:
            continue
        # q11 at the three roots is 1.034, -0.574 and 1.290, never near 0
        (q11, q10), (q22, q21, q20), (q32, q31, q30) = _q_polys(p.A, xr)
        z = -q10 / q11
        res2 = (q22 * z + q21) * z + q20
        res3 = ((z + q32) * z + q31) * z + q30
        if abs(res2) > scale2 or abs(res3) > scale2:
            continue
        if z < xr - tol * max(1.0, sumA):
            continue  # factor exists but the conic has no real points
        components.append(EllipseComponent(x=xr, z=z))
    diag["resultant_values"] = root_hits
    three = _three_ellipses(p, ell3, tol)
    if three.elliptic:
        return Classification(kind="all_components_elliptic",
                              components=three.components,
                              diagnostics={**diag, **three.diagnostics})
    if components:
        return Classification(kind="boundary_ellipse_only",
                              components=tuple(components),
                              diagnostics=diag)
    return Classification(kind="non_elliptic", diagnostics=diag)


def three_ellipses6(p: ReciprocalParams, tol: float = DEFAULT_TOL) -> Classification:
    """n=6: the curve is three concentric ellipses iff the three closed-form
    conditions vanish (homogeneity-aware scaling) and not all A_j equal 1."""
    _require_size(p, 6)
    if p.all_ones:
        return _normal_classification(p)
    rtables.check_n6_scale(p.A)
    return _three_ellipses(p, rtables.n6_values(p.A)[6:].tolist(), tol)


def _three_ellipses(p: ReciprocalParams, residuals, tol: float) -> Classification:
    """three_ellipses6 on the four ELL3 residuals at p (not all A_j = 1)."""
    qa, qb, cubic, qdiff = residuals
    sumA = sum(p.A)
    ok = (abs(qa) <= tol * sumA ** 2 and abs(qb) <= tol * sumA ** 2
          and abs(cubic) <= tol * sumA ** 3)
    diag = {"three_ellipse_residuals": (qa, qb, cubic, qdiff)}
    if not ok:
        return Classification(kind="non_elliptic", diagnostics=diag)
    roots = cubic_roots()
    zs = ellipse_centers_z(p)
    comps = tuple(EllipseComponent(x=xr, z=zr) for xr, zr in zip(roots, zs))
    gaps = []
    for i in range(3):
        for j in range(i + 1, 3):
            hi, lo = (comps[i], comps[j]) if comps[i].z >= comps[j].z else (comps[j], comps[i])
            gaps.append((hi.z - lo.z) - abs(hi.x - lo.x))
    diag["nesting_margins"] = tuple(gaps)
    return Classification(kind="all_components_elliptic", components=comps,
                          diagnostics=diag)


def ellipse_centers_z(p: ReciprocalParams):
    """Factor constants z_j for the three-ellipse case, ascending-x order.

    z_j = -q10 / q11 at the root x_j, where q11 z + q10 is the tau^1
    coefficient of P6(x tau + z, tau), the same z ``contains_ellipse6`` pins.
    """
    _require_size(p, 6)
    out = []
    for xr in cubic_roots():
        (q11, q10), _, _ = _q_polys(p.A, xr)
        out.append(-q10 / q11)
    return tuple(out)


def toeplitz_components(p: ReciprocalParams, tol: float = DEFAULT_TOL) -> Classification:
    """All-equal case, any size: components scale like cos(j pi / (n+1)).

    Component j has x_j = 2 sigma_j^2 and z_j = A_0 x_j, so semi-axes
    sigma_j sqrt(2(A_0 +- 1)) and foci +-2 sigma_j; for odd n the last
    component is the origin.
    """
    if not p.all_equal:
        raise NotToeplitzCase("all A_j must be equal")
    A0 = p.A[0]
    n = p.n
    comps = []
    sigmas = []
    for j in range(1, (n + 1) // 2 + 1):
        sig = math.cos(j * math.pi / (n + 1))
        if abs(sig) < 1e-15:
            sig = 0.0
        sigmas.append(sig)
        xj = 2.0 * sig * sig
        comps.append(EllipseComponent(x=xj, z=A0 * xj))
    return Classification(
        kind="toeplitz_case",
        components=tuple(comps),
        origin_component=(n % 2 == 1),
        diagnostics={"sigma": tuple(sigmas), "A0": A0,
                     "hermitian": abs(A0 - 1.0) <= HERMITIAN_TOL})


def classify(p: ReciprocalParams, tol: float = DEFAULT_TOL) -> Classification:
    """Dispatch on size; all-equal parameter vectors of any size are accepted.

    Raises ValueError unless 0 < tol < inf, and at n = 6 past N6_MAX_SCALE.
    """
    if not 0 < tol < math.inf:  # nan fails every comparison
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if p.all_ones:
        return _normal_classification(p)
    if p.all_equal:
        return toeplitz_components(p, tol)
    if p.n == 3:
        return classify3(p, tol)
    if p.n == 4:
        return classify4(p, tol)
    if p.n == 5:
        return classify5(p, tol)
    if p.n == 6:
        return contains_ellipse6(p, tol)
    raise WrongSize(f"no classifier for n={p.n} except the all-equal case")
