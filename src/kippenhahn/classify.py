"""Exact ellipticity classifiers for reciprocal matrices of sizes 3 to 6.

Every classifier consumes only the A_j parameters.  A linear factor
zeta - (x tau + z) of the generating polynomial corresponds to the
origin-centered axis-aligned ellipse with semi-axes sqrt(z +- x); all
criteria below decide when such factors exist, in closed form for
n = 3, 4, 5 and through the reduced-resultant tables for n = 6, where one
test per root of the slope cubic gives both the single- and the
three-ellipse verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

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
    # halves first: A1 + A2 can leave the float range
    comp = EllipseComponent(x=1.0, z=float(A1) / 2 + float(A2) / 2)
    return Classification(
        kind="all_components_elliptic",
        components=(comp,),
        origin_component=True,
        diagnostics={"factor_residual": 0.0})


def classify4(p: ReciprocalParams, tol: float = DEFAULT_TOL) -> Classification:
    """n=4: elliptic iff A_2 lies on one of the two golden-ratio hyperplanes."""
    _require_size(p, 4)
    if p.all_ones:
        return _normal_classification(p)
    A1, A2, A3 = p.A
    scale = max(1.0, max(p.A))
    b1 = A2 - (GOLDEN * A1 - A3 / GOLDEN)
    b2 = A2 - (GOLDEN * A3 - A1 / GOLDEN)
    diag = {"branch_residuals": (b1, b2)}
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
    if p.all_ones:
        return _normal_classification(p)
    A1, A2, A3, A4 = p.A
    scale = max(1.0, max(p.A))
    b1 = A1 - A4
    b2 = (A1 - A4) - 2.0 * (A3 - A2)
    diag = {"branch_residuals": (b1, b2)}
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


def _center_z(A, x):
    """-q10 / q11, the zero of the tau^2 coefficient q11 z + q10 of
    P6(x tau + z, tau) (the one linear in z; tau^3 has s(x) / 8 alone), for
    any numeric type."""
    A1, A2, A3, A4, A5 = A
    S = A1 + A2 + A3 + A4 + A5
    T = 3 * A1 + 2 * A2 + 2 * A3 + 2 * A4 + 3 * A5
    q11 = (3 * x - 5) * x + 1.5
    q10 = -S / 2 * x * x + T / 4 * x - (A1 + A3 + A5) / 8
    return -q10 / q11


def ellipse_centers_z(p: ReciprocalParams):
    """Factor constants z_j at the roots x_j, ascending-x order.

    z_j is the zero of the tau^2 coefficient of P6(x_j tau + z, tau), so the
    only constant a factor zeta - (x_j tau + z) can have; that coefficient's
    z-slope at the three roots is 1.034, -0.574 and 1.290, never near 0.
    """
    _require_size(p, 6)
    return tuple(_center_z(p.A, xr) for xr in cubic_roots())


# the n = 6 verdict by the number of roots that pass
_N6_KINDS = ("non_elliptic", "boundary_ellipse_only", "boundary_ellipse_only",
             "all_components_elliptic")


def contains_ellipse6(p: ReciprocalParams, tol: float = DEFAULT_TOL) -> Classification:
    """n=6: both verdicts from one test at each root x_t of the slope cubic.

    A root passes when both reduced resultants vanish there (relative to
    max(1, S^2) and max(1, S^3), S = sum A_j) and the pinned factor constant
    z_t satisfies z_t >= x_t (z = x degenerates to the doubleton of foci).
    R1 and R2 are quadratics in x, so they vanish at all three roots iff
    they vanish identically, which is the three-ellipse ideal: three passing
    roots give all_components_elliptic, one or two boundary_ellipse_only.
    """
    _require_size(p, 6)
    if p.all_ones:
        return _normal_classification(p)
    rtables.check_n6_scale(p.A)
    c12, c11, c10, c22, c21, c20 = rtables.n6_values(p.A)
    S = sum(p.A)
    components = []
    root_hits = []
    for xr in cubic_roots():
        r1v = c12 * xr * xr + c11 * xr + c10
        r2v = c22 * xr * xr + c21 * xr + c20
        root_hits.append((xr, r1v, r2v))
        if abs(r1v) <= tol * max(1.0, S ** 2) and abs(r2v) <= tol * max(1.0, S ** 3):
            z = _center_z(p.A, xr)
            if z >= xr - tol * max(1.0, S):
                components.append(EllipseComponent(x=xr, z=z))
    diag = {"resultant_values": root_hits}
    if len(components) == 3:
        # |z gap| - |x gap| > 0: the component with the larger z has both
        # semi-axes sqrt(z +- x) larger, so it strictly contains the other
        diag["nesting_margins"] = tuple(abs(a.z - b.z) - abs(a.x - b.x)
                                        for a, b in combinations(components, 2))
    return Classification(kind=_N6_KINDS[len(components)],
                          components=tuple(components), diagnostics=diag)


def three_ellipses6(p: ReciprocalParams, tol: float = DEFAULT_TOL) -> Classification:
    """n=6: ``contains_ellipse6`` with boundary_ellipse_only read as
    non_elliptic: the curve is three concentric ellipses iff all three roots
    pass, and the A_j are not all 1."""
    c = contains_ellipse6(p, tol)
    if c.kind == "boundary_ellipse_only":
        return Classification(kind="non_elliptic", diagnostics=c.diagnostics)
    return c


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
