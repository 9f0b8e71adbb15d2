"""Exact ellipticity classifiers for reciprocal matrices of sizes 3 to 6.

Every classifier consumes only the A_j parameters.  A linear factor
zeta - (x tau + z) of the generating polynomial corresponds to the
origin-centered axis-aligned ellipse with semi-axes sqrt(z +- x); all
criteria below decide when such factors exist, in closed form for
n = 3, 4, 5.  At n = 6 one test per root x_t of the slope cubic gives both
the single- and the three-ellipse verdict: it evaluates the
tau-coefficients of P6(x_t tau + z, tau) directly, closed forms in six
sums of the A_j, and reads no table.  Those forms (``_tau_coeffs``,
``_center_z``) live in rtables beside the sums (``p6_sums``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .nrpoly import cubic_roots
from .rtables import _center_z, _q11, _tau_coeffs, p6_sums
from .trimat import ReciprocalParams, _real

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
        if comps and not math.isfinite(comps[0].z):
            raise ValueError("a component's z is past the float range")
        object.__setattr__(self, "components", comps)

    @property
    def elliptic(self) -> bool:
        return self.kind in ("all_components_elliptic", "boundary_ellipse_only",
                             "toeplitz_case")


def _check_tol(tol):
    try:
        real = _real(tol)
    except ValueError:  # nan or inf, from trimat._real
        real = 0
    if real > 0:
        return real
    raise ValueError(f"tolerance must be positive and finite, got {tol}")


def _require_size(p: ReciprocalParams, n: int):
    if p.n != n:
        raise WrongSize(f"expected n={n}, got n={p.n}")


def _normal_classification(p: ReciprocalParams) -> Classification:
    endpoint = 2.0 * math.cos(math.pi / (p.n + 1))
    return Classification(
        kind="normal",
        origin_component=(p.n % 2 == 1),
        diagnostics={"spectrum_endpoints": (-endpoint, endpoint)})


def classify3(p: ReciprocalParams, tol: float = DEFAULT_TOL) -> Classification:
    """n=3: the curve is always the origin plus one origin-centered ellipse."""
    tol = _check_tol(tol)
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
    tol = _check_tol(tol)
    _require_size(p, 4)
    if p.all_ones:
        return _normal_classification(p)
    # at a_j = A_j / 4 (exact) only a z past the float range overflows
    A1, A2, A3 = p.A
    a1, a2, a3 = 0.25 * A1, 0.25 * A2, 0.25 * A3
    scale = max(0.25, a1, a2, a3)
    r1 = (a2 - (GOLDEN * a1 - a3 / GOLDEN)) / scale
    r2 = (a2 - (GOLDEN * a3 - a1 / GOLDEN)) / scale
    diag = {"branch_residuals": (r1, r2)}  # relative to max(1, A_j)
    hit1, hit2 = abs(r1) <= tol, abs(r2) <= tol
    if not (hit1 or hit2):
        return Classification(kind="non_elliptic", diagnostics=diag)
    # sqrt(S^2 - 4 A1 A3) / 4 = |(a1 + a2 - a3, 2 sqrt(a2 a3))|: no square is formed
    root = math.hypot(a1 + a2 - a3, 2 * math.sqrt(a2) * math.sqrt(a3))
    # the same root must match sqrt(5)/5 (A1 + 3 A2 + A3) on-manifold
    diag["consistency_identity"] = (
        root / scale, math.sqrt(0.2) * (a1 / scale + 3.0 * a2 / scale + a3 / scale))
    diag["branches_hit"] = (hit1, hit2)
    x_out = (3.0 + math.sqrt(5.0)) / 4.0
    z_out = a1 + a2 + a3 + root
    # z_in = A1 A3 / (4 z_out) by Vieta; (S - root) / 4 would cancel
    outer = EllipseComponent(x=x_out, z=z_out)
    inner = EllipseComponent(x=1.5 - x_out, z=a1 * (4 * a3 / z_out))
    return Classification(
        kind="all_components_elliptic",
        components=(outer, inner),
        origin_component=False,
        diagnostics=diag)


def classify5(p: ReciprocalParams, tol: float = DEFAULT_TOL) -> Classification:
    """n=5: elliptic iff A_1 = A_4 or A_1 - A_4 = 2(A_3 - A_2)."""
    tol = _check_tol(tol)
    _require_size(p, 5)
    if p.all_ones:
        return _normal_classification(p)
    A1, A2, A3, A4 = p.A
    # at a_j = A_j / 4 (exact) no difference, root or sum overflows unless a z
    # does; the diagnostics are relative to max(1, A_j)
    a1, a2, a3, a4 = 0.25 * A1, 0.25 * A2, 0.25 * A3, 0.25 * A4
    scale = max(0.25, a1, a2, a3, a4)
    r1 = (a1 - a4) / scale
    r2 = (a1 - a4 - 2.0 * (a3 - a2)) / scale
    hit1, hit2 = abs(r1) <= tol, abs(r2) <= tol
    # sqrt(S^2 - 4 (A1 A3 + A1 A4 + A2 A4)) = |(A1 - A4 + A2 - A3, 2 sqrt(A2 A3))|
    root = math.hypot(a1 - a4 + (a2 - a3), 2 * math.sqrt(a2) * math.sqrt(a3))
    diag = {"branch_residuals": (r1, r2),
            "nested_gap": (root / scale, (a2 + a3) / scale),  # equal on-manifold
            "branches_hit": (hit1, hit2)}
    if not (hit1 or hit2):
        return Classification(kind="non_elliptic", origin_component=True,
                              diagnostics=diag)
    if hit1:
        outer = EllipseComponent(x=1.5, z=2 * (a1 + a2 + a3))
        inner = EllipseComponent(x=0.5, z=2 * a1)
    else:
        outer = EllipseComponent(x=1.5, z=2 * (2 * a3 + a4))
        inner = EllipseComponent(x=0.5, z=2 * (a3 + a4 - a2))
    return Classification(
        kind="all_components_elliptic",
        components=(outer, inner),
        origin_component=True,
        diagnostics=diag)


def _unit_scaled(A):
    """(A u, u), u = 2^k with max A u in [1, 2): exact; no n = 6 form overflows."""
    u = math.ldexp(1.0, 1 - math.frexp(max(A))[1])
    return [a * u for a in A], u


def ellipse_centers_z(p: ReciprocalParams):
    """Factor constants z_j at the roots x_j, ascending-x order: by
    ``_center_z``, the only constant a factor zeta - (x_j tau + z) can have."""
    _require_size(p, 6)
    p.check_float_range()
    A, u = _unit_scaled(p.A)
    sums = p6_sums(A)
    return tuple(_center_z(sums, xr) / u for xr in cubic_roots())


# the n = 6 verdict by the number of roots that pass
_N6_KINDS = ("non_elliptic", "boundary_ellipse_only", "boundary_ellipse_only",
             "all_components_elliptic")


def contains_ellipse6(p: ReciprocalParams, tol: float = DEFAULT_TOL) -> Classification:
    """n=6: both verdicts from one test at each root x_t of the slope cubic.

    zeta - (x_t tau + z) divides P6 iff every ``_tau_coeffs`` value is 0:
    tau^2 pins z to z_t = ``_center_z``, and tau^1, tau^0 give g2, g3 at z_t.
    A root passes when r1 = 128 q11^2 g2 / S^2 and r2 = 512 q11^3 g3 / S^3
    (the ``resultant_values``, equal to R1(x_t) / S^2 and R2(x_t) / S^3) are
    at most tol in size, and z_t >= x_t (z = x degenerates to the doubleton
    of foci), all in floats at ``_unit_scaled`` A.  R1 and R2 are quadratics
    in x, so three passing roots mean R1 = R2 = 0, the three-ellipse ideal:
    all_components_elliptic; one or two give boundary_ellipse_only.
    """
    tol = _check_tol(tol)
    _require_size(p, 6)
    if p.all_ones:
        return _normal_classification(p)
    A, u = _unit_scaled(p.A)
    sums = p6_sums(A)
    S = sums[0]
    components, root_hits = [], []
    for xr in cubic_roots():
        z = _center_z(sums, xr)
        _, _, g2, g3 = _tau_coeffs(sums, xr, z)
        q = 4 * _q11(xr) / S
        r1, r2 = 8 * q * q * g2, 8 * q * q * q * g3
        root_hits.append((xr, r1, r2))
        if abs(r1) <= tol and abs(r2) <= tol and z / u >= xr - tol * S / u:
            components.append(EllipseComponent(x=xr, z=z / u))
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
    tol = _check_tol(tol)
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

    Raises ValueError unless 0 < tol < inf, and where a z is past the float range.
    """
    if p.all_ones:
        tol = _check_tol(tol)
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
