"""Oracle cross-checks of the exact layer, the tables and the closed forms:
each check in ``CHECKS`` takes (rng, n_max, trials) and returns a
``CheckResult``, whether it passed and the lines ``kippenhahn verify`` prints."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import manifold, nrpoly, rtables, trimat
from .classify import ellipse_centers_z

# largest relative residual a floating-point cross-check passes with
PASS_BOUND = 1e-9
SEED = 20260811
DEFAULT_N_MAX = 8
DEFAULT_TRIALS = 30

# each known typo of the printed tables: its printed-vs-corrected diff,
# {monomial: (printed, corrected)}, and what it is
KNOWN_MISMATCHES = {
    "R1.x^1": ({(0, 0, 0, 1, 1): (0, 18), (0, 0, 1, 0, 1): (24, 6)},
               "printed 18-group ends A3*A5; oracle gives A4*A5"),
    "R2.x^1": ({(3, 0, 0, 0, 3): (14, 0), (3, 0, 0, 0, 0): (0, 14),
                (0, 0, 0, 0, 3): (0, 14), (2, 0, 0, 0, 0): (-22, 0),
                (2, 0, 0, 1, 0): (0, -22)},
               "printed has degree-6 A1^3*A5^3 for A1^3 + A5^3 and A1^2 for A1^2*A4 (documented)"),
    "R2.x^2": ({(1, 1, 0, 1, 0): (-20, 20)},
               "printed 20-group has -A1*A2*A4; oracle gives +A1*A2*A4"),
    "R.r1": ("sign of the 4(A2+A3+A4) term",
             "printed 4(A2+A3+A4) term enters with the opposite sign (documented)"),
}


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    lines: tuple


def check_determinant(rng, n_max, trials):
    """The generating polynomial against the determinant, for n = 3..n_max."""
    worst = 0.0
    for n in range(3, n_max + 1):
        for _ in range(trials):
            A = tuple(1.0 + 4.0 * rng.random() for _ in range(n - 1))
            p = trimat.ReciprocalParams(A=A)
            M = trimat.params_to_matrix(p)
            P = nrpoly.generating_poly(p)
            theta = 2 * math.pi * rng.random()
            lam = 6.0 * rng.random() - 3.0
            worst = max(worst, nrpoly.eval_residual(P, M, theta, lam))
    ok = worst <= PASS_BOUND
    return CheckResult(ok, ("determinant oracle (n<=%d): max relative residual %.3e -> %s"
                            % (n_max, worst, "pass" if ok else "FAIL"),))


def _pipeline_quadratics(A):
    """Reduced resultants straight from the polynomial pipeline, exact."""
    P = nrpoly.generating_poly(trimat.ReciprocalParams(A=tuple(A)))
    taus = nrpoly.substitution_tau_coeffs(P)
    q1, q2, q3 = taus[2], taus[1], taus[0]
    r1 = nrpoly.reduce_mod_cubic(nrpoly.resultant_in_z(q1, q2))
    r2 = nrpoly.reduce_mod_cubic(nrpoly.resultant_in_z(q1, q3))
    return r1, r2


def check_resultants(rng, n_max, trials):
    """The resultant pipeline against the forms and the corrected R1/R2
    tables, exactly."""
    ok, msg = True, "pipeline == corrected tables (exact)"
    scales = (rtables.R1_PIPELINE_SCALE, rtables.R2_PIPELINE_SCALE)
    for _ in range(max(trials // 10, 3)):
        A = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 8)) + 1 for _ in range(5))
        bad = [f"R{i} coefficient x^{k} mismatch at {A}"
               for i, scale, r, t, tables in zip((1, 2), scales, _pipeline_quadratics(A),
                                                 rtables.resultant_quadratics(A),
                                                 (rtables.R1_TABLES, rtables.R2_TABLES))
               for k in range(3)
               if not scale * r.coeff(k) == t[2 - k] == rtables.eval_table(tables[2 - k], A)]
        if bad:
            ok, msg = False, bad[0]
            break
    return CheckResult(ok, (f"resultant pipeline vs tables: {msg} -> "
                            f"{'pass' if ok else 'FAIL'}",))


def check_r_coefficients(rng, n_max, trials):
    """The printed tables differ from the corrected ones in exactly the
    ``KNOWN_MISMATCHES``, monomial by monomial; any other difference is
    shown with its monomials."""
    mismatches = {}
    names = [f"R{r}.x^{k}" for r in (1, 2) for k in (2, 1, 0)]
    for name, corrected, printed in zip(names, rtables.R1_TABLES + rtables.R2_TABLES,
                                        rtables.R1_TABLES_PRINTED + rtables.R2_TABLES_PRINTED):
        if corrected != printed:
            diff = {k: (printed.get(k, 0), corrected.get(k, 0))
                    for k in sorted(set(printed) | set(corrected), reverse=True)
                    if printed.get(k, 0) != corrected.get(k, 0)}
            mismatches[name] = diff
    A = (2, 3, 5, 7, 11)
    if rtables.z_quadratic_coeffs(A) != rtables.z_quadratic_coeffs_printed(A):
        mismatches["R.r1"] = "sign of the 4(A2+A3+A4) term"
    expected = {name for name, diff in mismatches.items()
                if name in KNOWN_MISMATCHES and KNOWN_MISMATCHES[name][0] == diff}
    lines = [f"printed-vs-oracle {name}: expected mismatch: {KNOWN_MISMATCHES[name][1]}"
             if name in expected else
             f"printed-vs-oracle {name}: UNEXPECTED: {mismatches[name]}"
             for name in sorted(mismatches)]
    ok = expected == set(mismatches) == set(KNOWN_MISMATCHES)
    lines.append(f"printed-table comparison: {len(mismatches)} known typo'd "
                 f"coefficients -> {'pass' if ok else 'FAIL'}")
    return CheckResult(ok, tuple(lines))


def check_z_centers(rng, n_max, trials):
    """The factor constants z_j against the z-quadratic's Lagrange form, and
    the three-ellipse residuals against the multiples of them the z_j give."""
    worst = 0.0
    roots = nrpoly.cubic_roots()
    for _ in range(trials):
        A = tuple(1.0 + 9.0 * rng.random() for _ in range(5))
        p = trimat.ReciprocalParams(A=A)
        zs = ellipse_centers_z(p)
        r2, r1, r0 = rtables.z_quadratic_coeffs(A)
        for j, xj in enumerate(roots):
            xi, xk = (roots[m] for m in range(3) if m != j)
            z_alt = ((r2 * xj + r1) * xj + r0) / (8 * (xj - xi) * (xj - xk))
            worst = max(worst, abs(z_alt - zs[j]) / max(1.0, abs(zs[j])))
        qa, qb, cu, _ = manifold.residuals_m6(A)
        z1, z2, z3 = zs
        x1, x2, x3 = roots
        scale, _, E2, _, s2, s3 = rtables.p6_sums(A)
        e_pairs = z1 * z2 + z1 * z3 + z2 * z3 - E2 / 4
        e_mixed = z1 * z2 * x3 + z1 * z3 * x2 + z2 * z3 * x1 - s2 / 8
        e_prod = z1 * z2 * z3 - s3 / 8
        worst = max(worst,
                    abs(qa - (-28) * e_pairs) / scale ** 2,
                    abs(qb - (-56) * e_mixed) / scale ** 2,
                    abs(cu - (-392) * e_prod) / scale ** 3)
    ok = worst <= PASS_BOUND
    return CheckResult(ok, ("ellipse-center solve cross-checks: max residual %.3e -> %s"
                            % (worst, "pass" if ok else "FAIL"),))


CHECKS = {
    "determinant": check_determinant,
    "resultants": check_resultants,
    "r-coefficients": check_r_coefficients,
    "z-centers": check_z_centers,
}


def run(names=None, n_max=DEFAULT_N_MAX, trials=DEFAULT_TRIALS):
    """The named checks (default: all), in order, from one generator seeded
    with ``SEED``.  Raises ValueError unless n_max >= 3 and trials >= 1, the
    least that makes each check check something."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if n_max < 3:
        raise ValueError(f"n_max must be at least 3, got {n_max}")
    rng = random.Random(SEED)
    return [CHECKS[name](rng, n_max, trials) for name in names or CHECKS]
