"""Command-line surface: classification reports, curve data and figures,
manifold solving, generating-polynomial printing, and self-verification.

Subcommands: classify | curve | solve | poly | verify.  Matrix input comes
as a superdiagonal string (--b), as A_j parameters (--A), or as the
all-equal value --A0 with --n.  stdout carries the report, stderr carries
diagnostics; exit codes: 0 success, 1 unexpected verification failure,
2 invalid input, 3 unwritable output.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import curve as crv
from . import manifold, nrpoly, rtables, trimat
from .classify import Classification, WrongSize
from .classify import classify as classify_params
from .classify import ellipse_centers_z

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# input flags only some subcommands read: --tol (classify), --m and --out (curve)
EXTRA_FLAGS = {
    "m": dict(type=int, help="theta grid size (default 720)"),
    "tol": dict(type=float, help="classification tolerance"),
    "out": dict(help="output path stem"),
}


@dataclass
class JobConfig:
    b: Optional[list] = None
    A: Optional[list] = None
    A0: Optional[float] = None
    n: Optional[int] = None
    m: int = 720
    tol: float = 1e-9
    out: Optional[str] = None
    fmt: Optional[str] = None

    def validate(self):
        modes = sum(1 for v in (self.b, self.A, self.A0) if v is not None)
        if modes != 1:
            raise ValueError("exactly one of --b, --A, --A0 must be given")
        if self.n is not None and self.n < 2:
            raise ValueError(f"matrix size --n must be at least 2, got {self.n}")
        if self.A0 is not None and not self.n:
            raise ValueError("--A0 requires --n")
        if self.m < 8:
            raise ValueError("grid size m >= 8 required")
        if not 0 < self.tol < math.inf:  # nan fails every comparison
            raise ValueError(f"tolerance must be positive and finite, got {self.tol}")

    def matrix(self) -> trimat.TridiagonalMatrix:
        if self.b is not None:
            return trimat.build_reciprocal(self.b)
        return trimat.params_to_matrix(self.params())

    def params(self) -> trimat.ReciprocalParams:
        if self.A is not None:
            return trimat.ReciprocalParams(A=tuple(float(a) for a in self.A))
        if self.A0 is not None:
            return trimat.ReciprocalParams(A=(float(self.A0),) * (self.n - 1))
        return trimat.a_params(self.matrix())


def _parse_numlist(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(float(tok))
        except ValueError:
            out.append(complex(tok))
    return out


def _read_config_file(path):
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _config_from_args(args) -> JobConfig:
    cfg = JobConfig()
    file_vals = _read_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(file_vals) - set(args.keys))
    if unknown:
        raise ValueError(f"config key {', '.join(unknown)} not available for "
                         f"{args.command}; it takes {', '.join(args.keys)}")
    def pick(flag, key, conv):
        v = getattr(args, flag, None)
        if v is not None:
            return v if not isinstance(v, str) else conv(v)
        if key in file_vals:
            return conv(file_vals[key])
        return None
    b = pick("b", "b", _parse_numlist)
    A = pick("A", "A", _parse_numlist)
    A0 = pick("A0", "A0", float)
    n = pick("n", "n", int)
    m = pick("m", "m", int)
    tol = pick("tol", "tol", float)
    out = pick("out", "out", str)
    fmt = pick("format", "format", str)
    if fmt is not None and fmt not in args.formats:
        raise ValueError(f"format {fmt!r} not available for {args.command}; "
                         f"choose from {', '.join(args.formats)}")
    cfg.b = b
    cfg.A = [float(a) for a in A] if A is not None else None
    cfg.A0 = A0
    cfg.n = n
    if m is not None:
        cfg.m = m
    if tol is not None:
        cfg.tol = tol
    cfg.out = out
    cfg.fmt = fmt
    cfg.validate()
    return cfg


def _classification_dict(result: Classification) -> dict:
    return {
        "kind": result.kind,
        "origin_component": result.origin_component,
        "components": [
            {"x": c.x, "z": c.z, "semi_major": c.semi_major,
             "semi_minor": c.semi_minor, "degenerate": c.degenerate}
            for c in result.components],
        "diagnostics": {k: _plain(v) for k, v in sorted(result.diagnostics.items())},
    }


def _plain(v):
    if isinstance(v, (tuple, list)):
        return [_plain(x) for x in v]
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    return v


def cmd_classify(cfg: JobConfig) -> int:
    try:
        p = cfg.params()
        result = classify_params(p, tol=cfg.tol)
    except (WrongSize, trimat.InvalidParam, trimat.NotReciprocal,
            trimat.ZeroSuperdiagonal, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.fmt == "json":
        print(json.dumps({"A": list(p.A), **_classification_dict(result)},
                         sort_keys=True))
        return 0
    print(f"A parameters: ({', '.join(f'{a:.9g}' for a in p.A)})")
    if result.kind == "normal":
        lo, hi = result.diagnostics["spectrum_endpoints"]
        print(f"normal; spectrum endpoints {lo:+.6f} / {hi:+.6f}")
        return 0
    label = {"all_components_elliptic": "elliptic (all components)",
             "boundary_ellipse_only": "elliptic boundary component only",
             "toeplitz_case": "all-equal case: all components elliptic",
             "non_elliptic": "non-elliptic"}[result.kind]
    print(label)
    for c in result.components:
        extra = " (degenerate)" if c.degenerate else ""
        print(f"  component x={c.x:.9g} z={c.z:.9g} "
              f"semi-axes {c.semi_major:.6f}/{c.semi_minor:.6f}{extra}")
    if result.origin_component:
        print("  plus the origin")
    for key, val in sorted(result.diagnostics.items()):
        print(f"  [{key}] {_plain(val)}", file=sys.stderr)
    return 0


def _write_csv(path, samples):
    lines = ["theta,branch,u,v,lambda"]
    for theta, points, lams in zip(samples.theta.tolist(), samples.points.tolist(),
                                   samples.lam.tolist()):
        for k, (p, lam) in enumerate(zip(points, lams), start=1):
            lines.append(f"{theta:.17g},{k},{p.real:.17g},{p.imag:.17g},{lam:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _svg_ellipse_path(semi_u, semi_v, m=256):
    pts = [(semi_u * math.cos(2 * math.pi * i / m),
            semi_v * math.sin(2 * math.pi * i / m)) for i in range(m + 1)]
    return " ".join(f"{x:.6f},{y:.6f}" for x, y in pts)


def _write_svg(path, samples, fits=None):
    pts = samples.points
    umax = float(np.max(np.abs(pts.real))) or 1.0
    vmax = float(np.max(np.abs(pts.imag))) or 1.0
    rx, ry = 1.1 * umax, 1.1 * vmax
    width = 640
    height = max(int(width * ry / rx), 64)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="{-rx:.6f} {-ry:.6f} {2 * rx:.6f} {2 * ry:.6f}" '
        f'preserveAspectRatio="xMidYMid meet">',
        f'<g transform="scale(1,-1)" fill="none" stroke-width="{rx / 320:.6f}">',
        f'<line x1="{-rx:.6f}" y1="0" x2="{rx:.6f}" y2="0" stroke="#cccccc"/>',
        f'<line x1="0" y1="{-ry:.6f}" x2="0" y2="{ry:.6f}" stroke="#cccccc"/>',
    ]
    for k, branch in enumerate(pts.T.tolist(), start=1):
        branch.append(branch[0])
        coords = " ".join(f"{p.real:.6f},{p.imag:.6f}" for p in branch)
        color = PALETTE[(k - 1) % len(PALETTE)]
        parts.append(f'<polyline points="{coords}" stroke="{color}"/>')
    for fit in fits or []:
        parts.append(
            f'<polyline points="{_svg_ellipse_path(fit.semi_u, fit.semi_v)}" '
            f'stroke="#333333" stroke-dasharray="{rx / 80:.6f},{rx / 80:.6f}"/>')
    parts.append("</g></svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_curve(cfg: JobConfig, with_fits: bool = False) -> int:
    try:
        M = cfg.matrix()
    except (trimat.InvalidParam, trimat.ZeroSuperdiagonal, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    samples = crv.sample_curve(M, m=cfg.m)
    fits = []
    if with_fits:
        for k in range(1, M.n + 1):
            pts = crv.branch_points(samples, k)
            try:
                fits.append(crv.fit_ellipse_axis_aligned(pts))
            except crv.DegenerateBranch:
                continue
    stem = cfg.out or "curve"
    written = []
    try:
        if cfg.fmt in (None, "csv"):
            _write_csv(stem + ".csv", samples)
            written.append(f"{stem}.csv ({len(samples)} rows)")
        if cfg.fmt in (None, "svg"):
            _write_svg(stem + ".svg", samples, fits)
            written.append(f"{stem}.svg")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    print("wrote " + " and ".join(written))
    for k, fit in enumerate(fits, start=1):
        print(f"  branch {k} fit: semi-axes {fit.semi_u:.6f}/{fit.semi_v:.6f} "
              f"max radial deviation {fit.max_radial_deviation:.3e}")
    return 0


def cmd_solve(args) -> int:
    if args.root is not None and not args.uv:
        raise ValueError("--root applies only to --uv")
    if args.uv:
        root = args.root or 3
        x_t = nrpoly.cubic_roots()[root - 1]
        res = manifold.solve_uv(x_t)
        if args.format == "json":
            print(json.dumps({
                "root_index": root, "root": res.root,
                "line": res.line, "all_equal_point": res.all_equal_point},
                sort_keys=True))
            return 0
        a, b, c = res.line
        print(f"single-ellipse slice at root x{root} = {res.root:.9g}")
        print(f"solution locus is the line {a:.9g}*u + {b:.9g}*v + {c:.9g} = 0")
        print(f"  all-equal point on the locus: u = v = {res.all_equal_point[0]:.9g}")
        return 0
    fixed = {}
    for item in args.fix or []:
        name, _, val = item.partition("=")
        fixed[name.strip()] = float(val)
    try:
        sols = manifold.solve_m6(fixed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps([{"A": list(s.A), "residuals": list(s.residuals),
                           "realizable": s.realizable, "branch": s.branch}
                          for s in sols], sort_keys=True))
        return 0
    for s in sols:
        tag = "" if s.realizable else "  [not realizable]"
        print("A = (" + ", ".join(f"{a:.9g}" for a in s.A) + ")" + tag)
        print(f"  scaled residual norm {s.scaled_norm():.3e}  ({s.branch})")
    return 0


def cmd_poly(cfg: JobConfig) -> int:
    try:
        p = cfg.params()
    except (trimat.InvalidParam, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    P = nrpoly.generating_poly(p)
    if cfg.fmt == "json":
        print(json.dumps({
            "n": p.n,
            "origin_component": P.origin_component,
            "coefficients": [[str(c) for c in row] for row in P.coeff_table()],
        }, sort_keys=True))
        return 0
    print(f"generating polynomial, n = {p.n}, zeta-degree {P.deg_zeta}"
          + (", times an origin factor" if P.origin_component else ""))
    # text mode shows decimals for readability; json carries the exact fractions
    for i in range(P.deg_zeta, -1, -1):
        terms = []
        for j in range(P.deg_tau + 1):
            c = P.coeff(i, j)
            if c:
                cs = str(c) if abs(c.denominator) <= 1000 else f"{float(c):.17g}"
                terms.append(f"{cs}*tau^{j}" if j else cs)
        if terms:
            print(f"  zeta^{i}: " + " + ".join(terms))
    return 0


def _verify_determinant(n_max, trials, rng):
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
    return worst, worst <= 1e-9


def _pipeline_quadratics(A):
    """Reduced resultants straight from the polynomial pipeline, exact."""
    P = nrpoly.generating_poly(trimat.ReciprocalParams(A=tuple(A)))
    taus = nrpoly.substitution_tau_coeffs(P)
    q1, q2, q3 = taus[2], taus[1], taus[0]
    r1 = nrpoly.reduce_mod_cubic(nrpoly.resultant_in_z(q1, q2))
    r2 = nrpoly.reduce_mod_cubic(nrpoly.resultant_in_z(q1, q3))
    return r1, r2


def _verify_resultants(trials, rng):
    for _ in range(trials):
        A = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 8)) + 1 for _ in range(5))
        r1, r2 = _pipeline_quadratics(A)
        t1, t2 = rtables.resultant_quadratics(A)
        for k in range(3):
            if rtables.R1_PIPELINE_SCALE * r1.coeff(k) != t1[2 - k]:
                return False, f"R1 coefficient x^{k} mismatch at {A}"
            if rtables.R2_PIPELINE_SCALE * r2.coeff(k) != t2[2 - k]:
                return False, f"R2 coefficient x^{k} mismatch at {A}"
    return True, "pipeline == corrected tables (exact)"


KNOWN_MISMATCHES = {
    "R1.x^1": "printed 18-group ends A3*A5; oracle gives A4*A5",
    "R2.x^1": "printed has degree-6 A1^3*A5^3 for A1^3 + A5^3 and A1^2 for A1^2*A4 (documented)",
    "R2.x^2": "printed 20-group has -A1*A2*A4; oracle gives +A1*A2*A4",
    "R.r1": "printed 4(A2+A3+A4) term enters with the opposite sign (documented)",
}


def _verify_r_coefficients():
    mismatches = {}
    names = (("R1.x^2", rtables.R1_X2, rtables.R1_X2_PRINTED),
             ("R1.x^1", rtables.R1_X1, rtables.R1_X1_PRINTED),
             ("R1.x^0", rtables.R1_X0, rtables.R1_X0_PRINTED),
             ("R2.x^2", rtables.R2_X2, rtables.R2_X2_PRINTED),
             ("R2.x^1", rtables.R2_X1, rtables.R2_X1_PRINTED),
             ("R2.x^0", rtables.R2_X0, rtables.R2_X0_PRINTED))
    for name, corrected, printed in names:
        if corrected != printed:
            diff = {k: (printed.get(k, 0), corrected.get(k, 0))
                    for k in set(printed) | set(corrected)
                    if printed.get(k, 0) != corrected.get(k, 0)}
            mismatches[name] = diff
    A = (2, 3, 5, 7, 11)
    if rtables.z_quadratic_coeffs(A) != rtables.z_quadratic_coeffs_printed(A):
        mismatches["R.r1"] = "sign of the 4(A2+A3+A4) term"
    return mismatches


def _verify_z_centers(trials, rng):
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
        # independence cross-check: the residuals of the nonlinear part of the
        # factorization system are fixed multiples of the closed-form conditions
        qa, qb, cu, _ = manifold.residuals_m6(A)
        z1, z2, z3 = zs
        x1, x2, x3 = roots
        S2a = (A[0] * A[2] + A[0] * A[3] + A[0] * A[4] + A[1] * A[3]
               + A[1] * A[4] + A[2] * A[4])
        S2o = A[0] * A[2] + A[0] * A[4] + A[2] * A[4]
        e_pairs = z1 * z2 + z1 * z3 + z2 * z3 - S2a / 4
        e_mixed = z1 * z2 * x3 + z1 * z3 * x2 + z2 * z3 * x1 - S2o / 8
        e_prod = z1 * z2 * z3 - A[0] * A[2] * A[4] / 8
        scale = sum(A)
        worst = max(worst,
                    abs(qa - (-28) * e_pairs) / scale ** 2,
                    abs(qb - (-56) * e_mixed) / scale ** 2,
                    abs(cu - (-392) * e_prod) / scale ** 3)
    return worst, worst <= 1e-9


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.n < 3:
        raise ValueError(f"--n must be at least 3, got {args.n}")
    rng = random.Random(20260811)
    checks = args.check or ["determinant", "resultants", "r-coefficients", "z-centers"]
    failed = False
    for check in checks:
        if check == "determinant":
            worst, ok = _verify_determinant(args.n, args.trials, rng)
            print(f"determinant oracle (n<=%d): max relative residual %.3e -> %s"
                  % (args.n, worst, "pass" if ok else "FAIL"))
            failed |= not ok
        elif check == "resultants":
            ok, msg = _verify_resultants(max(args.trials // 10, 3), rng)
            print(f"resultant pipeline vs tables: {msg} -> {'pass' if ok else 'FAIL'}")
            failed |= not ok
        elif check == "r-coefficients":
            mismatches = _verify_r_coefficients()
            unexpected = set(mismatches) - set(KNOWN_MISMATCHES)
            missing = set(KNOWN_MISMATCHES) - set(mismatches)
            for name in sorted(mismatches):
                status = "expected mismatch" if name in KNOWN_MISMATCHES else "UNEXPECTED"
                print(f"printed-vs-oracle {name}: {status}: {KNOWN_MISMATCHES.get(name, mismatches[name])}")
            ok = not unexpected and not missing
            print(f"printed-table comparison: {len(mismatches)} known typo'd "
                  f"coefficients -> {'pass' if ok else 'FAIL'}")
            failed |= not ok
        elif check == "z-centers":
            worst, ok = _verify_z_centers(args.trials, rng)
            print(f"ellipse-center solve cross-checks: max residual %.3e -> %s"
                  % (worst, "pass" if ok else "FAIL"))
            failed |= not ok
        else:
            print(f"unknown check {check!r}", file=sys.stderr)
            return 2
    return 1 if failed else 0


def build_parser():
    ap = argparse.ArgumentParser(prog="kippenhahn",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def add_input_flags(sp, formats, *extra):
        """The matrix input flags, --format, --config, and the extra flags
        among m, tol, out that this subcommand reads."""
        sp.add_argument("--b", help="superdiagonal entries, comma separated")
        sp.add_argument("--A", help="A_j parameters, comma separated")
        sp.add_argument("--A0", type=float, help="all-equal parameter value")
        sp.add_argument("--n", type=int, help="matrix size (with --A0)")
        for key in extra:
            sp.add_argument("--" + key, **EXTRA_FLAGS[key])
        sp.add_argument("--format", choices=formats, help="report format")
        sp.add_argument("--config", help="structured-text config file; flags win")
        sp.set_defaults(formats=formats, keys=("b", "A", "A0", "n", *extra, "format"))

    sp = sub.add_parser("classify", help="ellipticity classification report")
    add_input_flags(sp, ("text", "json"), "tol")

    sp = sub.add_parser("curve", help="sample the curve; write CSV and SVG "
                                      "(or only the one --format names)")
    add_input_flags(sp, ("csv", "svg"), "m", "out")
    sp.add_argument("--fit", action="store_true", help="overlay best-fit ellipses")

    sp = sub.add_parser("solve", help="three-ellipse / single-ellipse solvers")
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--fix", nargs="*", metavar="NAME=VALUE",
                      help="fix two of A1 A2 A4 A5")
    mode.add_argument("--uv", action="store_true", help="single-ellipse slice solver")
    sp.add_argument("--root", type=int, choices=(1, 2, 3),
                    help="slope-cubic root index for --uv (default 3)")
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("poly", help="print the generating polynomial")
    add_input_flags(sp, ("text", "json"))

    sp = sub.add_parser("verify", help="run the oracle cross-checks")
    sp.add_argument("--check", nargs="*",
                    choices=("determinant", "resultants", "r-coefficients", "z-centers"),
                    help="subset of checks (default: all)")
    sp.add_argument("--n", type=int, default=8, help="max size for the determinant oracle")
    sp.add_argument("--trials", type=int, default=30, help="random trials per check")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "classify":
            return cmd_classify(_config_from_args(args))
        if args.command == "curve":
            return cmd_curve(_config_from_args(args), with_fits=args.fit)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "poly":
            return cmd_poly(_config_from_args(args))
        if args.command == "verify":
            return cmd_verify(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
