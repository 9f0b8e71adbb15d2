"""Command-line surface: classification reports, curve data and figures,
manifold solving, generating-polynomial printing, and self-verification.

Subcommands: classify | curve | solve | poly | verify.  Matrix input comes
as a superdiagonal string (--b), as A_j parameters (--A), or as the
all-equal value --A0 with --n.  stdout carries the report, stderr carries
diagnostics; exit codes: 0 success, 1 unexpected verification failure,
2 invalid input, 3 unwritable output.  A call that names its subcommand is
parsed by that subcommand's parser alone, so a usage error prints the
subcommand's usage.  Only curve imports NumPy (with the curve module), so
classify, solve, poly and verify run without it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass
from decimal import Context
from fractions import Fraction
from typing import Optional

from . import manifold, nrpoly, trimat, verify
from .classify import DEFAULT_TOL, Classification
from .classify import classify as classify_params

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass
class JobConfig:
    b: Optional[list] = None
    A: Optional[list] = None
    A0: object = None  # a float or an exact Fraction; ReciprocalParams rejects others
    n: Optional[int] = None
    m: int = 720
    tol: float = DEFAULT_TOL
    out: Optional[str] = None
    format: Optional[str] = None

    def validate(self):
        modes = sum(1 for v in (self.b, self.A, self.A0) if v is not None)
        if modes != 1:
            raise ValueError("exactly one of --b, --A, --A0 must be given")
        if self.n is not None and self.n < 2:
            raise ValueError(f"matrix size --n must be at least 2, got {self.n}")
        if self.A0 is not None and not self.n:
            raise ValueError("--A0 requires --n")
        if self.A0 is None:
            flag, values = ("--b", self.b) if self.b is not None else ("--A", self.A)
            if not values:
                raise ValueError(f"{flag} needs at least one value")
            if self.n is not None and self.n != len(values) + 1:
                raise ValueError(f"--n {self.n} disagrees with the size {len(values) + 1} "
                                 f"that {flag} gives")

    def matrix(self) -> trimat.TridiagonalMatrix:
        if self.b is not None:
            return trimat.build_reciprocal(self.b)
        return trimat.params_to_matrix(self.params())

    def params(self) -> trimat.ReciprocalParams:
        if self.A is not None:
            return trimat.ReciprocalParams(A=tuple(self.A))
        if self.A0 is not None:
            return trimat.ReciprocalParams(A=(self.A0,) * (self.n - 1))
        return trimat.a_params(self.matrix())


def _parse_number(tok):
    """A decimal as a float, p/q as an exact Fraction, anything else complex.

    Like a decimal, a p/q must lie in the float range.
    """
    try:
        return float(tok)
    except ValueError:
        pass
    try:
        value = Fraction(tok) if "/" in tok else complex(tok)
        float(abs(value))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed number {tok!r}") from None
    except OverflowError:
        raise ValueError(f"number {tok!r} is outside the float range") from None
    return value


def _parse_numlist(text):
    """Comma-separated numbers; no value at all gives [], and an empty entry
    beside a value is an input error."""
    toks = [tok.strip() for tok in text.split(",")]
    if any(toks) and not all(toks):
        raise ValueError(f"empty entry in the list {text!r}")
    return [_parse_number(tok) for tok in toks if tok]


# input key -> (converter, help).  Flags and config-file lines both arrive
# as text and are converted here alike, so a malformed value is an input error
# that names its key.
INPUTS = {
    "b": (_parse_numlist, "superdiagonal entries, comma separated"),
    "A": (_parse_numlist, "A_j parameters, comma separated"),
    "A0": (_parse_number, "all-equal parameter value"),
    "n": (int, "matrix size (with --A0)"),
    "m": (int, "theta grid size (default 720)"),
    "tol": (float, "classification tolerance"),
    "out": (str, "output path stem"),
    "format": (str, "report format"),
}


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
    file_vals = _read_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_vals) - set(args.keys))
    if unknown:
        raise ValueError(f"config key {', '.join(unknown)} not available for "
                         f"{args.command}; it takes {', '.join(args.keys)}")
    values = {}
    for key in args.keys:  # a flag wins over the file; both are text
        text = file_vals.get(key) if getattr(args, key) is None else getattr(args, key)
        if text is None:
            continue
        try:
            values[key] = INPUTS[key][0](text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    if values.get("format") not in (None, *args.formats):
        raise ValueError(f"format {values['format']!r} not available for {args.command}; "
                         f"choose from {', '.join(args.formats)}")
    cfg = JobConfig(**values)
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
    if isinstance(v, Fraction):
        return float(v)
    return v


def cmd_classify(args) -> int:
    cfg = _config_from_args(args)
    p = cfg.params()
    result = classify_params(p, tol=cfg.tol)
    if cfg.format == "json":
        print(json.dumps({"A": _plain(p.A), **_classification_dict(result)},
                         sort_keys=True))
        return 0
    print(f"A parameters: ({', '.join(f'{float(a):.9g}' for a in p.A)})")
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
              f"semi-axes {c.semi_major:.9g}/{c.semi_minor:.9g}{extra}")
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
    # drawn in units of s = max |u|, |v|, so a curve at any scale prints
    # short numbers; the CSV carries the coordinates themselves
    import numpy as np

    s = float(max(np.max(np.abs(samples.points.real)),
                  np.max(np.abs(samples.points.imag)))) or 1.0
    pts = samples.points / s
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
            f'<polyline points="{_svg_ellipse_path(fit.semi_u / s, fit.semi_v / s)}" '
            f'stroke="#333333" stroke-dasharray="{rx / 80:.6f},{rx / 80:.6f}"/>')
    parts.append("</g></svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_curve(args) -> int:
    from . import curve as crv

    cfg = _config_from_args(args)
    M = cfg.matrix()
    samples = crv.sample_curve(M, m=cfg.m)
    fits = {}  # branch number -> fit; degenerate branches are skipped
    if args.fit:
        for k in range(1, M.n + 1):
            try:
                fits[k] = crv.fit_ellipse_axis_aligned(crv.branch_points(samples, k))
            except crv.DegenerateBranch:
                continue
    stem = cfg.out or "curve"
    written = []
    try:
        if cfg.format in (None, "csv"):
            _write_csv(stem + ".csv", samples)
            written.append(f"{stem}.csv ({len(samples)} rows)")
        if cfg.format in (None, "svg"):
            _write_svg(stem + ".svg", samples, fits.values())
            written.append(f"{stem}.svg")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    print("wrote " + " and ".join(written))
    for k, fit in fits.items():
        print(f"  branch {k} fit: semi-axes {fit.semi_u:.9g}/{fit.semi_v:.9g} "
              f"max radial deviation {fit.max_radial_deviation:.3e}")
    return 0


def cmd_solve(args) -> int:
    if args.root is not None and not args.uv:
        raise ValueError("--root applies only to --uv")
    if args.fix is None and not args.uv:
        raise ValueError("solve needs --fix NAME=VALUE NAME=VALUE or --uv")
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
    for item in args.fix:
        name, _, val = item.partition("=")
        name = name.strip()
        if name in fixed:
            raise ValueError(f"--fix gives {name} twice; fix two different parameters")
        try:
            fixed[name] = _parse_number(val)
        except ValueError:  # '' too: the item has no '='
            raise ValueError(f"--fix takes NAME=VALUE, got {item!r}") from None
    sols = manifold.solve_m6(fixed)
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


def cmd_poly(args) -> int:
    cfg = _config_from_args(args)
    p = cfg.params()
    P = nrpoly.generating_poly(p)
    if cfg.format == "json":
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
                # after the first term the sign is the operator: "- c", not "+ -c"
                text = _coeff_text(abs(c) if terms else c) + (f"*tau^{j}" if j else "")
                terms.append(((" - " if c < 0 else " + ") if terms else "") + text)
        if terms:
            print(f"  zeta^{i}: " + "".join(terms))
    return 0


def _coeff_text(c: Fraction) -> str:
    """A short fraction as it is, any other c to 17 significant digits.

    The decimal quotient rounds the exact value, with no float in between,
    so coefficients past the float range print too.
    """
    if c.denominator <= 1000 and abs(c.numerator) < 10 ** 17:
        return str(c)
    digits = Context(prec=17)
    return format(digits.divide(c.numerator, c.denominator).normalize(digits), "g")


def cmd_verify(args) -> int:
    results = verify.run(args.check, n_max=args.n, trials=args.trials)
    for result in results:
        print("\n".join(result.lines))
    return 0 if all(result.ok for result in results) else 1


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(prog="kippenhahn",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def add_matrix_command(name, run, summary, formats, *extra):
        """A subcommand on one matrix: input flags, `extra` ones, --format, --config."""
        sp = sub.add_parser(name, help=summary)
        keys = ("b", "A", "A0", "n", *extra, "format")
        for key in keys:
            listed = f": {', '.join(formats)}" if key == "format" else ""
            sp.add_argument("--" + key, help=INPUTS[key][1] + listed)
        sp.add_argument("--config", help="structured-text config file; flags win")
        sp.set_defaults(run=run, formats=formats, keys=keys)
        return sp

    add_matrix_command("classify", cmd_classify, "ellipticity classification report",
                       ("text", "json"), "tol")
    sp = add_matrix_command("curve", cmd_curve, "sample the curve; write CSV and SVG "
                            "(or only the one --format names)", ("csv", "svg"), "m", "out")
    sp.add_argument("--fit", action="store_true", help="overlay best-fit ellipses")

    sp = sub.add_parser("solve", help="three-ellipse / single-ellipse solvers")
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--fix", nargs="*", metavar="NAME=VALUE",
                      help="fix two of A1 A2 A4 A5")
    mode.add_argument("--uv", action="store_true", help="single-ellipse slice solver")
    sp.add_argument("--root", type=int, choices=(1, 2, 3),
                    help="slope-cubic root index for --uv (default 3)")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(run=cmd_solve)

    add_matrix_command("poly", cmd_poly, "print the generating polynomial", ("text", "json"))

    sp = sub.add_parser("verify", help="run the oracle cross-checks")
    sp.add_argument("--check", nargs="*", choices=verify.CHECKS,
                    help="subset of checks (default: all)")
    sp.add_argument("--n", type=int, default=verify.DEFAULT_N_MAX,
                    help="max size for the determinant oracle")
    sp.add_argument("--trials", type=int, default=verify.DEFAULT_TRIALS,
                    help="random trials per check")
    sp.set_defaults(run=cmd_verify)
    ap.commands = sub.choices  # subcommand name -> its parser, for main
    return ap


def _format_warning(message, category, filename, lineno, line=None) -> str:
    # one line per warning, without the source location the library points at
    return f"warning: {message}\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    # a named subcommand's parser reads the rest of argv into the namespace
    # the top-level pass would give; without one, the top level reports
    sp = ap.commands.get(argv[0]) if argv else None
    args = (sp.parse_args(argv[1:], argparse.Namespace(command=argv[0])) if sp
            else ap.parse_args(argv))
    saved, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = saved


if __name__ == "__main__":
    sys.exit(main())
