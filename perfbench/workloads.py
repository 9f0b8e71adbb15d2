"""The four workloads: seeded inputs, the item each one times, and its check.

A workload hands out items in cycles.  Each slot of a cycle always holds the
same kind of item, whose cost hardly depends on the seeded numbers in it, so
every run measures the same mix of cheap and expensive items whatever its
seed.  Inputs are drawn afresh in every cycle, so a cache keyed on them
gains nothing, with one exception: solve's ``--uv --root k`` items have a
fixed argv (k = 1, 2, 3) and repeat in every cycle.  The first item of a
cycle is the one the set-up measurement times in a fresh interpreter.

Items call the package through module attributes looked up at call time
(``curve.sample_curve``, ``kclassify.classify``, ...), so the tracer's
patches see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import kippenhahn  # noqa: F401
from kippenhahn import cli, curve, manifold, nrpoly, rtables, trimat

kclassify = sys.modules["kippenhahn.classify"]

DATA = json.loads((Path(__file__).with_name("data.json")).read_text())
GOLDEN = (math.sqrt(5.0) + 1.0) / 2.0
M_GRID = 720  # curve samples per branch, the CLI default


class CheckFailed(Exception):
    """An item's output is wrong."""


@dataclass
class Item:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    label: Optional[str] = None  # classifier kind the generator expects


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------- inputs

def _uniform_a(rng, size, lo=1.0, hi=10.0):
    return tuple(rng.uniform(lo, hi) for _ in range(size))


def _golden_plane(rng, which):
    """n = 4 point on one of the two golden-ratio planes of classify4."""
    a1 = rng.uniform(1.5, 6.0)
    a3 = rng.uniform(1.0, GOLDEN * (GOLDEN * a1 - 1.0))
    a2 = GOLDEN * a1 - a3 / GOLDEN
    return (a1, a2, a3) if which == 0 else (a3, a2, a1)


def _off_golden(rng):
    while True:
        A = _uniform_a(rng, 3, 1.0, 6.0)
        a1, a2, a3 = A
        if min(abs(a2 - (GOLDEN * a1 - a3 / GOLDEN)),
               abs(a2 - (GOLDEN * a3 - a1 / GOLDEN))) > 1e-2:
            return A


def _hyperplane5(rng, which, draw=None):
    """n = 5 point on A1 = A4 (which = 0) or A1 - A4 = 2 (A3 - A2)."""
    draw = draw or (lambda: rng.uniform(1.0, 6.0))
    while True:
        a2, a3, a4 = draw(), draw(), draw()
        a1 = a4 if which == 0 else a4 + 2 * (a3 - a2)
        if a1 >= 1 and len({a1, a2, a3, a4}) > 1:
            return (a1, a2, a3, a4)


def _off_hyperplane5(rng):
    while True:
        A = _uniform_a(rng, 4, 1.0, 6.0)
        a1, a2, a3, a4 = A
        if min(abs(a1 - a4), abs((a1 - a4) - 2 * (a3 - a2))) > 1e-2:
            return A


def _three_ellipse(rng):
    """A stored three-ellipse point times a seeded factor (the conditions are
    homogeneous, and a factor >= 1 keeps every A_j >= 1)."""
    base = rng.choice(DATA["three_ellipse_points"])
    s = rng.uniform(1.0, 3.0)
    return tuple(s * a for a in base)


def _dyadic(rng):
    """1 + k / 2^e: converts to float and back without loss."""
    return 1 + Fraction(rng.randint(0, 64), 2 ** rng.randint(0, 3))


def _distinct_dyadic_pair(rng):
    # equal entries would take classify's all-equal path, whose factors are
    # irrational
    while True:
        A = (_dyadic(rng), _dyadic(rng))
        if A[0] != A[1]:
            return A


def _rational(rng):
    return 1 + Fraction(rng.randint(0, 40), rng.randint(1, 9))


# ---------------------------------------------------------------- screen

def _screen_item(A, label):
    def run():
        return kclassify.classify(trimat.ReciprocalParams(A=A))

    def check(out):
        _require(out.kind == label, f"classify{A} gave {out.kind}, expected {label}")
    return Item(f"screen.n{len(A) + 1}", run, check, label)


def screen_cycle(rng):
    """20 classify calls: four at n = 6 and sixteen cheap ones.

    The n = 6 calls cost about fifty times the others; at one in five of the
    mix, p90 falls inside their group rather than on its edge.
    """
    E, N = "all_components_elliptic", "non_elliptic"
    items = [_screen_item(_three_ellipse(rng), E),
             _screen_item(_three_ellipse(rng), E),
             _screen_item(_uniform_a(rng, 5), N),
             _screen_item(_uniform_a(rng, 5), N)]
    items += [_screen_item(_uniform_a(rng, 2), E) for _ in range(4)]
    items += [_screen_item(_golden_plane(rng, 0), E),
              _screen_item(_golden_plane(rng, 1), E),
              _screen_item(_off_golden(rng), N),
              _screen_item(_off_golden(rng), N),
              _screen_item(_hyperplane5(rng, 0), E),
              _screen_item(_hyperplane5(rng, 1), E),
              _screen_item(_off_hyperplane5(rng), N),
              _screen_item(_off_hyperplane5(rng), N)]
    # all-equal: a fixed size per slot, since the cost grows with n
    items += [_screen_item((rng.uniform(1.5, 10.0),) * (n - 1), "toeplitz_case")
              for n in (10, 20, 30, 40)]
    return items


# ---------------------------------------------------------------- sweep

@dataclass
class SweepOut:
    classification: Any
    samples: list
    fits: dict
    symmetry: float

    @property
    def kind(self):
        return self.classification.kind if self.classification else None


def _sweep_item(A, label):
    n = len(A) + 1

    def run():
        p = trimat.ReciprocalParams(A=A)
        cls = kclassify.classify(p) if label else None
        samples = curve.sample_curve(trimat.params_to_matrix(p), m=M_GRID)
        fits = {}
        for k in range(1, n + 1):
            try:
                fits[k] = curve.fit_ellipse_axis_aligned(curve.branch_points(samples, k))
            except curve.DegenerateBranch:
                pass
        return SweepOut(cls, samples, fits, curve.symmetry_residual(samples))

    def check(out):
        _require(len(out.samples) == M_GRID * n, "wrong sample count")
        theta = np.array([s.theta for s in out.samples])
        point = np.array([s.point for s in out.samples])
        lam = np.array([s.lam for s in out.samples])
        scale = max(1.0, float(np.max(np.abs(lam))))
        # tangent property: the support value at theta is attained at the point
        tangent = float(np.max(np.abs((np.exp(1j * theta) * point).real - lam)))
        _require(tangent <= 1e-9 * scale, f"tangent residual {tangent:.3e} at A={A}")
        _require(np.all(np.diff(lam.reshape(M_GRID, n), axis=1) <= 0),
                 "branches not in descending lambda")
        _require(out.symmetry <= 1e-9 * scale, f"symmetry residual {out.symmetry:.3e}")
        if not label:
            return
        _require(out.kind == label, f"classify{A} gave {out.kind}, expected {label}")
        # nested components: branch j and its mirror n + 1 - j trace component j
        comps = [c for c in out.classification.components if not c.degenerate]
        for j, comp in enumerate(comps, start=1):
            for k in {j, n + 1 - j}:
                fit = out.fits.get(k)
                _require(fit is not None, f"no fit on elliptic branch {k} at A={A}")
                _require(fit.max_radial_deviation <= 1e-8 * scale,
                         f"branch {k} deviates {fit.max_radial_deviation:.3e} at A={A}")
                _require(abs(fit.semi_major - comp.semi_major) <= 1e-8 * scale
                         and abs(fit.semi_minor - comp.semi_minor) <= 1e-8 * scale,
                         f"branch {k} semi-axes differ from sqrt(z +- x) at A={A}")
    return Item(f"sweep.n{n}", run, check, label)


def sweep_cycle(rng):
    """One curve per size n in {3, 4, 5, 6, 8, 12, 20}."""
    E = "all_components_elliptic"
    return [_sweep_item(_three_ellipse(rng), E),
            _sweep_item(_uniform_a(rng, 2), E),
            _sweep_item(_golden_plane(rng, rng.randint(0, 1)), E),
            _sweep_item(_hyperplane5(rng, rng.randint(0, 1)), E),
            _sweep_item((rng.uniform(1.0, 10.0),) * 7, "toeplitz_case"),
            _sweep_item(_uniform_a(rng, 11), None),
            # A_1 = 1 makes e_1 vanish exactly at theta = pi/2 and 3 pi/2, so
            # eig_all splits the pencil into blocks there
            _sweep_item((1.0,) + _uniform_a(rng, 18), None)]


# ---------------------------------------------------------------- solve

def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _solve_fix_item(ref, s):
    fixed = {name: s * v for name, v in ref["fixed"].items()}
    argv = ["solve", "--fix", *(f"{k}={v!r}" for k, v in fixed.items()), "--format", "json"]
    scale = max(fixed.values())

    def check(out):
        code, text = out
        _require(code == 0, f"{' '.join(argv)} exited {code}")
        sols = [tuple(d["A"]) for d in json.loads(text)]
        for A in sols:
            qa, qb, cu, _ = manifold.residuals_m6(A, exact=True)
            s1 = sum(abs(a) for a in A)
            _require(abs(qa) <= 1e-10 * s1 ** 2 and abs(qb) <= 1e-10 * s1 ** 2
                     and abs(cu) <= 1e-10 * s1 ** 3, f"residuals too large at {A}")
        _require(len(sols) >= len(ref["solutions"]),
                 f"{len(sols)} solutions, reference has {len(ref['solutions'])}")
        for R in ref["solutions"]:
            _require(any(max(abs(a - s * r) for a, r in zip(A, R)) <= 1e-7 * scale
                         for A in sols), f"scaled reference solution {R} missing")
    return Item("solve.fix", lambda: _run_cli(argv), check)


def _solve_uv_item(root, rng):
    argv = ["solve", "--uv", "--root", str(root), "--format", "json"]
    ts = [rng.uniform(-10.0, 10.0) for _ in range(5)]

    def check(out):
        code, text = out
        _require(code == 0, f"{' '.join(argv)} exited {code}")
        res = json.loads(text)
        _require(res["line"] is not None, f"root {root}: no line found")
        a, b, c = res["line"]
        _require(abs(a + b + c) <= 1e-9, f"root {root}: line misses (1, 1)")
        for t in ts:
            u, v = -a * c + b * t, -b * c - a * t
            r1, r2 = rtables.eval_resultants_at((u, v, 1.0, v, u), res["root"])
            s1 = abs(u) + abs(v) + 1.0
            # the bound manifold._certify_line applies
            _require(abs(r1) <= 1e-8 * s1 ** 2 and abs(r2) <= 1e-8 * s1 ** 3,
                     f"root {root}: resultants do not vanish at ({u}, {v})")
    return Item("solve.uv", lambda: _run_cli(argv), check)


def solve_cycle(rng):
    """Each slope-cubic root on the (u, v) slice, and each fixed pair scaled."""
    refs = DATA["solve_references"]
    items = []
    for root, ref in zip((1, 2, 3), refs):
        items.append(_solve_uv_item(root, rng))
        items.append(_solve_fix_item(ref, rng.uniform(0.5, 4.0)))
    return items


# ---------------------------------------------------------------- exact

@dataclass
class ExactOut:
    residual: float
    pipeline: Optional[tuple] = None
    tables: Optional[tuple] = None
    remainders: tuple = ()


def _exact_item(A, on_manifold, rng):
    n = len(A) + 1
    points = [(rng.uniform(0.0, 2 * math.pi), rng.uniform(-3.0, 3.0)) for _ in range(3)]

    def run():
        p = trimat.ReciprocalParams(A=A)
        P = nrpoly.generating_poly(p)
        M = trimat.params_to_matrix(p)
        out = ExactOut(max(nrpoly.eval_residual(P, M, th, lam) for th, lam in points))
        if n == 6:
            taus = nrpoly.substitution_tau_coeffs(P)
            out.pipeline = tuple(
                nrpoly.reduce_mod_cubic(nrpoly.resultant_in_z(taus[2], q))
                for q in (taus[1], taus[0]))
            out.tables = rtables.resultant_quadratics(A)
        if on_manifold:
            # the classifier's factors are floats; dyadic inputs make them exact
            comps = kclassify.classify(p).components
            out.remainders = tuple(
                nrpoly.divide_by_linear(P, Fraction(c.x), Fraction(c.z))[1] for c in comps)
        return out

    def check(out):
        _require(out.residual <= 1e-9, f"determinant oracle {out.residual:.3e} at n={n}")
        if n == 6:
            for r, t, scale in zip(out.pipeline, out.tables,
                                   (rtables.R1_PIPELINE_SCALE, rtables.R2_PIPELINE_SCALE)):
                _require(all(scale * r.coeff(k) == t[2 - k] for k in range(3)),
                         f"pipeline differs from tables at A={A}")
        if on_manifold:
            _require(out.remainders and all(r.is_zero for r in out.remainders),
                     f"classifier factor leaves a remainder at A={A}")
    return Item(f"exact.n{n}", run, check)


def exact_cycle(rng):
    """One rational A vector per n = 3..12, with two n = 5 points on the
    classifier's hyperplanes; n = 3 and n = 5 use dyadic rationals."""
    items = [_exact_item(tuple(_rational(rng) for _ in range(5)), False, rng),
             _exact_item(_distinct_dyadic_pair(rng), True, rng),
             _exact_item(tuple(_rational(rng) for _ in range(3)), False, rng),
             _exact_item(_hyperplane5(rng, 0, lambda: _dyadic(rng)), True, rng),
             _exact_item(_hyperplane5(rng, 1, lambda: _dyadic(rng)), True, rng)]
    for n in range(7, 13):
        items.append(_exact_item(tuple(_rational(rng) for _ in range(n - 1)), False, rng))
    return items


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable
    smoke_items: int  # items of one cycle the smoke mode runs
    # the slot the warm-up runs: one with seeded inputs, so that the warm-up
    # never repeats a timed input (solve's slot 0 has a fixed argv)
    warmup_slot: int = 0


WORKLOADS = {
    "screen": Workload("screen", screen_cycle, 20),
    "sweep": Workload("sweep", sweep_cycle, 7),
    "solve": Workload("solve", solve_cycle, 2, warmup_slot=1),
    "exact": Workload("exact", exact_cycle, 11),
}
