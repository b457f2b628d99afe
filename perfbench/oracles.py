"""Independent checks of every benchmark output.

Each checker returns a list of problems; an empty list means the output is
correct.  None of them imports oscint: exact facts are re-derived with
sympy, quadrature values are compared with integrals computed here (a
composite Gauss-Legendre rule or mpmath), and the decay rate with what
stationary phase requires.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
from sympy import QQ

from workloads import exact_rank


def parse_terms(poly: dict) -> dict:
    """{exps: Fraction} from oscint's polynomial wire format."""
    out: dict = {}
    for t in poly["terms"]:
        e = tuple(int(x) for x in t["exps"])
        out[e] = out.get(e, Fraction(0)) + Fraction(str(t["coeff"]))
    return {e: c for e, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# decide


def check_decision(table, phase_terms: dict, degenerate: bool, out: dict) -> list[str]:
    """`out` is {"is_degenerate", "quotient_norm", "certificate"}, where the
    certificate is one [[exps, coeff], ...] list per map (or None)."""
    problems = []
    if out["is_degenerate"] != degenerate:
        return [f"verdict {out['is_degenerate']}, construction says {degenerate}"]
    if degenerate:
        if out["quotient_norm"] != 0.0:
            problems.append(f"degenerate phase with quotient_norm {out['quotient_norm']}")
        cert = out["certificate"]
        if cert is None or len(cert) != len(table.maps):
            return problems + ["missing or misshapen certificate"]
        recon = table.poly({})
        for j, terms in enumerate(cert):
            for e, c in terms:
                c = Fraction(c)
                recon += table.pullback(j, tuple(e)) * QQ(c.numerator, c.denominator)
        if not (recon - table.poly(phase_terms)).is_zero:
            problems.append("certificate does not expand back to the phase")
    else:
        if out["certificate"] is not None:
            problems.append("nondegenerate phase with a certificate")
        ref = lstsq_distance(table.matrix, table.vector(phase_terms))
        qn = out["quotient_norm"]
        if not (ref > 0 and abs(qn - ref) <= 1e-9 * ref):
            problems.append(f"quotient_norm {qn!r}, least-squares distance {ref!r}")
    return problems


def lstsq_distance(matrix, vec) -> float:
    A = np.array([[float(x) for x in row] for row in matrix])
    b = np.array([float(x) for x in vec])
    coeffs, *_ = np.linalg.lstsq(A, b, rcond=None)
    return float(np.linalg.norm(b - A @ coeffs))


# ---------------------------------------------------------------------------
# resolve-replay


def _rows(basis) -> list[list[Fraction]]:
    return [[Fraction(str(x)) for x in v] for v in basis]


def check_resolution(snarl: dict, out: dict) -> list[str]:
    """Re-check a written resolution.json with exact sympy ranks."""
    res = out["resolution"]
    chain, steps = res["chain"], res["steps"]
    m = snarl["m"]

    def entries(s):
        return {e["label"]: _rows(e["basis"]) for e in s["subspaces"]}

    def same_space(a, b):
        if a == b:
            return True
        ra, rb = exact_rank(a), exact_rank(b)
        return ra == rb == exact_rank(a + b)

    def codims(ents):
        return [m - exact_rank(b) for b in ents.values()]

    problems = []
    start = entries(snarl)
    first = entries(chain[0])
    if start.keys() != first.keys() or not all(same_space(start[k], first[k]) for k in start):
        problems.append("chain[0] is not the input snarl")
    if len(chain) != len(steps) + 1:
        return problems + [f"{len(chain)} snarls for {len(steps)} steps"]
    total0 = sum(codims(start))
    for k, st in enumerate(steps):
        parent, child = entries(chain[k]), entries(chain[k + 1])
        a0, b1, b2 = st["alpha0"], st["beta1"], st["beta2"]
        kept = set(parent) - {a0}
        if set(child) != kept | {b1, b2} or a0 not in parent:
            problems.append(f"step {k}: labels do not follow the splitting")
            continue
        if not all(same_space(parent[lab], child[lab]) for lab in kept):
            problems.append(f"step {k}: an untouched entry changed")
        v0, w1, w2 = parent[a0], _rows(st["Wprime"]), _rows(st["Wdoubleprime"])
        d1, d2, dv = exact_rank(w1), exact_rank(w2), exact_rank(v0)
        r12 = exact_rank(w1 + w2)
        if r12 != d1 + d2:
            problems.append(f"step {k}: W' meets W'' nontrivially")
        if exact_rank(w1 + w2 + v0) != r12 + dv:
            problems.append(f"step {k}: W'+W'' meets V0 nontrivially")
        be1, be2 = child[b1], child[b2]
        e1, e2 = exact_rank(be1), exact_rank(be2)
        if not (exact_rank(be1 + v0) == e1 and exact_rank(be2 + v0) == e2
                and e1 + e2 - exact_rank(be1 + be2) == dv):
            problems.append(f"step {k}: beta1 and beta2 do not meet in V0")
        if sum(codims(child)) != total0:
            problems.append(f"step {k}: sum of codimensions not conserved")
        if max(codims(child)) > max(codims(parent)):
            problems.append(f"step {k}: max codimension increased")
    if any(c != 1 for c in codims(entries(chain[-1]))):
        problems.append("terminal snarl is not all hyperplanes")
    return problems


# ---------------------------------------------------------------------------
# sweeps


def bump(x: np.ndarray) -> np.ndarray:
    """The bump exp(-1/(1-s^2)), s = 2x - 1, on [0, 1]; zero outside."""
    s = 2.0 * x - 1.0
    out = np.zeros_like(x)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


@lru_cache(maxsize=None)
def _panel_rule(panels: int, order: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, 1]."""
    t, w = np.polynomial.legendre.leggauss(order)
    h = 1.0 / panels
    left = np.arange(panels)[:, None] * h
    return (left + 0.5 * h * (t + 1.0)).ravel(), np.tile(0.5 * h * w, panels)


def oscillatory_1d(mu: float, c: float, a: float, panels: int = 1024) -> complex:
    """Integral over [0, 1] of bump(x) exp(i mu c (x - a)^2)."""
    x, w = _panel_rule(panels)
    return complex(np.sum(w * bump(x) * np.exp(1j * mu * c * (x - a) ** 2)))


def separable_reference(lam: float, q: dict) -> complex:
    """I(lam) for c1 (x-a)^2 + sign c2 (y-b)^2 as a product of two 1-d
    integrals, each checked against the same rule with twice the panels."""
    parts = []
    for mu, c, a in ((lam, q["c1"], q["a"]), (q["sign"] * lam, q["c2"], q["b"])):
        coarse = oscillatory_1d(mu, float(c), float(a))
        fine = oscillatory_1d(mu, float(c), float(a), panels=2048)
        if abs(coarse - fine) > 1e-11 * abs(fine):
            raise ArithmeticError(f"reference rule not converged at mu={mu}")
        parts.append(fine)
    return parts[0] * parts[1]


def stationary_phase_abs(lam: float, q: dict) -> float:
    """Leading term 2 pi |f(a, b)| / (lam sqrt|det H|) of |I(lam)|."""
    c1, c2, c3 = float(q["c1"]), float(q["c2"]), float(q["c3"])
    det = abs(4 * c1 * c2 * q["sign"] - c3 * c3)
    amp = float(bump(np.array([float(q["a"])]))[0] * bump(np.array([float(q["b"])]))[0])
    return 2 * math.pi * amp / (lam * math.sqrt(det))


def _rows_problems(rows, lambdas) -> list[str]:
    problems = []
    if [r["lambda"] for r in rows] != [float(x) for x in lambdas]:
        problems.append("rows do not follow the lambda grid")
    for r in rows:
        if r.get("error") is not None or r.get("re") is None:
            problems.append(f"row lambda={r['lambda']}: {r.get('error') or 'no value'}")
    return problems


def fit_rho(rows) -> float:
    x = np.log1p([r["lambda"] for r in rows])
    y = np.log([r["abs"] for r in rows])
    return -float(np.polyfit(x, y, 1)[0])


def check_decay(q: dict, out: dict, sp_tol: float = 0.02) -> list[str]:
    """sweep-decay: every row converged; separable rows equal the product
    of two 1-d integrals within refine_tol; rho within 0.05 of m/2 = 1; the
    top row within sp_tol of the leading stationary-phase term."""
    rows = out["rows"]
    problems = _rows_problems(rows, q["lambdas"])
    if problems:
        return problems
    if q["c3"] == 0:
        for r in rows:
            ref = separable_reference(r["lambda"], q)
            got = complex(r["re"], r["im"])
            if abs(got - ref) > q["tol"] * abs(ref):
                problems.append(f"row lambda={r['lambda']}: {got!r} vs reference {ref!r}")
    fit = out.get("fit")
    if fit is None or abs(fit["rho"] - 1.0) > 0.05:
        problems.append(f"fitted decay {fit} is not rho = 1 +- 0.05")
    elif abs(fit["rho"] - fit_rho(rows)) > 1e-6:
        problems.append(f"fit rho {fit['rho']} does not match the rows ({fit_rho(rows)})")
    top = rows[-1]
    lead = stationary_phase_abs(top["lambda"], q)
    if abs(top["abs"] / lead - 1.0) > sp_tol:
        problems.append(f"top row |I| {top['abs']} vs stationary phase {lead}")
    return problems


@lru_cache(maxsize=None)
def bump_integral() -> float:
    """Integral of the bump over [0, 1], with mpmath at 30 digits."""
    with mpmath.workdps(30):
        val = mpmath.quad(lambda s: mpmath.exp(-1 / (1 - s * s)), [-1, 0, 1]) / 2
    return float(val)


def check_adversarial(spec: dict, tol: float, out: dict) -> list[str]:
    """sweep-adversarial: every |I(lam)| equals (integral of the bump)^4
    within refine_tol, and the spread across lambda is below 1e-5."""
    rows = out["rows"]
    problems = _rows_problems(rows, spec["lambdas"])
    if problems:
        return problems
    ref = bump_integral() ** 4
    for r in rows:
        got = complex(r["re"], r["im"])
        if abs(got - ref) > tol * ref:
            problems.append(f"row lambda={r['lambda']}: {got!r} vs (int bump)^4 = {ref!r}")
    mags = [r["abs"] for r in rows]
    spread = (max(mags) - min(mags)) / max(mags)
    if not spread < 1e-5:
        problems.append(f"spread across lambda {spread:.3e}")
    return problems
