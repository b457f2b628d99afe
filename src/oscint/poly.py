"""Multivariate polynomials with exact rational coefficients, pullbacks
through linear maps, the degenerate subspace they span, the nondegeneracy
decision with an exact certificate, and the float quotient norm.

Every pullback is summed off one cached table per map and degree bound,
_pullbacks, which holds e∘pi for each monomial e: compose, compose_affine,
the degeneracy columns and the one certificate check all read it.

The degenerate/nondegenerate boolean is always decided by exact rank over
Q; floating point is used only for the numeric value of the quotient norm
(with the float copy of the degeneracy matrix) and in evaluate_array, and
only those import numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from types import MappingProxyType
from typing import Optional, Sequence

from .linalg import Mat, factor, finite_float, frac_str, rank, rref
from .resolution import SplittingStep


class MultiPoly:
    """Polynomial in num_vars variables: exponent tuple -> Fraction.

    Zero coefficients are never stored; equality is structural.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms=None):
        self.num_vars = num_vars
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in (terms.items() if isinstance(terms, dict) else terms):
                exps = tuple(int(e) for e in exps)
                if len(exps) != num_vars:
                    raise ValueError("exponent length != num_vars")
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c != 0:
                    self.terms[exps] = self.terms.get(exps, Fraction(0)) + c
                    if self.terms[exps] == 0:
                        del self.terms[exps]

    @staticmethod
    def zero(num_vars: int) -> "MultiPoly":
        return MultiPoly(num_vars)

    @staticmethod
    def constant(num_vars: int, c) -> "MultiPoly":
        return MultiPoly(num_vars, {(0,) * num_vars: Fraction(c)})

    @staticmethod
    def variable(num_vars: int, i: int) -> "MultiPoly":
        e = [0] * num_vars
        e[i] = 1
        return MultiPoly(num_vars, {tuple(e): Fraction(1)})

    @staticmethod
    def monomial(num_vars: int, exps: Sequence[int], coeff=1) -> "MultiPoly":
        return MultiPoly(num_vars, {tuple(exps): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly)
                and self.num_vars == other.num_vars
                and self.terms == other.terms)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(self.num_vars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def scale(self, c) -> "MultiPoly":
        c = Fraction(c)
        return MultiPoly(self.num_vars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.num_vars, out)

    def pow(self, k: int) -> "MultiPoly":
        out = MultiPoly.constant(self.num_vars, 1)
        for _ in range(k):
            out = out * self
        return out

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for xi, ei in zip(point, e):
                v *= Fraction(xi) ** ei
            total += v
        return total

    def evaluate_array(self, points):
        """Vectorized float evaluation at points given either as one array
        of shape (..., num_vars) or as num_vars arrays, one per variable,
        that broadcast together.  Each term is evaluated on the broadcast
        shape of the variables it uses; the result has the broadcast shape
        of all of them."""
        import numpy as np
        xs = np.moveaxis(points, -1, 0) if isinstance(points, np.ndarray) else points
        out = np.zeros(np.broadcast_shapes(*(np.shape(x) for x in xs)))
        powers: dict[tuple[int, int], np.ndarray] = {}
        for e, c in self.terms.items():
            term = finite_float(c, "phase coefficient")
            for i, ei in enumerate(e):
                if ei:
                    if (i, ei) not in powers:
                        powers[i, ei] = xs[i] ** ei
                    term = term * powers[i, ei]
            out += term
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _grlex_key(item[0]))

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"x{i}^{ei}" for i, ei in enumerate(e) if ei)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + " + ".join(bits) + ")"


def _grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


def monomials(num_vars: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree <= max_degree, graded-lex order."""
    return [e for d in range(max_degree + 1)
            for e in sorted(tuple(c.count(i) for i in range(num_vars))
                            for c in combinations_with_replacement(range(num_vars), d))]


@lru_cache(maxsize=256)
def _pullbacks(pi: Mat, max_degree: int) -> MappingProxyType:
    """e∘pi for every monomial e of degree <= max_degree, keyed by e in
    graded-lex order, as a tuple of (exps, coeff) terms.  Each e != 0 is
    e' + unit_k, k the last variable e reads and e' earlier in the order,
    so e∘pi is e'∘pi times row k of pi: one sparse product per monomial."""
    forms = [[(i, a) for i, a in enumerate(row) if a != 0] for row in pi.entries]
    exponents = monomials(pi.rows, max_degree)
    table = {exponents[0]: (((0,) * pi.cols, Fraction(1)),)}
    for e in exponents[1:]:
        k = max(i for i, ei in enumerate(e) if ei)
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in table[e[:k] + (e[k] - 1,) + e[k + 1:]]:
            for i, a in forms[k]:
                key = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
                out[key] = out.get(key, 0) + c * a
        table[e] = tuple((exps, c) for exps, c in out.items() if c != 0)
    return MappingProxyType(table)


def compose(q: MultiPoly, pi: Mat) -> MultiPoly:
    """q composed with the linear map pi: q's coefficients summed against
    the pullbacks of its monomials."""
    if q.num_vars != pi.rows:
        raise ValueError("q variable count != pi rows")
    table = _pullbacks(pi, q.degree())
    return MultiPoly(pi.cols, _sum_pullbacks((c, table[e]) for e, c in q.terms.items()))


def compose_affine(p: MultiPoly, M: Mat, c: Sequence[Fraction]) -> MultiPoly:
    """p composed with the affine map x -> Mx + c (M square, over the same
    variables): p∘[M | c] with the extra variable set to 1."""
    if p.num_vars != M.rows or M.rows != M.cols or len(c) != M.rows:
        raise ValueError("affine map shape mismatch")
    lifted = compose(p, Mat([row + (ci,) for row, ci in zip(M.entries, c)]))
    return MultiPoly(M.cols, [(e[:-1], v) for e, v in lifted.terms.items()])


def _sum_pullbacks(scaled) -> dict[tuple[int, ...], Fraction]:
    """Σ c·pullback over (c, pullback) pairs, as exps -> coeff."""
    out: dict[tuple[int, ...], Fraction] = {}
    for c, pullback in scaled:
        for exps, v in pullback:
            out[exps] = out.get(exps, 0) + c * v
    return out


def _check_certificate(p: MultiPoly, scaled) -> None:
    """Raise unless Σ c·pullback over the (c, pullback) pairs is p."""
    if MultiPoly(p.num_vars, _sum_pullbacks(scaled)) != p:
        raise ValueError("invalid certificate: pullback sum does not equal the phase")


def coefficient_vector(p: MultiPoly, basis: list[tuple[int, ...]]) -> list[Fraction]:
    index = {e: i for i, e in enumerate(basis)}
    vec = [Fraction(0)] * len(basis)
    for e, c in p.terms.items():
        if e not in index:
            raise ValueError(f"monomial {e} outside the degree-bounded basis")
        vec[index[e]] = c
    return vec


@lru_cache(maxsize=256)
def _degenerate_columns(pis: tuple[Mat, ...], max_degree: int):
    """Exact coefficient columns of q∘pi_j for every monomial q of degree
    <= max_degree over each map's target, read off the pullback tables.

    Returns (A, column metadata (j, exps), row monomials, the recorded
    elimination of A, a read-only float copy of A, and each column's
    pullback as a tuple of (exps, coeff)); nothing in it can be mutated.
    Only the quotient norm reads the float copy; it is all inf when an
    entry is too large for a float.
    """
    if not pis:
        raise ValueError("need at least one map")
    m = pis[0].cols
    for pi in pis:
        if pi.cols != m:
            raise ValueError("maps have differing ambient dimensions")
        if rank(pi) != pi.rows:
            raise ValueError("non-surjective map")
    row_basis = monomials(m, max_degree)
    tables = [_pullbacks(pi, max_degree) for pi in pis]
    meta = tuple((j, e) for j, table in enumerate(tables) for e in table)
    pullbacks = tuple(pb for table in tables for pb in table.values())
    index = {e: r for r, e in enumerate(row_basis)}
    rows = [[Fraction(0)] * len(pullbacks) for _ in row_basis]
    for col, pullback in enumerate(pullbacks):
        for exps, v in pullback:
            rows[index[exps]][col] = v
    A = Mat(rows)
    import numpy as np
    try:
        Af = np.array([[float(x) for x in row] for row in A.entries])
    except OverflowError:  # the quotient norm, its only reader, refuses it
        Af = np.full((A.rows, A.cols), np.inf)
    Af.flags.writeable = False
    return A, meta, tuple(row_basis), factor(A), Af, pullbacks


def degenerate_basis(pis: Sequence[Mat], max_degree: int) -> Mat:
    """Matrix whose column span is the degenerate subspace, in the
    graded-lex monomial coordinate system."""
    return _degenerate_columns(tuple(pis), max_degree)[0]


@dataclass
class DegeneracyReport:
    is_degenerate: bool
    certificate: Optional[list[tuple[str, MultiPoly]]]
    quotient_norm: float
    residual: dict[tuple[int, ...], float]


def is_degenerate(p: MultiPoly, pis: Sequence[Mat], max_degree: int | None = None,
                  labels: Sequence[str] | None = None) -> DegeneracyReport:
    """Decide exactly whether p is a sum of pullbacks through the maps.

    When it is, the certificate polynomials reproduce p exactly (checked
    before return); when it is not, the report carries the float residual.
    """
    pis = tuple(pis)
    for pi in pis:
        if pi.cols != p.num_vars:
            raise ValueError(f"map has {pi.cols} columns but the polynomial "
                             f"has {p.num_vars} variables")
    D = max_degree if max_degree is not None else max(p.degree(), 1)
    if p.degree() > D:
        raise ValueError("polynomial degree exceeds the requested bound")
    if labels is None:
        labels = [f"pi{j}" for j in range(len(pis))]
    _, meta, row_basis, F, Af, pullbacks = _degenerate_columns(pis, D)
    b = coefficient_vector(p, list(row_basis))
    sol = F.solve(b)
    if sol is not None:
        cert_terms = [{} for _ in pis]
        for c, (j, e) in zip(sol, meta):
            if c != 0:
                cert_terms[j][e] = c
        _check_certificate(p, ((c, pb) for c, pb in zip(sol, pullbacks) if c != 0))
        cert_polys = [MultiPoly(pi.rows, t) for pi, t in zip(pis, cert_terms)]
        return DegeneracyReport(True, list(zip(labels, cert_polys)), 0.0, {})
    resid, qnorm = _float_residual(Af, b)
    residual = {e: float(r) for e, r in zip(row_basis, resid) if abs(r) > 0}
    return DegeneracyReport(False, None, qnorm, residual)


def _float_residual(Af, b: Sequence[Fraction]):
    """b's least-squares residual off the columns of Af, and its norm."""
    import numpy as np
    bf = np.array([finite_float(x, "phase coefficient") for x in b])
    if not np.isfinite(Af).all():
        raise ValueError("matrix entry is too large for a float")
    coeffs, *_ = np.linalg.lstsq(Af, bf, rcond=None)
    resid = bf - Af @ coeffs
    return resid, float(np.linalg.norm(resid))


def nd_norm(p: MultiPoly, pis: Sequence[Mat], max_degree: int | None = None) -> float:
    """Euclidean distance of p's coefficient vector from the degenerate
    subspace; exactly 0.0 iff p is degenerate (exact rank short-circuit)."""
    return is_degenerate(p, pis, max_degree).quotient_norm


def slice_subtract(p: MultiPoly, step: SplittingStep, z: Sequence[Fraction]) -> MultiPoly:
    """Subtract from p its value frozen along the split entry's nullspace:
    Q(x, y) = P(x, y) - P(x, z) in the coordinates splitting the ambient
    space as (W' + W'') x V0.

    The subtracted part is a polynomial pullback through any map with
    nullspace V0, so Q and P lie in the same nondegeneracy class.
    """
    v0 = step.parent.subspace(step.witness.alpha0)
    m = v0.ambient_dim
    if p.num_vars != m:
        raise ValueError("polynomial variable count != ambient dimension")
    w_basis = step.Wprime.basis + step.Wdoubleprime.basis
    if len(z) != v0.dim:
        raise ValueError("z must have one coordinate per V0 basis vector")
    cols = w_basis + v0.basis
    if len(cols) != m:
        raise ValueError("splitting data does not span the ambient space")
    T = Mat(cols).transpose()  # columns: W basis then V0 basis
    kappa0 = len(w_basis)
    # inverse of T from one elimination of [T | I]
    eye = Mat.identity(m).entries
    R, _, pivots = rref(Mat([row + eye[i] for i, row in enumerate(T.entries)]))
    if pivots != list(range(m)):
        raise ValueError("splitting data is degenerate (T not invertible)")
    # projection onto W along V0: the W columns of T times the W rows of T^-1
    Tinv_w = Mat([row[m:] for row in R.entries[:kappa0]], cols=m)
    proj = Mat([row[:kappa0] for row in T.entries]).matmul(Tinv_w)
    z0 = Mat([z]).matmul(v0.basis_matrix()).entries[0]
    frozen = compose_affine(p, proj, z0)
    return p - frozen


# ---------------------------------------------------------------------------
# JSON wire formats


def poly_to_json(p: MultiPoly) -> dict:
    return {"vars": p.num_vars,
            "terms": [{"exps": list(e), "coeff": frac_str(c)}
                      for e, c in p.sorted_terms()]}


def poly_from_json(obj: dict) -> MultiPoly:
    n = int(obj["vars"])
    return MultiPoly(n, [(tuple(t["exps"]), Fraction(str(t["coeff"])))
                         for t in obj["terms"]])


def mat_to_json(M: Mat) -> list[list[str]]:
    return [[frac_str(x) for x in row] for row in M.entries]


def mat_from_json(rows) -> Mat:
    return Mat([[Fraction(str(x)) for x in row] for row in rows])


def report_to_json(report: DegeneracyReport) -> dict:
    return {
        "is_degenerate": report.is_degenerate,
        "certificate": (None if report.certificate is None else
                        [{"label": lab, "poly": poly_to_json(q)}
                         for lab, q in report.certificate]),
        "quotient_norm": report.quotient_norm,
        "residual": [{"exps": list(e), "coeff": c}
                     for e, c in sorted(report.residual.items(),
                                        key=lambda item: _grlex_key(item[0]))],
    }
