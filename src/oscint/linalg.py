"""Exact linear algebra over Q: matrices, reduced echelon forms, kernels,
subspace intersections/sums, and seeded generic subspace sampling.

Every rank / membership decision here is exact.  A subspace is kept as
primitive integer rows: each row of its reduced row-echelon basis scaled
to coprime integers with a positive pivot.  That form is as canonical as
the reduced basis, so equality of subspaces is equality of
representations, and sums, intersections and annihilators run on Python
ints through one fraction-free Gauss-Jordan reduction.  factor records
the steps that solve replays from that same reduction, run on the matrix
rows scaled to integers.  Fractions appear only at the boundaries: Mat
entries, Subspace.basis (the reduced rows rref, basis_matrix and the
polynomial layer read), and the Factorisation that solve replays.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence


class GenericityFailure(Exception):
    """A randomized draw failed its exact verification too many times."""


# retry cap for generic draws; failures surface, never absorbed
RANDOM_SUBSPACE_MAX_DRAWS = 64

# the constructors of the frozen value types set their fields through this
_set = object.__setattr__


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def frac_str(x: Fraction) -> str:
    """Compact "p" or "p/q" form used by all JSON wire formats."""
    x = _frac(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def finite_float(x, what: str) -> float:
    """x as a float, checked finite: a ValueError naming what, never an
    OverflowError, when x is too large for a float."""
    try:
        f = float(x)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None
    if not math.isfinite(f):
        raise ValueError(f"{what} must be finite")
    return f


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Mat:
    """Dense matrix with Fraction entries, row-major: a frozen value whose
    entries are a tuple of tuples, so it is safe to hash and cache."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __init__(self, entries: Sequence[Sequence], cols: int | None = None):
        entries = tuple(tuple(_frac(x) for x in row) for row in entries)
        cols = len(entries[0]) if entries else cols or 0
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
        _set(self, "rows", len(entries))
        _set(self, "cols", cols)
        _set(self, "entries", entries)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def __repr__(self):
        return f"Mat({self.entries!r})"

    def transpose(self) -> "Mat":
        return Mat([[row[j] for row in self.entries] for j in range(self.cols)],
                   cols=self.rows)

    def matmul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matmul")
        cols = other.transpose().entries
        return Mat([[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
                    for row in self.entries], cols=other.cols)


class Factorisation(NamedTuple):
    """The row operations of one Gauss-Jordan elimination of a matrix.

    Step k made row k the pivot row of column pivots[k]: it swapped rows
    k and swap, divided row k by pivot, then subtracted factor times row k
    from each (row, factor) in elims.  A value of tuples, safe to cache.
    """

    rows: int
    cols: int
    pivots: tuple[int, ...]
    steps: tuple[tuple[int, Fraction, tuple[tuple[int, Fraction], ...]], ...]

    def solve(self, b: Sequence[Fraction]) -> list[Fraction] | None:
        """Replay the row operations on b; see `solve`."""
        if len(b) != self.rows:
            raise ValueError("dimension mismatch in solve")
        b = [_frac(x) for x in b]
        for r, (swap, pivot, elims) in enumerate(self.steps):
            b[r], b[swap] = b[swap], b[r]
            if b[r]:
                y = b[r] = b[r] / pivot
                for i, f in elims:
                    b[i] -= f * y
        if any(b[len(self.pivots):]):
            return None
        x = [Fraction(0)] * self.cols
        for i, pc in enumerate(self.pivots):
            x[pc] = b[i]
        return x


def _int_row(row: Sequence) -> list[int]:
    """A rational row scaled by the lcm of its denominators."""
    if all(type(x) is int for x in row):
        return list(row)
    row = [_frac(x) for x in row]
    d = lcm(*[x.denominator for x in row])
    return [x.numerator * (d // x.denominator) for x in row]


def _gauss_jordan(a: list[Sequence[int]], ncols: int):
    """Fraction-free Gauss-Jordan reduction of the integer rows a, in place
    (FFGJ: Bareiss, Math. Comp. 22 (1968); Nakos, Turner and Williams,
    SIGSAM Bull. 31 (1997)).

    A step with pivot p in column c cross-multiplies each other row by p,
    subtracts the multiple of the pivot row that clears column c, and
    divides exactly by the previous pivot, so every entry stays a minor of
    the input.  A row with a zero in column c is left as it is instead:
    a[i] stands for the row a[i] * prev / level[i], with prev the last
    pivot, so a later step divides it by level[i].  Only the pivot row is
    brought up to date before its step.

    Yields each step (r, c, swap, prev, level) after rows r and swap are
    swapped and before column c is eliminated.  At the end the first r
    rows are multiples of the reduced row-echelon rows; the rest are zero.
    """
    level = [1] * len(a)
    prev = 1
    r = 0
    for c in range(ncols):
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        level[r], level[piv] = level[piv], level[r]
        if level[r] != prev:
            a[r] = [x * prev // level[r] for x in a[r]]
            level[r] = prev
        yield r, c, piv, prev, level
        prow = a[r]
        p = prow[c]
        for i, row in enumerate(a):
            f = row[c]
            if f and i != r:
                a[i] = [(p * x - f * y) // level[i] for x, y in zip(row, prow)]
                level[i] = p
        level[r] = prev = p
        r += 1


def _reduce(rows: Sequence[Sequence[int]], ncols: int) -> tuple[tuple, tuple]:
    """The nonzero rows of the reduced row-echelon form of integer rows,
    each made primitive with a positive pivot, and their pivot columns."""
    a = [row for row in rows if any(row)]
    pivots = [c for _, c, *_ in _gauss_jordan(a, ncols)]
    out = []
    for row, c in zip(a, pivots):
        g = gcd(*row) if row[c] > 0 else -gcd(*row)
        out.append(tuple(x // g for x in row))
    return tuple(out), tuple(pivots)


def rref(M: Mat) -> tuple[Mat, int, list[int]]:
    """Reduced row echelon form; returns (R, rank, pivot_cols)."""
    S = Subspace(M.cols, M.entries)
    R = S.basis + ((Fraction(0),) * M.cols,) * (M.rows - S.dim)
    return Mat(R, cols=M.cols), S.dim, list(S.pivots)


def factor(M: Mat) -> Factorisation:
    """Record the Gauss-Jordan elimination of M once, to solve against it
    many times.

    The steps are read off the fraction-free reduction of M's rows, row i
    scaled to integers by s[i], the lcm of its denominators: at step r the
    pivot is a[r][c] / (prev * s[r]), an earlier pivot row j has the
    multiplier a[j][c] / level[j], and a later row i has a[i][c] /
    (level[i] * s[i]).
    """
    a = [_int_row(row) for row in M.entries]
    s = [lcm(*[x.denominator for x in row]) for row in M.entries]
    pivots = []
    steps = []
    for r, c, swap, prev, level in _gauss_jordan(a, M.cols):
        s[r], s[swap] = s[swap], s[r]
        elims = tuple((i, Fraction(row[c], level[i] if i < r else level[i] * s[i]))
                      for i, row in enumerate(a) if row[c] and i != r)
        pivots.append(c)
        steps.append((swap, Fraction(a[r][c], prev * s[r]), elims))
    return Factorisation(M.rows, M.cols, tuple(pivots), tuple(steps))


def rank(M: Mat) -> int:
    return Subspace(M.cols, M.entries).dim


def kernel_basis(M: Mat) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of {v : Mv = 0}, the annihilator of M's row space."""
    return constraint_matrix(Subspace(M.cols, M.entries)).entries


def solve(A: Mat, b: Sequence[Fraction]) -> list[Fraction] | None:
    """One exact solution of Ax = b, or None if inconsistent.

    Replays the recorded elimination of A on b: the same pivots and the
    same exact row operations as reducing [A | b], so the same answer.
    b is inconsistent when an entry at or below row rank(A) is nonzero.
    Free variables are set to zero, so the answer is deterministic.
    """
    return factor(A).solve(b)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Subspace:
    """Linear subspace of Q^m in canonical form, a frozen value: `rows` are
    the rows of its reduced row-echelon basis, each scaled to coprime
    integers with a positive pivot, and `pivots` their pivot columns.

    The canonical form makes equality of subspaces equality of
    representations, which every general-position predicate relies on.
    Vectors given to the constructor may be rational; each has its
    denominators cleared on entry.
    """

    ambient_dim: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...] = field(compare=False)  # fixed by rows: not in == or hash

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence]):
        rows = [_int_row(v) for v in vectors]
        if any(len(row) != ambient_dim for row in rows):
            raise ValueError("vector length != ambient dimension")
        rows, pivots = _reduce(rows, ambient_dim)
        _set(self, "ambient_dim", ambient_dim)
        _set(self, "rows", rows)
        _set(self, "pivots", pivots)

    @staticmethod
    def _canonical(m: int, rows, pivots) -> "Subspace":
        """The subspace whose canonical rows and pivots these already are."""
        S = object.__new__(Subspace)
        _set(S, "ambient_dim", m)
        _set(S, "rows", tuple(rows))
        _set(S, "pivots", tuple(pivots))
        return S

    @staticmethod
    def zero(m: int) -> "Subspace":
        return Subspace._canonical(m, (), ())

    @staticmethod
    def full(m: int) -> "Subspace":
        return Subspace._canonical(
            m, (tuple(int(i == j) for j in range(m)) for i in range(m)), range(m))

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """The reduced row-echelon basis: each row divided by its pivot."""
        return tuple(tuple(Fraction(x, row[c]) for x in row)
                     for row, c in zip(self.rows, self.pivots))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.dim

    def __repr__(self):
        return f"Subspace(m={self.ambient_dim}, dim={self.dim})"

    def basis_matrix(self) -> Mat:
        return Mat(self.basis, cols=self.ambient_dim)

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def head(self, k: int) -> "Subspace":
        """The span of the first k canonical rows, with no elimination: a
        prefix of a reduced basis is reduced."""
        return Subspace._canonical(self.ambient_dim, self.rows[:k], self.pivots[:k])

    def annihilator(self) -> "Subspace":
        """{v : v·s = 0 for every s in this subspace}, in canonical form."""
        return _span(self.ambient_dim, _annihilator(self)[0])


def _span(m: int, rows: Sequence[Sequence[int]]) -> Subspace:
    """The subspace of Q^m spanned by integer rows of length m."""
    return Subspace._canonical(m, *_reduce(rows, m))


def _annihilator(S: Subspace) -> tuple[list[list[int]], int]:
    """Integer rows spanning the annihilator of S, and their scale L.

    Read off the canonical rows with no elimination: with L the lcm of the
    pivot entries, each free column f gives the row with L at f and
    -L * row[f] / row[pivot] at each basis row's pivot column.  Divided by
    L, these are the rows of constraint_matrix.
    """
    m = S.ambient_dim
    L = lcm(*[row[c] for row, c in zip(S.rows, S.pivots)])
    scaled = [(c, row, L // row[c]) for row, c in zip(S.rows, S.pivots)]
    out = []
    for f in range(m):
        if f in S.pivots:
            continue
        v = [0] * m
        v[f] = L
        for c, row, s in scaled:
            v[c] = -s * row[f]
        out.append(v)
    return out, L


def kernel(M: Mat) -> Subspace:
    """The nullspace of M as a Subspace of Q^cols."""
    return Subspace(M.cols, M.entries).annihilator()


def intersect(A: Subspace, B: Subspace) -> Subspace:
    """Exact intersection of two subspaces of the same ambient space."""
    if A.ambient_dim != B.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if A.is_full():
        return B
    if B.is_full():
        return A
    # x = c·rowsA lies in B  <=>  B's equations vanish on it
    eqs = [[sum(map(int.__mul__, e, a)) for a in A.rows] for e in _annihilator(B)[0]]
    coeffs = _annihilator(_span(A.dim, eqs))[0]
    cols = list(zip(*A.rows))
    return _span(A.ambient_dim, [[sum(map(int.__mul__, c, col)) for col in cols]
                                 for c in coeffs])


def subspace_sum(A: Subspace, B: Subspace) -> Subspace:
    """A + B, the span of both bases."""
    if A.ambient_dim != B.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return _span(A.ambient_dim, A.rows + B.rows)


def constraint_matrix(S: Subspace) -> Mat:
    """A (codim x m) matrix whose kernel is exactly S.

    Rows are a canonical basis of the annihilator of S, read off the
    canonical rows with no elimination: each free column f gives the row
    with 1 at f and minus column f of the reduced basis at the pivots.
    Any linear map with nullspace S is row-equivalent to this one.
    """
    rows, L = _annihilator(S)
    return Mat([[Fraction(x, L) for x in v] for v in rows], cols=S.ambient_dim)


def random_subspace(m: int, dim: int, seed: int, coeff_bound: int = 10) -> Subspace:
    """Seeded random subspace with small-integer basis entries.

    Draws are retried until exactly independent; deterministic given the
    seed.  Raises GenericityFailure after RANDOM_SUBSPACE_MAX_DRAWS draws.
    """
    if not 0 <= dim <= m:
        raise ValueError("dim out of range")
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    rng = random.Random(seed)
    for _ in range(RANDOM_SUBSPACE_MAX_DRAWS):
        vecs = [[rng.randint(-coeff_bound, coeff_bound) for _ in range(m)]
                for _ in range(dim)]
        sub = Subspace(m, vecs)
        if sub.dim == dim:
            return sub
    raise GenericityFailure(f"no independent {dim}-set in Q^{m} after "
                            f"{RANDOM_SUBSPACE_MAX_DRAWS} draws")
