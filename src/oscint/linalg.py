"""Exact rational linear algebra over Q: matrices, reduced echelon forms,
kernels, subspace intersections/sums, and seeded generic subspace sampling.

All arithmetic uses fractions.Fraction, so every rank / membership decision
here is exact.  Subspaces are kept in reduced row-echelon basis form, which
makes equality plain representation equality and annihilators a read-off.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence


class GenericityFailure(Exception):
    """A randomized draw failed its exact verification too many times."""


# retry cap for generic draws; failures surface, never absorbed
RANDOM_SUBSPACE_MAX_DRAWS = 64


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def frac_str(x: Fraction) -> str:
    """Compact "p" or "p/q" form used by all JSON wire formats."""
    x = _frac(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Mat:
    """Dense matrix with Fraction entries, row-major, held as a tuple of
    tuples so its rows cannot be modified in place.  Mats are hashed and
    cached; do not rebind their attributes."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence], cols: int | None = None):
        self.entries = tuple(tuple(_frac(x) for x in row) for row in entries)
        self.rows = len(self.entries)
        if self.entries:
            self.cols = len(self.entries[0])
        else:
            self.cols = 0 if cols is None else cols
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

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

    def to_float_array(self):
        import numpy as np

        return np.array([[float(x) for x in row] for row in self.entries], dtype=float)


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


def _eliminate(M: Mat) -> tuple[list[list[Fraction]], Factorisation]:
    """Gauss-Jordan elimination of M, recording its row operations."""
    a = [list(row) for row in M.entries]
    nrows, ncols = M.rows, M.cols
    pivots: list[int] = []
    steps = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv = None
        for i in range(r, nrows):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pivot = a[r][c]
        a[r] = [x / pivot for x in a[r]]
        elims = []
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                elims.append((i, f))
        pivots.append(c)
        steps.append((piv, pivot, tuple(elims)))
        r += 1
    return a, Factorisation(nrows, ncols, tuple(pivots), tuple(steps))


def rref(M: Mat) -> tuple[Mat, int, list[int]]:
    """Reduced row echelon form; returns (R, rank, pivot_cols)."""
    a, F = _eliminate(M)
    return Mat(a, cols=M.cols), len(F.pivots), list(F.pivots)


def factor(M: Mat) -> Factorisation:
    """Record the elimination of M once, to solve against it many times."""
    return _eliminate(M)[1]


def rank(M: Mat) -> int:
    return rref(M)[1]


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


class Subspace:
    """Linear subspace of Q^m, stored as a reduced row-echelon basis
    (a tuple of tuples, so it cannot be modified in place; do not rebind
    its attributes).

    The canonical form makes equality of subspaces equality of
    representations, which every general-position predicate relies on.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence]):
        M = Mat(vectors, cols=ambient_dim)
        if M.cols != ambient_dim:
            raise ValueError("vector length != ambient dimension")
        R, rk, _ = rref(M)
        self.basis = R.entries[:rk]
        self.ambient_dim = ambient_dim

    @staticmethod
    def zero(m: int) -> "Subspace":
        return Subspace(m, [])

    @staticmethod
    def full(m: int) -> "Subspace":
        return Subspace(m, Mat.identity(m).entries)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.dim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(m={self.ambient_dim}, dim={self.dim})"

    def basis_matrix(self) -> Mat:
        return Mat(self.basis, cols=self.ambient_dim)

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim


def kernel(M: Mat) -> Subspace:
    """The nullspace of M as a Subspace of Q^cols."""
    return Subspace(M.cols, kernel_basis(M))


def intersect(A: Subspace, B: Subspace) -> Subspace:
    """Exact intersection of two subspaces of the same ambient space."""
    if A.ambient_dim != B.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if A.is_full():
        return B
    if B.is_full():
        return A
    # x = c·basisA lies in B  <=>  B's equations vanish on it
    basis = A.basis_matrix()
    coeffs = kernel_basis(constraint_matrix(B).matmul(basis.transpose()))
    return Subspace(A.ambient_dim, Mat(coeffs, cols=A.dim).matmul(basis).entries)


def subspace_sum(A: Subspace, B: Subspace) -> Subspace:
    """A + B, the span of both bases."""
    if A.ambient_dim != B.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace(A.ambient_dim, A.basis + B.basis)


def constraint_matrix(S: Subspace) -> Mat:
    """A (codim x m) matrix whose kernel is exactly S.

    Rows are a canonical basis of the annihilator of S, read off the
    reduced basis with no elimination: each free column f gives the row
    with 1 at f and minus column f of the basis at the pivots (each basis
    row's first nonzero entry).  Any linear map with nullspace S is
    row-equivalent to this one.
    """
    m = S.ambient_dim
    pivots = [next(c for c, x in enumerate(row) if x) for row in S.basis]
    rows = []
    for f in (c for c in range(m) if c not in pivots):
        v = [Fraction(0)] * m
        v[f] = Fraction(1)
        for row, pc in zip(S.basis, pivots):
            v[pc] = -row[f]
        rows.append(v)
    return Mat(rows, cols=m)


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
        vecs = [[Fraction(rng.randint(-coeff_bound, coeff_bound)) for _ in range(m)]
                for _ in range(dim)]
        sub = Subspace(m, vecs)
        if sub.dim == dim:
            return sub
    raise GenericityFailure(f"no independent {dim}-set in Q^{m} after "
                            f"{RANDOM_SUBSPACE_MAX_DRAWS} draws")
