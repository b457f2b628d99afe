import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oscint.linalg import (
    Factorisation,
    GenericityFailure,
    Mat,
    Subspace,
    constraint_matrix,
    factor,
    intersect,
    kernel,
    kernel_basis,
    random_subspace,
    rank,
    rref,
    solve,
    subspace_sum,
)
from oscint.poly import degenerate_basis


def test_rref_identity():
    M = Mat.identity(2)
    R, rk, pivots = rref(M)
    assert R == M
    assert rk == 2
    assert pivots == [0, 1]


def test_rref_dependent_rows():
    R, rk, _ = rref(Mat([[1, 2], [2, 4]]))
    assert rk == 1
    assert R == Mat([[1, 2], [0, 0]])


def test_rref_sum_map_rank():
    # (x1+x2, y1+y2) as a 2x4 matrix
    assert rank(Mat([[1, 1, 0, 0], [0, 0, 1, 1]])) == 2


def test_rref_idempotent():
    M = Mat([[2, 4, 6], [1, 3, 5], [0, 2, 4]])
    R1, *_ = rref(M)
    R2, *_ = rref(R1)
    assert R1 == R2


def test_kernel_coordinate_map():
    # (x1, y1) on (x1, x2, y1, y2): kernel is span{e2, e4}
    K = kernel(Mat([[1, 0, 0, 0], [0, 0, 1, 0]]))
    assert K == Subspace(4, [[0, 1, 0, 0], [0, 0, 0, 1]])


def test_kernel_zero_map_is_full():
    K = kernel(Mat([[0, 0, 0]]))
    assert K.is_full()


def test_kernel_sum_map():
    K = kernel(Mat([[1, 1, 0, 0], [0, 0, 1, 1]]))
    assert K == Subspace(4, [[1, -1, 0, 0], [0, 0, 1, -1]])


def test_intersect_with_full_space():
    B = Subspace(3, [[1, 2, 3]])
    assert intersect(Subspace.full(3), B) is B
    assert intersect(B, Subspace.full(3)) is B


def test_mat_and_subspace_are_immutable():
    M = Mat([[1, 2], [3, 4]])
    S = Subspace(2, [[1, 2]])
    for rows in (M.entries, S.basis):
        with pytest.raises(TypeError):
            rows[0] = (Fraction(0), Fraction(0))
        with pytest.raises(TypeError):
            rows[0][0] = Fraction(0)
    assert M == Mat([[1, 2], [3, 4]])
    assert S == Subspace(2, [[1, 2]])


def test_intersect_complementary_planes():
    A = Subspace(4, [[0, 1, 0, 0], [0, 0, 0, 1]])
    B = Subspace(4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    assert intersect(A, B).is_zero()


def test_intersect_self():
    A = Subspace(4, [[1, 2, 3, 4], [0, 1, 0, 1]])
    assert intersect(A, A) == A


def test_sum_complementary_planes():
    A = Subspace(4, [[0, 1, 0, 0], [0, 0, 0, 1]])
    B = Subspace(4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    assert subspace_sum(A, B).is_full()


def test_sum_with_zero_and_self():
    A = Subspace(3, [[1, 1, 0]])
    assert subspace_sum(A, Subspace.zero(3)) == A
    assert subspace_sum(A, A) == A


def test_intersect_with_zero_subspace():
    Z = Subspace.zero(3)
    for A in (Subspace(3, [[1, 2, 3], [0, 1, 1]]), Z, Subspace.full(3)):
        assert intersect(A, Z) == Z
        assert intersect(Z, A) == Z


def _stacked_kernel_intersect(A: Subspace, B: Subspace) -> Subspace:
    """A ∩ B by stacking both bases: x = c·basisA = d·basisB, solved for
    (c, d) as the kernel of the m x (p+q) matrix [basisAᵀ | -basisBᵀ]."""
    m, p, q = A.ambient_dim, A.dim, B.dim
    stacked = Mat([[A.basis[k][i] for k in range(p)] + [-B.basis[k][i] for k in range(q)]
                   for i in range(m)])
    vecs = []
    for cd in kernel_basis(stacked):
        vecs.append([sum((cd[k] * A.basis[k][i] for k in range(p)), Fraction(0))
                     for i in range(m)])
    return Subspace(m, vecs)


def test_intersect_matches_stacked_kernel_reference():
    rng = random.Random(10)
    seen = {"zero": 0, "full": 0, "meet": 0}
    for k in range(320):
        m = rng.randint(3, 6)

        def vecs(n):
            return [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)]
                    for _ in range(n)]

        a, b = vecs(rng.randint(0, m)), vecs(rng.randint(0, m))
        if k % 2:  # make the pair share a vector
            common = vecs(1)
            a, b = a + common, common + b
        A, B = Subspace(m, a), Subspace(m, b)
        got = intersect(A, B)
        assert got == _stacked_kernel_intersect(A, B), (k, A.basis, B.basis)
        seen["zero"] += A.is_zero() or B.is_zero()
        seen["full"] += A.is_full() or B.is_full()
        seen["meet"] += got.dim > 0 and not (A.is_full() or B.is_full())
    assert all(n >= 10 for n in seen.values()), seen


def _kernel_basis_by_elimination(M: Mat) -> list[list[Fraction]]:
    """{v : Mv = 0} read off a fresh reduced echelon form of M."""
    R, _, pivots = rref(M)
    n = M.cols
    basis = []
    for fc in [c for c in range(n) if c not in pivots]:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -R.entries[i][fc]
        basis.append(v)
    return basis


def test_annihilator_read_off_matches_elimination_reference():
    rng = random.Random(11)
    seen = {"zero": 0, "full": 0, "zero_row": 0, "tall": 0, "empty": 0}
    for k in range(360):
        m = 1 + k % 7
        rows = rng.randint(0, m + 3)
        # rank at most r: rows are combinations of r vectors, some of them zero
        r = rng.randint(0, min(rows, m))
        base = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
                for _ in range(r)]
        entries = [[sum((rng.randint(-2, 2) * b[i] for b in base), Fraction(0))
                    for i in range(m)] for _ in range(rows)]
        if k % 3 == 0 and entries:
            entries[rng.randrange(rows)] = [Fraction(0)] * m
        if k % 5 == 0:
            entries = [list(row) for row in Mat.identity(m).entries] + entries
        M = Mat(entries, cols=m)
        assert Mat(kernel_basis(M), cols=m) == Mat(_kernel_basis_by_elimination(M), cols=m)
        S = Subspace(m, entries)
        for T in (S, Subspace.zero(m), Subspace.full(m)):
            expect = Mat(_kernel_basis_by_elimination(T.basis_matrix()), cols=m)
            assert constraint_matrix(T) == expect, (k, T.basis)
        seen["zero"] += S.is_zero()
        seen["full"] += S.is_full()
        seen["zero_row"] += any(not any(row) for row in M.entries)
        seen["tall"] += M.rows > M.cols
        seen["empty"] += M.rows == 0
    assert all(n >= 10 for n in seen.values()), seen


def test_empty_shapes_keep_their_width():
    R, rk, pivots = rref(Mat([], cols=3))
    assert (R, rk, pivots) == (Mat([], cols=3), 0, [])
    assert R.cols == 3
    T = Mat([[], []]).transpose()  # 2x0 -> 0x2
    assert (T.rows, T.cols) == (0, 2)
    P = Mat([], cols=2).matmul(Mat([[1, 2, 3], [4, 5, 6]]))  # (0x2)(2x3) -> 0x3
    assert (P.rows, P.cols) == (0, 3)
    Z = Mat([[], []]).matmul(Mat([], cols=4))  # (2x0)(0x4) -> 2x4 zeros
    assert Z == Mat([[0] * 4] * 2)


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError):
        intersect(Subspace.full(2), Subspace.full(3))
    with pytest.raises(ValueError):
        subspace_sum(Subspace.full(2), Subspace.full(3))


def test_random_subspace_trivial_dims():
    assert random_subspace(4, 0, seed=5).is_zero()
    assert random_subspace(4, 4, seed=1).is_full()
    for m in (1, 3, 6):
        for seed in (0, 7):
            assert random_subspace(m, 0, seed=seed) == Subspace.zero(m)


def test_random_subspace_deterministic():
    a = random_subspace(4, 2, seed=7, coeff_bound=10)
    b = random_subspace(4, 2, seed=7, coeff_bound=10)
    assert a == b
    assert a.dim == 2


def test_random_subspace_bad_args():
    with pytest.raises(ValueError):
        random_subspace(3, 5, seed=0)
    with pytest.raises(ValueError):
        random_subspace(3, 1, seed=0, coeff_bound=0)


def test_constraint_matrix_round_trip():
    S = Subspace(4, [[1, 2, 0, 1], [0, 0, 1, 3]])
    assert kernel(constraint_matrix(S)) == S
    # zero and full edge cases
    assert kernel(constraint_matrix(Subspace.zero(3))).is_zero()
    for m in (1, 3, 5):
        assert constraint_matrix(Subspace.zero(m)) == Mat.identity(m)


def test_solve_consistent_and_inconsistent():
    A = Mat([[1, 2], [2, 4]])
    assert solve(A, [Fraction(1), Fraction(2)]) is not None
    assert solve(A, [Fraction(1), Fraction(3)]) is None


def _reference_solve(A: Mat, b):
    """Gauss-Jordan on [A | b] choosing the largest pivot in each column.

    The reduced form of [A | b] does not depend on the pivot rows chosen,
    so this must give solve's answer: None when the last column holds a
    pivot, else x[pivot] = reduced b, with the free variables at zero."""
    aug = [list(row) + [b[i]] for i, row in enumerate(A.entries)]
    pivots = []
    r = 0
    for c in range(A.cols + 1):
        rows = [i for i in range(r, len(aug)) if aug[i][c] != 0]
        if not rows:
            continue
        best = max(rows, key=lambda i: abs(aug[i][c]))
        aug[r], aug[best] = aug[best], aug[r]
        head = aug[r][c]
        aug[r] = [x / head for x in aug[r]]
        for i in range(len(aug)):
            if i != r:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if A.cols in pivots:
        return None
    x = [Fraction(0)] * A.cols
    for i, c in enumerate(pivots):
        x[c] = aug[i][-1]
    return x


def test_solve_matches_reference_gauss_jordan():
    rng = random.Random(2024)
    seen = {"rank_deficient": 0, "inconsistent": 0, "zero_b": 0, "empty": 0, "swaps": 0}
    for k in range(200):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        # A = B C with inner size k <= min(rows, cols) has rank <= k
        inner = rng.randint(0, min(rows, cols))
        B = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(inner)]
             for _ in range(rows)]
        C = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(inner)]
        A = Mat([[sum((B[i][t] * C[t][j] for t in range(inner)), Fraction(0))
                  for j in range(cols)] for i in range(rows)], cols=cols)
        if k % 4 >= 2:  # zeros on the diagonal make the elimination swap rows
            A = Mat([[x if rng.random() < 0.5 else Fraction(0) for x in row]
                     for row in A.entries], cols=cols)
        kind = k % 3
        if kind == 0:
            b = [Fraction(0)] * rows
        elif kind == 1:
            y = [Fraction(rng.randint(-4, 4)) for _ in range(cols)]
            b = [sum((A.entries[i][j] * y[j] for j in range(cols)), Fraction(0))
                 for i in range(rows)]
        else:
            b = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(rows)]
        x = solve(A, b)
        assert x == _reference_solve(A, b)
        if x is not None:
            assert [sum((A.entries[i][j] * x[j] for j in range(cols)), Fraction(0))
                    for i in range(rows)] == b
        seen["rank_deficient"] += rank(A) < min(rows, cols)
        seen["inconsistent"] += x is None
        seen["zero_b"] += not any(b)
        seen["empty"] += rows == 0 or cols == 0
        seen["swaps"] += any(swap != r for r, (swap, _, _) in enumerate(factor(A).steps))
    assert all(n >= 10 for n in seen.values()), seen
    with pytest.raises(ValueError):
        solve(Mat([[1, 2], [3, 4]]), [Fraction(1)])
    with pytest.raises(ValueError):
        solve(Mat([], cols=3), [Fraction(1)])


@st.composite
def subspaces(draw, m=4):
    dim = draw(st.integers(0, m))
    seed = draw(st.integers(0, 10**6))
    return random_subspace(m, dim, seed=seed, coeff_bound=5)


@given(subspaces(), subspaces())
@settings(max_examples=60, deadline=None)
def test_dimension_formula(A, B):
    assert subspace_sum(A, B).dim + intersect(A, B).dim == A.dim + B.dim


@given(subspaces())
@settings(max_examples=40, deadline=None)
def test_kernel_constraint_round_trip(S):
    assert kernel(constraint_matrix(S)) == S


@given(subspaces())
@settings(max_examples=40, deadline=None)
def test_basis_entries_stay_reduced(S):
    for v in S.basis:
        for x in v:
            assert isinstance(x, Fraction)
            assert x.denominator > 0


# --- the Fraction subspace layer that the integer rows replaced --------------

def _frac_gauss_jordan(entries, m):
    """Gauss-Jordan over Fractions, first nonzero pivot in each column:
    (every row of the reduced form, pivot columns)."""
    a = [[Fraction(x) for x in row] for row in entries]
    pivots = []
    for c in range(m):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        head = a[r][c]
        a[r] = [x / head for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def _frac_basis(m, vectors):
    a, pivots = _frac_gauss_jordan(vectors, m)
    return tuple(tuple(row) for row in a[:len(pivots)])


def _frac_constraint(m, basis):
    pivots = [next(c for c, x in enumerate(row) if x) for row in basis]
    rows = []
    for f in (c for c in range(m) if c not in pivots):
        v = [Fraction(0)] * m
        v[f] = Fraction(1)
        for row, pc in zip(basis, pivots):
            v[pc] = -row[f]
        rows.append(tuple(v))
    return tuple(rows)


def _frac_intersect(m, A, B):
    if len(A) == m:
        return B
    if len(B) == m:
        return A
    eqs = [[sum((e[i] * a[i] for i in range(m)), Fraction(0)) for a in A]
           for e in _frac_constraint(m, B)]
    coeffs = _frac_constraint(len(A), _frac_basis(len(A), eqs))
    return _frac_basis(m, [[sum((c[k] * A[k][i] for k in range(len(A))), Fraction(0))
                            for i in range(m)] for c in coeffs])


def _rational_rows(rng, m):
    """0..m+3 rows of rank <= m with denominators up to 100, some of them
    zero; every fifth draw spans the whole space."""
    n = rng.randint(0, m + 3)
    base = [[Fraction(rng.randint(-9, 9), rng.randint(1, 100)) for _ in range(m)]
            for _ in range(rng.randint(0, min(n, m)))]
    rows = [[sum((rng.randint(-2, 2) * b[i] for b in base), Fraction(0)) for i in range(m)]
            for _ in range(n)]
    if rows and rng.random() < 0.3:
        rows[rng.randrange(n)] = [Fraction(0)] * m
    if rng.random() < 0.2:
        rows += [[Fraction(int(i == j), rng.randint(1, 100)) for j in range(m)]
                 for i in range(m)]
    return rows


def test_integer_rows_match_fraction_reference():
    rng = random.Random(12)
    seen = {"zero": 0, "full": 0, "zero_row": 0, "tall": 0, "meet": 0}
    for k in range(300):
        m = 1 + k % 7
        a, b = _rational_rows(rng, m), _rational_rows(rng, m)
        if k % 2 and a:  # make the pair share a vector
            b.append(a[0])
        M = Mat(a, cols=m)
        R, pivots = _frac_gauss_jordan(a, m)
        assert rref(M) == (Mat(R, cols=m), len(pivots), pivots), (k, a)
        assert rank(M) == len(pivots)
        A, B = Subspace(m, a), Subspace(m, b)
        ra, rb = _frac_basis(m, a), _frac_basis(m, b)
        assert A.basis == ra and B.basis == rb, (k, a, b)
        assert A.pivots == tuple(pivots)
        assert constraint_matrix(A).entries == _frac_constraint(m, ra)
        assert kernel_basis(M) == _frac_constraint(m, ra)
        meet = intersect(A, B)
        assert meet.basis == _frac_intersect(m, ra, rb), (k, a, b)
        assert intersect(B, A) == meet
        assert subspace_sum(A, B).basis == _frac_basis(m, ra + rb), (k, a, b)
        seen["zero"] += A.is_zero()
        seen["full"] += A.is_full()
        seen["zero_row"] += any(not any(row) for row in a)
        seen["tall"] += len(a) > m
        seen["meet"] += meet.dim > 0 and not (A.is_full() or B.is_full())
    assert all(n >= 10 for n in seen.values()), seen


def test_subspace_canonical_form_is_primitive_integer_rows():
    rng = random.Random(13)
    for k in range(200):
        m = 1 + k % 7
        vecs = _rational_rows(rng, m)
        S = Subspace(m, vecs)
        assert len(S.pivots) == S.dim
        for row, c in zip(S.rows, S.pivots):
            assert type(row) is tuple and all(type(x) is int for x in row)
            assert row[c] > 0 and not any(row[:c])
            assert math.gcd(*row) == 1
            # zero at every other pivot column: a multiple of the reduced row
            assert all(row[d] == 0 for d in S.pivots if d != c)
        if S.rows:
            with pytest.raises(TypeError):
                S.rows[0] = S.rows[0]
            with pytest.raises(TypeError):
                S.rows[0][0] = 1
        # another spanning set, rescaled by rationals, with a combination added
        scales = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 50))
                  for _ in vecs]
        other = [[s * x for x in v] for s, v in zip(scales, vecs)]
        if vecs:
            other.append([x + y for x, y in zip(vecs[0], vecs[-1])])
        rng.shuffle(other)
        T = Subspace(m, other)
        assert T == S and hash(T) == hash(S)


def _fraction_factor(M: Mat) -> tuple[Factorisation, int]:
    """The Gauss-Jordan loop over Fractions that factor replaced, and how
    often a step met a nonzero row with a zero in its pivot column."""
    a = [list(row) for row in M.entries]
    nrows, ncols = M.rows, M.cols
    pivots = []
    steps = []
    skips = 0
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pivot = a[r][c]
        a[r] = [x / pivot for x in a[r]]
        elims = []
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                elims.append((i, f))
            elif i != r and any(a[i]):
                skips += 1
        pivots.append(c)
        steps.append((piv, pivot, tuple(elims)))
    return Factorisation(nrows, ncols, tuple(pivots), tuple(steps)), skips


def test_factor_matches_fraction_reference(cltt_maps):
    rng = random.Random(20)
    mats = []
    for k in range(1200):
        m = k % 8
        rows = _rational_rows(rng, m)
        if k % 3:  # zeros in the pivot columns: steps skip rows and swap them
            rows = [[x if rng.random() < 0.5 else Fraction(0) for x in row] for row in rows]
        mats.append(Mat(rows, cols=m))
    # the degeneracy matrices of the worked example and of the adversarial
    # sweeps: the fixture's maps and the two coordinate planes of Q^4
    planes = [Mat([[1, 0, 0, 0], [0, 0, 1, 0]]), Mat([[0, 1, 0, 0], [0, 0, 0, 1]])]
    lines = [Mat([[1, 0]]), Mat([[0, 1]])]
    for maps, degree in ((cltt_maps, 2), (cltt_maps, 3), (planes, 2), (planes, 3),
                         (lines, 2), (lines, 3)):
        mats.append(degenerate_basis(maps, degree))
    seen = {"empty": 0, "zero_row": 0, "dependent": 0, "denominators": 0,
            "skip": 0, "swap": 0}
    for M in mats:
        ref, skips = _fraction_factor(M)
        assert factor(M) == ref, M
        seen["empty"] += M.rows == 0 or M.cols == 0
        seen["zero_row"] += any(not any(row) for row in M.entries)
        seen["dependent"] += 0 < len(ref.pivots) < M.rows
        seen["denominators"] += len({x.denominator for row in M.entries for x in row}) > 2
        seen["skip"] += skips > 0
        seen["swap"] += any(swap != r for r, (swap, _, _) in enumerate(ref.steps))
    assert all(n >= 50 for n in seen.values()), seen
    # the 35 x 20 matrix of the sweep-adversarial workload skips rows
    assert _fraction_factor(degenerate_basis(planes, 3))[1] > 0


@pytest.mark.parametrize("value, fields", [
    (Mat([[1, 2], [3, 4]]), ("rows", "cols", "entries")),
    (Subspace(3, [[1, 2, 3]]), ("ambient_dim", "rows", "pivots")),
], ids=["Mat", "Subspace"])
def test_value_fields_cannot_be_rebound(value, fields):
    # a rebound field would change the hash of a cached key
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before


def test_value_hashes_keep_their_formulas():
    # the lru_cache keys of the pullback and degeneracy tables
    M = Mat([[1, Fraction(1, 2)], [0, 3]])
    assert hash(M) == hash((M.rows, M.cols, M.entries))
    S = Subspace(3, [[2, 4, 6], [0, 1, 1]])
    assert hash(S) == hash((S.ambient_dim, S.rows))
    # equality ignores the pivots and any other type
    assert S == Subspace._canonical(3, S.rows, ())
    assert M != (M.rows, M.cols, M.entries) and S != (S.ambient_dim, S.rows, S.pivots)
