import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oscint.linalg import Factorisation, Mat, Subspace, rank
from oscint.poly import (
    MultiPoly,
    _degenerate_columns,
    _pullbacks,
    compose,
    compose_affine,
    degenerate_basis,
    is_degenerate,
    mat_from_json,
    mat_to_json,
    monomials,
    nd_norm,
    poly_from_json,
    poly_to_json,
    slice_subtract,
)


def P(num_vars, terms):
    return MultiPoly(num_vars, terms)


# --- monomials -------------------------------------------------------------

def test_monomials_counts():
    assert len(monomials(4, 2)) == 15  # C(4+2, 2)
    assert len(monomials(2, 2)) == 6
    assert len(monomials(2, 3)) == 10
    assert monomials(2, 1) == [(0, 0), (0, 1), (1, 0)]
    assert monomials(0, 3) == [()]
    assert monomials(3, 0) == [(0, 0, 0)]


def test_monomials_graded():
    ms = monomials(3, 3)
    degs = [sum(e) for e in ms]
    assert degs == sorted(degs)
    assert len(set(ms)) == len(ms)


def _recursive_monomials(num_vars, max_degree):
    # the recursive enumeration monomials once used: each exact degree's
    # tuples built slot by slot, then sorted
    if num_vars == 0:
        return [()]

    def exact_degree(d, slots):
        if slots == 1:
            yield (d,)
            return
        for e in range(d + 1):
            for rest in exact_degree(d - e, slots - 1):
                yield (e,) + rest

    return [e for d in range(max_degree + 1) for e in sorted(exact_degree(d, num_vars))]


@pytest.mark.parametrize("num_vars", range(8))
def test_monomials_match_the_recursive_enumeration(num_vars):
    # every pullback table and degeneracy row is indexed in this order
    for max_degree in range(6):
        assert monomials(num_vars, max_degree) == _recursive_monomials(num_vars, max_degree)


# --- arithmetic ------------------------------------------------------------

def test_poly_arithmetic_basics():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == P(2, {(2, 0): 1, (0, 2): -1})
    assert (p - p).is_zero()
    assert p.scale(Fraction(1, 2)) == P(2, {(2, 0): Fraction(1, 2),
                                            (0, 2): Fraction(-1, 2)})
    assert x.pow(3) == P(2, {(3, 0): 1})
    assert p.degree() == 2
    assert MultiPoly.zero(2).degree() == 0


def test_poly_evaluate():
    p = P(2, {(1, 1): 1, (0, 0): 3})
    assert p.evaluate([Fraction(2), Fraction(5)]) == 13
    import numpy as np

    pts = np.array([[2.0, 5.0], [0.0, 0.0], [1.0, -1.0]])
    assert np.allclose(p.evaluate_array(pts), [13.0, 3.0, 2.0])


# --- compose ---------------------------------------------------------------

def test_compose_sum_map(cltt_maps):
    # (uv) o pi2 = (x1+x2)(y1+y2)
    uv = P(2, {(1, 1): 1})
    out = compose(uv, cltt_maps[2])
    assert out == P(4, {(1, 0, 1, 0): 1, (1, 0, 0, 1): 1,
                        (0, 1, 1, 0): 1, (0, 1, 0, 1): 1})


def test_compose_identity():
    p = P(2, {(2, 1): Fraction(3, 2), (0, 0): -1})
    assert compose(p, Mat.identity(2)) == p


def test_compose_linearity(cltt_maps):
    p = P(2, {(2, 0): 1, (1, 1): -2})
    q = P(2, {(0, 3): 5})
    pi = cltt_maps[2]
    assert compose(p + q, pi) == compose(p, pi) + compose(q, pi)


def test_compose_affine_shift():
    p = P(2, {(2, 0): 1})  # u^2
    out = compose_affine(p, Mat.identity(2), [Fraction(1), Fraction(0)])
    assert out == P(2, {(2, 0): 1, (1, 0): 2, (0, 0): 1})


# --- the pullback table against the substitution it replaced ---------------

def _reference_forms(M, c=None):
    """Row i of M as a linear form in M.cols variables, plus the constant
    c[i] when c is given."""
    m = M.cols
    unit = [tuple(int(j == k) for k in range(m)) for j in range(m)]
    forms = []
    for i, row in enumerate(M.entries):
        terms = [(u, a) for u, a in zip(unit, row) if a != 0]
        if c is not None:
            terms.append(((0,) * m, c[i]))
        forms.append(MultiPoly(m, terms))
    return forms


def _reference_substitute(p, forms, out_vars):
    """p with variable i replaced by forms[i], by powers and products."""
    result = MultiPoly.zero(out_vars)
    for e, coeff in p.terms.items():
        term = MultiPoly.constant(out_vars, coeff)
        for form, ei in zip(forms, e):
            term = term * form.pow(ei)
        result = result + term
    return result


def _random_rational(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _random_poly(rng, num_vars, degree):
    return MultiPoly(num_vars, [(e, _random_rational(rng))
                                for e in monomials(num_vars, degree) if rng.random() < 0.6])


def _random_map(rng, rows, cols):
    """Rational entries; now and then a zero row."""
    return Mat([[Fraction(0)] * cols if rng.random() < 0.15 else
                [_random_rational(rng) for _ in range(cols)] for _ in range(rows)])


def test_compose_matches_reference_substitution():
    for seed in range(300):
        rng = random.Random(seed)
        rows, cols, degree = rng.randint(1, 3), rng.randint(1, 4), rng.randint(0, 3)
        q, pi = _random_poly(rng, rows, degree), _random_map(rng, rows, cols)
        assert compose(q, pi) == _reference_substitute(q, _reference_forms(pi), cols), seed


def test_compose_affine_matches_reference_substitution():
    for seed in range(300):
        rng = random.Random(seed)
        m, degree = rng.randint(1, 3), rng.randint(0, 3)
        p, M = _random_poly(rng, m, degree), _random_map(rng, m, m)
        c = [Fraction(0)] * m if seed % 2 else [_random_rational(rng) for _ in range(m)]
        want = _reference_substitute(p, _reference_forms(M, c), m)
        assert compose_affine(p, M, c) == want, seed


ADVERSARIAL_SWEEP = Path(__file__).resolve().parent.parent / "fixtures" / "adversarial-sweep.json"


@pytest.mark.parametrize("maps, degree", [("cltt", 2), ("cltt", 3),
                                          ("adversarial", 2), ("adversarial", 3)])
def test_degenerate_columns_match_reference_substitution(cltt_maps, maps, degree):
    pis = tuple(cltt_maps) if maps == "cltt" else tuple(
        mat_from_json(mp["rows"]) for mp in json.loads(ADVERSARIAL_SWEEP.read_text())["maps"])
    m = pis[0].cols
    row_basis = monomials(m, degree)
    meta, pullbacks = [], []
    for j, pi in enumerate(pis):
        forms = _reference_forms(pi)
        for e in monomials(pi.rows, degree):
            meta.append((j, e))
            pullbacks.append(_reference_substitute(MultiPoly.monomial(pi.rows, e), forms, m))
    A = Mat([[pb.terms.get(r, Fraction(0)) for pb in pullbacks] for r in row_basis])
    got_A, got_meta, got_rows, _, _, got_pullbacks = _degenerate_columns(pis, degree)
    assert got_A == A
    assert got_meta == tuple(meta)
    assert got_rows == tuple(row_basis)
    assert [dict(pb) for pb in got_pullbacks] == [pb.terms for pb in pullbacks]


def test_pullback_table_is_read_only(cltt_maps):
    table = _pullbacks(cltt_maps[2], 2)
    assert list(table) == monomials(2, 2)
    with pytest.raises(TypeError):
        table[(1, 0)] = ()
    with pytest.raises(TypeError):
        table[(1, 0)][0] = ((0, 0, 0, 0), Fraction(5))
    assert compose(P(2, {(1, 0): 1}), cltt_maps[2]) == P(4, {(1, 0, 0, 0): 1,
                                                             (0, 1, 0, 0): 1})
    # (x + y)(x - y): the cancelled xy term is not stored
    assert dict(_pullbacks(Mat([[1, 1], [1, -1]]), 2)[(1, 1)]) == {(2, 0): 1, (0, 2): -1}


# --- degenerate basis ------------------------------------------------------

def test_degenerate_basis_worked_example_rank(cltt_maps):
    A = degenerate_basis(cltt_maps, 2)
    assert (A.rows, A.cols) == (15, 18)
    assert rank(A) == 14  # frozen against an independent symbolic oracle


def test_degenerate_basis_degree3_rank(cltt_maps):
    A = degenerate_basis(cltt_maps, 3)
    assert (A.rows, A.cols) == (35, 30)
    assert rank(A) == 26  # frozen against an independent symbolic oracle


def test_degenerate_basis_identity_map_full():
    A = degenerate_basis([Mat.identity(3)], 2)
    assert rank(A) == len(monomials(3, 2))


def test_degenerate_basis_degree0():
    A = degenerate_basis([Mat([[1, 0], [0, 1]])], 0)
    assert rank(A) == 1


def test_degenerate_basis_rejects_non_surjective():
    with pytest.raises(ValueError):
        degenerate_basis([Mat([[1, 0], [2, 0]])], 2)


def test_degenerate_basis_cached_matrix_is_read_only():
    # degenerate_basis hands out the matrix kept in the column cache
    pis = [Mat([[1, 0]]), Mat([[0, 1]])]
    p = P(2, {(2, 0): 1})
    assert is_degenerate(p, pis).is_degenerate
    A = degenerate_basis(pis, 2)
    with pytest.raises(TypeError):
        for i in range(A.rows):
            A.entries[i] = (Fraction(0),) * A.cols
    assert is_degenerate(p, pis).is_degenerate


def test_degenerate_factorisation_and_pullbacks_are_read_only(cltt_maps):
    # is_degenerate replays the elimination and sums the pullbacks kept in
    # the column cache, next to the matrix
    pis = tuple(cltt_maps)
    phases = [P(4, {(1, 0, 1, 0): 1, (0, 2, 0, 0): 3}), P(4, {(1, 0, 0, 1): 1})]
    before = [is_degenerate(p, pis, max_degree=2) for p in phases]
    assert [rep.is_degenerate for rep in before] == [True, False]
    _, _, _, F, Af, pullbacks = _degenerate_columns(pis, 2)
    step = next(st for st in F.steps if st[2])
    attempts = [
        (F.steps, 0, step),
        (step[2], 0, (0, Fraction(0))),
        (F.pivots, 0, 1),
        (pullbacks, 0, ()),
        (pullbacks[1], 0, ((0, 0, 0, 0), Fraction(5))),
    ]
    for target, index, value in attempts:
        with pytest.raises(TypeError):
            target[index] = value
    with pytest.raises(AttributeError):
        F.rows = 0
    with pytest.raises(ValueError):
        Af[0, 0] = 7.0
    assert [is_degenerate(p, pis, max_degree=2) for p in phases] == before


# --- degeneracy decision ---------------------------------------------------

def test_degenerate_product_example(cltt_maps):
    # x1*y1 = (uv) o pi0 is degenerate
    p = P(4, {(1, 0, 1, 0): 1})
    rep = is_degenerate(p, cltt_maps, max_degree=2)
    assert rep.is_degenerate
    assert rep.quotient_norm == 0.0
    recon = MultiPoly.zero(4)
    for (_, q), pi in zip(rep.certificate, cltt_maps):
        recon = recon + compose(q, pi)
    assert recon == p


def test_nondegenerate_antisymmetric_example(cltt_maps):
    # x1*y2 - x2*y1 is nondegenerate for these maps
    p = P(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    rep = is_degenerate(p, cltt_maps, max_degree=2)
    assert not rep.is_degenerate
    assert rep.certificate is None
    assert rep.quotient_norm > 0.1
    assert rep.residual


def test_symmetric_cross_term_degenerate(cltt_maps):
    # x1*y2 + x2*y1 = (x1+x2)(y1+y2) - x1*y1 - x2*y2 is degenerate
    p = P(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): 1})
    assert is_degenerate(p, cltt_maps, max_degree=2).is_degenerate


@pytest.mark.parametrize("p", [MultiPoly.zero(3), P(3, {(1, 1, 1): 1})])
def test_is_degenerate_rejects_variable_count_mismatch(p, cltt_maps):
    with pytest.raises(ValueError, match="map has 4 columns but the polynomial has 3"):
        is_degenerate(p, cltt_maps[:2])


@pytest.mark.parametrize("column", [0, -1])
def test_is_degenerate_raises_value_error_on_failed_reconstruction(cltt_maps, monkeypatch,
                                                                  column):
    # a solve that returns a wrong solution is caught by the certificate
    # check, as a ValueError, not an assert that python -O would drop
    p = P(4, {(1, 0, 1, 0): 1, (0, 2, 0, 0): 3})
    assert is_degenerate(p, cltt_maps, max_degree=2).is_degenerate
    solve = Factorisation.solve

    def perturbed(self, b):
        sol = solve(self, b)
        sol[column] += 1
        return sol

    monkeypatch.setattr(Factorisation, "solve", perturbed)
    with pytest.raises(ValueError, match="invalid certificate"):
        is_degenerate(p, cltt_maps, max_degree=2)


def test_degenerate_decision_needs_no_float_copy(cltt_maps):
    # an entry of 10^400 in the degree-2 matrix cannot be a float: the
    # exact decision of a degenerate phase never reads the float copy, and
    # the quotient norm of a non-degenerate one refuses it
    big = Mat([[10**200, 0, 0, 0], [0, 0, 1, 0]])
    pis = [big] + list(cltt_maps[1:])
    rep = is_degenerate(P(4, {(1, 0, 0, 0): 1}), pis, max_degree=2)
    assert rep.is_degenerate and rep.quotient_norm == 0.0
    _, _, _, _, Af, _ = _degenerate_columns(tuple(pis), 2)
    assert not Af.flags.writeable
    with pytest.raises(ValueError, match="matrix entry is too large for a float"):
        is_degenerate(P(4, {(1, 0, 0, 1): 1}), pis, max_degree=2)


def test_degree_bound_enforced(cltt_maps):
    p = P(4, {(2, 0, 1, 0): 1})
    with pytest.raises(ValueError):
        is_degenerate(p, cltt_maps, max_degree=2)


def test_nd_norm_properties(cltt_maps):
    p = P(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    n1 = nd_norm(p, cltt_maps, 2)
    # absolute homogeneity
    assert abs(nd_norm(p.scale(3), cltt_maps, 2) - 3 * n1) < 1e-9
    # invariant under adding any degenerate polynomial
    shift = compose(P(2, {(2, 0): 7, (1, 0): -2}), cltt_maps[1])
    assert abs(nd_norm(p + shift, cltt_maps, 2) - n1) < 1e-9
    # zero iff degenerate
    assert nd_norm(compose(P(2, {(1, 1): 1}), cltt_maps[0]), cltt_maps, 2) == 0.0


def test_degeneracy_invariant_under_target_change(cltt_maps):
    # post-composing a map with an invertible L does not change the class
    p = P(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    L = Mat([[1, 1], [0, 1]])
    maps2 = [cltt_maps[0], L.matmul(cltt_maps[1]), cltt_maps[2]]
    assert is_degenerate(p, cltt_maps, 2).is_degenerate == \
        is_degenerate(p, maps2, 2).is_degenerate
    q = P(4, {(1, 0, 1, 0): 1})
    assert is_degenerate(q, maps2, 2).is_degenerate


@st.composite
def pullback_sums(draw):
    """Random degenerate polynomial for the worked-example maps."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    polys = []
    for _ in range(3):
        terms = {}
        for e in monomials(2, 2):
            if rng.random() < 0.5:
                terms[e] = Fraction(rng.randint(-5, 5))
        polys.append(MultiPoly(2, terms))
    return polys


@given(pullback_sums())
@settings(max_examples=30, deadline=None)
def test_certificate_round_trip(qs):
    pis = [Mat([[1, 0, 0, 0], [0, 0, 1, 0]]),
           Mat([[0, 1, 0, 0], [0, 0, 0, 1]]),
           Mat([[1, 1, 0, 0], [0, 0, 1, 1]])]
    p = MultiPoly.zero(4)
    for q, pi in zip(qs, pis):
        p = p + compose(q, pi)
    rep = is_degenerate(p, pis, max_degree=2)
    assert rep.is_degenerate and rep.quotient_norm == 0.0


# --- slice_subtract --------------------------------------------------------

@pytest.fixture
def cltt_step(cltt_snarl):
    from oscint.resolution import construct_transverse_splitting

    return construct_transverse_splitting(cltt_snarl, "pi0", seed=6)


def test_slice_subtract_difference_is_pullback(cltt_step, cltt_maps):
    # the subtracted slice factors through the split entry's map, so q - p
    # is always a pullback through pi0
    p = compose(P(2, {(1, 1): 1}), cltt_maps[0])
    q = slice_subtract(p, cltt_step, [Fraction(0), Fraction(0)])
    rep = is_degenerate(q - p, [cltt_maps[0]], max_degree=2)
    assert rep.is_degenerate


def test_slice_subtract_preserves_class(cltt_step, cltt_maps):
    p = P(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    z = [Fraction(1, 3), Fraction(-2)]
    q = slice_subtract(p, cltt_step, z)
    assert is_degenerate(q - p, [cltt_maps[0]], max_degree=2).is_degenerate
    assert abs(nd_norm(q, cltt_maps, 2) - nd_norm(p, cltt_maps, 2)) < 1e-12


def test_slice_subtract_two_slices_differ_by_pullback(cltt_step, cltt_maps):
    p = P(4, {(1, 0, 0, 1): 2, (2, 0, 0, 0): 1})
    q1 = slice_subtract(p, cltt_step, [Fraction(0), Fraction(1)])
    q2 = slice_subtract(p, cltt_step, [Fraction(5), Fraction(-3)])
    assert is_degenerate(q1 - q2, [cltt_maps[0]], max_degree=2).is_degenerate


def test_slice_subtract_vanishes_on_slice(cltt_step):
    # the subtracted polynomial agrees with p on the affine slice z + W, so
    # q evaluates to zero at points of the form w + z0
    p = P(4, {(1, 0, 0, 1): 1, (1, 1, 0, 0): -2, (0, 0, 2, 0): 3})
    z = [Fraction(2), Fraction(-1)]
    q = slice_subtract(p, cltt_step, z)
    v0 = cltt_step.parent.subspace("pi0")
    z0 = [sum((z[k] * v0.basis[k][i] for k in range(2)), Fraction(0))
          for i in range(4)]
    # on the affine slice z0 + W the frozen part agrees with p, so q = 0
    for scale in (Fraction(0), Fraction(7, 2), Fraction(-1, 3)):
        for wvec in (cltt_step.Wprime.basis + cltt_step.Wdoubleprime.basis):
            pt = [scale * wvec[i] + z0[i] for i in range(4)]
            assert q.evaluate(pt) == 0


def test_slice_subtract_bad_z_length(cltt_step):
    p = P(4, {(1, 0, 0, 1): 1})
    with pytest.raises(ValueError):
        slice_subtract(p, cltt_step, [Fraction(0)])


def test_slice_subtract_rejects_w_inside_v0(cltt_step):
    # W' taken inside V0: W' + W'' + V0 has the right count of basis
    # vectors but does not span, so T is singular
    from dataclasses import replace

    v0 = cltt_step.parent.subspace("pi0")
    bad = replace(cltt_step, Wprime=Subspace(4, v0.basis[:1]))
    with pytest.raises(ValueError, match="not invertible"):
        slice_subtract(P(4, {(1, 0, 0, 1): 1}), bad, [Fraction(0), Fraction(0)])


# --- JSON ------------------------------------------------------------------

def test_poly_json_round_trip():
    p = P(3, {(2, 0, 1): Fraction(3, 7), (0, 0, 0): -2})
    obj = json.loads(json.dumps(poly_to_json(p)))
    assert poly_from_json(obj) == p


def test_mat_json_round_trip(cltt_maps):
    obj = json.loads(json.dumps(mat_to_json(cltt_maps[2])))
    assert mat_from_json(obj) == cltt_maps[2]


def test_multipoly_is_not_hashable():
    # its terms are a public, mutable dict
    with pytest.raises(TypeError):
        hash(P(2, {(1, 0): 1}))


def test_equal_maps_share_one_pullback_table():
    A = Mat([[7, 11], [13, 17]])
    B = Mat([[Fraction(14, 2), 11], [13, Fraction(17)]])
    assert A is not B and A == B
    assert _pullbacks(A, 2) is _pullbacks(B, 2)
