import functools
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from oscint import quadrature
from oscint.linalg import Mat
from oscint.poly import MultiPoly, compose, is_degenerate
from oscint.quadrature import (
    BumpSpec,
    DecaySweep,
    FitResult,
    InsufficientTail,
    NodeCapExceeded,
    QuadConfig,
    SweepRow,
    adversarial_functions,
    eval_integral,
    fit_decay,
    sweep,
    sweep_to_csv,
    sweep_to_json,
)

UNIT = [(Fraction(0), Fraction(1))]


@pytest.fixture(scope="module")
def product_setup():
    """P = x1*x2 on [0,1]^2 with the two coordinate maps and unit bumps."""
    p = MultiPoly(2, {(1, 1): 1})
    pis = [Mat([[1, 0]]), Mat([[0, 1]])]
    fs = [BumpSpec(box=list(UNIT)), BumpSpec(box=list(UNIT))]
    cfg = QuadConfig(domain_box=[(0, 1), (0, 1)], nodes_per_axis=64,
                     refine_tol=1e-9)
    return p, pis, fs, cfg


def test_frozen_reference_values(product_setup):
    # frozen against an independent 4096^2 midpoint-rule evaluation
    p, pis, fs, cfg = product_setup
    v0, _ = eval_integral(p, 0.0, pis, fs, cfg)
    assert abs(v0 - 0.049282627199070984) < 1e-12
    v64, _ = eval_integral(p, 64.0, pis, fs, cfg)
    ref = complex(-0.00047305177363386915, -0.0003941021154917837)
    assert abs(v64 - ref) < 1e-12


def test_lambda_zero_is_real_positive(product_setup):
    p, pis, fs, cfg = product_setup
    v, _ = eval_integral(p, 0.0, pis, fs, cfg)
    assert abs(v.imag) < 1e-15
    assert v.real > 0


def test_conjugation_symmetry(product_setup):
    # real phase and real bumps: I(-lam) = conj(I(lam))
    p, pis, fs, cfg = product_setup
    a, _ = eval_integral(p, 37.0, pis, fs, cfg)
    b, _ = eval_integral(p, -37.0, pis, fs, cfg)
    assert abs(a - b.conjugate()) < 1e-12


def test_trivial_bound(product_setup):
    # |I| <= product of bump masses = I(0)
    p, pis, fs, cfg = product_setup
    v0, _ = eval_integral(p, 0.0, pis, fs, cfg)
    for lam in (8.0, 64.0, 512.0):
        v, _ = eval_integral(p, lam, pis, fs, cfg)
        assert abs(v) <= v0.real + 1e-12


def test_separable_factorization():
    # with phase lam*x1 only, the integral factorizes into 1-d pieces
    p = MultiPoly(2, {(1, 0): 1})
    pis = [Mat([[1, 0]]), Mat([[0, 1]])]
    fs = [BumpSpec(box=list(UNIT)), BumpSpec(box=list(UNIT))]
    cfg = QuadConfig(domain_box=[(0, 1), (0, 1)], nodes_per_axis=64,
                     refine_tol=1e-10)
    v2, _ = eval_integral(p, 19.0, pis, fs, cfg)
    cfg1 = QuadConfig(domain_box=[(0, 1)], nodes_per_axis=64, refine_tol=1e-10)
    p1 = MultiPoly(1, {(1,): 1})
    osc, _ = eval_integral(p1, 19.0, [Mat([[1]])], [BumpSpec(box=list(UNIT))], cfg1)
    flat, _ = eval_integral(MultiPoly.zero(1), 0.0, [Mat([[1]])],
                            [BumpSpec(box=list(UNIT))], cfg1)
    assert abs(v2 - osc * flat) < 1e-10


def test_midpoint_matches_gauss(product_setup):
    p, pis, fs, _ = product_setup
    gl = QuadConfig(domain_box=[(0, 1), (0, 1)], nodes_per_axis=64,
                    refine_tol=1e-9)
    mp = QuadConfig(domain_box=[(0, 1), (0, 1)], nodes_per_axis=256,
                    rule="midpoint", refine_tol=1e-8)
    a, _ = eval_integral(p, 16.0, pis, fs, gl)
    b, _ = eval_integral(p, 16.0, pis, fs, mp)
    assert abs(a - b) < 1e-6


@pytest.mark.parametrize("n", [8, 9, 16])
def test_gauss_legendre_exact_for_degree_below_2n(n):
    x, w = quadrature._gauss_legendre(n)
    for k in range(2 * n):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(np.dot(w, x ** k) - exact) < 1e-14, k


@pytest.mark.parametrize("n", [1, 8, 9, 16, 65, 2048])
def test_gauss_legendre_symmetric_weights_sum_to_two(n):
    x, w = quadrature._gauss_legendre(n)
    assert len(x) == len(w) == n
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    if n % 2:
        assert x[n // 2] == 0.0
    assert abs(w.sum() - 2.0) < 1e-14


@pytest.mark.parametrize("n", [64, 2048])
def test_gauss_legendre_matches_numpy(n):
    # within 2 ulp of 1, the scale of the interval: numpy's eigenvalue
    # nodes near 0 are off by several of their own ulp
    x, _ = quadrature._gauss_legendre(n)
    ref, _ = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - ref)) <= 2 * np.spacing(1.0)


def _gauss_legendre_reference(n):
    """The rule as built before the recurrence ran in preallocated buffers:
    a fresh array per operation, in the same order."""
    def legendre(x):
        prev, cur = np.ones_like(x), x
        for k in range(1, n):
            prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
        return cur, n * (prev - x * cur) / ((1.0 - x) * (1.0 + x))

    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0
    for _ in range(quadrature.NEWTON_STEPS):
        p, dp = legendre(x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) <= 4 * np.finfo(float).eps:
            break
    _, dp = legendre(x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp ** 2)
    return (np.concatenate([-x[:n // 2], x[::-1]]),
            np.concatenate([w[:n // 2], w[::-1]]))


@pytest.mark.parametrize("n", [8, 9, 16, 17, 24, 32, 48, 64, 65, 100, 128, 256,
                               512, 1000, 1024, 2048, 4096])
def test_gauss_legendre_bits_match_reference_recurrence(n):
    x, w = quadrature._gauss_legendre(n)
    ref_x, ref_w = _gauss_legendre_reference(n)
    assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()


def test_gauss_legendre_built_once_per_node_count():
    quadrature._gauss_legendre.cache_clear()
    a, wa = quadrature._axis_rule(0.0, 1.0, 32, "gauss-legendre")
    b, wb = quadrature._axis_rule(-2.0, 0.5, 32, "gauss-legendre")
    assert quadrature._gauss_legendre.cache_info().misses == 1
    assert a[0] > 0.0 and b[0] > -2.0 and b[-1] < 0.5
    assert abs(wa.sum() - 1.0) < 1e-14 and abs(wb.sum() - 2.5) < 1e-14


def test_rule_table_holds_the_powers_of_two_from_8_to_4096():
    with np.load(quadrature.RULE_TABLE) as table:
        assert sorted(map(int, table.files)) == [2 ** k for k in range(3, 13)]
        assert set(map(int, table.files)) == quadrature.TABLED_NODE_COUNTS
        for key in table.files:
            stored, built = table[key], np.stack(quadrature._newton_half(int(key)))
            assert stored.dtype == built.dtype and stored.shape == built.shape
            assert stored.tobytes() == built.tobytes(), key


@pytest.fixture
def no_cached_rules():
    """An empty rule cache, emptied again afterwards, so that no rule built
    under a test's patches outlives it."""
    quadrature._gauss_legendre.cache_clear()
    yield
    quadrature._gauss_legendre.cache_clear()


@pytest.mark.parametrize("n", [24, 100])
def test_untabled_rule_is_built_without_the_table(n, monkeypatch, no_cached_rules):
    def no_load(*args, **kwargs):
        raise AssertionError("the rule table was opened")

    monkeypatch.setattr(np, "load", no_load)
    x, w = quadrature._gauss_legendre(n)
    half_x, half_w = quadrature._newton_half(n)
    assert x[n // 2:].tobytes() == half_x[::-1].tobytes()
    assert w[n // 2:].tobytes() == half_w[::-1].tobytes()


@pytest.mark.parametrize("n", [8, 64, 4096])
def test_tabled_rule_is_read_without_a_build(n, monkeypatch, no_cached_rules):
    def no_build(n):
        raise AssertionError("a tabled rule was built")

    monkeypatch.setattr(quadrature, "_newton_half", no_build)
    x, w = quadrature._gauss_legendre(n)
    ref_x, ref_w = _gauss_legendre_reference(n)
    assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()


def test_tabled_rule_without_the_table_fails(monkeypatch, tmp_path, no_cached_rules):
    monkeypatch.setattr(quadrature, "RULE_TABLE", str(tmp_path / "missing.npz"))
    with pytest.raises(FileNotFoundError):
        quadrature._gauss_legendre(64)


@pytest.mark.parametrize("n", [8, 24, 64, 100])
def test_gauss_legendre_arrays_are_read_only(n):
    for a in quadrature._gauss_legendre(n):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_node_cap_exceeded():
    p = MultiPoly(1, {(1,): 1})
    cfg = QuadConfig(domain_box=[(0, 1)], nodes_per_axis=8, refine_tol=1e-16,
                     max_nodes_per_axis=16)
    with pytest.raises(NodeCapExceeded) as exc:
        eval_integral(p, 1000.0, [Mat([[1]])], [BumpSpec(box=list(UNIT))], cfg)
    assert exc.value.nodes == 16


def test_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(domain_box=[(0, 1)], nodes_per_axis=4)
    with pytest.raises(ValueError):
        QuadConfig(domain_box=[(0, 1)], rule="simpson")
    with pytest.raises(ValueError):
        BumpSpec(box=[(1, 1)])
    # a reversed or an empty domain_box axis, as for a bump box
    for axis in (("1", "0"), ("1/2", "1/2")):
        with pytest.raises(ValueError, match="empty box axis"):
            QuadConfig(domain_box=[(0, 1), axis])
    # a start above the node cap, the default one or a given one
    with pytest.raises(ValueError, match="node cap 4096"):
        QuadConfig(domain_box=[(0, 1)], nodes_per_axis=8192)
    with pytest.raises(ValueError, match="node cap 64"):
        QuadConfig(domain_box=[(0, 1)] * 4, nodes_per_axis=128)
    with pytest.raises(ValueError, match="node cap 32"):
        QuadConfig(domain_box=[(0, 1)], nodes_per_axis=64, max_nodes_per_axis=32)
    assert QuadConfig(domain_box=[(0, 1)] * 4, nodes_per_axis=64).node_cap() == 64
    for tol in (0.0, -1e-4, float("nan")):
        with pytest.raises(ValueError, match="refine_tol"):
            QuadConfig(domain_box=[(0, 1)], refine_tol=tol)
    with pytest.raises(ValueError, match="modulation variable count"):
        BumpSpec(box=list(UNIT), modulation=(MultiPoly(2, {(1, 1): 1}), 1.0))


@pytest.mark.parametrize("lam, message", [
    (float("nan"), "must be finite"),
    (float("inf"), "must be finite"),
    (10 ** 400, "is too large for a float"),
], ids=["nan", "inf", "huge-int"])
def test_lambda_must_be_finite(lam, message):
    # checked before any quadrature, as sweep checks its lambdas
    p = MultiPoly(1, {(1,): 1})
    cfg = QuadConfig(domain_box=[(0, 1)], max_nodes_per_axis=256)
    with pytest.raises(ValueError, match=f"lambda {message}"):
        eval_integral(p, lam, [Mat([[1]])], [BumpSpec(box=list(UNIT))], cfg)
    with pytest.raises(ValueError, match=f"modulation frequency {message}"):
        BumpSpec(box=list(UNIT), modulation=(p, lam))


def test_float_lambda_keeps_its_bits():
    lam = 0.1 + 0.2
    assert BumpSpec(box=list(UNIT), modulation=(MultiPoly(1), lam)).modulation[1].hex() == lam.hex()


def test_eval_shape_validation(product_setup):
    p, pis, fs, cfg = product_setup
    with pytest.raises(ValueError):
        eval_integral(p, 1.0, pis, fs[:1], cfg)
    with pytest.raises(ValueError):
        eval_integral(MultiPoly(3, {(1, 1, 1): 1}), 1.0, pis, fs, cfg)
    # a two-row map whose bump box has one axis: zip would drop the second
    with pytest.raises(ValueError, match="bump box dimension"):
        eval_integral(p, 1.0, [Mat([[1, 0], [0, 1]]), pis[1]], fs, cfg)


# --- block kernel against a brute-force full-grid sum ----------------------

def _bump(t, lo, hi):
    s = (2.0 * t - (lo + hi)) / (hi - lo)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(np.abs(s) < 1.0, np.exp(-1.0 / (1.0 - s * s)), 0.0)


def _full_grid_sums(phase, amp, domain, n, rule, lambdas):
    """Sum of exp(i*(lam*phase[0] + phase[1])) * amp * w over the whole
    meshgrid, exactly rounded, per lam; also the sum of |amp * w|."""
    axes = [quadrature._axis_rule(float(lo), float(hi), n, rule) for lo, hi in domain]
    X = np.meshgrid(*(x for x, _ in axes), indexing="ij")
    W = functools.reduce(np.multiply, np.meshgrid(*(w for _, w in axes), indexing="ij"))
    a = amp(X) * W
    P, rest = phase(X)
    sums = []
    for lam in lambdas:
        terms = (np.exp(1j * (lam * P + rest)) * a).ravel()
        sums.append(complex(math.fsum(terms.real), math.fsum(terms.imag)))
    return sums, math.fsum(np.abs(a).ravel())


def _assert_level_matches(p, pis, fs, domain, n, rule, phase, amp):
    # one level only: the cap stops every row at n with that level's sum
    lambdas = [0.0, 3.0, 10.0, 40.0]
    cfg = QuadConfig(domain_box=domain, nodes_per_axis=n, rule=rule,
                     max_nodes_per_axis=n)
    rows = sweep(p, pis, fs, lambdas, cfg).rows
    ref, mass = _full_grid_sums(phase, amp, domain, n, rule, lambdas)
    # the phase reaches about 100 rad, so each term carries ~1e-14 relative error
    for row, want in zip(rows, ref):
        assert row.nodes == n
        assert abs(row.value - want) <= 1e-12 * mass, row.lam


@pytest.mark.parametrize("rule", ["gauss-legendre", "midpoint"])
def test_block_kernel_non_coordinate_map(rule):
    # f_1 sits on x1 + x2 and is modulated by exp(-3i(x1 + x2)^2)
    p = MultiPoly(2, {(1, 1): 1, (0, 2): -2})
    q = MultiPoly(1, {(2,): 1})
    pis = [Mat([[1, 1]]), Mat([[0, 1]])]
    fs = [BumpSpec(box=[(0, 2)], modulation=(q, 3.0)), BumpSpec(box=[(0, 1)])]
    _assert_level_matches(
        p, pis, fs, [(0, 1), (0, 1)], 48, rule,
        lambda X: (X[0] * X[1] - 2 * X[1] ** 2, -3.0 * (X[0] + X[1]) ** 2),
        lambda X: _bump(X[0] + X[1], 0.0, 2.0) * _bump(X[1], 0.0, 1.0))


@pytest.mark.parametrize("rule", ["gauss-legendre", "midpoint"])
def test_block_kernel_blocks_off_the_chunk_grid(rule):
    # 12^5 points as 12 blocks of 12^4, none of them on a 2^15 boundary
    p = MultiPoly(5, {(1, 0, 1, 0, 0): 1, (0, 1, 0, 0, 1): 2, (0, 0, 0, 2, 0): -1})
    pis = [Mat([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]),
           Mat([[0, 0, 1, -1, 0], [0, 0, 0, 0, 1]])]
    fs = [BumpSpec(box=[(0, 1), (0, 1)]), BumpSpec(box=[(-1, 1), (0, 1)])]
    _assert_level_matches(
        p, pis, fs, [(0, 1)] * 5, 12, rule,
        lambda X: (X[0] * X[2] + 2 * X[1] * X[4] - X[3] ** 2, 0.0),
        lambda X: (_bump(X[0], 0.0, 1.0) * _bump(X[1], 0.0, 1.0)
                   * _bump(X[2] - X[3], -1.0, 1.0) * _bump(X[4], 0.0, 1.0)))


@pytest.mark.parametrize("rule", ["gauss-legendre", "midpoint"])
@pytest.mark.parametrize("limit", [5, 20])
def test_block_kernel_small_chunk_limit(rule, limit, monkeypatch):
    # 5 splits the last axis of each (i, j) line, 20 splits axis 1 in pairs
    monkeypatch.setattr(quadrature, "CHUNK_LIMIT", limit)
    p = MultiPoly(3, {(1, 1, 0): 1, (0, 0, 3): 1, (1, 0, 0): -1})
    pis = [Mat([[1, 0, 0]]), Mat([[0, 1, 1]])]
    fs = [BumpSpec(box=[(0, 1)]), BumpSpec(box=[(0, 2)])]
    _assert_level_matches(
        p, pis, fs, [(0, 1)] * 3, 8, rule,
        lambda X: (X[0] * X[1] + X[2] ** 3 - X[0], 0.0),
        lambda X: _bump(X[0], 0.0, 1.0) * _bump(X[1] + X[2], 0.0, 2.0))


def _grouped_case():
    """A 5-d integrand in four axis groups: {x0, x1} (the term x0*x1 and
    a modulated bump on the row x0 + x1), {x2} (x2^2 and a bump), {x3}
    (nothing reads it: its factor is the length 3 of its interval) and
    {x4} (a linear term and a bump on 2*x4); P has a constant term."""
    p = MultiPoly(5, {(1, 1, 0, 0, 0): 1, (0, 0, 2, 0, 0): -2,
                      (0, 0, 0, 0, 0): Fraction(7, 10), (0, 0, 0, 0, 1): 3})
    q = MultiPoly(1, {(2,): 1})
    pis = [Mat([[1, 1, 0, 0, 0]]), Mat([[0, 0, 1, 0, 0]]), Mat([[0, 0, 0, 0, 2]])]
    fs = [BumpSpec(box=[(0, 2)], modulation=(q, 3.0)), BumpSpec(box=[(0, 1)]),
          BumpSpec(box=[(0, 2)])]
    domain = [(0, 1), (0, 1), (0, 1), (-1, 2), (0, 1)]
    return p, pis, fs, domain


@pytest.mark.parametrize("rule", ["gauss-legendre", "midpoint"])
def test_group_product_matches_full_grid(rule):
    p, pis, fs, domain = _grouped_case()
    assert [axes for axes, *_ in quadrature._factors(p, pis, fs)] == [[0, 1], [2], [3], [4]]
    _assert_level_matches(
        p, pis, fs, domain, 12, rule,
        lambda X: (X[0] * X[1] - 2 * X[2] ** 2 + 0.7 + 3 * X[4],
                   -3.0 * (X[0] + X[1]) ** 2),
        lambda X: (_bump(X[0] + X[1], 0.0, 2.0) * _bump(X[2], 0.0, 1.0)
                   * _bump(2 * X[4], 0.0, 2.0)))


def test_group_product_threads_match_serial(monkeypatch):
    p, pis, fs, domain = _grouped_case()
    monkeypatch.setattr(quadrature, "CHUNK_LIMIT", 16)  # several blocks per group
    # the rows stop at 32, 64, 64 and the cap, 128
    cfg = QuadConfig(domain_box=domain, nodes_per_axis=8, refine_tol=1e-4,
                     max_nodes_per_axis=128)
    lambdas = [1.0, 4.0, 16.0, 64.0]
    monkeypatch.setenv("OSCINT_THREADS", "1")
    serial = [(r.value, r.nodes, r.error) for r in sweep(p, pis, fs, lambdas, cfg).rows]
    monkeypatch.setenv("OSCINT_THREADS", "2")
    parallel = [(r.value, r.nodes, r.error) for r in sweep(p, pis, fs, lambdas, cfg).rows]
    assert [nodes for _, nodes, _ in serial] == [32, 64, 64, 128]
    assert parallel == serial


# --- the grid trimmed to the bumps' support -------------------------------

def _blocks_reference(n, m):
    """The blocks of the n**m cube as enumerated before _blocks took one
    size per axis."""
    k = 0
    while n ** (m - k - 1) > quadrature.CHUNK_LIMIT:
        k += 1
    step = quadrature.CHUNK_LIMIT // n ** (m - k - 1)
    for prefix in itertools.product(range(n), repeat=k):
        for lo in range(0, n, step):
            yield (tuple(slice(i, i + 1) for i in prefix) + (slice(lo, lo + step),)
                   + (slice(None),) * (m - k - 1))


# 8**5 and 181**2 fit CHUNK_LIMIT = 2**15 exactly or just; 8**6 and 182**2 do not
@pytest.mark.parametrize("n, m", [(8, 1), (4096, 1), (64, 2), (2048, 2), (181, 3),
                                  (182, 3), (8, 5), (8, 6), (64, 4)])
def test_blocks_on_cubes_match_reference(n, m):
    assert list(quadrature._blocks([n] * m)) == list(_blocks_reference(n, m))


def test_blocks_on_cubes_pinned(monkeypatch):
    monkeypatch.setattr(quadrature, "CHUNK_LIMIT", 20)
    full = slice(None)
    assert list(quadrature._blocks([4] * 3)) == [
        (slice(i, i + 1), full, full) for i in range(4)]
    assert list(quadrature._blocks([5] * 3)) == [
        (slice(i, i + 1), slice(lo, lo + 4), full) for i in range(5) for lo in (0, 4)]
    assert list(quadrature._blocks([30])) == [(slice(0, 20),), (slice(20, 40),)]


@pytest.mark.parametrize("sizes", [[3, 7, 5], [1, 9], [13, 2, 1, 6]])
def test_blocks_cover_any_grid_once_in_order(sizes, monkeypatch):
    monkeypatch.setattr(quadrature, "CHUNK_LIMIT", 8)
    seen = []
    for block in quadrature._blocks(sizes):
        idx = np.indices(sizes)[(slice(None),) + block].reshape(len(sizes), -1).T
        assert 0 < len(idx) <= 8
        seen += [tuple(i) for i in idx]
    assert seen == list(itertools.product(*map(range, sizes)))


def _wide_case():
    """P = x1*x2 - x2^2/2 + x1 with unit bumps on a domain box wider than
    them on both sides, so the trim drops nodes at both ends of each axis."""
    p = MultiPoly(2, {(1, 1): 1, (0, 2): Fraction(-1, 2), (1, 0): 1})
    pis = [Mat([[1, 0]]), Mat([[0, 1]])]
    fs = [BumpSpec(box=list(UNIT)), BumpSpec(box=list(UNIT))]
    domain = [(Fraction(-1, 2), Fraction(5, 4)), (Fraction(-1, 4), Fraction(3, 2))]
    return p, pis, fs, domain


def _ranges(p, pis, fs, domain, n, rule):
    ((axes, *_, cuts),) = quadrature._factors(p, pis, fs)
    return [quadrature._support_range(
        quadrature._axis_rule(float(domain[i][0]), float(domain[i][1]), n, rule)[0], cut)
        for i, cut in zip(axes, cuts)]


@pytest.mark.parametrize("rule", ["gauss-legendre", "midpoint"])
def test_trimmed_sum_matches_full_grid(rule):
    p, pis, fs, domain = _wide_case()
    for a, b in _ranges(p, pis, fs, domain, 48, rule):
        assert 0 < a < b < 48
    _assert_level_matches(
        p, pis, fs, domain, 48, rule,
        lambda X: (X[0] * X[1] - X[1] ** 2 / 2 + X[0], 0.0),
        lambda X: _bump(X[0], 0.0, 1.0) * _bump(X[1], 0.0, 1.0))


@pytest.mark.parametrize("rule", ["gauss-legendre", "midpoint"])
def test_trim_with_negative_map_coefficient(rule):
    # -2*x1 in (-2, 0) keeps x1 in (0, 1); the modulation rides on t = -2*x1
    p = MultiPoly(2, {(1, 1): 1, (2, 0): 1})
    q = MultiPoly(1, {(1,): 1})
    pis = [Mat([[-2, 0]]), Mat([[0, 1]])]
    fs = [BumpSpec(box=[(-2, 0)], modulation=(q, 2.0)), BumpSpec(box=[(0, 1)])]
    domain = [(-1, 2), (-1, 2)]
    assert quadrature._factors(p, pis, fs)[0][-1] == [[(-2.0, -2, 0)], [(1.0, 0, 1)]]
    for a, b in _ranges(p, pis, fs, domain, 40, rule):
        assert 0 < a < b < 40
    _assert_level_matches(
        p, pis, fs, domain, 40, rule,
        lambda X: (X[0] * X[1] + X[0] ** 2, 4.0 * X[0]),
        lambda X: _bump(-2 * X[0], -2.0, 0.0) * _bump(X[1], 0.0, 1.0))


def test_two_axis_row_does_not_trim():
    # the bump on x1 + x2 reads both axes, and no row reads one alone
    p = MultiPoly(2, {(1, 1): 1})
    pis = [Mat([[1, 1]])]
    fs = [BumpSpec(box=[(0, 1)])]
    domain = [(-1, 2), (-1, 2)]
    assert quadrature._factors(p, pis, fs)[0][-1] == [[], []]
    assert _ranges(p, pis, fs, domain, 32, "gauss-legendre") == [(0, 32), (0, 32)]
    _assert_level_matches(p, pis, fs, domain, 32, "gauss-legendre",
                          lambda X: (X[0] * X[1], 0.0),
                          lambda X: _bump(X[0] + X[1], 0.0, 1.0))


def test_bump_outside_the_box_gives_zero_group_sum():
    # the bump on x2 lives on (2, 3), beyond the domain box: x2's group is 0
    p = MultiPoly(2, {(2, 0): 1, (0, 1): 1})
    pis = [Mat([[1, 0]]), Mat([[0, 1]])]
    fs = [BumpSpec(box=[(0, 1)]), BumpSpec(box=[(2, 3)])]
    cfg = QuadConfig(domain_box=[(0, 1), (0, 1)], nodes_per_axis=16)
    results = quadrature._refine(p, pis, fs, cfg, [(lam, []) for lam in (1.0, 8.0)])
    # equal estimates at 16 and 32 nodes converge, as the full grid's zeros do
    assert results == [(0j, 32), (0j, 32)]


def test_dropped_slabs_sum_to_exact_zero():
    p, pis, fs, domain = _wide_case()
    ((_, pg, maps, bumps, _, _),) = quadrature._factors(p, pis, fs)
    n = 64
    rules = [quadrature._axis_rule(float(lo), float(hi), n, "gauss-legendre")
             for lo, hi in domain]
    freqs = [(lam, []) for lam in (0.0, 5.0, 50.0)]
    for axis, (a, b) in enumerate(_ranges(p, pis, fs, domain, n, "gauss-legendre")):
        for dropped in (slice(0, a), slice(b, n)):
            block = tuple(dropped if i == axis else slice(None) for i in range(2))
            sums = quadrature._chunk_sums(pg, maps, bumps, rules, freqs, block)
            assert list(sums) == [0j] * len(freqs)


def test_trimmed_threads_match_serial(monkeypatch):
    p, pis, fs, domain = _wide_case()
    monkeypatch.setattr(quadrature, "CHUNK_LIMIT", 64)  # several blocks per level
    # the rows stop at 128, 256 and the cap, 256
    cfg = QuadConfig(domain_box=domain, nodes_per_axis=16, refine_tol=1e-4,
                     max_nodes_per_axis=256)
    lambdas = [1.0, 8.0, 32.0, 128.0]
    monkeypatch.setenv("OSCINT_THREADS", "1")
    serial = [(r.value, r.nodes, r.error) for r in sweep(p, pis, fs, lambdas, cfg).rows]
    monkeypatch.setenv("OSCINT_THREADS", "2")
    parallel = [(r.value, r.nodes, r.error) for r in sweep(p, pis, fs, lambdas, cfg).rows]
    assert [nodes for _, nodes, _ in serial] == [128, 256, 256, 256]
    assert parallel == serial


def test_truncated_axes():
    pis = [Mat([[1, 0, 0]]), Mat([[0, -2, 0], [0, 0, 1]]), Mat([[0, 1, 0]]),
           Mat([[0, 0, 1]])]
    fs = [BumpSpec(box=[(0, 1)]), BumpSpec(box=[(-2, 0), (0, 4)]),
          BumpSpec(box=[(Fraction(1, 2), 3)]), BumpSpec(box=[(-1, 1)])]
    # supports: x1 in (0, 1), x2 in (1/2, 1), x3 in (0, 1) (a two-row bump
    # and a bump on (-1, 1) intersected)
    assert quadrature.truncated_axes(pis, fs, [(0, 1)] * 3) == []
    assert quadrature.truncated_axes(pis, fs, [(-1, 2)] * 3) == []
    assert quadrature.truncated_axes(pis, fs, [(0, Fraction(1, 2)), (0, 1), (0, 1)]) == [0]
    assert quadrature.truncated_axes(pis, fs, [(0, 1), (Fraction(3, 4), 2), (0, 1)]) == [1]
    # a box inside the support cuts it on both faces; one beyond it cuts nothing
    assert quadrature.truncated_axes(pis, fs, [(0, 1), (0, 1), (Fraction(1, 4),
                                                                Fraction(3, 4))]) == [2]
    assert quadrature.truncated_axes(pis, fs, [(1, 2), (1, 2), (1, 2)]) == []
    # rows that read two axes tell nothing: x1 + x2 on (0, 1) over a wide box
    assert quadrature.truncated_axes([Mat([[1, 1]])], [BumpSpec(box=[(0, 1)])],
                                     [(0, Fraction(1, 4))] * 2) == []
    # an axis that no map reads has a constant amplitude, always cut: x3 of
    # the grouped case; x0 and x1 are read only by the row x0 + x1
    _, pis, fs, domain = _grouped_case()
    assert quadrature.truncated_axes(pis, fs, domain) == [3]


def test_interior_critical_point_matches_stationary_phase():
    # P = x1*x2 with bumps a(s) = exp(-1/(1-s^2)) on [-1, 1]: one
    # nondegenerate critical point at 0, |det H| = 1, signature 0.  Since
    # a(s) = e^-1 * (1 - s^2 + O(s^4)), stationary phase (Stein, Harmonic
    # Analysis, ch. VIII) gives lam*I = 2*pi*a(0)^2 * (1 - 2/lam^2 + O(lam^-4))
    # with a(0)^2 = e^-2; the tolerance is twice the 2/lam^2 term.
    p = MultiPoly(2, {(1, 1): 1})
    pis = [Mat([[1, 0]]), Mat([[0, 1]])]
    fs = [BumpSpec(box=[(-1, 1)]), BumpSpec(box=[(-1, 1)])]
    cfg = QuadConfig(domain_box=[(-1, 1), (-1, 1)], nodes_per_axis=64,
                     refine_tol=1e-8)
    lead = 2 * math.pi * math.exp(-2)
    for row in sweep(p, pis, fs, [32.0, 64.0, 128.0, 256.0], cfg).rows:
        assert row.error is None
        assert abs(row.lam * row.abs - lead) <= 2 * lead * 2 / row.lam ** 2, row.lam


# --- adversarial construction ---------------------------------------------

@pytest.fixture(scope="module")
def adversarial_setup():
    # degenerate phase P = x1^2 pulled back through the first coordinate map
    p = MultiPoly(2, {(2, 0): 1})
    pis = [Mat([[1, 0]]), Mat([[0, 1]])]
    cert = is_degenerate(p, pis, max_degree=2).certificate
    return p, pis, cert


def test_adversarial_constant_modulus(adversarial_setup):
    p, pis, cert = adversarial_setup
    boxes = [list(UNIT), list(UNIT)]
    cfg = QuadConfig(domain_box=[(0, 1), (0, 1)], nodes_per_axis=16,
                     refine_tol=1e-8)
    values = []
    for lam in (0.0, 5.0, 50.0, 500.0):
        fs = adversarial_functions(p, pis, cert, boxes, lam)
        v, _ = eval_integral(p, lam, pis, fs, cfg)
        values.append(v)
    spread = max(abs(a - b) for a in values for b in values)
    assert spread < 1e-12
    assert abs(values[0].imag) < 1e-15 and values[0].real > 0


def test_adversarial_rejects_bad_certificate(adversarial_setup):
    p, pis, cert = adversarial_setup
    bad = [(lab, q + MultiPoly.constant(q.num_vars, 1)) for lab, q in cert[:1]] + list(cert[1:])
    with pytest.raises(ValueError):
        adversarial_functions(p, pis, bad, [list(UNIT), list(UNIT)], 3.0)


def test_adversarial_rejects_certificate_variable_count_mismatch(adversarial_setup):
    p, pis, cert = adversarial_setup
    bad = [(cert[0][0], MultiPoly(2, {(2, 0): 1}))] + list(cert[1:])
    with pytest.raises(ValueError, match="q variable count != pi rows"):
        adversarial_functions(p, pis, bad, [list(UNIT), list(UNIT)], 3.0)


def test_adversarial_checks_the_sum_over_all_maps():
    # x1^2 = (u^2 + u)∘pi0 + (-u)∘pi1: neither term alone is x1^2, their sum is
    p = MultiPoly(2, {(2, 0): 1})
    pis = [Mat([[1, 0]]), Mat([[1, 0]])]
    q0, q1 = MultiPoly(1, {(2,): 1, (1,): 1}), MultiPoly(1, {(1,): -1})
    fs = adversarial_functions(p, pis, [("a", q0), ("b", q1)], [list(UNIT)] * 2, 3.0)
    assert [f.modulation for f in fs] == [(q0, 3.0), (q1, 3.0)]
    with pytest.raises(ValueError, match="invalid certificate"):
        adversarial_functions(p, pis, [("a", q0), ("b", q1 + q1)], [list(UNIT)] * 2, 3.0)


def test_adversarial_lambda_zero_unmodulated(adversarial_setup):
    p, pis, cert = adversarial_setup
    fs = adversarial_functions(p, pis, cert, [list(UNIT), list(UNIT)], 0.0)
    cfg = QuadConfig(domain_box=[(0, 1), (0, 1)], nodes_per_axis=16,
                     refine_tol=1e-8)
    plain = [BumpSpec(box=list(UNIT)), BumpSpec(box=list(UNIT))]
    a, _ = eval_integral(p, 0.0, pis, fs, cfg)
    b, _ = eval_integral(p, 0.0, pis, plain, cfg)
    assert abs(a - b) < 1e-12


# --- sweeps and fits -------------------------------------------------------

def test_sweep_preconditions(product_setup):
    p, pis, fs, cfg = product_setup
    with pytest.raises(ValueError):
        sweep(p, pis, fs, [], cfg)
    with pytest.raises(ValueError):
        sweep(p, pis, fs, [1, 2, 3], cfg)
    with pytest.raises(ValueError):
        sweep(p, pis, fs, [1, 2, 2, 3], cfg)


def test_sweep_rows_and_failed_row():
    p = MultiPoly(1, {(1,): 1})
    pis = [Mat([[1]])]
    fs = [BumpSpec(box=list(UNIT))]
    cfg = QuadConfig(domain_box=[(0, 1)], nodes_per_axis=8, refine_tol=1e-15,
                     max_nodes_per_axis=16)
    s = sweep(p, pis, fs, [1.0, 2.0, 4.0, 8.0], cfg)
    assert len(s.rows) == 4
    assert all(r.error == "node_cap_exceeded" for r in s.rows)
    assert all(r.value is not None for r in s.rows)


def test_sweep_rows_match_eval_integral(product_setup):
    # the rows stop refining at 32, 32, 64 and 128 nodes; the last one hits the cap
    p, pis, fs, _ = product_setup
    cfg = QuadConfig(domain_box=[(0, 1), (0, 1)], nodes_per_axis=8,
                     refine_tol=1e-4, max_nodes_per_axis=256)
    s = sweep(p, pis, fs, [0, 4, 32, 128, 1024], cfg)
    assert [r.nodes for r in s.rows] == [32, 32, 64, 128, 256]
    assert s.rows[-1].error == "node_cap_exceeded"
    for row in s.rows:
        try:
            value, nodes = eval_integral(p, row.lam, pis, fs, cfg)
            error = None
        except NodeCapExceeded as exc:
            value, nodes, error = exc.last, exc.nodes, "node_cap_exceeded"
        assert (row.nodes, row.error) == (nodes, error)
        assert abs(row.value - value) <= 1e-12 * abs(value)


def test_sweep_decay_of_nondegenerate_product(product_setup):
    p, pis, fs, _ = product_setup
    cfg = QuadConfig(domain_box=[(0, 1), (0, 1)], nodes_per_axis=64,
                     refine_tol=1e-5)
    s = sweep(p, pis, fs, [16, 64, 256, 1024], cfg)
    mags = [r.abs for r in s.rows]
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_fit_decay_synthetic_power_law():
    rows = [SweepRow(lam, complex(7.0 * (1 + lam) ** -0.5), 7.0 * (1 + lam) ** -0.5, 64)
            for lam in (1, 4, 16, 64, 256, 1024)]
    fit = fit_decay(DecaySweep(rows=rows))
    assert abs(fit.rho - 0.5) < 1e-6
    assert abs(fit.logC - math.log(7.0)) < 1e-6
    assert fit.r2 > 1 - 1e-12


def test_fit_decay_constant_sequence():
    rows = [SweepRow(lam, complex(0.25), 0.25, 32) for lam in (1, 2, 4, 8)]
    fit = fit_decay(DecaySweep(rows=rows))
    assert abs(fit.rho) < 1e-9
    assert fit.r2 == 1.0


def test_fit_decay_tail_filter_and_insufficient():
    rows = [SweepRow(lam, complex(1.0 / (1 + lam)), 1.0 / (1 + lam), 16)
            for lam in (1, 10, 100, 1000)]
    fit = fit_decay(DecaySweep(rows=list(rows)), tail_from=10)
    assert abs(fit.rho - 1.0) < 1e-9
    with pytest.raises(InsufficientTail):
        fit_decay(DecaySweep(rows=list(rows)), tail_from=500)


def test_fit_decay_leaves_out_rows_without_log1p():
    # log1p is undefined at 1 + lambda <= 0: those rows are left out, as
    # unconverged ones are, and the rest fit |I| = 3 (1 + lambda)^-1/2
    rows = [SweepRow(lam, complex(1.0), 1.0, 16) for lam in (-8, -4, -2, -1.5, -1)]
    rows += [SweepRow(lam, complex(3.0 * (1 + lam) ** -0.5), 3.0 * (1 + lam) ** -0.5, 16)
             for lam in (-0.5, 1, 10, 100)]
    fit = fit_decay(DecaySweep(rows=rows), tail_from=-8)
    assert abs(fit.rho - 0.5) < 1e-9
    assert abs(fit.logC - math.log(3.0)) < 1e-9
    with pytest.raises(InsufficientTail):
        fit_decay(DecaySweep(rows=rows[:4]), tail_from=-8)


def test_sweep_and_fit_reject_non_finite_lambdas():
    p, pis, fs = MultiPoly(1, {(1,): 1}), [Mat([[1]])], [BumpSpec(box=list(UNIT))]
    cfg = QuadConfig(domain_box=list(UNIT), nodes_per_axis=16, max_nodes_per_axis=32)
    rows = [SweepRow(lam, complex(1.0 / (1 + lam)), 1.0 / (1 + lam), 16)
            for lam in (1, 10, 100, 1000)]
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="lambdas must be finite"):
            sweep(p, pis, fs, [1, 2, 3, bad], cfg)
        with pytest.raises(ValueError, match="tail_from must be finite"):
            fit_decay(DecaySweep(rows=list(rows)), tail_from=bad)


def test_fit_decay_leaves_out_unconverged_rows():
    # |I| falls to the float noise floor at lambda = 3000, where the row
    # hits the 4096-node cap without converging
    s = sweep(MultiPoly(1, {(1,): 1}), [Mat([[1]])], [BumpSpec(box=list(UNIT))],
              [10, 100, 1000, 3000], QuadConfig(domain_box=list(UNIT), nodes_per_axis=16))
    assert [r.error for r in s.rows] == [None, None, None, "node_cap_exceeded"]
    assert s.rows[-1].nodes == 4096 and s.rows[-1].abs < 1e-15
    converged = DecaySweep(rows=s.rows[:3])
    assert fit_decay(s) == fit_decay(converged)
    assert s.fit == converged.fit


def test_sweep_parallel_matches_serial(product_setup, monkeypatch):
    p, pis, fs, _ = product_setup
    cfg = QuadConfig(domain_box=[(0, 1), (0, 1)], nodes_per_axis=16,
                     refine_tol=1e-4)
    serial = sweep(p, pis, fs, [1, 4, 16, 64], cfg)
    monkeypatch.setenv("OSCINT_THREADS", "4")
    parallel = sweep(p, pis, fs, [1, 4, 16, 64], cfg)
    assert [(r.lam, r.value, r.nodes) for r in serial.rows] == \
        [(r.lam, r.value, r.nodes) for r in parallel.rows]


def test_threads_keep_their_own_buffers(monkeypatch):
    # 64 blocks per level on 4 threads, switching every microsecond: block
    # buffers shared between threads would corrupt the block sums
    monkeypatch.setattr(quadrature, "CHUNK_LIMIT", 64)
    p = MultiPoly(3, {(1, 1, 0): 1, (0, 0, 2): 1})
    pis = [Mat([[1, 0, 0]]), Mat([[0, 1, 1]])]
    fs = [BumpSpec(box=[(0, 1)]), BumpSpec(box=[(0, 2)])]
    cfg = QuadConfig(domain_box=[(0, 1)] * 3, nodes_per_axis=16, max_nodes_per_axis=16)
    lambdas = [1.0, 10.0, 30.0, 60.0]
    monkeypatch.setenv("OSCINT_THREADS", "1")
    serial = [r.value for r in sweep(p, pis, fs, lambdas, cfg).rows]
    monkeypatch.setenv("OSCINT_THREADS", "4")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = [r.value for r in sweep(p, pis, fs, lambdas, cfg).rows]
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial


def test_sweep_serialization():
    rows = [SweepRow(1.0, complex(0.5, -0.25), abs(complex(0.5, -0.25)), 16),
            SweepRow(2.0, None, 0.0, 32, error="node_cap_exceeded")]
    s = DecaySweep(rows=rows, fit=FitResult(0.5, 0.1, 0.99))
    csv = sweep_to_csv(s)
    lines = csv.strip().split("\n")
    assert lines[0] == "lambda,re,im,abs,nodes"
    assert len(lines) == 3
    obj = sweep_to_json(s)
    assert obj["fit"]["rho"] == 0.5
    assert obj["rows"][1]["re"] is None
    assert obj["rows"][1]["error"] == "node_cap_exceeded"
