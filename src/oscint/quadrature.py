"""Numerical evaluation of the oscillatory forms: tensor-grid quadrature
of exp(i*lambda*P(x)) * prod_j f_j(pi_j x) over a box, lambda sweeps,
power-law decay fits, and the modulated bump factors that cancel a
degenerate phase exactly.

When the axes split into groups that no term of P and no map couples, the
integrand is a product of one factor per group, and the tensor-rule sum
over the full grid is the product of the sums over each group's sub-grid
(Fubini for a product rule).  The quadrature sums each group on its own
sub-grid; node counts, caps and the convergence test are those of the
full grid.

The bumps are compactly supported, so the integrand is exactly zero at a
node where a bump row that reads one axis alone fails the cutoff's test
|s| < 1.  Each axis of a sub-grid is cut to the range of nodes that pass
every such test, by the same float decision the cutoff makes; the dropped
points would each add a signed zero.  A grid inside every bump's support
keeps all of its nodes and gives bit-identical sums.

The Gauss-Legendre rules are built by Newton's method on the three-term
recurrence, O(n^2) work per rule.  The power-of-two rules from 8 to 4096
nodes, which doubling reaches from every power-of-two start, ship with the
package in gauss_legendre.npz as that build's output, bit for bit; each
is read from there when first used.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .linalg import Mat, finite_float
from .poly import MultiPoly, _check_certificate, _pullbacks

DEFAULT_NODE_CAPS = {1: 4096, 2: 4096, 3: 512, 4: 64}
MIN_NODES_PER_AXIS = 8
CHUNK_LIMIT = 1 << 15  # max grid points per block; its three block arrays take 768 KiB


class NodeCapExceeded(Exception):
    """Grid refinement hit the per-axis cap before converging.

    Carries the last two estimates so the caller can see how far apart
    they are.
    """

    def __init__(self, prev: complex, last: complex, nodes: int):
        super().__init__(f"no convergence at {nodes} nodes/axis "
                         f"(last two estimates {prev!r}, {last!r})")
        self.prev = prev
        self.last = last
        self.nodes = nodes


class InsufficientTail(Exception):
    """Fewer than 3 usable rows above the fit threshold."""


def _box_axes(box) -> list[tuple[Fraction, Fraction]]:
    """A box as (lo, hi) Fraction pairs, each axis checked to be nonempty
    and to have float bounds."""
    box = [(Fraction(lo), Fraction(hi)) for lo, hi in box]
    for lo, hi in box:
        if not lo < hi:
            raise ValueError(f"empty box axis [{lo}, {hi}]: need lo < hi")
        for bound in (lo, hi):
            finite_float(bound, "box bound")
    return box


def _rescale(t: np.ndarray, lo: Fraction, hi: Fraction) -> tuple[np.ndarray, np.ndarray]:
    """t mapped from [lo, hi] onto s in [-1, 1], and where the bump on that
    box axis is nonzero: |s| < 1."""
    lo_f, hi_f = float(lo), float(hi)
    s = (2.0 * t - (lo_f + hi_f)) / (hi_f - lo_f)
    return s, np.abs(s) < 1.0


@dataclass
class BumpSpec:
    """Smooth cutoff prod_i exp(-1/(1-s_i^2)) on a box (rescaled to
    [-1, 1] per axis, zero outside), optionally modulated by
    exp(-i*lam*Q(t))."""

    box: list[tuple[Fraction, Fraction]]
    modulation: Optional[tuple[MultiPoly, float]] = None

    def __post_init__(self):
        self.box = _box_axes(self.box)
        if self.modulation is not None:
            q, lam = self.modulation
            if q.num_vars != len(self.box):
                raise ValueError("modulation variable count != box dimension")
            self.modulation = (q, finite_float(lam, "modulation frequency"))

    def cutoff(self, t: Sequence[np.ndarray]) -> np.ndarray:
        """The real bump, without modulation, at points given as one array
        per box axis; the arrays broadcast together, and each axis factor
        is evaluated on its own array's shape."""
        val = 1.0
        for ti, (lo, hi) in zip(t, self.box):
            s, inside = _rescale(ti, lo, hi)
            axis = np.zeros_like(s)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                np.exp(-1.0 / (1.0 - s ** 2), out=axis, where=inside)
            val = val * axis
        return val


@dataclass
class QuadConfig:
    domain_box: list[tuple[Fraction, Fraction]]
    nodes_per_axis: int = 16
    rule: str = "gauss-legendre"
    refine_tol: float = 1e-4
    max_nodes_per_axis: Optional[int] = None

    def __post_init__(self):
        self.domain_box = _box_axes(self.domain_box)
        if self.nodes_per_axis < MIN_NODES_PER_AXIS:
            raise ValueError(f"nodes_per_axis must be >= {MIN_NODES_PER_AXIS}")
        if self.nodes_per_axis > self.node_cap():
            raise ValueError(f"nodes_per_axis must be <= the node cap {self.node_cap()}")
        if not self.refine_tol > 0:
            raise ValueError("refine_tol must be > 0")
        if self.rule not in ("gauss-legendre", "midpoint"):
            raise ValueError(f"unknown rule {self.rule!r}")

    def node_cap(self) -> int:
        if self.max_nodes_per_axis is not None:
            return self.max_nodes_per_axis
        m = len(self.domain_box)
        return DEFAULT_NODE_CAPS.get(m, 64)


@dataclass
class SweepRow:
    lam: float
    value: Optional[complex]
    abs: float
    nodes: int
    error: Optional[str] = None


@dataclass
class FitResult:
    rho: float
    logC: float
    r2: float


@dataclass
class DecaySweep:
    rows: list[SweepRow] = field(default_factory=list)
    fit: Optional[FitResult] = None


NEWTON_STEPS = 10  # cap only: the Tricomi guesses converge in 3-4 steps


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence (|x| < 1)."""
    # ((2k+1)*x*cur - k*prev) / (k+1) with its operations in their order,
    # so the bits are those of the plain expression, written into three
    # buffers that rotate; prev is scaled in place, as it is not read again
    prev, cur, nxt = np.ones_like(x), x.copy(), np.empty_like(x)
    for k in range(1, n):
        np.multiply(x, 2 * k + 1, out=nxt)
        nxt *= cur
        prev *= k
        nxt -= prev
        nxt /= k + 1
        prev, cur, nxt = cur, nxt, prev
    return cur, n * (prev - x * cur) / ((1.0 - x) * (1.0 + x))


# The n of the rules shipped in RULE_TABLE: the powers of two from
# MIN_NODES_PER_AXIS to the 1-d and 2-d node cap, which are all the sizes
# that doubling reaches from a power-of-two start.  The table holds
# np.stack(_newton_half(n)) under the key str(n); the README gives the
# command that regenerates it.
TABLED_NODE_COUNTS = frozenset(1 << k for k in range(3, 13))
RULE_TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gauss_legendre.npz")


def _newton_half(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ceil(n/2) nonnegative nodes of the n-point Gauss-Legendre rule
    on [-1, 1], descending, and their weights, in O(n) memory.

    Tricomi's asymptotic guesses are refined by Newton's method on the
    recurrence until every step is within a few ulp of 1 (after which the
    quadratic convergence has left an error far below one ulp); odd n has
    the node 0 exactly.  The weights are 2 / ((1 - x^2) P_n'(x)^2).
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0
    for _ in range(NEWTON_STEPS):
        p, dp = _legendre(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) <= 4 * np.finfo(float).eps:
            break
    _, dp = _legendre(n, x)
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * dp ** 2)


@lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], the nonnegative half mirrored.  That half is read from
    RULE_TABLE for the tabled n, which hold _newton_half's output bit for
    bit, and built by _newton_half for any other n; a missing table is an
    error, not a rebuild.  Cached per n, read-only.
    """
    if n in TABLED_NODE_COUNTS:
        with np.load(RULE_TABLE) as table:
            x, w = table[str(n)]
    else:
        x, w = _newton_half(n)
    nodes = np.concatenate([-x[:n // 2], x[::-1]])
    weights = np.concatenate([w[:n // 2], w[::-1]])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _axis_rule(lo: float, hi: float, n: int, rule: str) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on [lo, hi]."""
    if rule == "midpoint":
        h = (hi - lo) / n
        return lo + h * (np.arange(n) + 0.5), np.full(n, h)
    x, w = _gauss_legendre(n)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def _blocks(sizes: Sequence[int]):
    """The grid with sizes[i] points on axis i as blocks of at most
    CHUNK_LIMIT points, in grid-index order.  A block is one slice per
    axis: single indices on the leading axes, a range on one axis, and all
    of the trailing axes.
    """
    k = 0
    while math.prod(sizes[k + 1:]) > CHUNK_LIMIT:
        k += 1
    step = CHUNK_LIMIT // math.prod(sizes[k + 1:])
    for prefix in itertools.product(*map(range, sizes[:k])):
        for lo in range(0, sizes[k], step):
            yield (tuple(slice(i, i + 1) for i in prefix) + (slice(lo, lo + step),)
                   + (slice(None),) * (len(sizes) - k - 1))


def _support_range(x: np.ndarray, cuts) -> tuple[int, int]:
    """The index range [a, b) of the ascending nodes x outside which some
    single-axis bump row (c, lo, hi) of cuts is zero: the cutoff's own test
    |s| < 1 on t = c*x fails there.  t is monotone in x, so the nodes that
    pass every test are one range, (0, 0) when none does."""
    inside = np.ones(x.shape, dtype=bool)
    for c, lo, hi in cuts:
        inside &= _rescale(c * x, lo, hi)[1]
    idx = np.flatnonzero(inside)
    return (int(idx[0]), int(idx[-1]) + 1) if idx.size else (0, 0)


def _linear_form(row: np.ndarray, xs: Sequence[np.ndarray]):
    """sum_i row[i] * xs[i] over the nonzero coefficients, broadcast."""
    terms = [c * x for c, x in zip(row, xs) if c]
    return sum(terms[1:], terms[0]) if terms else np.zeros(())


def _chunk_sums(p: MultiPoly, pis: Sequence[np.ndarray], fs: Sequence[BumpSpec],
                axes, freqs: Sequence[tuple[float, Sequence[float]]], block) -> np.ndarray:
    """Partial sums over one block of a group's sub-grid (see _blocks and
    _factors), one per row; P, the maps and the bumps are the group's own.

    Axis i's nodes and weights enter as an array that is long along axis
    i and of length 1 along the others, so P, each Q_j o pi_j and each
    bump factor are evaluated by broadcasting on only the axes they use.
    The lambda-independent arrays are evaluated once; each row (lam, mus)
    then costs one exponential per point, exp(i*(lam*P - sum_j mus[j]*
    Q_j o pi_j)), with mus listing the frequencies of the modulated bumps
    in order.
    """
    m = len(axes)
    xs, ws = [], []
    for i, ((x, w), sl) in enumerate(zip(axes, block)):
        along_i = (1,) * i + (-1,) + (1,) * (m - i - 1)
        xs.append(x[sl].reshape(along_i))
        ws.append(w[sl].reshape(along_i))
    shape = tuple(x.size for x in xs)
    amp, phase, re = np.empty((3, *shape))
    amp[...] = ws[0]
    for w in ws[1:]:
        amp *= w
    pval = p.evaluate_array(xs)
    qvals = []
    for pi, f in zip(pis, fs):
        t = [_linear_form(row, xs) for row in pi]
        amp *= f.cutoff(t)
        if f.modulation is not None:
            qvals.append(f.modulation[0].evaluate_array(t))
    sums = np.empty(len(freqs), dtype=complex)
    for r, (lam, mus) in enumerate(freqs):
        np.multiply(pval, lam, out=phase)
        for mu, q in zip(mus, qvals):
            phase -= mu * q
        # exp(i*phase) as its real and imaginary parts; pairwise sums
        np.cos(phase, out=re)
        re *= amp
        im = np.sin(phase, out=phase)
        im *= amp
        sums[r] = complex(np.sum(re), np.sum(im))
    return sums


def _axis_cuts(m: int, pis: Sequence[Mat], fs: Sequence[BumpSpec]):
    """Per axis of R^m, the bump rows that read that axis alone: (c, lo, hi)
    for a row c*x_i whose bump is nonzero only for lo < c*x_i < hi."""
    cuts = [[] for _ in range(m)]
    for pi, f in zip(pis, fs):
        for row, (lo, hi) in zip(pi.entries, f.box):
            read = [i for i, c in enumerate(row) if c]
            if len(read) == 1:
                cuts[read[0]].append((row[read[0]], lo, hi))
    return cuts


def truncated_axes(pis: Sequence[Mat], fs: Sequence[BumpSpec],
                   domain_box: Sequence[tuple[Fraction, Fraction]]) -> list[int]:
    """The axes on which the amplitude is nonzero on a face of domain_box,
    as far as the single-axis bump rows tell, decided in exact arithmetic:
    the open interval where all of an axis's rows are nonzero contains an
    end of the axis's domain interval.  An axis that no map reads carries a
    constant amplitude, so it is always cut; one read only by rows on
    several axes is not flagged.  Such a cut adds boundary terms of order
    1/lambda to the integral, which distort a fitted decay rate."""
    read = {i for pi in pis for row in pi.entries for i, c in enumerate(row) if c}
    out = []
    for i, (cuts, (dlo, dhi)) in enumerate(zip(_axis_cuts(len(domain_box), pis, fs),
                                               domain_box)):
        if i not in read:
            out.append(i)
            continue
        if not cuts:
            continue
        ends = [sorted((lo / c, hi / c)) for c, lo, hi in cuts]
        lo, hi = max(a for a, _ in ends), min(b for _, b in ends)
        if lo < dlo < hi or lo < dhi < hi:
            out.append(i)
    return out


def _factors(p: MultiPoly, pis: Sequence[Mat], fs: Sequence[BumpSpec]):
    """The integrand as a product of factors on disjoint groups of axes.

    Union-find on exact supports joins axes that appear together in a term
    of P or that any row of the same map reads.  Each group, ordered by its
    smallest axis, gets its terms of P (the constant term goes to the first
    group, as does a map that reads no axis), its maps' columns as floats,
    its bumps, and the positions of their frequencies among the modulated
    bumps.  One group is the whole integrand with its terms in their order.
    Each group axis also gets its cuts (see _axis_cuts) with float
    coefficients.  Returns (axes, P, maps, bumps, mu positions, cuts) per
    group.
    """
    m = p.num_vars
    parent = list(range(m))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    term_axes = [[i for i, e in enumerate(exps) if e] for exps in p.terms]
    map_axes = [[c for c in range(m) if any(row[c] for row in pi.entries)] for pi in pis]
    for support in term_axes + map_axes:
        for i in support[1:]:
            parent[root(i)] = root(support[0])
    roots = [root(i) for i in range(m)]
    groups = list(dict.fromkeys(roots))

    def group(support):
        return groups.index(roots[support[0]]) if support else 0

    modulated = [j for j, f in enumerate(fs) if f.modulation is not None]
    axis_cuts = _axis_cuts(m, pis, fs)
    out = []
    for g, r in enumerate(groups):
        axes = [i for i in range(m) if roots[i] == r]
        terms = {tuple(exps[i] for i in axes): c
                 for (exps, c), support in zip(p.terms.items(), term_axes)
                 if group(support) == g}
        js = [j for j, support in enumerate(map_axes) if group(support) == g]
        maps = [np.array([[finite_float(row[i], "map entry") for i in axes]
                          for row in pis[j].entries])
                for j in js]
        mus = [modulated.index(j) for j in js if j in modulated]
        cuts = [[(finite_float(c, "map entry"), lo, hi) for c, lo, hi in axis_cuts[i]]
                for i in axes]
        out.append((axes, MultiPoly(len(axes), terms), maps, [fs[j] for j in js], mus,
                    cuts))
    return out


def _refine(p: MultiPoly, pis: Sequence[Mat], fs: Sequence[BumpSpec],
            cfg: QuadConfig, freqs: Sequence[tuple[float, Sequence[float]]]
            ) -> list[tuple[complex, int] | NodeCapExceeded]:
    """Tensor-grid quadrature of every row (lam, mus) at once, level by
    level: the nodes per axis double until a row's relative change drops
    below cfg.refine_tol, and converged rows drop out.

    The integrand is split into factors on independent axis groups (see
    _factors); at each level every group is summed on its own sub-grid of
    n**len(axes) points, and a row's estimate is the product of its group
    sums, in group order.  Nodes per axis, the cap and the convergence
    test are those of the full m-dimensional grid; only the number of
    points evaluated changes.  With one group the estimate is that group's
    sum, and the operations are those of a plain full-grid sum.

    Each group axis is cut to the nodes where its single-axis bump rows
    pass the cutoff's test (see _support_range); outside that range the
    integrand is exactly zero, and an empty range makes the group's sum 0.
    Rows that read several axes do not cut.  On a grid inside every bump's
    support nothing is cut and the operations are those of the full grid.

    Each sub-grid is summed block by block (see _blocks), each block at
    most CHUNK_LIMIT points, and each group's block sums are combined by a
    correctly rounded sum.  Returns, per row, (value, nodes per axis) or
    the NodeCapExceeded that ended it.
    """
    if len(fs) != len(pis):
        raise ValueError("one bump spec per map required")
    m = len(cfg.domain_box)
    if p.num_vars != m:
        raise ValueError("phase variable count != domain dimension")
    for pi, f in zip(pis, fs):
        if pi.cols != m:
            raise ValueError(f"map has {pi.cols} columns but the phase has {m} variables")
        if pi.rows != len(f.box):
            raise ValueError("bump box dimension != map target dimension")
    factors = _factors(p, pis, fs)
    cap = cfg.node_cap()
    n = cfg.nodes_per_axis
    prev: list[Optional[complex]] = [None] * len(freqs)
    out: list = [None] * len(freqs)
    active = list(range(len(freqs)))
    while active:
        rules = [_axis_rule(float(lo), float(hi), n, cfg.rule)
                 for lo, hi in cfg.domain_box]
        level = [freqs[r] for r in active]
        group_sums = []
        for axes, pg, maps, bumps, mu_pos, cuts in factors:
            ranges = [_support_range(rules[i][0], cut) for i, cut in zip(axes, cuts)]
            sizes = [b - a for a, b in ranges]
            if 0 in sizes:
                group_sums.append([0j] * len(level))
                continue
            kernel = functools.partial(
                _chunk_sums, pg, maps, bumps,
                [(rules[i][0][a:b], rules[i][1][a:b]) for i, (a, b) in zip(axes, ranges)],
                [(lam, [mus[k] for k in mu_pos]) for lam, mus in level])
            parts = np.array([kernel(block) for block in _blocks(sizes)])
            group_sums.append([complex(math.fsum(col.real), math.fsum(col.imag))
                               for col in parts.T])
        vals = [functools.reduce(operator.mul, sums) for sums in zip(*group_sums)]
        still = []
        for r, val in zip(active, vals):
            if prev[r] is not None:
                denom = max(abs(val), abs(prev[r]), 1e-300)
                if abs(val - prev[r]) <= cfg.refine_tol * denom:
                    out[r] = (val, n)
                    continue
            if 2 * n > cap:
                out[r] = NodeCapExceeded(val if prev[r] is None else prev[r], val, n)
                continue
            prev[r] = val
            still.append(r)
        active = still
        n *= 2
    return out


def _frequencies(fs: Sequence[BumpSpec]) -> list[float]:
    return [f.modulation[1] for f in fs if f.modulation is not None]


def eval_integral(p: MultiPoly, lam: float, pis: Sequence[Mat],
                  fs: Sequence[BumpSpec], cfg: QuadConfig) -> tuple[complex, int]:
    """Quadrature of the oscillatory form, refining the grid by doubling
    nodes per axis until the relative change drops below cfg.refine_tol.

    Returns (value, final nodes per axis); raises NodeCapExceeded if the
    cap is hit first.
    """
    (result,) = _refine(p, pis, fs, cfg, [(finite_float(lam, "lambda"), _frequencies(fs))])
    if isinstance(result, NodeCapExceeded):
        raise result
    return result


def adversarial_functions(p: MultiPoly, pis: Sequence[Mat],
                          cert: Sequence[tuple[str, MultiPoly]],
                          boxes: Sequence[Sequence[tuple[Fraction, Fraction]]],
                          lam: float) -> list[BumpSpec]:
    """Modulated bumps f_j(t) = exp(-i*lam*Q_j(t)) * bump(t) whose product
    cancels the phase lam*P exactly, given an exact certificate
    P = sum_j Q_j o pi_j, re-verified by is_degenerate's own check."""
    if len(cert) != len(pis) or len(boxes) != len(pis):
        raise ValueError("certificate / boxes / maps length mismatch")
    scaled = []
    for (_, q), pi in zip(cert, pis):
        if q.num_vars != pi.rows:
            raise ValueError("q variable count != pi rows")
        table = _pullbacks(pi, q.degree())
        scaled += [(c, table[e]) for e, c in q.terms.items()]
    _check_certificate(p, scaled)
    return [BumpSpec(box=list(box), modulation=(q, lam))
            for (_, q), box in zip(cert, boxes)]


def sweep(p: MultiPoly, pis: Sequence[Mat], fs: Sequence[BumpSpec],
          lambdas: Sequence[float], cfg: QuadConfig,
          adversarial_cert: Sequence[tuple[str, MultiPoly]] | None = None) -> DecaySweep:
    """One quadrature row per lambda, all rows refined together level by
    level; rows that fail to converge are kept with their last estimate and
    marked failed.  With a certificate (verified once) each bump j is
    modulated by exp(-i*lam*Q_j) at the row's own lambda.
    """
    lams = [finite_float(x, "lambdas") for x in lambdas]
    if len(lams) < 4:
        raise ValueError("need at least 4 lambda values")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambdas must be strictly increasing")
    if adversarial_cert is None:
        freqs = [(lam, _frequencies(fs)) for lam in lams]
    else:
        # the frequency stored in the bumps is unused: each row passes its own
        fs = adversarial_functions(p, pis, adversarial_cert, [f.box for f in fs], 0.0)
        freqs = [(lam, [lam] * len(fs)) for lam in lams]
    rows = []
    for lam, result in zip(lams, _refine(p, pis, fs, cfg, freqs)):
        if isinstance(result, NodeCapExceeded):
            rows.append(SweepRow(lam, result.last, abs(result.last), result.nodes,
                                 error="node_cap_exceeded"))
        else:
            rows.append(SweepRow(lam, result[0], abs(result[0]), result[1]))
    return DecaySweep(rows=rows)


def fit_decay(s: DecaySweep, tail_from: float = 0.0) -> FitResult:
    """Least-squares fit log|I| = logC - rho*log(1+lambda) on the tail
    rows that converged and have 1 + lambda > 0, where log1p is defined;
    stores and returns (rho, logC, r2)."""
    if not math.isfinite(tail_from):
        raise ValueError("tail_from must be finite")
    pts = [(r.lam, r.abs) for r in s.rows
           if r.lam >= tail_from and r.lam > -1.0 and r.error is None and r.abs > 0.0]
    if len(pts) < 3:
        raise InsufficientTail(f"only {len(pts)} usable rows with lambda >= {tail_from}")
    x = np.log1p([lam for lam, _ in pts])
    y = np.log([a for _, a in pts])
    A = np.stack([-x, np.ones_like(x)], axis=1)
    (rho, logc), res, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ np.array([rho, logc])
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    fit = FitResult(float(rho), float(logc), r2)
    s.fit = fit
    return fit


# ---------------------------------------------------------------------------
# output formats


def sweep_to_csv(s: DecaySweep) -> str:
    lines = ["lambda,re,im,abs,nodes"]
    for r in s.rows:
        re = r.value.real if r.value is not None else float("nan")
        im = r.value.imag if r.value is not None else float("nan")
        lines.append(f"{r.lam!r},{re!r},{im!r},{r.abs!r},{r.nodes}")
    return "\n".join(lines) + "\n"


def sweep_to_json(s: DecaySweep) -> dict:
    return {
        "rows": [{"lambda": r.lam,
                  "re": (r.value.real if r.value is not None else None),
                  "im": (r.value.imag if r.value is not None else None),
                  "abs": r.abs, "nodes": r.nodes, "error": r.error}
                 for r in s.rows],
        "fit": (None if s.fit is None else
                {"rho": s.fit.rho, "logC": s.fit.logC, "r2": s.fit.r2}),
    }
