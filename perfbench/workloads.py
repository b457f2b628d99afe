"""Seeded inputs for the four benchmark workloads.

Everything here is built without importing oscint: exact arithmetic goes
through sympy and Fraction, so the inputs (and the facts the oracles rely
on, such as which monomial lies off the degenerate span) are known apart
from the program under test.

Each generator returns (inputs, context): `inputs` is the JSON-able pool of
operations the client cycles through, `context` is what the oracles need
to check the outputs (kept in the harness process only).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import sympy as sp
from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix

ROOT = Path(__file__).resolve().parent.parent
CLTT_FIXTURE = ROOT / "fixtures" / "cltt-example.json"
ADVERSARIAL_FIXTURE = ROOT / "fixtures" / "adversarial-sweep.json"

# decide: (m, degree bound D, target dimension of each map), taken in turn.
# The last three give 35-row coefficient matrices (35x20, 35x30, 35x38).  With
# seven shapes the median decision falls inside the (4, 2) group, whose
# cost is well apart from its neighbours', so op_ms_p50 does not hop
# between groups from one seed to the next.
DECIDE_TUPLES = [
    (3, 1, (1, 1)),
    (2, 3, (1, 1)),
    (3, 2, (1, 1, 1)),
    (4, 2, (2, 2, 2)),
    (4, 3, (2, 2)),
    (4, 3, (3, 2)),
    (4, 3, (3, 2, 1, 1)),
]
DECIDE_TUPLES_PER_SHAPE = 2
# The map tuples are the fixed part of the workload: drawn from this seed in
# every run, so each run factors the same exact matrices.  The workload
# seed draws the stream of phases.
DECIDE_MAPS_SEED = 0
DECIDE_PHASES_PER_TUPLE = 60  # half pullback sums, half pushed off the span
MAP_ROW_VALUES = (3, 2, 1, 1)  # each map row: these magnitudes, shuffled, random signs

# resolve-replay: (m, codimension of each entry); every shape satisfies the
# weak hypothesis max + sum <= 2m and has an entry of codimension >= 2.
RESOLVE_SHAPES = [
    (3, (2, 1, 1)),
    (4, (2, 2, 1)),
    (4, (1, 1, 3)),
    (4, (3, 1, 1)),
    (4, (2, 1, 1, 2)),
    (5, (4, 1, 1)),
    (5, (1, 1, 1, 3)),
    (5, (2, 2, 2)),
]
RESOLVE_SNARLS_PER_SHAPE = 24  # about as many snarls as a run resolves

# sweep-decay: the top row's lambda is DECAY_SCALE / f, where f is the
# largest (phase gradient / 2) x (Gauss-Legendre node spacing factor) over
# the bump support.  Calibrated so the top row needs more than 512 and at
# most 1024 nodes per axis for refine_tol, i.e. it converges at 2048.
DECAY_SCALE = 628.0
DECAY_ROWS = 5
DECAY_TOL = 1e-6
DECAY_OPS = 8

ADVERSARIAL_MAPS = [[[1, 0, 0, 0], [0, 0, 1, 0]], [[0, 1, 0, 0], [0, 0, 0, 1]]]
ADVERSARIAL_TOL = 1e-5
ADVERSARIAL_OPS = 4

WORKLOADS = ("decide", "resolve-replay", "sweep-decay", "sweep-adversarial")


def frac_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def exact_rank(rows) -> int:
    """Rank over Q of a list of rational rows (sympy DomainMatrix)."""
    return _rank(tuple(tuple(Fraction(x) for x in r) for r in rows))


@lru_cache(maxsize=4096)
def _rank(rows: tuple) -> int:
    if not rows or not rows[0]:
        return 0
    # scaling a row by the lcm of its denominators keeps the rank
    data = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        data.append([ZZ(int(x * scale)) for x in row])
    return DomainMatrix(data, (len(data), len(data[0])), ZZ).rank()


def monomials(num_vars: int, max_degree: int) -> list[tuple[int, ...]]:
    """Every exponent tuple of total degree <= max_degree."""
    return [e for e in itertools.product(range(max_degree + 1), repeat=num_vars)
            if sum(e) <= max_degree]


def poly_json(num_vars: int, terms: dict) -> dict:
    """oscint's polynomial wire format."""
    return {"vars": num_vars,
            "terms": [{"exps": list(e), "coeff": frac_str(c)}
                      for e, c in sorted(terms.items()) if c != 0]}


def maps_json(maps) -> list[dict]:
    return [{"label": f"pi{j}", "rows": [[frac_str(x) for x in row] for row in pi]}
            for j, pi in enumerate(maps)]


def surjective_map(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    """Integer map whose rows carry the magnitudes MAP_ROW_VALUES[:cols] in
    random order with random signs, redrawn until it has full row rank.
    Fixed magnitudes keep the entry sizes of the exact matrices, and so
    the cost of a decision, alike from one tuple of a shape to the next."""
    while True:
        pi = []
        for _ in range(rows):
            row = [v * rng.choice((-1, 1)) for v in MAP_ROW_VALUES[:cols]]
            rng.shuffle(row)
            pi.append(row)
        if exact_rank(pi) == rows:
            return pi


# ---------------------------------------------------------------------------
# decide


class PullbackTable:
    """Coefficient vectors of q o pi_j for monomials q, expanded with sympy.

    Rows are indexed by the monomials of degree <= D in the m ambient
    variables; expansions are memoised per (map, exponent), and computed on
    demand for exponents outside the degree bound.
    """

    def __init__(self, maps, m: int, D: int):
        self.maps = maps
        self.m = m
        self.xs = sp.symbols(f"x0:{m}")
        self.forms = [[sp.Poly(sum(int(c) * x for c, x in zip(row, self.xs)), *self.xs, domain=QQ)
                       for row in pi] for pi in maps]
        self._polys: dict = {}
        self.row_basis = monomials(m, D)
        self.columns = [(j, e) for j, pi in enumerate(maps) for e in monomials(len(pi), D)]
        index = {e: i for i, e in enumerate(self.row_basis)}
        self.matrix = [[Fraction(0)] * len(self.columns) for _ in self.row_basis]
        for c, (j, e) in enumerate(self.columns):
            for mono, coeff in self.pullback(j, e).terms():
                self.matrix[index[mono]][c] = Fraction(int(coeff.numerator), int(coeff.denominator))

    def pullback(self, j: int, e: tuple[int, ...]) -> sp.Poly:
        key = (j, tuple(e))
        if key not in self._polys:
            out = sp.Poly(1, *self.xs, domain=QQ)
            for form, k in zip(self.forms[j], e):
                out *= form ** k
            self._polys[key] = out
        return self._polys[key]

    def poly(self, terms: dict) -> sp.Poly:
        """sympy Poly of an {exps: coeff} dict in the ambient variables."""
        return sp.Poly.from_dict({e: QQ(c.numerator, c.denominator) for e, c in terms.items()},
                                 *self.xs, domain=QQ)

    def off_span(self) -> list[tuple[int, ...]]:
        """Monomials whose coefficient vector is outside the column span:
        those on which some vector of the left null space is nonzero."""
        rows = [[QQ(x.numerator, x.denominator) for x in row] for row in self.matrix]
        At = DomainMatrix(rows, (len(rows), len(self.columns)), QQ).transpose()
        null = At.nullspace().to_list()
        return [e for i, e in enumerate(self.row_basis) if any(y[i] != 0 for y in null)]

    def vector(self, terms: dict) -> list[Fraction]:
        index = {e: i for i, e in enumerate(self.row_basis)}
        vec = [Fraction(0)] * len(self.row_basis)
        for e, c in terms.items():
            vec[index[e]] += c
        return vec


def build_decide(seed: int, rundir: Path):
    maps_rng = random.Random(f"decide-maps:{DECIDE_MAPS_SEED}")
    rng = random.Random(f"decide:{seed}")
    tuples, tables = [], []
    for m, D, ks in DECIDE_TUPLES * DECIDE_TUPLES_PER_SHAPE:
        while True:
            maps = [surjective_map(maps_rng, k, m) for k in ks]
            table = PullbackTable(maps, m, D)
            outside = table.off_span()
            if outside:
                break
        choice = maps_rng.choice(outside)
        column = [[int(mono == choice)] for mono in table.row_basis]
        if exact_rank([row + c for row, c in zip(table.matrix, column)]) <= exact_rank(table.matrix):
            raise ArithmeticError(f"monomial {choice} is inside the degenerate span")
        tuples.append({"m": m, "degree": D, "maps": maps_json(maps),
                       "off_span": list(choice)})
        tables.append(table)
    phases = []
    for k in range(DECIDE_PHASES_PER_TUPLE):
        for t, (table, tup) in enumerate(zip(tables, tuples)):
            degenerate = k % 2 == 0
            terms = _pullback_sum(rng, table)
            if not degenerate:
                e = tuple(tup["off_span"])
                terms[e] = terms.get(e, Fraction(0)) + rng.randint(1, 5)
                terms = {e: c for e, c in terms.items() if c != 0}
            phases.append({"tuple": t, "degenerate": degenerate,
                           "phase": poly_json(table.m, terms)})
    inputs = {"tuples": tuples, "pool": phases}
    return inputs, {"tables": tables}


def _pullback_sum(rng: random.Random, table: PullbackTable) -> dict:
    """A nonzero sum of pullbacks q_j o pi_j with random sparse q_j."""
    while True:
        coeffs = [rng.randint(-5, 5) if rng.random() < 0.5 else 0 for _ in table.columns]
        terms = {}
        for mono, row in zip(table.row_basis, table.matrix):
            c = sum(a * b for a, b in zip(row, coeffs))
            if c != 0:
                terms[mono] = Fraction(c)
        if terms:
            return terms


# ---------------------------------------------------------------------------
# resolve-replay


def random_snarl(rng: random.Random, m: int, kappas) -> dict:
    """Generic snarl: entry j is the span of m - kappa_j random integer
    vectors, redrawn until they are independent."""
    subspaces = []
    for j, kappa in enumerate(kappas):
        while True:
            basis = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(m - kappa)]
            if exact_rank(basis) == m - kappa:
                break
        subspaces.append({"label": f"v{j}", "basis": [[str(x) for x in v] for v in basis]})
    return {"m": m, "subspaces": subspaces}


def build_resolve(seed: int, rundir: Path):
    rng = random.Random(f"resolve-replay:{seed}")
    snarls = [json.loads(CLTT_FIXTURE.read_text())]
    for _ in range(RESOLVE_SNARLS_PER_SHAPE):
        for m, kappas in RESOLVE_SHAPES:
            snarls.append(random_snarl(rng, m, kappas))
    pool = []
    indir = rundir / "inputs"
    indir.mkdir(parents=True, exist_ok=True)
    for k, snarl in enumerate(snarls):
        path = indir / f"snarl-{k}.json"
        path.write_text(json.dumps(snarl))
        pool.append({"snarl": str(path), "seed": rng.randrange(1000)})
    warmup = {"snarl": str(CLTT_FIXTURE), "seed": 0}
    return {"pool": pool, "warmup": warmup}, {"snarls": snarls}


# ---------------------------------------------------------------------------
# sweep-decay


def _rat(rng: random.Random, lo: float, hi: float, den: int) -> Fraction:
    return Fraction(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)


def decay_phase_params(rng: random.Random, cross: bool) -> dict:
    c1, c2 = _rat(rng, 0.5, 1.5, 64), _rat(rng, 0.5, 1.5, 64)
    c3 = Fraction(0)
    if cross:
        c3 = rng.choice([-1, 1]) * _rat(rng, 0.15, 0.35, 64) * min(c1, c2)
    return {"c1": c1, "c2": c2, "c3": c3, "sign": rng.choice([-1, 1]),
            "a": _rat(rng, 0.35, 0.65, 64), "b": _rat(rng, 0.35, 0.65, 64),
            "box": [(-_rat(rng, 0.0, 0.5, 16), 1 + _rat(rng, 0.0, 0.5, 16))
                    for _ in range(2)]}


def decay_phase_terms(q: dict) -> dict:
    """c1 (x-a)^2 + sign c2 (y-b)^2 + c3 (x-a)(y-b), expanded."""
    c1, c2, c3, s, a, b = q["c1"], q["c2"], q["c3"], q["sign"], q["a"], q["b"]
    terms = {(2, 0): c1, (1, 0): -2 * c1 * a, (0, 2): s * c2, (0, 1): -2 * s * c2 * b,
             (0, 0): c1 * a * a + s * c2 * b * b + c3 * a * b,
             (1, 1): c3}
    terms[(1, 0)] -= c3 * b
    terms[(0, 1)] -= c3 * a
    return {e: c for e, c in terms.items() if c != 0}


def decay_frequency_scale(q: dict) -> float:
    """max over the bump support of |dP/dx_i| / 2 times the Gauss-Legendre
    spacing factor sqrt((x_i - lo_i)(hi_i - x_i)) of the domain box."""
    t = np.linspace(0.0, 1.0, 201)
    x, y = np.meshgrid(t, t, indexing="ij")
    u, v = x - float(q["a"]), y - float(q["b"])
    c1, c2, c3 = float(q["c1"]), float(q["c2"]), float(q["c3"])
    grads = [np.abs(2 * c1 * u + c3 * v) / 2, np.abs(2 * c2 * v + q["sign"] * c3 * u) / 2]
    out = 0.0
    for g, z, (lo, hi) in zip(grads, (x, y), q["box"]):
        out = max(out, float(np.max(g * np.sqrt((z - float(lo)) * (float(hi) - z)))))
    return out


def build_sweep_decay(seed: int, rundir: Path):
    rng = random.Random(f"sweep-decay:{seed}")
    pool, params = [], []
    indir = rundir / "inputs"
    indir.mkdir(parents=True, exist_ok=True)
    for k in range(DECAY_OPS):
        q = decay_phase_params(rng, cross=k % 2 == 1)
        top = DECAY_SCALE / decay_frequency_scale(q)
        lambdas = [round(top / 2 ** (DECAY_ROWS - 1 - r), 3) for r in range(DECAY_ROWS)]
        spec = {
            "phase": poly_json(2, decay_phase_terms(q)),
            "maps": maps_json([[[1, 0]], [[0, 1]]]),
            "bumps": [{"box": [["0", "1"]]}, {"box": [["0", "1"]]}],
            "lambdas": lambdas,
            "quad": {"nodes_per_axis": 64, "refine_tol": DECAY_TOL,
                     "max_nodes_per_axis": 2048,
                     "domain_box": [[frac_str(lo), frac_str(hi)] for lo, hi in q["box"]]},
            "tail_from": lambdas[0],
            "seed": seed,
        }
        path = indir / f"spec-{k}.json"
        path.write_text(json.dumps(spec))
        pool.append({"spec": str(path), "adversarial": False})
        params.append(dict(q, lambdas=lambdas, tol=DECAY_TOL))
    warm = {"phase": poly_json(1, {(2,): Fraction(1)}), "maps": maps_json([[[1]]]),
            "bumps": [{"box": [["0", "1"]]}], "lambdas": [1, 4, 16, 64],
            "quad": {"nodes_per_axis": 16, "domain_box": [["0", "1"]], "refine_tol": 1e-6}}
    warm_path = indir / "warmup.json"
    warm_path.write_text(json.dumps(warm))
    return ({"pool": pool, "warmup": {"spec": str(warm_path), "adversarial": False}},
            {"params": params})


# ---------------------------------------------------------------------------
# sweep-adversarial


def random_cubic(rng: random.Random) -> dict:
    """Five of the nine nonconstant monomials of degree <= 3 in two
    variables, at least one cubic, with random nonzero coefficients.  A
    fixed number of terms gives every seed the same work per grid point."""
    cubic = [e for e in monomials(2, 3) if sum(e) == 3]
    first = rng.choice(cubic)
    rest = rng.sample([e for e in monomials(2, 3) if 0 < sum(e) and e != first], 4)
    return {e: Fraction(rng.choice([-1, 1]) * rng.randint(1, 5)) for e in [first] + rest}


def build_sweep_adversarial(seed: int, rundir: Path):
    rng = random.Random(f"sweep-adversarial:{seed}")
    pool = []
    indir = rundir / "inputs"
    indir.mkdir(parents=True, exist_ok=True)
    for k in range(ADVERSARIAL_OPS):
        # Q_1(x1, y1) + Q_2(x2, y2) in the variables (x1, x2, y1, y2)
        terms: dict = {}
        for j in range(2):
            for (i, l), c in random_cubic(rng).items():
                e = [0, 0, 0, 0]
                e[j], e[j + 2] = i, l
                terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + c
        terms = {e: c for e, c in terms.items() if c != 0}
        start = round(rng.uniform(1.0, 8.0), 3)
        spec = {
            "phase": poly_json(4, terms),
            "maps": maps_json(ADVERSARIAL_MAPS),
            "bumps": [{"box": [["0", "1"], ["0", "1"]]}, {"box": [["0", "1"], ["0", "1"]]}],
            "lambdas": [start * 8 ** r for r in range(4)],
            "quad": {"nodes_per_axis": 16, "refine_tol": ADVERSARIAL_TOL,
                     "domain_box": [["0", "1"]] * 4},
            "seed": seed,
        }
        path = indir / f"spec-{k}.json"
        path.write_text(json.dumps(spec))
        pool.append({"spec": str(path), "adversarial": True})
    return ({"pool": pool, "warmup": {"spec": str(ADVERSARIAL_FIXTURE), "adversarial": True}},
            {"tol": ADVERSARIAL_TOL})


GENERATORS = {
    "decide": build_decide,
    "resolve-replay": build_resolve,
    "sweep-decay": build_sweep_decay,
    "sweep-adversarial": build_sweep_adversarial,
}
