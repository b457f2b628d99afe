"""Construction of transverse splittings and full resolutions.

A splitting replaces the entry of largest codimension kappa0 by two larger
subspaces V0+W' and V0+W'', where W' and W'' are generic complements drawn
inside the intersections over a balanced partition of the remaining
entries.  Genericity is realized by seeded random integer draws verified
exactly; failed draws are retried up to a hard cap and then surfaced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .linalg import (
    GenericityFailure,
    Mat,
    Subspace,
    constraint_matrix,
    intersect,
    kernel,
    random_subspace,
    subspace_sum,
)
from .snarl import (
    Snarl,
    SplitWitness,
    codim_profile,
    intersect_indexed,
    is_onedim_general_position,
    is_transverse_splitting,
    snarl_from_json,
    snarl_to_json,
    subspace_from_json,
    subspace_to_json,
)

SPLIT_MAX_RETRIES = 32
GENERIC_COEFF_BOUND = 10


class NotSplittable(ValueError):
    """The selected entry already has codimension one."""


class CannotPartition(ValueError):
    """Fewer than two labels remain besides the one being split."""


@dataclass(frozen=True)
class SplittingStep:
    """One verified transverse splitting, with its exact witnesses."""

    parent: Snarl
    child: Snarl
    witness: SplitWitness
    Wprime: Subspace
    Wdoubleprime: Subspace
    kappa_prime: int
    kappa_doubleprime: int
    seeds_used: list[int] = field(default_factory=list)


@dataclass
class Resolution:
    """Chain of snarls S0..SN linked by verified splitting steps; the last
    snarl has all codimensions equal to one."""

    chain: list[Snarl]
    steps: list[SplittingStep]
    terminal_general_position: bool

    @property
    def terminal(self) -> Snarl:
        return self.chain[-1]


def balance_partition(kappas: list[tuple[str, int]], excluded: str):
    """Split the labels other than `excluded` into two nonempty groups with
    codimension sums differing by at most the excluded codimension.

    Greedy largest-first (ties by input order): each label goes to the
    currently lighter group, so the final gap never exceeds the largest
    item: at most the excluded codimension when that is the largest, as in
    resolve.  A larger gap raises ValueError.
    """
    kappa0 = dict(kappas)[excluded]
    rest = [(lab, k) for lab, k in kappas if lab != excluded]
    if len(rest) < 2:
        raise CannotPartition("need at least 2 labels besides the split one")
    order = sorted(range(len(rest)), key=lambda i: (-rest[i][1], i))
    s1, s2 = set(), set()
    k1 = k2 = 0
    for i in order:
        lab, k = rest[i]
        if k1 <= k2:
            s1.add(lab)
            k1 += k
        else:
            s2.add(lab)
            k2 += k
    if abs(k1 - k2) > kappa0:
        raise ValueError(f"codimension sums {k1} and {k2} differ by more than "
                         f"{kappa0}, the codimension of {excluded!r}")
    return frozenset(s1), frozenset(s2)


def _fresh_labels(used, count: int) -> list[str]:
    out = []
    k = 1
    while len(out) < count:
        lab = f"b{k}"
        if lab not in used:
            out.append(lab)
        k += 1
    return out


def construct_transverse_splitting(s: Snarl, alpha0: str, seed: int) -> SplittingStep:
    """Build a transverse splitting of entry alpha0.

    W' and W'' are cut from the partition intersections V_S1, V_S2 by
    random generic subspaces, to kappa' + kappa'' = codim V0 dimensions.
    A draw is accepted when V0 + W' + W'' is the whole space: as dim V0 +
    kappa' + kappa'' = m, the sum is then direct, which is all is_splitting
    decides here.  The rest of is_transverse_splitting holds by
    construction (labels, untouched entries, the balanced partition, and
    W' nonzero inside both V0+W' and V_S1, likewise W''); verify_resolution
    decides it in full.  Rejected draws are retried with a fresh derived seed.
    """
    v0 = s.subspace(alpha0)
    kappa0 = v0.codim
    if kappa0 < 2:
        raise NotSplittable(f"entry {alpha0!r} has codimension 1")
    m = s.ambient_dim
    profile = codim_profile(s)
    s1, s2 = balance_partition(profile, alpha0)
    kd = dict(profile)
    ks1 = sum(kd[lab] for lab in s1)
    ks2 = sum(kd[lab] for lab in s2)
    # larger W-dimension against the lighter partition side, so the
    # subspaces U', U'' below have nonnegative codimension
    k_hi, k_lo = (kappa0 + 1) // 2, kappa0 // 2
    if ks1 <= ks2:
        kp, kpp = k_hi, k_lo
    else:
        kp, kpp = k_lo, k_hi
    vs1 = intersect_indexed(s, s1)
    vs2 = intersect_indexed(s, s2)
    beta1, beta2 = _fresh_labels(set(s.labels()), 2)
    witness = SplitWitness(alpha0=alpha0, beta1=beta1, beta2=beta2, partition=(s1, s2))

    seeds_used: list[int] = []
    for attempt in range(SPLIT_MAX_RETRIES):
        rng = random.Random(f"{seed}:{attempt}")
        su, suu = rng.randrange(2**32), rng.randrange(2**32)
        seeds_used.extend([su, suu])
        u1 = random_subspace(m, min(ks1 + kp, m), su, coeff_bound=GENERIC_COEFF_BOUND)
        u2 = random_subspace(m, min(ks2 + kpp, m), suu, coeff_bound=GENERIC_COEFF_BOUND)
        # a canonical cut to kp (kpp) dims when the generic intersection is larger
        w1 = intersect(u1, vs1).head(kp)
        w2 = intersect(u2, vs2).head(kpp)
        b1 = subspace_sum(v0, w1)
        if not subspace_sum(b1, w2).is_full():
            continue
        child = s.replace(alpha0, [(beta1, b1), (beta2, subspace_sum(v0, w2))])
        return SplittingStep(
            parent=s, child=child, witness=witness,
            Wprime=w1, Wdoubleprime=w2,
            kappa_prime=w1.dim, kappa_doubleprime=w2.dim,
            seeds_used=seeds_used,
        )
    raise GenericityFailure(
        f"no transverse splitting of {alpha0!r} after {SPLIT_MAX_RETRIES} attempts; "
        "the snarl may be too degenerate or the codimension hypothesis fails")


def resolve(s: Snarl, seed: int) -> Resolution:
    """Split the maximal-codimension entry (first on ties) until every
    entry is a hyperplane; deterministic given (snarl, seed)."""
    master = random.Random(seed)
    chain = [s]
    steps: list[SplittingStep] = []
    cur = s
    while True:
        kappas = codim_profile(cur)
        kmax = max(k for _, k in kappas)
        if kmax == 1:
            break
        alpha0 = next(lab for lab, k in kappas if k == kmax)
        step_seed = master.randrange(2**32)
        try:
            step = construct_transverse_splitting(cur, alpha0, step_seed)
        except GenericityFailure as exc:
            raise GenericityFailure(f"step {len(steps)}: {exc}") from exc
        steps.append(step)
        cur = step.child
        chain.append(cur)
    return Resolution(
        chain=chain,
        steps=steps,
        terminal_general_position=is_onedim_general_position(cur),
    )


def derived_projections(step: SplittingStep, pi0: Mat) -> tuple[Mat, Mat]:
    """Surjective maps whose kernels are V0+W'' and V0+W', both factoring
    exactly through the parent map pi0 of the split entry: D = L·pi0 holds
    iff ker pi0 ⊆ ker D, and the check below makes ker pi0 = V0 ⊆ V0+W."""
    v0 = step.parent.subspace(step.witness.alpha0)
    if kernel(pi0) != v0:
        raise ValueError("pi0 kernel does not match the split entry")
    return (constraint_matrix(subspace_sum(v0, step.Wdoubleprime)),
            constraint_matrix(subspace_sum(v0, step.Wprime)))


def verify_resolution(r: Resolution) -> dict:
    """Re-verify every step and the chain-level conservation laws."""
    step_reports = []
    ok = True
    total0 = sum(sub.codim for _, sub in r.chain[0].entries)
    for k, step in enumerate(r.steps):
        v0 = step.parent.subspace(step.witness.alpha0)
        # the child's new entries are V0 + W' and V0 + W''
        child = dict(step.child.entries)
        checks = {
            "links_chain": (
                step.parent == r.chain[k] and step.child == r.chain[k + 1]
                and child.get(step.witness.beta1) == subspace_sum(v0, step.Wprime)
                and child.get(step.witness.beta2) == subspace_sum(v0, step.Wdoubleprime)
                and step.kappa_prime == step.Wprime.dim
                and step.kappa_doubleprime == step.Wdoubleprime.dim),
            "transverse_splitting": is_transverse_splitting(step.parent, step.child,
                                                            step.witness),
            "codim_sum_conserved": sum(sub.codim for _, sub in step.child.entries) == total0,
            "max_codim_nonincreasing": (
                max(sub.codim for _, sub in step.child.entries)
                <= max(sub.codim for _, sub in step.parent.entries)),
            "W_intersection_trivial": intersect(step.Wprime, step.Wdoubleprime).dim == 0,
            "W_sum_meets_V0_trivially": intersect(
                subspace_sum(step.Wprime, step.Wdoubleprime), v0).dim == 0,
        }
        passed = all(checks.values())
        ok = ok and passed
        step_reports.append({"step": k, "passed": passed, "checks": checks})
    terminal_ok = all(sub.codim == 1 for _, sub in r.terminal.entries)
    general = terminal_ok and is_onedim_general_position(r.terminal)
    ok = ok and terminal_ok and general == r.terminal_general_position
    return {"passed": ok, "terminal_one_dimensional": terminal_ok,
            "terminal_general_position": general,
            "steps": step_reports}


# ---------------------------------------------------------------------------
# JSON wire format


def step_to_json(step: SplittingStep) -> dict:
    return {
        "alpha0": step.witness.alpha0,
        "beta1": step.witness.beta1,
        "beta2": step.witness.beta2,
        "partition": [sorted(step.witness.partition[0]),
                      sorted(step.witness.partition[1])],
        "Wprime": subspace_to_json(step.Wprime),
        "Wdoubleprime": subspace_to_json(step.Wdoubleprime),
        "kappa_prime": step.kappa_prime,
        "kappa_doubleprime": step.kappa_doubleprime,
        "seeds_used": step.seeds_used,
    }


def resolution_to_json(r: Resolution) -> dict:
    return {
        "chain": [snarl_to_json(s) for s in r.chain],
        "steps": [step_to_json(st) for st in r.steps],
        "terminal_general_position": r.terminal_general_position,
    }


def resolution_from_json(obj: dict) -> Resolution:
    chain = [snarl_from_json(s) for s in obj["chain"]]
    steps = []
    for k, st in enumerate(obj["steps"]):
        m = chain[k].ambient_dim
        witness = SplitWitness(
            alpha0=st["alpha0"], beta1=st["beta1"], beta2=st["beta2"],
            partition=(frozenset(st["partition"][0]), frozenset(st["partition"][1])))
        steps.append(SplittingStep(
            parent=chain[k], child=chain[k + 1], witness=witness,
            Wprime=subspace_from_json(m, st["Wprime"]),
            Wdoubleprime=subspace_from_json(m, st["Wdoubleprime"]),
            kappa_prime=st["kappa_prime"],
            kappa_doubleprime=st["kappa_doubleprime"],
            seeds_used=list(st["seeds_used"])))
    return Resolution(chain=chain, steps=steps,
                      terminal_general_position=obj["terminal_general_position"])
