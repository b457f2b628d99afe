"""Snarl data model and predicates: codimension profiles, the two
codimension hypotheses, splitting / transverse-splitting verification, and
the one-dimensional general-position check.

A snarl is an ordered, labelled family of proper nonzero subspaces of a
fixed ambient space.  Every predicate here is decided in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .linalg import Subspace, _annihilator, _set, intersect


class NonOneDimensional(Exception):
    """Raised when a codim-1-only predicate meets a higher-codim entry."""


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Snarl:
    """Ambient dimension plus an ordered tuple of (label, subspace) entries,
    a frozen value.

    Every subspace must be proper and nonzero (codimension in [1, m-1]);
    labels are unique.
    """

    ambient_dim: int
    entries: tuple[tuple[str, Subspace], ...]

    def __init__(self, ambient_dim: int, entries):
        entries = tuple((label, sub) for label, sub in entries)
        seen = set()
        for label, sub in entries:
            if label in seen:
                raise ValueError(f"duplicate label {label!r}")
            seen.add(label)
            if sub.ambient_dim != ambient_dim:
                raise ValueError(f"entry {label!r}: ambient dimension mismatch")
            if not 1 <= sub.codim <= ambient_dim - 1:
                raise ValueError(
                    f"entry {label!r}: codimension {sub.codim} outside [1, {ambient_dim - 1}]")
        _set(self, "ambient_dim", ambient_dim)
        _set(self, "entries", entries)

    def labels(self) -> list[str]:
        return [label for label, _ in self.entries]

    def subspace(self, label: str) -> Subspace:
        for lab, sub in self.entries:
            if lab == label:
                return sub
        raise KeyError(label)

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return f"Snarl(m={self.ambient_dim}, entries={self.labels()})"

    def replace(self, drop_label: str, new_entries) -> "Snarl":
        """New snarl with drop_label removed and new entries appended."""
        kept = [(lab, sub) for lab, sub in self.entries if lab != drop_label]
        return Snarl(self.ambient_dim, kept + list(new_entries))


@dataclass(frozen=True)
class SplitWitness:
    """Names the indices involved in a splitting: the replaced entry, the
    two replacement entries, and the partition of the remaining labels."""

    alpha0: str
    beta1: str
    beta2: str
    partition: tuple[frozenset, frozenset]


def codim_profile(s: Snarl) -> list[tuple[str, int]]:
    return [(label, sub.codim) for label, sub in s.entries]


def check_strong_hypothesis(s: Snarl) -> bool:
    """2·max(codim) + sum(codim) <= 2m."""
    kappas = [sub.codim for _, sub in s.entries]
    return 2 * max(kappas, default=0) + sum(kappas) <= 2 * s.ambient_dim


def check_weak_hypothesis(s: Snarl) -> bool:
    """max(codim) + sum(codim) <= 2m."""
    kappas = [sub.codim for _, sub in s.entries]
    return max(kappas, default=0) + sum(kappas) <= 2 * s.ambient_dim


def intersect_indexed(s: Snarl, labels) -> Subspace:
    """Intersection of the entries named by a nonempty label set."""
    labels = list(labels)
    if not labels:
        raise ValueError("empty label set")
    out = s.subspace(labels[0])
    for lab in labels[1:]:
        out = intersect(out, s.subspace(lab))
    return out


def is_splitting(parent: Snarl, child: Snarl, w: SplitWitness) -> bool:
    """Does the child replace entry alpha0 by two entries beta1, beta2 whose
    intersection is the removed subspace and whose codimensions add up?"""
    if child.ambient_dim != parent.ambient_dim:
        return False
    if len(child) != len(parent) + 1:
        return False
    plabels = set(parent.labels())
    clabels = set(child.labels())
    if w.alpha0 not in plabels or w.alpha0 in clabels:
        return False
    if {w.beta1, w.beta2} & plabels or not {w.beta1, w.beta2} <= clabels:
        return False
    if clabels - {w.beta1, w.beta2} != plabels - {w.alpha0}:
        return False
    for lab in plabels - {w.alpha0}:
        if parent.subspace(lab) != child.subspace(lab):
            return False
    v0 = parent.subspace(w.alpha0)
    w1 = child.subspace(w.beta1)
    w2 = child.subspace(w.beta2)
    if intersect(w1, w2) != v0:
        return False
    return w1.codim + w2.codim == v0.codim


def is_transverse_splitting(parent: Snarl, child: Snarl, w: SplitWitness) -> bool:
    """is_splitting plus the two partition-block conditions: the partition
    splits the other labels into two disjoint nonempty blocks, and beta1
    meets the intersection over the first block nontrivially (likewise
    beta2 and the second block).

    The other two conditions of the definition follow from is_splitting:
    beta1 + beta2 is the ambient space, as their codimensions add up to
    that of their intersection alpha0; and beta_i + alpha0 = beta_i, which
    the Snarl constructor keeps proper.
    """
    if not is_splitting(parent, child, w):
        return False
    s1, s2 = w.partition
    rest = set(parent.labels()) - {w.alpha0}
    if not s1 or not s2 or (s1 & s2) or (s1 | s2) != rest:
        return False
    w1 = child.subspace(w.beta1)
    w2 = child.subspace(w.beta2)
    return (intersect(w1, intersect_indexed(parent, s1)).dim != 0
            and intersect(w2, intersect_indexed(parent, s2)).dim != 0)


def is_onedim_general_position(s: Snarl) -> bool:
    """For a snarl of hyperplanes: is every set of <= m of the normal
    directions linearly independent?

    Checking subsets of size exactly k = min(n, m) suffices: a full-rank
    set has full-rank subsets.  The k-subsets are walked depth first, in
    the order of the entries, so each prefix is reduced once for all the
    subsets that share it.  A new normal is reduced fraction-free against
    the echelon rows of its prefix (Bareiss, Math. Comp. 22 (1968)): each
    step cross-multiplies by the pivot and divides exactly by the one
    before, so the entries stay minors of the integer normals.  It is
    dependent on its prefix exactly when it reduces to zero, and then some
    k-subset is dependent.
    """
    m = s.ambient_dim
    normals = []
    for label, sub in s.entries:
        if sub.codim != 1:
            raise NonOneDimensional(f"entry {label!r} has codimension {sub.codim}")
        normals.append(_annihilator(sub)[0][0])
    n = len(normals)
    k = min(n, m)
    echelon = []  # (row, pivot column, pivot, previous pivot) per prefix normal

    def extend(start: int) -> bool:
        """Do all k-subsets that extend the prefix by normals[start:] have
        full rank?"""
        if len(echelon) == k:
            return True
        prev = echelon[-1][2] if echelon else 1
        for i in range(start, n - k + len(echelon) + 1):
            v = normals[i]
            for row, c, p, d in echelon:
                f = v[c]
                v = [(p * x - f * y) // d for x, y in zip(v, row)]
            c = next((c for c, x in enumerate(v) if x), None)
            if c is None:
                return False
            echelon.append((v, c, v[c], prev))
            if not extend(i + 1):
                return False
            echelon.pop()
        return True

    return extend(0)


# ---------------------------------------------------------------------------
# JSON wire format


def subspace_to_json(sub: Subspace) -> list[list[str]]:
    """The reduced basis as "p" / "p/q" strings (frac_str of each entry of
    sub.basis), formatted from the integer rows: entry x of a row with
    pivot value d is x/d in lowest terms, and d > 0."""
    out = []
    for row, c in zip(sub.rows, sub.pivots):
        d = row[c]
        entries = []
        for x in row:
            g = gcd(x, d)
            entries.append(str(x // g) if g == d else f"{x // g}/{d // g}")
        out.append(entries)
    return out


def snarl_to_json(s: Snarl) -> dict:
    return {
        "m": s.ambient_dim,
        "subspaces": [{"label": lab, "basis": subspace_to_json(sub)}
                      for lab, sub in s.entries],
    }


def subspace_from_json(m: int, basis) -> Subspace:
    return Subspace(m, [[Fraction(str(x)) for x in v] for v in basis])


def snarl_from_json(obj: dict) -> Snarl:
    m = int(obj["m"])
    entries = [(e["label"], subspace_from_json(m, e["basis"])) for e in obj["subspaces"]]
    return Snarl(m, entries)
