import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from oscint.linalg import (
    Mat,
    Subspace,
    frac_str,
    intersect,
    kernel,
    random_subspace,
    subspace_sum,
)
from oscint.snarl import (
    NonOneDimensional,
    Snarl,
    SplitWitness,
    check_strong_hypothesis,
    check_weak_hypothesis,
    codim_profile,
    intersect_indexed,
    is_onedim_general_position,
    is_splitting,
    is_transverse_splitting,
    snarl_from_json,
    snarl_to_json,
    subspace_to_json,
)


def hyperplane(m, normal):
    return kernel(Mat([normal]))


def test_codim_profile_worked_example(cltt_snarl):
    assert [k for _, k in codim_profile(cltt_snarl)] == [2, 2, 2]


def test_codim_profile_single_hyperplane():
    s = Snarl(3, [("h", hyperplane(3, [1, 0, 0]))])
    assert codim_profile(s) == [("h", 1)]


def test_snarl_entries_are_immutable():
    s = Snarl(3, [("h", hyperplane(3, [1, 0, 0]))])
    with pytest.raises(TypeError):
        s.entries[0] = ("g", hyperplane(3, [0, 1, 0]))
    assert codim_profile(s) == [("h", 1)]


def test_codim_profile_six_hyperplanes():
    normals = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0],
               [0, 0, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1]]
    s = Snarl(4, [(f"h{i}", hyperplane(4, nv)) for i, nv in enumerate(normals)])
    assert [k for _, k in codim_profile(s)] == [1] * 6


def make_profile_snarl(m, kappas):
    from oscint.linalg import random_subspace

    return Snarl(m, [(f"v{i}", random_subspace(m, m - k, seed=100 + i))
                     for i, k in enumerate(kappas)])


@pytest.mark.parametrize("m,kappas,expect", [
    (4, (2, 2, 2), False),
    (4, (1, 1, 1, 1, 1, 1), True),
    (5, (2, 2, 2), True),
])
def test_strong_hypothesis(m, kappas, expect):
    assert check_strong_hypothesis(make_profile_snarl(m, kappas)) is expect


@pytest.mark.parametrize("m,kappas,expect", [
    (4, (2, 2, 2), True),
    (4, (2, 2, 2, 1), False),
    (2, (1, 1, 1), True),
])
def test_weak_hypothesis(m, kappas, expect):
    assert check_weak_hypothesis(make_profile_snarl(m, kappas)) is expect


def test_empty_snarl_meets_both_hypotheses():
    for m in (2, 4):
        s = Snarl(m, [])
        assert check_strong_hypothesis(s) is True
        assert check_weak_hypothesis(s) is True


def test_intersect_indexed(cltt_snarl):
    assert intersect_indexed(cltt_snarl, ["pi1"]) == cltt_snarl.subspace("pi1")
    assert intersect_indexed(cltt_snarl, ["pi0", "pi1"]).is_zero()
    with pytest.raises(KeyError):
        intersect_indexed(cltt_snarl, ["nope"])
    with pytest.raises(ValueError):
        intersect_indexed(cltt_snarl, [])


@pytest.fixture
def coordinate_split(cltt_snarl):
    """Replace ker(x1, y1) by the hyperplanes {x1=0} and {y1=0}."""
    w1 = hyperplane(4, [1, 0, 0, 0])
    w2 = hyperplane(4, [0, 0, 1, 0])
    child = cltt_snarl.replace("pi0", [("b1", w1), ("b2", w2)])
    witness = SplitWitness("pi0", "b1", "b2",
                           (frozenset({"pi1"}), frozenset({"pi2"})))
    return child, witness


def test_is_splitting_coordinate_hyperplanes(cltt_snarl, coordinate_split):
    child, witness = coordinate_split
    assert is_splitting(cltt_snarl, child, witness)


def test_is_splitting_wrong_cardinality(cltt_snarl, coordinate_split):
    child, witness = coordinate_split
    short = Snarl(4, [(lab, sub) for lab, sub in child.entries if lab != "b2"])
    assert not is_splitting(cltt_snarl, short, witness)


def test_is_splitting_codim_sum_fails(cltt_snarl):
    # both replacements equal to V0 plus the same line: codims 1+1 but
    # intersection is not V0 / codims do not add against codim(V0)=2
    v0 = cltt_snarl.subspace("pi0")
    from oscint.linalg import subspace_sum

    big = subspace_sum(v0, Subspace(4, [[1, 0, 1, 0]]))
    child = cltt_snarl.replace("pi0", [("b1", big), ("b2", big)])
    witness = SplitWitness("pi0", "b1", "b2",
                           (frozenset({"pi1"}), frozenset({"pi2"})))
    assert not is_splitting(cltt_snarl, child, witness)


def test_transverse_splitting_positive(cltt_snarl):
    from oscint.resolution import construct_transverse_splitting

    step = construct_transverse_splitting(cltt_snarl, "pi0", seed=11)
    assert is_transverse_splitting(step.parent, step.child, step.witness)


def test_transverse_implies_splitting(cltt_snarl):
    from oscint.resolution import construct_transverse_splitting

    step = construct_transverse_splitting(cltt_snarl, "pi0", seed=11)
    assert is_splitting(step.parent, step.child, step.witness)


def test_transverse_fails_when_not_spanning(cltt_snarl, coordinate_split):
    # {x1=0} and {y1=0} sum to {x1=0}+{y1=0} = R^4? They do span; build a
    # genuinely non-spanning pair instead: both inside {x1=0}.
    v0 = cltt_snarl.subspace("pi0")
    w1 = kernel(Mat([[1, 0, 0, 0], [0, 0, 1, 0]]))  # = V0 itself padded
    # W1 = V0 + line inside {x1=0}
    from oscint.linalg import subspace_sum

    w1 = subspace_sum(v0, Subspace(4, [[0, 0, 1, 0]]))  # {x1=0}
    w2 = subspace_sum(v0, Subspace(4, [[0, 0, 1, 1]]))  # still inside {x1=0}
    child = cltt_snarl.replace("pi0", [("b1", w1), ("b2", w2)])
    witness = SplitWitness("pi0", "b1", "b2",
                           (frozenset({"pi1"}), frozenset({"pi2"})))
    assert not is_transverse_splitting(cltt_snarl, child, witness)


def test_transverse_fails_on_bad_partition(cltt_snarl, coordinate_split):
    child, _ = coordinate_split
    bad = SplitWitness("pi0", "b1", "b2", (frozenset({"pi1"}), frozenset()))
    assert not is_transverse_splitting(cltt_snarl, child, bad)


def test_onedim_general_position_coordinate_hyperplanes():
    s = Snarl(4, [(f"h{i}", hyperplane(4, [int(i == j) for j in range(4)]))
                  for i in range(4)])
    assert is_onedim_general_position(s)


def test_onedim_general_position_duplicate_false():
    h = hyperplane(3, [1, 1, 0])
    s = Snarl(3, [("a", h), ("b", h)])
    assert not is_onedim_general_position(s)


def test_onedim_general_position_worked_terminal_false():
    # x1, y1, x2, y2, x1+x2, y1+y2: x1, x2, x1+x2 are dependent
    normals = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0],
               [0, 0, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1]]
    s = Snarl(4, [(f"h{i}", hyperplane(4, nv)) for i, nv in enumerate(normals)])
    assert not is_onedim_general_position(s)


def test_onedim_general_position_permutation_invariant():
    normals = [[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 2, 4]]
    entries = [(f"h{i}", hyperplane(3, nv)) for i, nv in enumerate(normals)]
    forward = is_onedim_general_position(Snarl(3, entries))
    backward = is_onedim_general_position(Snarl(3, entries[::-1]))
    assert forward == backward


def test_onedim_general_position_empty_snarl():
    for m in (2, 4):
        assert is_onedim_general_position(Snarl(m, [])) is True


def test_onedim_rejects_higher_codim(cltt_snarl):
    with pytest.raises(NonOneDimensional):
        is_onedim_general_position(cltt_snarl)


def _reference_general_position(s):
    """The subset-by-subset check: every min(n, m)-subset of the normals,
    each reduced from scratch."""
    m = s.ambient_dim
    normals = [sub.annihilator().rows[0] for _, sub in s.entries]
    k = min(len(normals), m)
    return all(Subspace(m, subset).dim == k for subset in combinations(normals, k))


def test_onedim_general_position_matches_subset_reference():
    rng = random.Random(20240611)
    answers = []
    shapes = set()
    repeated = 0
    for _ in range(2400):
        m, n = rng.randint(2, 6), rng.randint(1, 9)
        normals = []
        for _ in range(n):
            if normals and rng.random() < 0.05:
                normals.append(list(rng.choice(normals)))
                repeated += 1
                continue
            v = [0] * m
            while not any(v):
                v = [rng.randint(-2, 2) for _ in range(m)]
            normals.append(v)
        s = Snarl(m, [(f"h{i}", hyperplane(m, v)) for i, v in enumerate(normals)])
        expect = _reference_general_position(s)
        assert is_onedim_general_position(s) == expect, normals
        answers.append(expect)
        shapes.add(n <= m)
    assert shapes == {True, False}
    assert repeated > 50
    assert len(answers) / 3 <= answers.count(False) <= 2 * len(answers) / 3


def test_snarl_validation():
    with pytest.raises(ValueError):
        Snarl(3, [("a", Subspace.full(3))])  # codim 0
    with pytest.raises(ValueError):
        Snarl(3, [("a", Subspace.zero(3))])  # codim m
    h = hyperplane(3, [1, 0, 0])
    with pytest.raises(ValueError):
        Snarl(3, [("a", h), ("a", h)])  # duplicate label


def test_subspace_to_json_matches_basis_strings():
    # integer-row formatting against frac_str over the Fraction basis, on
    # seeded subspaces with integer and with rational spanning vectors
    rng = random.Random(2024)
    subs = [Subspace.zero(3), Subspace.full(3)]
    for _ in range(200):
        m = rng.randint(1, 7)
        dim = rng.randint(0, m)
        subs.append(random_subspace(m, dim, seed=rng.randrange(2**32)))
        subs.append(Subspace(m, [[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                  for _ in range(m)] for _ in range(dim)]))
    for sub in subs:
        assert subspace_to_json(sub) == [[frac_str(x) for x in v] for v in sub.basis]
    # the draws cover negative entries, non-integer entries and pivots other than 1
    assert any(x < 0 for sub in subs for row in sub.rows for x in row)
    assert any(row[c] > 1 for sub in subs for row, c in zip(sub.rows, sub.pivots))
    assert any("/" in x for sub in subs for v in subspace_to_json(sub) for x in v)


def test_snarl_json_round_trip(cltt_snarl):
    obj = snarl_to_json(cltt_snarl)
    text = json.dumps(obj)
    assert snarl_from_json(json.loads(text)) == cltt_snarl


def test_splitting_conservation_laws(cltt_snarl):
    from oscint.resolution import construct_transverse_splitting

    step = construct_transverse_splitting(cltt_snarl, "pi0", seed=2)
    parent_k = [sub.codim for _, sub in step.parent.entries]
    child_k = [sub.codim for _, sub in step.child.entries]
    assert sum(parent_k) == sum(child_k)
    assert max(child_k) <= max(parent_k)


def transverse_by_definition(parent, child, w):
    """The definition written out in full: a splitting, a partition of the
    other labels into two nonempty blocks, and all four positional
    conditions, including the two that is_transverse_splitting leaves to
    is_splitting."""
    if not is_splitting(parent, child, w):
        return False
    s1, s2 = w.partition
    rest = set(parent.labels()) - {w.alpha0}
    if not s1 or not s2 or (s1 & s2) or (s1 | s2) != rest:
        return False
    v0 = parent.subspace(w.alpha0)
    w1 = child.subspace(w.beta1)
    w2 = child.subspace(w.beta2)
    return (intersect(w1, intersect_indexed(parent, s1)).dim != 0
            and intersect(w2, intersect_indexed(parent, s2)).dim != 0
            and subspace_sum(w1, w2).is_full()
            and not subspace_sum(w1, v0).is_full()
            and not subspace_sum(w2, v0).is_full())


def tampered_steps(step):
    """Children and witnesses near a real step: beta1 and beta2 swapped,
    beta1 swapped with another entry, beta1 rebuilt from W' less one basis
    vector, and wrong partitions."""
    parent, child, w = step.parent, step.child, step.witness
    s1, s2 = w.partition
    wb1, wb2 = child.subspace(w.beta1), child.subspace(w.beta2)
    m = child.ambient_dim
    out = [(child.replace(w.beta1, [(w.beta1, wb2)]).replace(w.beta2, [(w.beta2, wb1)]), w)]
    other = sorted(s1)[0]
    swapped = [(lab, wb1 if lab == other else child.subspace(other) if lab == w.beta1
                else sub) for lab, sub in child.entries]
    out.append((Snarl(m, swapped), w))
    short = subspace_sum(parent.subspace(w.alpha0), Subspace(m, step.Wprime.basis[1:]))
    out.append((child.replace(w.beta1, [(w.beta1, short)]), w))
    for partition in [(s2, s1), (s1 | s2, frozenset()), (s1, s2 | {w.beta1}),
                      (s1 - {other}, s2 | {other})]:
        out.append((child, SplitWitness(w.alpha0, w.beta1, w.beta2, partition)))
    return out


def test_transverse_splitting_matches_definition():
    from conftest import random_snarl
    from oscint.resolution import resolve

    splittings = tampered = 0
    for k in range(50):
        steps = resolve(random_snarl(500 + k, m_range=(3, 6)), seed=k).steps
        for step in steps:
            assert is_transverse_splitting(step.parent, step.child, step.witness)
            assert transverse_by_definition(step.parent, step.child, step.witness)
        for child, w in tampered_steps(steps[0]):
            expect = transverse_by_definition(steps[0].parent, child, w)
            assert is_transverse_splitting(steps[0].parent, child, w) is expect
            splittings += is_splitting(steps[0].parent, child, w)
            tampered += 1
    # most tampered cases are still splittings, so the partition conditions
    # and the deleted ones are what decide them
    assert splittings > tampered // 2


def test_snarl_is_a_frozen_hashable_value():
    line = Subspace(3, [[1, 0, 0]])
    s = Snarl(3, [("a", line), ("b", Subspace(3, [[0, 1, 0]]))])
    for name in ("ambient_dim", "entries"):
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(s, name))
    twin = Snarl(3, [("a", Subspace(3, [[2, 0, 0]])), ("b", Subspace(3, [[0, 3, 0]]))])
    assert s == twin and hash(s) == hash(twin) and len({s, twin}) == 1
    assert s != Snarl(3, [("b", Subspace(3, [[0, 1, 0]])), ("a", line)])
