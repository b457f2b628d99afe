import dataclasses
import json
import random
from pathlib import Path

import pytest

from conftest import random_snarl
from test_snarl import transverse_by_definition
from oscint.linalg import (GenericityFailure, Mat, Subspace, constraint_matrix,
                           intersect, kernel, random_subspace, rank, solve,
                           subspace_sum)
from oscint.resolution import (
    CannotPartition,
    NotSplittable,
    SplittingStep,
    balance_partition,
    construct_transverse_splitting,
    derived_projections,
    resolution_from_json,
    resolution_to_json,
    resolve,
    verify_resolution,
)
from oscint.snarl import (Snarl, check_weak_hypothesis, intersect_indexed,
                          is_transverse_splitting)

RECORDS = Path(__file__).resolve().parent.parent / "fixtures" / "records"


def test_balance_partition_worked_example():
    s1, s2 = balance_partition([("pi0", 2), ("pi1", 2), ("pi2", 2)], "pi0")
    assert {s1, s2} == {frozenset({"pi1"}), frozenset({"pi2"})}


def test_balance_partition_greedy():
    s1, s2 = balance_partition([("a", 3), ("b", 3), ("c", 1), ("d", 1)], "a")
    assert {s1, s2} == {frozenset({"b"}), frozenset({"c", "d"})}


def test_balance_partition_rejects_gap_above_excluded_codim():
    # greedy puts b (4) and c (1) on opposite sides: a gap of 3 > codim a = 2
    with pytest.raises(ValueError, match="differ by more than 2, the codimension of 'a'"):
        balance_partition([("a", 2), ("b", 4), ("c", 1)], "a")


def test_split_of_a_non_maximal_entry_raises_value_error():
    s = Snarl(6, [("a", random_subspace(6, 4, seed=71)),
                  ("b", random_subspace(6, 2, seed=72)),
                  ("c", random_subspace(6, 5, seed=73))])
    assert [sub.codim for _, sub in s.entries] == [2, 4, 1]
    with pytest.raises(ValueError, match="codimension sums 4 and 1"):
        construct_transverse_splitting(s, "a", seed=0)


def test_balance_partition_too_few():
    with pytest.raises(CannotPartition):
        balance_partition([("a", 2), ("b", 1)], "a")


def test_construct_on_worked_example(cltt_snarl):
    step = construct_transverse_splitting(cltt_snarl, "pi0", seed=0)
    child_k = sorted(sub.codim for _, sub in step.child.entries)
    assert child_k == [1, 1, 2, 2]
    assert step.kappa_prime == step.kappa_doubleprime == 1
    v0 = cltt_snarl.subspace("pi0")
    assert intersect(step.Wprime, step.Wdoubleprime).is_zero()
    assert intersect(subspace_sum(step.Wprime, step.Wdoubleprime), v0).is_zero()
    assert is_transverse_splitting(step.parent, step.child, step.witness)


def test_construct_not_splittable():
    h = kernel(Mat([[1, 0, 0]]))
    s = Snarl(3, [("a", h), ("b", kernel(Mat([[0, 1, 0]]))),
                  ("c", kernel(Mat([[0, 0, 1]])))])
    with pytest.raises(NotSplittable):
        construct_transverse_splitting(s, "a", seed=0)


def test_construct_genericity_failure_on_repeated_subspace():
    # three copies of one codim-2 subspace: (W'+W'') always meets V0
    v = random_subspace(4, 2, seed=3)
    s = Snarl(4, [("a", v), ("b", v), ("c", v)])
    with pytest.raises(GenericityFailure):
        construct_transverse_splitting(s, "a", seed=0)


def test_construct_genericity_failure_when_block_meets_trivially():
    # V0 a line of Q^3, block S1 a line and a plane meeting only in 0: W'
    # lies in V_S1 = {0}, so V0 + W' + W'' is never the whole space.  The
    # snarl breaks the weak hypothesis, so only this API can reach it.
    s = Snarl(3, [("a", kernel(Mat([[0, 1, 0], [0, 0, 1]]))),
                  ("b", kernel(Mat([[1, 0, 0], [0, 0, 1]]))),
                  ("c", kernel(Mat([[1, 0, 0], [0, 1, 0]]))),
                  ("d", kernel(Mat([[1, 1, 1]])))])
    assert not check_weak_hypothesis(s)
    s1, _ = balance_partition([(lab, sub.codim) for lab, sub in s.entries], "a")
    assert s1 == {"b", "d"} and intersect_indexed(s, s1).is_zero()
    with pytest.raises(GenericityFailure):
        construct_transverse_splitting(s, "a", seed=0)


def test_constructed_steps_match_definition():
    steps = 0
    for k in range(300):
        for step in resolve(random_snarl(2000 + k, m_range=(3, 6)), seed=k).steps:
            w1, w2 = step.Wprime, step.Wdoubleprime
            v0 = step.parent.subspace(step.witness.alpha0)
            assert transverse_by_definition(step.parent, step.child, step.witness), k
            assert intersect(w1, w2).is_zero(), k
            assert intersect(subspace_sum(w1, w2), v0).is_zero(), k
            steps += 1
    assert steps > 300


def test_resolve_worked_example(cltt_snarl):
    r = resolve(cltt_snarl, seed=7)
    assert len(r.steps) == 3
    assert len(r.terminal) == 6
    assert all(sub.codim == 1 for _, sub in r.terminal.entries)
    assert verify_resolution(r)["passed"]


def test_resolve_already_one_dimensional():
    s = Snarl(3, [("a", kernel(Mat([[1, 0, 0]]))),
                  ("b", kernel(Mat([[0, 1, 0]])))])
    r = resolve(s, seed=1)
    assert r.steps == []
    assert r.chain == [s]
    assert r.terminal == s


def test_resolve_m6_four_codim2():
    s = Snarl(6, [(f"v{i}", random_subspace(6, 4, seed=500 + i)) for i in range(4)])
    r = resolve(s, seed=9)
    assert len(r.steps) == 4
    assert len(r.terminal) == 8
    assert r.terminal_general_position


def test_resolve_deterministic(cltt_snarl):
    r1 = resolve(cltt_snarl, seed=13)
    r2 = resolve(cltt_snarl, seed=13)
    assert resolution_to_json(r1) == resolution_to_json(r2)


def test_resolve_conservation_along_chain(cltt_snarl):
    r = resolve(cltt_snarl, seed=21)
    total = sum(sub.codim for _, sub in r.chain[0].entries)
    maxes = [max(sub.codim for _, sub in s.entries) for s in r.chain]
    for s in r.chain:
        assert sum(sub.codim for _, sub in s.entries) == total
    assert all(a >= b for a, b in zip(maxes, maxes[1:]))
    assert len(r.terminal) == total


def test_derived_projections_worked_example(cltt_snarl, cltt_maps):
    step = construct_transverse_splitting(cltt_snarl, "pi0", seed=3)
    pi_n, pi_n1 = derived_projections(step, cltt_maps[0])
    v0 = cltt_snarl.subspace("pi0")
    assert kernel(pi_n) == subspace_sum(v0, step.Wdoubleprime)
    assert kernel(pi_n1) == subspace_sum(v0, step.Wprime)
    assert pi_n.rows == subspace_sum(v0, step.Wdoubleprime).codim
    assert pi_n1.rows == subspace_sum(v0, step.Wprime).codim


def test_derived_projections_rejects_wrong_map(cltt_snarl, cltt_maps):
    step = construct_transverse_splitting(cltt_snarl, "pi0", seed=3)
    with pytest.raises(ValueError):
        derived_projections(step, cltt_maps[1])  # kernel is pi1's, not pi0's


def test_derived_projections_random_step():
    s = random_snarl(42)
    kappas = [(lab, sub.codim) for lab, sub in s.entries]
    alpha0 = next(lab for lab, k in kappas if k == max(x for _, x in kappas))
    step = construct_transverse_splitting(s, alpha0, seed=5)
    from oscint.linalg import constraint_matrix

    pi0 = constraint_matrix(s.subspace(alpha0))
    pi_n, pi_n1 = derived_projections(step, pi0)
    v0 = s.subspace(alpha0)
    assert kernel(pi_n) == subspace_sum(v0, step.Wdoubleprime)
    assert kernel(pi_n1) == subspace_sum(v0, step.Wprime)


def _factoring(derived: Mat, pi0: Mat) -> Mat:
    """L with L @ pi0 == derived, one row per solve against pi0^T."""
    rows = [solve(pi0.transpose(), row) for row in derived.entries]
    assert None not in rows, "a derived row is not in pi0's row space"
    return Mat(rows, cols=pi0.rows)


def _scrambled(pi: Mat, rng: random.Random) -> Mat:
    """pi premultiplied by a random invertible integer matrix: the same
    kernel, but not the canonical constraint matrix."""
    while True:
        R = Mat([[rng.randint(-3, 3) for _ in range(pi.rows)] for _ in range(pi.rows)])
        if rank(R) == pi.rows:
            return R.matmul(pi)


def _check_factoring(step: SplittingStep, pi0: Mat):
    derived = derived_projections(step, pi0)
    for D in derived:
        assert _factoring(D, pi0).matmul(pi0) == D
    return derived


@pytest.mark.parametrize("seed", range(6))
def test_derived_projections_factor_through_pi0_worked_example(cltt_snarl, cltt_maps, seed):
    maps = dict(zip(("pi0", "pi1", "pi2"), cltt_maps))
    r = resolve(cltt_snarl, seed)
    assert r.steps
    for step in r.steps:
        _check_factoring(step, maps[step.witness.alpha0])


@pytest.mark.parametrize("seed", range(8))
def test_derived_projections_factor_through_pi0_random_steps(seed):
    rng = random.Random(seed)
    r = resolve(random_snarl(seed), seed)
    for step in r.steps:
        v0 = step.parent.subspace(step.witness.alpha0)
        pi0 = _scrambled(constraint_matrix(v0), rng)
        pi_n, pi_n1 = _check_factoring(step, pi0)
        assert kernel(pi_n) == subspace_sum(v0, step.Wdoubleprime)
        assert kernel(pi_n1) == subspace_sum(v0, step.Wprime)


def test_verify_resolution_detects_tampering(cltt_snarl):
    r = resolve(cltt_snarl, seed=2)
    obj = resolution_to_json(r)
    # replace one subspace in a middle chain element
    obj["chain"][1]["subspaces"][0]["basis"] = [["1", "0", "0", "0"]]
    tampered = resolution_from_json(obj)
    rep = verify_resolution(tampered)
    assert not rep["passed"]
    assert any(not s["passed"] for s in rep["steps"])


def test_verify_resolution_ties_w_to_child_entries(cltt_snarl):
    # an unrelated W' leaves every other check true: the child's entry
    # beta1 must be V0 + W'
    r = resolve(cltt_snarl, seed=0)
    assert verify_resolution(r)["passed"]
    r.steps[0] = dataclasses.replace(r.steps[0], Wprime=random_subspace(4, 1, 12345))
    rep = verify_resolution(r)
    assert not rep["passed"]
    checks = rep["steps"][0]["checks"]
    assert [name for name, ok in checks.items() if not ok] == ["links_chain"]


def test_verify_resolution_checks_recorded_kappas():
    obj = json.loads((RECORDS / "cltt-example-seed0.record.json").read_text())
    res = obj["output"]["resolution"]
    assert verify_resolution(resolution_from_json(res))["passed"]
    res["steps"][0].update(kappa_prime=3, kappa_doubleprime=0)
    rep = verify_resolution(resolution_from_json(res))
    assert not rep["passed"]
    checks = rep["steps"][0]["checks"]
    assert [name for name, ok in checks.items() if not ok] == ["links_chain"]


def test_verify_resolution_decides_terminal_general_position():
    obj = json.loads((RECORDS / "cltt-example-seed0.record.json").read_text())
    res = obj["output"]["resolution"]
    assert res["terminal_general_position"] is True
    res["terminal_general_position"] = False
    rep = verify_resolution(resolution_from_json(res))
    assert not rep["passed"]
    assert rep["terminal_general_position"] is True
    assert all(step["passed"] for step in rep["steps"])


def test_verify_empty_chain():
    s = Snarl(3, [("a", kernel(Mat([[1, 2, 3]])))])
    r = resolve(s, seed=0)
    rep = verify_resolution(r)
    assert rep["passed"] and rep["terminal_one_dimensional"]


def test_resolution_json_round_trip(cltt_snarl):
    r = resolve(cltt_snarl, seed=4)
    obj = json.loads(json.dumps(resolution_to_json(r)))
    r2 = resolution_from_json(obj)
    assert verify_resolution(r2)["passed"]
    assert resolution_to_json(r2) == resolution_to_json(r)


def test_strong_hypothesis_preserved():
    # m=6 with kappas (2,2,2,2): strong hypothesis 4+8 <= 12 holds
    s = Snarl(6, [(f"v{i}", random_subspace(6, 4, seed=900 + i)) for i in range(4)])
    from oscint.snarl import check_strong_hypothesis

    assert check_strong_hypothesis(s)
    r = resolve(s, seed=17)
    for sn in r.chain:
        assert check_strong_hypothesis(sn)
