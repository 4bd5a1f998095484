import pytest
from hypothesis import given, strategies as st

from manipdetect.core import (
    ElectionInstance,
    Preference,
    majority_graph,
    margin_matrix,
    pairwise_margin,
)
from manipdetect.errors import RosterError, ValidationError

from samples import A, B, C, e1


def test_pairwise_margin_e1():
    inst = e1()
    assert pairwise_margin(inst, A, B) == -1
    assert pairwise_margin(inst, A, C) == 3
    assert pairwise_margin(inst, B, C) == 1


def test_pairwise_margin_self_is_zero():
    inst = e1()
    for c in range(3):
        assert pairwise_margin(inst, c, c) == 0


def test_pairwise_margin_rejects_bad_id():
    with pytest.raises(RosterError):
        pairwise_margin(e1(), 0, 3)


def test_majority_graph_e1():
    g = majority_graph(e1())
    assert g.margin(A, B) == -1
    assert g.margin(A, C) == 3
    assert g.margin(B, C) == 1


def test_majority_graph_single_ballot():
    inst = ElectionInstance(("a", "b", "c"), [(A, B, C)])
    g = majority_graph(inst)
    assert g.margin(A, B) == g.margin(A, C) == g.margin(B, C) == 1


def test_majority_graph_opposite_ballots_cancel():
    inst = ElectionInstance(("a", "b", "c"), [(A, B, C), (C, B, A)])
    g = majority_graph(inst)
    assert all(g.margin(a, b) == 0 for a in range(3) for b in range(3))


def test_position_of():
    p = Preference((A, C, B))  # a>c>b
    assert p.position_of(A) == 1
    assert p.position_of(B) == 3
    assert p.position_of(C) == 2
    with pytest.raises(RosterError):
        p.position_of(5)


def test_preference_rejects_non_permutations():
    for bad in [(0, 0, 1), (0, 2), (1, 2, 3), ()]:
        with pytest.raises(ValidationError):
            Preference(bad)


def test_instance_rejects_empty_profile():
    with pytest.raises(ValidationError):
        ElectionInstance(("a", "b"), [])


def test_instance_rejects_bad_names():
    with pytest.raises(ValidationError):
        ElectionInstance(("a", "a"), [(0, 1)])
    with pytest.raises(ValidationError):
        ElectionInstance(("a", ""), [(0, 1)])


def test_instance_rejects_wrong_length_ballot():
    with pytest.raises(ValidationError):
        ElectionInstance(("a", "b", "c"), [(0, 1)])


def test_default_tiebreak_is_roster_order():
    inst = ElectionInstance(("a", "b", "c"), [(B, A, C)])
    assert inst.tiebreak.ranking == (0, 1, 2)


def test_with_ballots_replaced():
    inst = e1()
    swapped = inst.with_ballots_replaced({0: Preference((B, C, A))})
    assert swapped.ballots[0].ranking == (B, C, A)
    assert swapped.ballots[1:] == inst.ballots[1:]
    assert inst.ballots[0].ranking == (A, C, B)  # original untouched


def test_instance_equality_is_over_per_voter_rankings():
    inst = e1()
    restored = inst.with_ballots_replaced({0: Preference((B, C, A))})
    restored = restored.with_ballots_replaced({0: Preference((A, C, B))})
    assert (Preference((B, C, A)), 0) in restored.classes
    assert restored == inst and hash(restored) == hash(inst)
    # the same voters in another class order
    swapped = inst.with_ballots_replaced({0: Preference((B, A, C)), 1: Preference((A, C, B))})
    fresh = ElectionInstance(inst.names, [(B, A, C), (A, C, B), (B, A, C)])
    assert swapped.classes != fresh.classes
    assert swapped == fresh and hash(swapped) == hash(fresh)
    assert inst.with_ballots_replaced({1: Preference((C, A, B))}) != inst
    assert ElectionInstance(inst.names, [(A, C, B), (A, C, B)]) != ElectionInstance(
        inst.names, [(A, C, B), (A, C, B)], tiebreak=(B, A, C)
    )
    tallied = ElectionInstance(inst.names, [(A, C, B), (B, A, C)], counts=[1, 2])
    assert tallied == inst and hash(tallied) == hash(inst)


def test_ballots_excluding():
    inst = e1()
    rest = inst.ballots_excluding([1])
    assert rest == [(inst.ballots[0], 1), (inst.ballots[2], 1)]
    assert inst.ballots_excluding([1, 2]) == [(inst.ballots[0], 1)]
    with pytest.raises(RosterError):
        inst.ballots_excluding([7])


profiles = st.integers(1, 4).flatmap(
    lambda m: st.lists(st.permutations(range(m)), min_size=1, max_size=5)
)


@given(profiles)
def test_majority_graph_is_antisymmetric_with_zero_diagonal(ballots):
    m = len(ballots[0])
    inst = ElectionInstance([f"c{i}" for i in range(m)], ballots)
    g = majority_graph(inst)
    n = inst.n
    for a in range(m):
        assert g.margin(a, a) == 0
        for b in range(m):
            assert g.margin(a, b) == -g.margin(b, a)
            assert abs(g.margin(a, b)) <= n
            if a != b:
                assert (g.margin(a, b) - n) % 2 == 0


@given(profiles, st.randoms(use_true_random=False))
def test_corrupted_ballots_are_rejected(ballots, rng):
    m = len(ballots[0])
    names = [f"c{i}" for i in range(m)]
    ballot = list(ballots[0])
    mutation = rng.choice(["dup", "drop", "shift"])
    if mutation == "dup" and m >= 2:
        ballot[0] = ballot[1]
    elif mutation == "drop":
        ballot.pop(rng.randrange(m))
    else:
        ballot = [c + 1 for c in ballot]
    if len(ballot) == m and set(ballot) == set(range(m)):
        return  # mutation happened to rebuild a permutation of the roster
    with pytest.raises(ValidationError):
        ElectionInstance(names, [ballot])


def test_margin_matrix_accepts_empty_profile():
    assert margin_matrix(3, []) == [[0] * 3 for _ in range(3)]
