import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import manipdetect
from manipdetect import ballotfile
from manipdetect.core import ElectionInstance, Preference, margin_matrix
from manipdetect.errors import RosterError, ValidationError

from samples import A, B, C, e1, reference_margin


def test_pairwise_margin_e1():
    inst = e1()
    assert reference_margin(inst, A, B) == -1
    assert reference_margin(inst, A, C) == 3
    assert reference_margin(inst, B, C) == 1


def test_pairwise_margin_self_is_zero():
    inst = e1()
    for c in range(3):
        assert reference_margin(inst, c, c) == 0


def test_majority_graph_e1():
    d = margin_matrix(3, e1().classes)
    assert d[A][B] == -1
    assert d[A][C] == 3
    assert d[B][C] == 1


def test_majority_graph_single_ballot():
    inst = ElectionInstance(("a", "b", "c"), [(A, B, C)])
    d = margin_matrix(inst.m, inst.classes)
    assert d[A][B] == d[A][C] == d[B][C] == 1


def test_majority_graph_opposite_ballots_cancel():
    inst = ElectionInstance(("a", "b", "c"), [(A, B, C), (C, B, A)])
    d = margin_matrix(inst.m, inst.classes)
    assert all(d[a][b] == 0 for a in range(3) for b in range(3))


def test_position_of():
    p = Preference((A, C, B))  # a>c>b
    assert p.ranking.index(A) + 1 == 1
    assert p.ranking.index(B) + 1 == 3
    assert p.ranking.index(C) + 1 == 2
    with pytest.raises(RosterError):
        p.prefers(5, A)
    with pytest.raises(RosterError):
        p.prefers(A, 5)


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
    d = margin_matrix(m, inst.classes)
    n = inst.n
    for a in range(m):
        assert d[a][a] == 0
        for b in range(m):
            assert d[a][b] == reference_margin(inst, a, b)
            assert d[a][b] == -d[b][a]
            assert abs(d[a][b]) <= n
            if a != b:
                assert (d[a][b] - n) % 2 == 0


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


def test_instance_refuses_counts_past_the_ballot_cap(monkeypatch):
    monkeypatch.setattr(ballotfile, "MAX_BALLOTS", 10)
    assert ElectionInstance(("a", "b"), [(0, 1), (1, 0)], counts=[4, 6]).n == 10
    with pytest.raises(ValidationError, match="total 11"):
        ElectionInstance(("a", "b"), [(0, 1), (1, 0)], counts=[5, 6])


def test_huge_counts_are_refused_before_any_voter_is_expanded():
    # a billion voters would take 8 GB of voter slots: under a 1 GB
    # address-space cap, set in a child process only, the constructor must
    # refuse the total instead of running out of memory
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from manipdetect.core import ElectionInstance\n"
        "from manipdetect.errors import ValidationError\n"
        "try:\n"
        "    ElectionInstance(['a', 'b'], [[0, 1]], counts=[10**9])\n"
        "except ValidationError as exc:\n"
        "    print('refused:', exc)\n"
    )
    src = str(Path(manipdetect.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("refused:"), done.stdout


def test_every_exported_name_resolves():
    assert [name for name in manipdetect.__all__ if not hasattr(manipdetect, name)] == []
