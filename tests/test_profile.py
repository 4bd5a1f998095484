"""Ballot classes: an instance keeps each distinct ballot once with its count,
and every aggregate table is built over those weighted classes."""

from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manipdetect.ballotfile import parse_election
from manipdetect.core import ElectionInstance, Preference
from manipdetect.dispatch import decide_cpmsw
from manipdetect.errors import ValidationError
from manipdetect.rules import (
    ScoringVector,
    VotingRule,
    bucklin_levels,
    bucklin_score,
    winner,
    winner_from_ballots,
)

M = 4
POOL = list(permutations(range(M)))[::5]  # 5 rankings, so classes repeat
RULES = [
    VotingRule.scoring(ScoringVector.borda(M)),
    VotingRule.scoring(ScoringVector.plurality(M)),
    VotingRule.maximin(),
    VotingRule.bucklin(),
    VotingRule.stv(),
]
NAMES = [f"c{i}" for i in range(M)]

profiles = st.lists(st.sampled_from(POOL), min_size=1, max_size=30)
tiebreaks = st.permutations(range(M))


def unit_profile(inst):
    return [(b, 1) for b in inst.ballots]


@given(profiles, tiebreaks)
@settings(max_examples=80, deadline=None)
def test_winner_over_classes_matches_per_voter_profile(ballots, tb):
    inst = ElectionInstance(NAMES, ballots, tb)
    tally = Counter(tuple(b) for b in ballots)
    assert [(p.ranking, w) for p, w in inst.classes] == list(tally.items())
    assert [inst.classes[k][0] for k in inst.voter_class] == list(inst.ballots)
    for rule in RULES:
        assert winner(inst, rule) == winner_from_ballots(M, unit_profile(inst), inst.tiebreak, rule)


@given(profiles, tiebreaks, st.data())
@settings(max_examples=80, deadline=None)
def test_replay_over_external_classes_matches_replaced_instance(ballots, tb, data):
    inst = ElectionInstance(NAMES, ballots, tb)
    suspects = data.draw(st.sets(st.integers(0, inst.n - 1), max_size=3))
    witness = {
        i: Preference(data.draw(st.sampled_from(list(permutations(range(M))))))
        for i in suspects
    }
    replaced = inst.with_ballots_replaced(witness)
    per_voter = [witness.get(i, b) for i, b in enumerate(inst.ballots)]
    assert replaced == ElectionInstance(NAMES, per_voter, tb)
    rankings = [p.ranking for p, _ in replaced.classes]
    assert len(set(rankings)) == len(rankings)
    assert sorted((p.ranking, w) for p, w in replaced.classes if w) == sorted(
        Counter(b.ranking for b in per_voter).items()
    )
    assert [replaced.classes[k][0] for k in replaced.voter_class] == per_voter
    profile = inst.ballots_excluding(suspects) + [(pref, 1) for pref in witness.values()]
    for rule in RULES:
        assert winner_from_ballots(M, profile, inst.tiebreak, rule) == winner(replaced, rule)


def test_repeat_line_is_one_class():
    inst = parse_election("candidates: a,b,c\n100000x a>b>c\n")
    assert len(inst.classes) == 1
    assert inst.n == 100000
    assert inst.ballots[99999].ranking == (0, 1, 2)
    assert inst == ElectionInstance(("a", "b", "c"), [(0, 1, 2)] * 100000)


def test_counts_run_in_voter_order():
    inst = ElectionInstance(("a", "b"), [(0, 1), (1, 0), (0, 1)], counts=[2, 1, 3])
    assert [b.ranking for b in inst.ballots] == [(0, 1)] * 2 + [(1, 0)] + [(0, 1)] * 3
    assert [(p.ranking, w) for p, w in inst.classes] == [((0, 1), 5), ((1, 0), 1)]
    assert inst.voter_class == (0, 0, 1, 0, 0, 0)
    with pytest.raises(ValidationError):
        ElectionInstance(("a", "b"), [(0, 1)], counts=[0])
    with pytest.raises(ValidationError):
        ElectionInstance(("a", "b"), [(0, 1)], counts=[1, 1])


def test_bucklin_majority_counts_voters_not_classes():
    # 2 x a>b>c, 3 x c>a>b: c has a majority at level 1.  With one vote per
    # class (n = 2) a would reach it at level 1 too and win the tie-break.
    inst = ElectionInstance(("a", "b", "c"), [(0, 1, 2), (2, 0, 1)], counts=[2, 3])
    assert len(inst.classes) == 2 and inst.n == 5
    assert bucklin_levels(3, inst.classes) == [2, 3, 1]
    assert bucklin_score(inst, 2) == 1
    assert winner(inst, VotingRule.bucklin()) == 2


@given(profiles, tiebreaks, st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_greedy_takes_voters_by_shift_then_index(ballots, tb, k, data):
    rule = RULES[0]
    inst = ElectionInstance(NAMES, ballots, tb)
    x = winner(inst, rule)
    y = data.draw(st.sampled_from([c for c in range(M) if c != x]))
    verdict = decide_cpmsw(inst, rule, y, k)
    alphas = rule.vector.alphas

    def shift(i):
        r = inst.ballots[i].ranking
        return alphas[1] - alphas[r.index(y)] - alphas[0] + alphas[r.index(x)]

    # reference: replay each prefix of the voters ordered per voter
    order = sorted(range(inst.n), key=lambda i: (-shift(i), i))
    expected = None
    for t in range(1, min(k, inst.n) + 1):
        witness = {}
        for i in order[:t]:
            rest = [c for c in inst.ballots[i].ranking if c not in (x, y)]
            witness[i] = Preference([x, y] + rest)
        if winner(inst.with_ballots_replaced(witness), rule) == y:
            expected = tuple(sorted(witness))
            break
    assert verdict.answer == (expected is not None)
    assert verdict.coalition == expected
