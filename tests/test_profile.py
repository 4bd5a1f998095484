"""Ballot classes: an instance keeps each distinct ballot once with its count,
and every aggregate table is built over those weighted classes."""

from collections import Counter
from copy import deepcopy
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manipdetect.ballotfile import parse_election
from manipdetect.core import ElectionInstance, Preference
from manipdetect.detection import DetectionQuery, verify_verdict, yes_verdict
from manipdetect.dispatch import decide_cpmsw
from manipdetect.errors import RosterError, ValidationError
from manipdetect.oracle import oracle_cpmw
from manipdetect.rules import (
    ScoringVector,
    VotingRule,
    bucklin_levels_from_counts,
    positional_scores,
    tally,
    tally_without,
    topk_counts,
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
    counts = Counter(tuple(b) for b in ballots)
    assert [(p.ranking, w) for p, w in inst.classes] == list(counts.items())
    assert [inst.classes[k][0] for k in inst.voter_class] == list(inst.ballots)
    for rule in RULES:
        assert winner(inst, rule) == winner_from_ballots(M, unit_profile(inst), inst.tb_rank, rule)


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
        assert winner_from_ballots(M, profile, inst.tb_rank, rule) == winner(replaced, rule)


ALL_RULES = RULES + [
    VotingRule.scoring(ScoringVector([Fraction(7, 2), Fraction(1, 3), Fraction(1, 3), 0]))
]
ALL_RANKINGS = list(permutations(range(M)))


@given(profiles, tiebreaks, st.data())
@settings(max_examples=80, deadline=None)
def test_replay_on_external_table_matches_full_recount(ballots, tb, data):
    # the rest of the profile comes from a copy with replaced voters, so it
    # may hold classes of count 0; the replayed ballots may have any count
    inst = ElectionInstance(NAMES, ballots, tb)
    voters = data.draw(st.sets(st.integers(0, inst.n - 1), max_size=3))
    replaced = inst.with_ballots_replaced(
        {i: Preference(data.draw(st.sampled_from(ALL_RANKINGS))) for i in voters}
    )
    ext = list(replaced.classes)
    extra = data.draw(
        st.lists(st.tuples(st.sampled_from(ALL_RANKINGS), st.integers(0, 3)), max_size=4)
    )
    replay = [(Preference(r), w) for r, w in extra]
    for rule in ALL_RULES:
        base = tally(M, ext, rule)
        kept = deepcopy(base)
        assert winner_from_ballots(M, replay, inst.tb_rank, rule, base=base) == (
            winner_from_ballots(M, ext + replay, inst.tb_rank, rule)
        )
        assert base == kept


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
    assert bucklin_levels_from_counts(topk_counts(3, inst.classes)) == [2, 3, 1]
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


entries = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=7)
)


@given(
    st.lists(entries, min_size=M, max_size=M).filter(lambda a: max(a) != min(a)),
    st.lists(st.tuples(st.sampled_from(ALL_RANKINGS), st.integers(0, 4)), max_size=12),
)
@settings(max_examples=150, deadline=None)
def test_positional_scores_match_per_position_sum(alphas, profile):
    # the kernel skips the positions scoring only the last entry; the plain
    # sum visits every position of every ballot
    vector = ScoringVector(sorted(alphas, reverse=True))
    profile = [(Preference(r), w) for r, w in profile]
    expected = [0] * M
    for ballot, w in profile:
        for p, c in enumerate(ballot.ranking):
            expected[c] += vector.alphas[p] * w
    scores = positional_scores(M, profile, vector)
    assert scores == expected
    assert all(isinstance(s, (int, Fraction)) for s in scores)


@given(profiles, tiebreaks, st.data())
@settings(max_examples=80, deadline=None)
def test_table_without_voters_is_full_table_minus_theirs(ballots, tb, data):
    # the instance is a copy with replaced voters, so it may hold classes of
    # count 0; the voters left out may include replaced ones
    inst = ElectionInstance(NAMES, ballots, tb)
    replaced = data.draw(st.sets(st.integers(0, inst.n - 1), max_size=3))
    inst = inst.with_ballots_replaced(
        {i: Preference(data.draw(st.sampled_from(ALL_RANKINGS))) for i in replaced}
    )
    voters = data.draw(st.sets(st.integers(0, inst.n - 1), max_size=4))
    for rule in ALL_RULES:
        x, full = winner(inst, rule), tally(M, inst.classes, rule)
        assert x == winner_from_ballots(M, unit_profile(inst), inst.tb_rank, rule)
        kept = deepcopy(full)
        assert tally_without(inst, rule, full, voters) == tally(
            M, inst.ballots_excluding(voters), rule
        )
        assert full == kept


@given(st.lists(st.sampled_from(ALL_RANKINGS), min_size=1, max_size=8), tiebreaks, st.data())
@settings(max_examples=100, deadline=None)
def test_verify_verdict_agrees_with_replay(ballots, tb, data):
    # small profiles and the oracle's witness where there is one, so that
    # some witnesses must pass; random witnesses, most of which must fail
    inst = ElectionInstance(NAMES, ballots, tb)
    replaced = data.draw(st.sets(st.integers(0, inst.n - 1), max_size=2))
    inst = inst.with_ballots_replaced(
        {i: Preference(data.draw(st.sampled_from(ALL_RANKINGS))) for i in replaced}
    )
    voters = data.draw(st.sets(st.integers(0, inst.n - 1), min_size=1, max_size=2))
    for rule in ALL_RULES:
        x = winner(inst, rule)
        found = []
        for y in range(M):
            if y != x:
                verdict = oracle_cpmw(inst, rule, voters, y)
                if verdict.answer:
                    found.append((y, verdict.witness))
        if found and data.draw(st.integers(0, 3)):
            y, witness = data.draw(st.sampled_from(found))
        else:
            y = data.draw(st.integers(0, M - 1))
            witness = {i: Preference(data.draw(st.sampled_from(ALL_RANKINGS))) for i in voters}
        expected = (
            y != x
            and all(pref.prefers(x, y) for pref in witness.values())
            and winner(inst.with_ballots_replaced(witness), rule) == y
        )
        assert verify_verdict(inst, rule, yes_verdict(witness, y, "test")) == expected


def test_verify_verdict_decides_through_the_shared_replay(monkeypatch):
    # Borda a:4, b:4, c:1, won by a on the tie-break; voter 0 casting a>b>c
    # instead of a>c>b elects b.  The YES verifies only while
    # `DetectionQuery.confirm`, the replay every detector uses, accepts it.
    inst = ElectionInstance(("a", "b", "c"), [(0, 2, 1), (1, 0, 2), (1, 0, 2)])
    rule = VotingRule.scoring(ScoringVector.borda(3))
    verdict = yes_verdict({0: Preference((0, 1, 2))}, 1, "test")
    assert winner(inst.with_ballots_replaced(verdict.witness), rule) == 1
    assert verify_verdict(inst, rule, verdict)
    monkeypatch.setattr(DetectionQuery, "confirm", lambda *args: None)
    assert not verify_verdict(inst, rule, verdict)


def test_verify_verdict_rejects_witness_voter_outside_roster():
    # a voter outside the roster, or a ballot not covering it: short ones
    # that rank the target below the winner or leave the target out, and a
    # long one
    inst = ElectionInstance(NAMES, [(0, 1, 2, 3)] * 3)
    rule = RULES[0]
    pref = Preference((0, 1, 2, 3))
    for witness, y, error in (
        ({-1: pref}, 1, RosterError),
        ({inst.n: pref}, 1, RosterError),
        ({0: Preference((1, 0))}, 1, ValidationError),
        ({0: Preference((0, 1))}, 2, ValidationError),
        ({0: Preference((0, 1, 2, 3, 4))}, 1, ValidationError),
    ):
        with pytest.raises(error):
            verify_verdict(inst, rule, yes_verdict(witness, y, "test"))
