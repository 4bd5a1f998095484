import pytest
from hypothesis import given, settings, strategies as st

from manipdetect.core import ElectionInstance, margin_matrix
from manipdetect.errors import ConfigError, DegenerateRosterError
from manipdetect.rules import (
    ScoringVector,
    VotingRule,
    bucklin_levels_from_counts,
    co_winners_from_tally,
    maximin_scores_from_margins,
    positional_scores,
    stv_order,
    tally,
    topk_counts,
    winner,
)

from samples import A, B, C, e1, e3


def test_borda_scores_e1():
    assert positional_scores(3, e1().classes, ScoringVector.borda(3)) == [4, 4, 1]


def test_plurality_scores_e1():
    assert positional_scores(3, e1().classes, ScoringVector.plurality(3)) == [1, 2, 0]


def test_all_equal_vector_rejected():
    with pytest.raises(ConfigError):
        ScoringVector((1, 1, 1))


def test_vector_must_be_non_increasing():
    with pytest.raises(ConfigError):
        ScoringVector((1, 2, 0))


@pytest.mark.parametrize("alphas", [(1.0, 0.5, 0.0), (2, 0.5, 0), (1, 0, float("-inf"))])
def test_vector_entries_must_be_exact(alphas):
    # a float entry would reach the oracle, which walks each vector as ints
    # scaled by its entries' denominators
    with pytest.raises(ConfigError, match="no floats"):
        ScoringVector(alphas)


def test_vector_length_must_match_roster():
    with pytest.raises(ConfigError):
        positional_scores(3, e1().classes, ScoringVector.borda(4))


def test_named_vectors():
    assert ScoringVector.borda(4).alphas == (3, 2, 1, 0)
    assert ScoringVector.approval(2, 4).alphas == (1, 1, 0, 0)
    assert ScoringVector.plurality(3).alphas == (1, 0, 0)
    assert ScoringVector.veto(3).alphas == (1, 1, 0)
    with pytest.raises(ConfigError):
        ScoringVector.approval(3, 3)


def test_maximin_scores_e1():
    scores = maximin_scores_from_margins(margin_matrix(3, e1().classes))
    assert scores[A] == -1
    assert scores[B] == 1
    assert scores[C] == -3


def test_maximin_unanimous_top_scores_n():
    inst = ElectionInstance(("a", "b", "c"), [(A, B, C)] * 4)
    assert maximin_scores_from_margins(margin_matrix(inst.m, inst.classes))[A] == 4


def test_maximin_opposite_ballots_score_zero():
    inst = ElectionInstance(("a", "b", "c"), [(A, B, C), (C, B, A)])
    assert maximin_scores_from_margins(margin_matrix(inst.m, inst.classes)) == [0, 0, 0]


def test_maximin_rejects_single_candidate():
    inst = ElectionInstance(("a",), [(0,)])
    with pytest.raises(DegenerateRosterError):
        maximin_scores_from_margins(margin_matrix(inst.m, inst.classes))


def test_bucklin_scores_e3():
    levels = bucklin_levels_from_counts(topk_counts(3, e3().classes))
    assert levels[A] == 2
    assert levels[C] == 3


def test_bucklin_unanimous_top_is_level_one():
    inst = ElectionInstance(("a", "b"), [(A, B)] * 3)
    assert bucklin_levels_from_counts(topk_counts(inst.m, inst.classes))[A] == 1


def test_stv_elimination_e1():
    # round 1 tops: a=1, b=2, c=0 -> drop c; round 2: a=1, b=2 -> drop a
    inst = e1()
    assert stv_order(inst.m, inst.classes, inst.tb_rank) == [C, A, B]


def test_stv_unanimous_winner_is_common_top():
    inst = ElectionInstance(("a", "b", "c"), [(B, A, C)] * 3)
    assert stv_order(inst.m, inst.classes, inst.tb_rank)[-1] == B


def test_stv_single_candidate():
    inst = ElectionInstance(("a",), [(0,)])
    assert stv_order(inst.m, inst.classes, inst.tb_rank) == [0]


def test_winner_examples_e1():
    inst = e1()
    assert winner(inst, VotingRule.scoring(ScoringVector.borda(3))) == A  # 4-4 tie -> a
    assert winner(inst, VotingRule.maximin()) == B
    assert winner(inst, VotingRule.stv()) == B


small_profiles = st.integers(2, 4).flatmap(
    lambda m: st.lists(st.permutations(range(m)), min_size=1, max_size=5)
)


def _rules_for(m):
    return [
        VotingRule.scoring(ScoringVector.borda(m)),
        VotingRule.scoring(ScoringVector.plurality(m)),
        VotingRule.maximin(),
        VotingRule.bucklin(),
    ]


@given(small_profiles, st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_singleton_co_winner_ignores_tiebreak(ballots, rng):
    m = len(ballots[0])
    names = [f"c{i}" for i in range(m)]
    tb = list(range(m))
    rng.shuffle(tb)
    for rule in _rules_for(m):
        base = ElectionInstance(names, ballots)
        cw = co_winners_from_tally(m, tally(m, base.classes, rule), base.tb_rank, rule)
        if len(cw) == 1:
            permuted = ElectionInstance(names, ballots, tiebreak=tb)
            assert winner(permuted, rule) == cw[0]


@given(small_profiles, st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_anonymity(ballots, rng):
    m = len(ballots[0])
    names = [f"c{i}" for i in range(m)]
    shuffled = list(ballots)
    rng.shuffle(shuffled)
    for rule in _rules_for(m) + [VotingRule.stv()]:
        assert winner(ElectionInstance(names, ballots), rule) == winner(
            ElectionInstance(names, shuffled), rule
        )


@given(small_profiles)
@settings(max_examples=60)
def test_bucklin_levels_bounded_and_full_at_level_m(ballots):
    m = len(ballots[0])
    inst = ElectionInstance([f"c{i}" for i in range(m)], ballots)
    profile = [(b, 1) for b in inst.ballots]
    levels = bucklin_levels_from_counts(topk_counts(m, profile))
    assert all(1 <= l <= m for l in levels)
    counts = topk_counts(m, profile)
    assert all(counts[c][m] == inst.n for c in range(m))


@given(small_profiles)
@settings(max_examples=60)
def test_stv_agrees_with_plurality_on_strict_majorities(ballots):
    m = len(ballots[0])
    inst = ElectionInstance([f"c{i}" for i in range(m)], ballots)
    tops = [b.ranking[0] for b in inst.ballots]
    for c in range(m):
        if 2 * tops.count(c) > inst.n:
            assert winner(inst, VotingRule.stv()) == c
            assert winner(inst, VotingRule.scoring(ScoringVector.plurality(m))) == c
