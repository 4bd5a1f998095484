import random
from itertools import permutations

import pytest

from manipdetect.core import ElectionInstance
from manipdetect.dispatch import decide_cpm, decide_cpms, decide_cpmsw, decide_cpmw
from manipdetect.errors import InvalidQueryError, RosterError
from manipdetect.oracle import oracle_cpm, oracle_cpmw, search_coalitions
from manipdetect.rules import ScoringVector, VotingRule, winner

from samples import e1, e4, e6


def test_routing_methods():
    borda = VotingRule.scoring(ScoringVector.borda(3))
    plur = VotingRule.scoring(ScoringVector.plurality(3))
    assert decide_cpmw(e1(), borda, (0,), 1).method == "scoring-single"
    assert decide_cpmw(e1(), borda, (0, 1), 1).method == "scoring-coalition"
    inst = ElectionInstance(("a", "b", "c"), [(0, 1, 2)] * 3 + [(1, 0, 2)] * 2)
    assert decide_cpmw(inst, plur, (0, 1), 1).method == "plurality-capacity"
    assert decide_cpmw(e6(), VotingRule.maximin(), (0,), 2).method == "maximin-single"
    assert decide_cpmw(e6(), VotingRule.maximin(), (0, 1), 2).exhaustive
    assert decide_cpmw(e4(), VotingRule.bucklin(), (0,), 1).method == "bucklin-greedy"
    assert decide_cpmw(e1(), VotingRule.stv(), (0,), 0).exhaustive
    irregular = VotingRule.scoring(ScoringVector((3, 1, 0)))
    y = 1 if winner(e1(), irregular) != 1 else 2
    assert decide_cpmw(e1(), irregular, (0, 1), y).method == "oracle-fallback"

    # A NO from a loop over alternative winners keeps the label of the route
    # that decided its last target.
    unanimous = ElectionInstance(("a", "b", "c"), [(0, 1, 2)] * 5)
    maximin, bucklin, stv = VotingRule.maximin(), VotingRule.bucklin(), VotingRule.stv()
    for rule, suspects, method, exhaustive in (
        (borda, (0,), "scoring-single", False),
        (borda, (0, 1), "scoring-coalition", False),
        (plur, (0, 1), "plurality-capacity", False),
        (irregular, (0, 1), "oracle-fallback", True),
        (maximin, (0,), "maximin-single", False),
        (bucklin, (0, 1), "bucklin-greedy", False),
        (maximin, (0, 1), "oracle", True),
        (stv, (0,), "oracle", True),
    ):
        verdict = decide_cpm(unanimous, rule, suspects)
        assert (verdict.answer, verdict.method, verdict.exhaustive) == (False, method, exhaustive)
    # A NO from a coalition search keeps the label of the decider of its last
    # subset: k = 1 routes irregular vectors to the single-suspect sweep.
    for rule, method, exhaustive in (
        (borda, "delta-greedy", False),
        (plur, "plurality-capacity", False),
        (irregular, "scoring-single", False),
        (maximin, "maximin-single", False),
        (bucklin, "bucklin-greedy", False),
        (stv, "oracle", True),
    ):
        verdict = decide_cpms(unanimous, rule, 1)
        assert (verdict.answer, verdict.method, verdict.exhaustive) == (False, method, exhaustive)
    # No subset decided (k = 0): the oracle's exhaustive NO.
    verdict = decide_cpmsw(unanimous, plur, 1, 0)
    assert (verdict.answer, verdict.method, verdict.exhaustive) == (False, "oracle", True)
    single = ElectionInstance(("a",), [(0,)] * 2)
    assert decide_cpm(single, stv, (0,)).method == "cpm"
    assert decide_cpms(single, stv, 1).method == "cpms"


def test_search_routing():
    borda = VotingRule.scoring(ScoringVector.borda(3))
    assert decide_cpmsw(e1(), borda, 1, 1).method == "delta-greedy"
    plur = VotingRule.scoring(ScoringVector.plurality(3))
    inst = ElectionInstance(("a", "b", "c"), [(0, 1, 2)] * 3 + [(1, 0, 2)] * 2)
    verdict = decide_cpmsw(inst, plur, 1, 2)
    assert verdict.method == "plurality-capacity"
    assert verdict.answer


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("rule", [
    VotingRule.scoring(ScoringVector.borda(3)),
    VotingRule.scoring(ScoringVector.plurality(3)),
    VotingRule.maximin(),
    VotingRule.bucklin(),
    VotingRule.stv(),
], ids=["borda", "plurality", "maximin", "bucklin", "stv"])
def test_cpmsw_validates_target_on_every_route(rule, k):
    inst = e1()
    with pytest.raises(InvalidQueryError):
        decide_cpmsw(inst, rule, winner(inst, rule), k)
    with pytest.raises(RosterError):
        decide_cpmsw(inst, rule, inst.m, k)


def test_dispatch_agrees_with_oracle_across_rules():
    rng = random.Random(400)
    for _ in range(40):
        m = rng.randint(2, 4)
        n = rng.randint(2, 5)
        perms = list(permutations(range(m)))
        inst = ElectionInstance([f"c{i}" for i in range(m)], [rng.choice(perms) for _ in range(n)])
        rules = [
            VotingRule.scoring(ScoringVector.borda(m)),
            VotingRule.scoring(ScoringVector.plurality(m)),
            VotingRule.bucklin(),
            VotingRule.stv(),
            VotingRule.maximin(),
        ]
        for rule in rules:
            x = winner(inst, rule)
            i = rng.randrange(n)
            assert decide_cpm(inst, rule, (i,)).answer == oracle_cpm(inst, rule, (i,)).answer
            for y in range(m):
                if y == x:
                    continue
                got = decide_cpmw(inst, rule, (i,), y)
                want = oracle_cpmw(inst, rule, (i,), y)
                assert got.answer == want.answer


def test_cpms_and_cpmsw_agree_with_subset_oracle():
    rng = random.Random(401)
    for _ in range(25):
        m = rng.randint(2, 3)
        n = rng.randint(2, 4)
        perms = list(permutations(range(m)))
        inst = ElectionInstance([f"c{i}" for i in range(m)], [rng.choice(perms) for _ in range(n)])
        for rule in (
            VotingRule.scoring(ScoringVector.borda(m)),
            VotingRule.scoring(ScoringVector.plurality(m)),
            VotingRule.bucklin(),
        ):
            x = winner(inst, rule)
            for k in (1, 2):
                assert (
                    decide_cpms(inst, rule, k).answer
                    == search_coalitions(inst, rule, k).answer
                )
                for y in range(m):
                    if y == x:
                        continue
                    assert (
                        decide_cpmsw(inst, rule, y, k).answer
                        == search_coalitions(inst, rule, k, y).answer
                    )
