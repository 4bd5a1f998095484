import random
import time
from itertools import permutations

import pytest

from manipdetect.core import ElectionInstance, margin_matrix
from manipdetect.detection import DetectionQuery, verify_verdict
from manipdetect.detect_maximin import cpmw_maximin_single
from manipdetect.dispatch import decide_cpm
from manipdetect.errors import DispatchError, InvalidQueryError
from manipdetect.generators import random_profile
from manipdetect.oracle import oracle_cpm, oracle_cpmw
from manipdetect.rules import VotingRule, maximin_scores_from_margins, winner

from samples import e1, e6

MAXIMIN = VotingRule.maximin()


def test_e6_setup_matches_expectations():
    inst = e6()
    assert winner(inst, MAXIMIN) == 0  # a
    assert maximin_scores_from_margins(margin_matrix(3, inst.classes)) == [0, -2, -2]


def test_e6_yes_with_canonical_witness():
    inst = e6()
    verdict = cpmw_maximin_single(DetectionQuery(inst, MAXIMIN, (0,), actual_winner=2))
    assert verdict.answer
    assert verdict.witness[0].ranking == (0, 2, 1)  # a>y>b
    assert verify_verdict(inst, MAXIMIN, verdict, suspects=(0,))


def test_e1_no_for_either_target():
    inst = e1()
    assert winner(inst, MAXIMIN) == 1  # b
    assert not cpmw_maximin_single(DetectionQuery(inst, MAXIMIN, (0,), actual_winner=0)).answer
    assert not cpmw_maximin_single(DetectionQuery(inst, MAXIMIN, (0,), actual_winner=2)).answer


def test_rejects_current_winner_target():
    with pytest.raises(InvalidQueryError):
        cpmw_maximin_single(DetectionQuery(e1(), MAXIMIN, (0,), actual_winner=1))


def test_rejects_non_maximin_rule():
    from manipdetect.rules import ScoringVector

    with pytest.raises(DispatchError):
        cpmw_maximin_single(
            DetectionQuery(e1(), VotingRule.scoring(ScoringVector.borda(3)), (0,), actual_winner=0)
        )


def test_cpm_examples():
    assert decide_cpm(e6(), MAXIMIN, (0,)).answer
    assert not decide_cpm(e1(), MAXIMIN, (0,)).answer
    single = ElectionInstance(("a",), [(0,)])
    assert not decide_cpm(single, MAXIMIN, (0,)).answer


def test_witness_has_target_right_below_current_winner():
    rng = random.Random(77)
    found = 0
    for _ in range(120):
        m = rng.randint(2, 4)
        n = rng.randint(1, 5)
        perms = list(permutations(range(m)))
        inst = ElectionInstance([f"c{i}" for i in range(m)], [rng.choice(perms) for _ in range(n)])
        x = winner(inst, MAXIMIN)
        for i in range(n):
            for y in range(m):
                if y == x:
                    continue
                verdict = cpmw_maximin_single(DetectionQuery(inst, MAXIMIN, (i,), actual_winner=y))
                if verdict.answer:
                    w = verdict.witness[i]
                    assert w.ranking.index(y) == w.ranking.index(x) + 1
                    found += 1
    assert found > 0


def _exhaustive_agreement(rng, rounds, m_lo, m_hi, n_hi):
    for _ in range(rounds):
        m = rng.randint(m_lo, m_hi)
        n = rng.randint(1, n_hi)
        perms = list(permutations(range(m)))
        tb = list(range(m))
        rng.shuffle(tb)
        inst = ElectionInstance(
            [f"c{i}" for i in range(m)], [rng.choice(perms) for _ in range(n)], tiebreak=tb
        )
        x = winner(inst, MAXIMIN)
        for i in range(n):
            for y in range(m):
                if y == x:
                    continue
                got = cpmw_maximin_single(DetectionQuery(inst, MAXIMIN, (i,), actual_winner=y))
                want = oracle_cpmw(inst, MAXIMIN, (i,), y)
                assert got.answer == want.answer, (inst.ballots, inst.tiebreak, i, y)
                assert verify_verdict(inst, MAXIMIN, got, suspects=(i,))


def test_matches_oracle_small():
    _exhaustive_agreement(random.Random(900), 150, 2, 4, 5)


def test_matches_oracle_m5_randomized():
    _exhaustive_agreement(random.Random(901), 25, 5, 5, 4)


def test_matches_oracle_m6_randomized():
    # every NO of the greedy rests on the completeness argument in the module
    # docstring; the oracle checks it past the m <= 5 of the tests above
    _exhaustive_agreement(random.Random(903), 12, 6, 6, 5)


# (instance, target, answer).  In the first, y = c4 wins only at s_y + 1, so
# its worst opponents c0 and c1 must go below it, yet c1 is ready at once.
# The m = 12 ones are far past the oracle's reach; the time bound holds only
# for a procedure polynomial in m.
PINNED = [
    (
        ElectionInstance(
            [f"c{i}" for i in range(5)], [(2, 3, 0, 1, 4), (0, 1, 4, 3, 2)], tiebreak=[2, 4, 3, 0, 1]
        ),
        4,
        True,
    ),
    (random_profile(12, 20, 8), 7, False),
    (random_profile(12, 20, 0), 7, True),
]


@pytest.mark.parametrize("inst, y, answer", PINNED)
def test_pinned_instances(inst, y, answer):
    start = time.perf_counter()
    verdict = cpmw_maximin_single(DetectionQuery(inst, MAXIMIN, (0,), actual_winner=y))
    assert verdict.answer == answer
    assert verify_verdict(inst, MAXIMIN, verdict, suspects=(0,))
    assert time.perf_counter() - start < 0.5


def test_cpm_matches_oracle_small():
    rng = random.Random(902)
    for _ in range(60):
        m = rng.randint(2, 4)
        n = rng.randint(1, 4)
        perms = list(permutations(range(m)))
        inst = ElectionInstance([f"c{i}" for i in range(m)], [rng.choice(perms) for _ in range(n)])
        for i in range(n):
            got = decide_cpm(inst, MAXIMIN, (i,))
            want = oracle_cpm(inst, MAXIMIN, (i,))
            assert got.answer == want.answer
