"""Differential tests: the polynomial detectors against the exhaustive oracle.

Seeded random elections beyond the acceptance range: m = 5 (m = 6 in the
slow variant, run by `pytest -m slow`), random tie-break orders, irregular
scoring vectors and plurality coalitions.  Each case compares
`decide_cpmw` with `oracle_cpmw` for every alternative winner, checks the
route that decided it, and replay-verifies every YES.
"""

import random

import pytest

from manipdetect.core import ElectionInstance
from manipdetect.detection import verify_verdict
from manipdetect.dispatch import decide_cpmw
from manipdetect.oracle import oracle_cpmw
from manipdetect.rules import ScoringVector, VotingRule, winner


def _election(rng: random.Random, m: int, n: int) -> ElectionInstance:
    # a small ballot pool, so that ballot classes repeat
    pool = [tuple(rng.sample(range(m), m)) for _ in range(rng.randint(3, 8))]
    ballots = [rng.choice(pool) for _ in range(n)]
    names = [f"c{i}" for i in range(m)]
    return ElectionInstance(names, ballots, tuple(rng.sample(range(m), m)))


def _rules(m: int) -> dict[str, VotingRule]:
    irregular = [4, 2, 1] + [0] * (m - 3)
    return {
        "borda": VotingRule.scoring(ScoringVector.borda(m)),
        "irregular": VotingRule.scoring(ScoringVector(irregular)),
        "plurality": VotingRule.scoring(ScoringVector.plurality(m)),
        "maximin": VotingRule.maximin(),
        "bucklin": VotingRule.bucklin(),
    }


# (rule, coalition size, method the dispatcher must pick)
CASES = [
    ("borda", 1, "scoring-single"),
    ("irregular", 1, "scoring-single"),
    ("maximin", 1, "maximin-single"),
    ("bucklin", 2, "bucklin-greedy"),
    ("plurality", 2, "plurality-capacity"),
]


def _differential(seed: int, m: int, rule_name: str, size: int, method: str, trials: int):
    rng = random.Random(f"{seed}-{m}-{rule_name}-{size}")
    rule = _rules(m)[rule_name]
    answers = set()
    for _ in range(trials):
        inst = _election(rng, m, rng.randint(size + 2, 10))
        suspects = tuple(sorted(rng.sample(range(inst.n), size)))
        x = winner(inst, rule)
        for y in range(m):
            if y == x:
                continue
            fast = decide_cpmw(inst, rule, suspects, y)
            slow = oracle_cpmw(inst, rule, suspects, y)
            context = (seed, rule_name, inst, suspects, y)
            assert fast.method == method, context
            assert fast.answer == slow.answer, context
            assert verify_verdict(inst, rule, fast, suspects), context
            assert verify_verdict(inst, rule, slow, suspects), context
            answers.add(fast.answer)
    return answers


@pytest.mark.parametrize("rule_name, size, method", CASES)
def test_detectors_match_oracle_m5(rule_name, size, method):
    trials = 30 if size == 1 else 5
    answers = set()
    for seed in range(2):
        answers |= _differential(seed, 5, rule_name, size, method, trials)
    assert answers == {True, False}


@pytest.mark.slow
@pytest.mark.parametrize("rule_name, size, method", CASES)
@pytest.mark.parametrize("m", [5, 6])
def test_detectors_match_oracle_long(m, rule_name, size, method):
    trials = 60 if size == 1 else (8 if m == 5 else 1)
    answers = set()
    for seed in range(10, 16):
        answers |= _differential(seed, m, rule_name, size, method, trials)
    assert answers == {True, False}
