"""Differential tests: the polynomial detectors against the exhaustive oracle.

Seeded random elections beyond the acceptance range: m = 5 (m = 6 in the
slow variant, run by `pytest -m slow`), random tie-break orders, irregular
scoring vectors and plurality coalitions.  Each case compares
`decide_cpmw` with `oracle_cpmw` for every alternative winner, checks the
route that decided it, and replay-verifies every YES.  Bucklin coalitions
run at m = 2-4 with up to four suspects (three suspects at m = 5-6 in the
slow variant), and the greedy bounded
search for convex vectors is compared with a search over every coalition
decided by the oracle (k up to 4 at m = 4 and 3 at m = 5 in the slow
variant).
"""

import random

import pytest

from manipdetect.core import ElectionInstance
from manipdetect.detection import verify_verdict
from manipdetect.dispatch import decide_cpmsw, decide_cpmw
from manipdetect.oracle import oracle_cpmw, search_coalitions
from manipdetect.rules import ScoringVector, VotingRule, winner


def _election(rng: random.Random, m: int, n: int) -> ElectionInstance:
    # a small ballot pool, so that ballot classes repeat
    pool = [tuple(rng.sample(range(m), m)) for _ in range(rng.randint(3, 8))]
    ballots = [rng.choice(pool) for _ in range(n)]
    names = [f"c{i}" for i in range(m)]
    return ElectionInstance(names, ballots, tuple(rng.sample(range(m), m)))


RULES = {
    "borda": lambda m: VotingRule.scoring(ScoringVector.borda(m)),
    "irregular": lambda m: VotingRule.scoring(ScoringVector([4, 2, 1] + [0] * (m - 3))),
    "plurality": lambda m: VotingRule.scoring(ScoringVector.plurality(m)),
    "2-approval": lambda m: VotingRule.scoring(ScoringVector.approval(2, m)),
    "veto": lambda m: VotingRule.scoring(ScoringVector.veto(m)),
    "maximin": lambda m: VotingRule.maximin(),
    "bucklin": lambda m: VotingRule.bucklin(),
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
    rule = RULES[rule_name](m)
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


def test_bucklin_three_suspects_m4():
    answers = set()
    for seed in range(3):
        answers |= _differential(seed, 4, "bucklin", 3, "bucklin-greedy", 6)
    assert answers == {True, False}


# With two candidates every witness ballot is x > y, which only helps x.
@pytest.mark.parametrize(
    "m, size, trials, expected",
    [(2, 1, 10, {False}), (2, 4, 10, {False}), (3, 2, 15, {True, False}),
     (3, 4, 10, {True, False}), (4, 4, 6, {True, False})],
)
def test_bucklin_coalitions_on_small_rosters(m, size, trials, expected):
    answers = set()
    for seed in range(3):
        answers |= _differential(seed, m, "bucklin", size, "bucklin-greedy", trials)
    assert answers == expected


# The oracle needs about C(362, 3) = 7.8 * 10^6 replays per NO target at m = 6.
@pytest.mark.slow
@pytest.mark.parametrize("m, seeds, trials", [(5, (23, 24), 2), (6, (23,), 1)], ids=["m5", "m6"])
def test_bucklin_three_suspects_long(m, seeds, trials):
    answers = set()
    for seed in seeds:
        answers |= _differential(seed, m, "bucklin", 3, "bucklin-greedy", trials)
    assert answers == {True, False}


def _greedy_differential(seed: int, m: int, rule_name: str, k: int, trials: int):
    rng = random.Random(f"greedy-{seed}-{m}-{rule_name}-{k}")
    rule = RULES[rule_name](m)
    answers = set()
    for _ in range(trials):
        inst = _election(rng, m, rng.randint(k + 1, 6))
        x = winner(inst, rule)
        for y in range(m):
            if y == x:
                continue
            fast = decide_cpmsw(inst, rule, y, k)
            slow = search_coalitions(inst, rule, k, y)
            context = (seed, rule_name, k, inst, y)
            assert fast.method == "delta-greedy", context
            assert fast.answer == slow.answer, context
            assert verify_verdict(inst, rule, fast), context
            assert verify_verdict(inst, rule, slow), context
            answers.add(fast.answer)
    return answers


GREEDY_RULES = ["borda", "2-approval", "veto"]


# At m = 5 a search over every 3-coalition takes up to a few seconds per
# election, so the two widest cases run with `-m slow` only.
@pytest.mark.parametrize("rule_name", GREEDY_RULES)
@pytest.mark.parametrize(
    "m, k, trials",
    [(4, 1, 6), (4, 2, 6), (4, 3, 3), (5, 1, 6), (5, 2, 2),
     pytest.param(4, 4, 6, marks=pytest.mark.slow), pytest.param(5, 3, 3, marks=pytest.mark.slow)],
)
def test_greedy_search_matches_oracle_search(m, k, trials, rule_name):
    answers = set()
    for seed in range(2):
        answers |= _greedy_differential(seed, m, rule_name, k, trials)
    assert answers == {True, False}
