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

Convex scoring coalitions (`scoring-coalition`) run on planted near-ties,
since two suspects rarely swing the random elections above (veto gave no
YES in the first 40 of them at m = 5):
whole orbits of the cyclic relabelling c -> c + 1 (mod m), under which every
candidate stands alike, plus a small lead of x over y.  Their tier-1 row is
m = 5 with two suspects, every alternative winner; the slow variant is
m = 5 with three suspects and m = 6 with two.  The same near-ties, with
265-311 distinct rankings at m = 6, put every route on packed instances,
whose tables are counted from position planes, and on a copy in which
voters swap and replace ballots.
"""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from manipdetect.core import ElectionInstance, Preference
from manipdetect.detect_scoring import cpmsw_scoring_greedy
from manipdetect.detection import DetectionQuery, verify_verdict
from manipdetect.dispatch import _decide_cpmw, decide_cpmsw, decide_cpmw
from manipdetect.oracle import oracle_cpmw, search_coalitions
from manipdetect.rules import ScoringVector, VotingRule, winner


def _election(rng: random.Random, m: int, n: int) -> ElectionInstance:
    # a small ballot pool, so that ballot classes repeat
    pool = [tuple(rng.sample(range(m), m)) for _ in range(rng.randint(3, 8))]
    ballots = [rng.choice(pool) for _ in range(n)]
    names = [f"c{i}" for i in range(m)]
    return ElectionInstance(names, ballots, tuple(rng.sample(range(m), m)))


def _convex_fraction(m: int) -> ScoringVector:
    # a top gap of 1/3, the smallest, over uneven lower gaps of 1/2 and 1
    gaps = [Fraction(1, 3)] + [Fraction(1 + i % 2, 2) for i in range(m - 2)]
    return ScoringVector([sum(gaps[i:], Fraction(0)) for i in range(m)])


RULES = {
    "borda": lambda m: VotingRule.scoring(ScoringVector.borda(m)),
    "irregular": lambda m: VotingRule.scoring(ScoringVector([4, 2, 1] + [0] * (m - 3))),
    "plurality": lambda m: VotingRule.scoring(ScoringVector.plurality(m)),
    "2-approval": lambda m: VotingRule.scoring(ScoringVector.approval(2, m)),
    "veto": lambda m: VotingRule.scoring(ScoringVector.veto(m)),
    "convex-fraction": lambda m: VotingRule.scoring(_convex_fraction(m)),
    "maximin": lambda m: VotingRule.maximin(),
    "bucklin": lambda m: VotingRule.bucklin(),
    "stv": lambda m: VotingRule.stv(),
}


# (rule, coalition size, method the dispatcher must pick)
CASES = [
    ("borda", 1, "scoring-single"),
    ("irregular", 1, "scoring-single"),
    ("maximin", 1, "maximin-single"),
    ("bucklin", 2, "bucklin-greedy"),
    ("plurality", 2, "plurality-capacity"),
]


def _agree(inst, rule, suspects, y, method: str, context) -> bool:
    """The answer of `decide_cpmw`, checked against the oracle's, its route
    against `method`, and both verdicts by replay."""
    fast = decide_cpmw(inst, rule, suspects, y)
    slow = oracle_cpmw(inst, rule, suspects, y)
    context = (*context, inst, suspects, y)
    assert fast.method == method, context
    assert fast.answer == slow.answer, context
    assert verify_verdict(inst, rule, fast, suspects), context
    assert verify_verdict(inst, rule, slow, suspects), context
    return fast.answer


def _differential(seed: int, m: int, rule_name: str, size: int, method: str, trials: int):
    rng = random.Random(f"{seed}-{m}-{rule_name}-{size}")
    rule = RULES[rule_name](m)
    answers = set()
    for _ in range(trials):
        inst = _election(rng, m, rng.randint(size + 2, 10))
        suspects = tuple(sorted(rng.sample(range(inst.n), size)))
        x = winner(inst, rule)
        for y in range(m):
            if y != x:
                answers.add(_agree(inst, rule, suspects, y, method, (seed, rule_name)))
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


def _near_tie(
    rng: random.Random, m: int, orbits: int, lead_y: int
) -> tuple[ElectionInstance, int, int]:
    """A planted near-tie; returns (election, x, y).

    `orbits` whole orbits of the cyclic relabelling c -> c + 1 (mod m) leave
    every candidate alike under every rule, so all m tie.  On top of them go
    `lead_y` rankings that start y > x and one more that starts x > y: a
    lead of one ballot for x over y, both ahead of the rest.  Every ranking is
    distinct and cast by one voter; the tie-break order is random.
    """
    by_orbit: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for r in permutations(range(m)):
        key = min(tuple((c + k) % m for c in r) for k in range(m))
        by_orbit.setdefault(key, []).append(r)
    keys = sorted(by_orbit)
    picked = set(rng.sample(range(len(keys)), orbits))
    rankings = [r for i in sorted(picked) for r in by_orbit[keys[i]]]
    rest = [r for i, key in enumerate(keys) if i not in picked for r in by_orbit[key]]
    x, y = rng.sample(range(m), 2)
    rankings += rng.sample([r for r in rest if r[:2] == (x, y)], lead_y + 1)
    rankings += rng.sample([r for r in rest if r[:2] == (y, x)], lead_y)
    rng.shuffle(rankings)
    names = [f"c{i}" for i in range(m)]
    return ElectionInstance(names, rankings, tuple(rng.sample(range(m), m))), x, y


def _suspects_near_the_top(rng: random.Random, inst: ElectionInstance, rule, size: int):
    """`size` voters among those who rank the current winner highest (first,
    or within the top two when too few rank it first, and so on): those who
    can take the most from it."""
    x = winner(inst, rule)
    for depth in range(1, inst.m + 1):
        near = [i for i, pref in enumerate(inst.ballots) if pref.ranking.index(x) < depth]
        if len(near) >= size:
            return tuple(sorted(rng.sample(near, size)))


CONVEX_RULES = ["borda", "2-approval", "veto", "convex-fraction"]


def _convex_differential(seed: int, m: int, rule_name: str, size: int, trials: int):
    rng = random.Random(f"convex-{seed}-{m}-{rule_name}-{size}")
    rule = RULES[rule_name](m)
    answers = set()
    for _ in range(trials):
        inst, _, _ = _near_tie(rng, m, rng.randint(1, 2), rng.randint(0, 2))
        suspects = _suspects_near_the_top(rng, inst, rule, size)
        x = winner(inst, rule)
        for y in range(m):
            if y != x:
                context = (seed, rule_name)
                answers.add(_agree(inst, rule, suspects, y, "scoring-coalition", context))
    return answers


@pytest.mark.parametrize("rule_name", CONVEX_RULES)
def test_convex_coalitions_match_oracle_m5(rule_name):
    answers = set()
    for seed in range(2):
        answers |= _convex_differential(seed, 5, rule_name, 2, 5)
    assert answers == {True, False}


# Three suspects at m = 5 take C(62, 3) = 37,820 oracle leaves per NO
# target, two at m = 6 C(361, 2) = 64,980.
@pytest.mark.slow
@pytest.mark.parametrize("rule_name", CONVEX_RULES)
@pytest.mark.parametrize("m, size, trials", [(5, 3, 6), (6, 2, 3)], ids=["m5-three", "m6-two"])
def test_convex_coalitions_match_oracle_long(m, size, trials, rule_name):
    answers = set()
    for seed in range(10, 12):
        answers |= _convex_differential(seed, m, rule_name, size, trials)
    assert answers == {True, False}


def _greedy_against_coalition_search(seed: int, m: int, rule_name: str, trials: int):
    """The greedy against a search over every coalition decided by the
    polynomial CPMW routes, which reach past the oracle's m: the same
    answer at k = 0-3 and n + 1 for every alternative winner, every YES
    replay-verified.  Returns the answers seen."""
    rng = random.Random(f"two-routes-{seed}-{m}-{rule_name}")
    rule = RULES[rule_name](m)
    answers = set()
    for _ in range(trials):
        inst = _election(rng, m, rng.randint(3, 12))
        x = winner(inst, rule)
        for y, k in product(range(m), (0, 1, 2, 3, inst.n + 1)):
            if y != x:
                fast = cpmsw_scoring_greedy(DetectionQuery(inst, rule, (), y, k))
                query = DetectionQuery(inst, rule, (), y, k)
                slow = search_coalitions(
                    query, decide=lambda subset: _decide_cpmw(query.for_coalition(subset))
                )
                context = (seed, rule_name, k, inst, y)
                assert fast.answer == slow.answer, context
                assert verify_verdict(inst, rule, fast, bound=k, actual_winner=y), context
                assert verify_verdict(inst, rule, slow, bound=k, actual_winner=y), context
                answers.add(fast.answer)
    return answers


@pytest.mark.parametrize("rule_name", CONVEX_RULES)
def test_greedy_search_matches_a_search_over_polynomial_routes(rule_name):
    answers = set()
    for m in range(3, 9):
        answers |= _greedy_against_coalition_search(0, m, rule_name, 4)
    assert answers == {True, False}


@pytest.mark.slow
@pytest.mark.parametrize("rule_name", CONVEX_RULES)
@pytest.mark.parametrize("m", range(3, 9))
def test_greedy_search_matches_a_search_over_polynomial_routes_long(m, rule_name):
    answers = set()
    for seed in range(10, 14):
        answers |= _greedy_against_coalition_search(seed, m, rule_name, 25)
    assert answers == {True, False}


# (rule, coalition size, method the dispatcher must pick) on packed instances
PACKED_CASES = [
    ("borda", 1, "scoring-single"),
    ("irregular", 1, "scoring-single"),
    ("plurality", 1, "scoring-single"),
    ("convex-fraction", 1, "scoring-single"),
    ("maximin", 1, "maximin-single"),
    ("bucklin", 1, "bucklin-greedy"),
    ("stv", 1, "stv-tree"),
    ("borda", 2, "scoring-coalition"),
    ("2-approval", 2, "scoring-coalition"),
    ("veto", 2, "scoring-coalition"),
    ("convex-fraction", 2, "scoring-coalition"),
    ("plurality", 2, "plurality-capacity"),
    ("bucklin", 2, "bucklin-greedy"),
]


def _packed_differential(seed: int, rule_name: str, size: int, method: str, elections: int):
    """Each election and its copy, for suspects near the top and for any
    suspects: against every alternative winner with one suspect, against
    the planted runner-up with two (an oracle NO then walks 64,980 leaves
    per target)."""
    rng = random.Random(f"packed-{seed}-{rule_name}-{size}")
    rule = RULES[rule_name](6)
    answers = set()
    for _ in range(elections):
        election, x, y = _near_tie(rng, 6, rng.randint(44, 51), rng.randint(0, 2))
        # two voters swap ballots and a third casts a ranking nobody cast
        i, j, k = rng.sample(range(election.n), 3)
        ballots = election.ballots
        fresh = rng.choice(sorted(set(permutations(range(6))) - {b.ranking for b in ballots}))
        copy = election.with_ballots_replaced(
            {i: ballots[j], j: ballots[i], k: Preference(fresh)}
        )
        assert not copy.classes.units_are_voters
        for inst in (election, copy):
            assert inst.classes.pack  # every table is counted from the planes
            current = winner(inst, rule)
            targets = [y if current != y else x]
            if size == 1:
                targets = [t for t in range(6) if t != current]
            near = _suspects_near_the_top(rng, inst, rule, size)
            anyone = tuple(sorted(rng.sample(range(inst.n), size)))
            for suspects in (near, anyone):
                for target in targets:
                    context = (seed, rule_name)
                    answers.add(_agree(inst, rule, suspects, target, method, context))
    return answers


@pytest.mark.parametrize("rule_name, size, method", PACKED_CASES)
def test_detectors_match_oracle_on_packed_instances(rule_name, size, method):
    assert _packed_differential(0, rule_name, size, method, 2) == {True, False}


@pytest.mark.slow
@pytest.mark.parametrize("rule_name, size, method", PACKED_CASES)
def test_detectors_match_oracle_on_packed_instances_long(rule_name, size, method):
    answers = set()
    for seed in range(10, 16):
        answers |= _packed_differential(seed, rule_name, size, method, 2)
    assert answers == {True, False}
