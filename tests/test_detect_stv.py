"""The STV elimination-tree search against the exhaustive oracle.

Seeded random elections with random tie-break orders and classes whose
voters were all replaced (count 0): `cpmw_stv` against `oracle_cpmw` for
every alternative winner, and dispatch's STV CPM, CPMSW and CPMS against
`oracle_cpm` and the oracle's own coalition search.  Every YES is
replay-verified.  m = 6 with two suspects and m = 5 with three run under
`pytest -m slow`.  The criterion-7 gadgets, m = 16 to 24 and far beyond the
oracle, are decided end to end.
"""

import random
import time

import pytest

from manipdetect import oracle
from manipdetect.core import ElectionInstance, Preference
from manipdetect.detect_stv import cpmw_stv
from manipdetect.detection import DetectionQuery, verify_verdict
from manipdetect.dispatch import decide_cpm, decide_cpms, decide_cpmsw, decide_cpmw
from manipdetect.errors import BudgetExceededError
from manipdetect.generators import X3CInstance, x3c_to_stv
from manipdetect.oracle import oracle_cpm, oracle_cpmw, search_coalitions
from manipdetect.rules import VotingRule, winner

STV = VotingRule.stv()


def _election(rng: random.Random, m: int, n: int) -> ElectionInstance:
    # a small ballot pool, so that ballot classes repeat; then every voter of
    # the first class is replaced, which leaves that class with count 0
    pool = [tuple(rng.sample(range(m), m)) for _ in range(rng.randint(2, 5))]
    inst = ElectionInstance(
        [f"c{i}" for i in range(m)],
        [rng.choice(pool) for _ in range(n)],
        tiebreak=tuple(rng.sample(range(m), m)),
    )
    first = [i for i, c in enumerate(inst.voter_class) if c == 0]
    if len(first) < n:
        inst = inst.with_ballots_replaced({i: Preference(rng.sample(range(m), m)) for i in first})
    return inst


def _differential(seed: int, m: int, size: int, trials: int) -> set[bool]:
    rng = random.Random(f"stv/{seed}/{m}/{size}")
    answers = set()
    for _ in range(trials):
        inst = _election(rng, m, rng.randint(size, size + 6))
        suspects = tuple(rng.sample(range(inst.n), size))
        x = winner(inst, STV)
        for y in range(m):
            if y == x:
                continue
            got = cpmw_stv(DetectionQuery(inst, STV, suspects, actual_winner=y))
            want = oracle_cpmw(inst, STV, suspects, y)
            context = (seed, inst, suspects, y)
            assert (got.method, got.exhaustive) == ("stv-tree", True), context
            assert got.answer == want.answer, context
            assert verify_verdict(inst, STV, got, suspects), context
            answers.add(got.answer)
    return answers


@pytest.mark.parametrize(
    "m, size, trials",
    [(2, 1, 20), (2, 2, 20), (3, 1, 40), (3, 2, 30), (4, 1, 40), (4, 2, 20),
     (5, 1, 30), (5, 2, 12), (3, 3, 20), (4, 3, 16)],
)
def test_cpmw_matches_oracle(m, size, trials):
    answers = _differential(0, m, size, trials)
    # with two candidates every witness ballot is x > y, which only helps x
    assert answers == ({False} if m == 2 else {True, False})


@pytest.mark.slow
@pytest.mark.parametrize("m, size, trials", [(6, 1, 40), (6, 2, 4), (5, 3, 6)])
def test_cpmw_matches_oracle_long(m, size, trials):
    assert _differential(1, m, size, trials) == {True, False}


@pytest.mark.parametrize("m", [3, 4])
def test_dispatch_problems_match_oracle(m):
    rng = random.Random(f"stv-dispatch/{m}")
    answers = set()
    for _ in range(12):
        inst = _election(rng, m, rng.randint(2, 6))
        x = winner(inst, STV)
        for size in (1, 2):
            suspects = tuple(rng.sample(range(inst.n), size))
            got = decide_cpm(inst, STV, suspects)
            assert got.answer == oracle_cpm(inst, STV, suspects).answer, (inst, suspects)
            assert verify_verdict(inst, STV, got, suspects)
            answers.add(got.answer)
        for k in (1, 2):
            for y in range(m):
                if y == x:
                    continue
                got = decide_cpmsw(inst, STV, y, k)
                want = search_coalitions(inst, STV, k, y)
                assert (got.answer, got.coalition) == (want.answer, want.coalition), (inst, y, k)
                assert verify_verdict(inst, STV, got)
            got = decide_cpms(inst, STV, k)
            assert got.answer == search_coalitions(inst, STV, k).answer, (inst, k)
            assert verify_verdict(inst, STV, got)
    assert answers == {True, False}


def test_round_budget_refusal_and_force(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_REPLAY_BUDGET", 10)
    inst = ElectionInstance([f"c{i}" for i in range(5)], [(0, 1, 2, 3, 4)] * 3)
    with pytest.raises(BudgetExceededError) as refused:
        cpmw_stv(DetectionQuery(inst, STV, (0, 1), actual_winner=1))
    assert (refused.value.cost, refused.value.budget) == (11, 10)
    forced = cpmw_stv(DetectionQuery(inst, STV, (0, 1), actual_winner=1, force=True))
    assert forced.answer == oracle_cpmw(inst, STV, (0, 1), 1, force=True).answer
    with pytest.raises(BudgetExceededError):
        decide_cpmw(inst, STV, (0, 1), 1)


def test_coalitions_of_a_search_share_the_first_choice_counts():
    inst = _election(random.Random(5), 4, 6)
    x = winner(inst, STV)
    y = next(c for c in range(4) if c != x)
    query = DetectionQuery(inst, STV, actual_winner=y)
    cpmw_stv(query.for_coalition((0,)))
    memo = query.context.first_choices
    assert memo and memo[(1 << 4) - 1] == [
        sum(w for pref, w in inst.classes if pref.ranking[0] == c) for c in range(4)
    ]
    cpmw_stv(query.for_coalition((1, 2)))
    assert query.context.first_choices is memo


YES_GADGETS = [
    X3CInstance(3, [(1, 2, 3), (1, 2, 3)]),
    X3CInstance(3, [(1, 2, 3), (1, 2, 3), (1, 2, 3)]),
    X3CInstance(6, [(1, 2, 3), (4, 5, 6)]),
    X3CInstance(6, [(1, 2, 3), (4, 5, 6), (1, 2, 4)]),
    X3CInstance(6, [(1, 2, 4), (3, 5, 6)]),
    X3CInstance(6, [(1, 2, 5), (3, 4, 6)]),
    X3CInstance(6, [(1, 2, 6), (3, 4, 5)]),
    X3CInstance(6, [(1, 3, 4), (2, 5, 6)]),
    X3CInstance(6, [(1, 3, 5), (2, 4, 6)]),
    X3CInstance(6, [(1, 4, 5), (2, 3, 6)]),
]


@pytest.mark.parametrize("x3c", YES_GADGETS)
def test_criterion_7_gadgets_decide_yes(x3c):
    gadget = x3c_to_stv(x3c)
    started = time.perf_counter()
    verdict = decide_cpmw(gadget.instance, STV, (gadget.suspect,), gadget.target)
    assert time.perf_counter() - started < 1.0
    assert verdict.answer and verdict.method == "stv-tree"
    assert verdict.current_winner == gadget.reported_winner
    assert verify_verdict(gadget.instance, STV, verdict, (gadget.suspect,))


def test_gadget_without_cover_decides_no():
    gadget = x3c_to_stv(X3CInstance(6, [(1, 2, 3), (1, 2, 4)]))
    started = time.perf_counter()
    verdict = decide_cpmw(gadget.instance, STV, (gadget.suspect,), gadget.target)
    assert time.perf_counter() - started < 1.0
    assert not verdict.answer and verdict.exhaustive
    assert not decide_cpm(gadget.instance, STV, (gadget.suspect,)).answer
