import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial

import pytest

from manipdetect import oracle
from manipdetect.core import ElectionInstance, Preference
from manipdetect.detection import DetectionQuery, verify_verdict
from manipdetect.errors import BudgetExceededError, InvalidQueryError
from manipdetect.oracle import (
    oracle_cpm,
    oracle_cpmw,
    search_coalitions,
)
from manipdetect.rules import ScoringVector, VotingRule, winner

from samples import A, B, C, e1, e2, e4, e6

BORDA3 = VotingRule.scoring(ScoringVector.borda(3))


def test_cpmw_e1_yes_with_lex_first_witness():
    verdict = oracle_cpmw(e1(), BORDA3, [0], B)
    assert verdict.answer
    assert verdict.witness[0].ranking == (A, B, C)
    assert verdict.witness_actual_winner == B
    assert verify_verdict(e1(), BORDA3, verdict, suspects=(0,))


def test_cpmw_e2_no():
    assert not oracle_cpmw(e2(), BORDA3, [0], B).answer


def test_cpmw_rejects_current_winner_as_target():
    with pytest.raises(InvalidQueryError):
        oracle_cpmw(e1(), BORDA3, [0], A)


def test_cpmw_e6_maximin():
    inst = e6()
    y = 2
    verdict = oracle_cpmw(inst, VotingRule.maximin(), [0], y)
    assert verdict.answer
    assert verdict.witness[0].ranking == (0, 2, 1)  # a>y>b
    assert verify_verdict(inst, VotingRule.maximin(), verdict)


def test_cpm_stv_runs_by_exhaustion():
    verdict = oracle_cpm(e1(), VotingRule.stv(), [0])
    assert verdict.exhaustive
    # cross-check against a direct enumeration of all six ballots
    from itertools import permutations

    from manipdetect.core import Preference
    from manipdetect.rules import winner

    inst = e1()
    x = winner(inst, VotingRule.stv())
    expected = False
    for perm in permutations(range(3)):
        replayed = inst.with_ballots_replaced({0: Preference(perm)})
        w = winner(replayed, VotingRule.stv())
        if w != x and perm.index(x) < perm.index(w):
            expected = True
    assert verdict.answer == expected


def test_cpm_single_candidate_is_no():
    inst = ElectionInstance(("a",), [(0,)])
    assert not oracle_cpm(inst, VotingRule.stv(), [0]).answer


def test_cpm_e4_bucklin_yes():
    verdict = oracle_cpm(e4(), VotingRule.bucklin(), [0])
    assert verdict.answer
    assert verify_verdict(e4(), VotingRule.bucklin(), verdict)


def test_search_e1_borda_k1():
    verdict = search_coalitions(e1(), BORDA3, 1, B)
    assert verdict.answer
    assert verdict.coalition == (0,)


def test_search_k0_is_no():
    assert not search_coalitions(e1(), BORDA3, 0, B).answer


def test_search_e2_k2_no_target_is_no():
    assert not search_coalitions(e2(), BORDA3, 2).answer


def test_budget_refusal_and_force(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_REPLAY_BUDGET", 1000)
    inst = ElectionInstance(
        tuple("abcdefgh"), [tuple(range(8))] * 2, tiebreak=tuple(range(8))
    )
    # 8!/2 = 20160 admissible ballots per suspect: one suspect already
    # exceeds a budget of 1000 replays
    with pytest.raises(BudgetExceededError):
        oracle_cpmw(inst, VotingRule.scoring(ScoringVector.borda(8)), [0, 1], 1)
    verdict = oracle_cpmw(inst, VotingRule.scoring(ScoringVector.borda(8)), [0], 1, force=True)
    assert verdict.exhaustive


def test_search_equals_or_over_all_subsets():
    # on every 3-candidate, 4-voter profile: search(k) == OR of per-subset oracles
    rule = BORDA3
    names = ("a", "b", "c")
    from itertools import permutations

    perms = list(permutations(range(3)))
    checked = 0
    for ballots in product(perms, repeat=4):
        inst = ElectionInstance(names, ballots)
        got = search_coalitions(inst, rule, 2).answer
        expected = any(
            oracle_cpm(inst, rule, subset).answer
            for size in (1, 2)
            for subset in combinations(range(4), size)
        )
        assert got == expected
        checked += 1
    assert checked == 6**4


def test_cpmsw_yes_implies_cpms_yes():
    import random

    rng = random.Random(11)
    from itertools import permutations

    for _ in range(40):
        m = rng.randint(2, 3)
        n = rng.randint(2, 4)
        perms = list(permutations(range(m)))
        inst = ElectionInstance(
            [f"c{i}" for i in range(m)], [rng.choice(perms) for _ in range(n)]
        )
        rule = VotingRule.scoring(ScoringVector.borda(m))
        from manipdetect.rules import winner

        x = winner(inst, rule)
        for y in range(m):
            if y == x:
                continue
            if search_coalitions(inst, rule, 2, y).answer:
                assert search_coalitions(inst, rule, 2).answer


def product_walk(inst, rule, suspects, y):
    """The oracle as first written: every ordered tuple of admissible ballots,
    in lexicographic order, each replayed on a fresh copy of the profile.
    Returns (answer, witness rankings, method, exhaustive)."""
    x = winner(inst, rule)
    slots = [p for p in permutations(range(inst.m)) if p.index(x) < p.index(y)]
    for combo in product(slots, repeat=len(suspects)):
        replaced = inst.with_ballots_replaced(
            {i: Preference(b) for i, b in zip(suspects, combo)}
        )
        if winner(replaced, rule) == y:
            return True, dict(zip(suspects, combo)), "oracle", True
    return False, None, "oracle", True


def reference_rules(m):
    return [
        VotingRule.scoring(ScoringVector.plurality(m)),
        VotingRule.scoring(ScoringVector.borda(m)),
        VotingRule.scoring(ScoringVector((3, 1) + (0,) * (m - 2))),
        VotingRule.scoring(ScoringVector((Fraction(5, 2), Fraction(2, 3)) + (0,) * (m - 2))),
        VotingRule.maximin(),
        VotingRule.bucklin(),
        VotingRule.stv(),
    ]


@pytest.mark.parametrize("m", [3, 4])
def test_oracle_matches_plain_product_walk(m):
    rng = random.Random(700 + m)
    perms = list(permutations(range(m)))
    yes = 0
    for _ in range(40 if m == 3 else 8):
        n = rng.randint(1, 5)
        pool = [rng.choice(perms) for _ in range(rng.randint(2, 4))]
        tiebreak = list(range(m))
        rng.shuffle(tiebreak)
        inst = ElectionInstance(
            [f"c{i}" for i in range(m)], [rng.choice(pool) for _ in range(n)], tiebreak
        )
        if rng.random() < 0.4:
            # every voter of one class recast: that class keeps count 0
            emptied = rng.randrange(len(inst.classes))
            new = Preference(rng.choice(perms))
            inst = inst.with_ballots_replaced(
                {i: new for i, c in enumerate(inst.voter_class) if c == emptied}
            )
        for size in range(0, min(3, n) + 1):
            suspects = tuple(sorted(rng.sample(range(n), size)))
            for rule in reference_rules(m):
                x = winner(inst, rule)
                for y in range(m):
                    if y == x:
                        continue
                    got = oracle_cpmw(inst, rule, suspects, y)
                    witness = got.witness and {i: p.ranking for i, p in got.witness.items()}
                    assert (got.answer, witness, got.method, got.exhaustive) == product_walk(
                        inst, rule, suspects, y
                    ), (rule, suspects, y)
                    yes += got.answer
    assert yes >= 10


@pytest.mark.parametrize("size", [1, 2, 3])
def test_oracle_reads_one_winner_per_ballot_multiset(monkeypatch, size):
    # a unanimous landslide: no admissible ballots elect y, so every leaf is read
    inst = ElectionInstance(tuple("abcd"), [(0, 1, 2, 3)] * 9)
    reads = []

    def counted(*args):
        reads.append(1)
        return original(*args)

    original = oracle.winner_from_tally
    monkeypatch.setattr(oracle, "winner_from_tally", counted)
    verdict = oracle_cpmw(inst, VotingRule.scoring(ScoringVector.borda(4)), range(size), 1)
    assert not verdict.answer
    half = factorial(4) // 2
    assert len(reads) == comb(half + size - 1, size)


def test_untargeted_search_builds_each_targets_admissible_ballots_once(monkeypatch):
    # e2 under Borda is NO for every coalition of at most two voters, so the
    # search decides all six class multisets against both targets b and c
    calls = []
    original = oracle.admissible_preferences

    def counted(m, x, y):
        calls.append(y)
        return original(m, x, y)

    monkeypatch.setattr(oracle, "admissible_preferences", counted)
    assert not search_coalitions(e2(), BORDA3, 2).answer
    assert sorted(calls) == [B, C]


def test_fraction_vector_is_walked_in_ints(monkeypatch):
    # a Fraction vector's tables are scaled to ints before the walk: every
    # leaf reads int scores, and the query's cached rest keeps its Fractions
    rule = VotingRule.scoring(ScoringVector([Fraction(3, 2), Fraction(1, 3), 0]))
    inst = e2()
    y = next(c for c in range(inst.m) if c != winner(inst, rule))
    query = DetectionQuery(inst, rule, (0, 1), y)
    rest = list(query.rest)
    assert Fraction in map(type, rest)
    tables = []
    original = oracle.winner_from_tally

    def read(m, table, *args):
        tables.append(table)
        return original(m, table, *args)

    monkeypatch.setattr(oracle, "winner_from_tally", read)
    oracle_cpmw(query)
    assert tables and {type(s) for table in tables for s in table} == {int}
    assert query.rest == rest and list(map(type, query.rest)) == list(map(type, rest))
