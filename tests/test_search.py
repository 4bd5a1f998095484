"""Bounded coalition search over ballot classes.

`search_coalitions` decides one voter subset per multiset of ballot classes.
These tests check the enumeration and its count against brute force, the
search against a plain walk over every voter subset, and the anonymity the
enumeration rests on.
"""

import random
import time
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manipdetect import oracle, rules
from manipdetect.ballotfile import parse_election
from manipdetect.core import ElectionInstance, Preference
from manipdetect.detection import DetectionQuery, no_verdict, verify_verdict
from manipdetect.dispatch import decide_cpm, decide_cpms, decide_cpmsw, decide_cpmw
from manipdetect.errors import BudgetExceededError, InvalidQueryError
from manipdetect.oracle import (
    DEFAULT_SUBSET_BUDGET,
    _canonical_coalitions,
    _coalition_count,
    oracle_cpmw,
    search_coalitions,
)
from manipdetect.rules import ScoringVector, VotingRule, winner


def rules_for(m):
    rules = [
        VotingRule.scoring(ScoringVector.plurality(m)),
        VotingRule.scoring(ScoringVector.borda(m)),
        VotingRule.maximin(),
        VotingRule.bucklin(),
        VotingRule.stv(),
    ]
    if m >= 3:
        rules.append(VotingRule.scoring(ScoringVector((3,) + (1,) * (m - 2) + (0,))))
    return rules


def random_instance(rng, m, n, pool_size):
    """Ballots drawn from a small pool, so classes repeat; sometimes every
    voter of one class is replaced, leaving that class with count 0."""
    perms = list(permutations(range(m)))
    pool = [rng.choice(perms) for _ in range(pool_size)]
    tiebreak = list(range(m))
    rng.shuffle(tiebreak)
    ballots = [rng.choice(pool) for _ in range(n)]
    inst = ElectionInstance([f"c{i}" for i in range(m)], ballots, tiebreak)
    if rng.random() < 0.4:
        emptied = rng.randrange(len(inst.classes))
        new = Preference(rng.choice(perms))
        inst = inst.with_ballots_replaced(
            {i: new for i, c in enumerate(inst.voter_class) if c == emptied}
        )
    return inst


def class_multiset(inst, subset):
    return tuple(sorted(inst.voter_class[i] for i in subset))


def test_canonical_coalitions_are_one_per_class_multiset():
    rng = random.Random(600)
    for _ in range(150):
        inst = random_instance(rng, rng.randint(2, 4), rng.randint(1, 8), rng.randint(1, 4))
        n = inst.n
        for k in range(0, 5):
            brute = {
                class_multiset(inst, subset)
                for size in range(1, min(k, n) + 1)
                for subset in combinations(range(n), size)
            }
            assert _coalition_count(inst, k) == len(brute)
            got = list(_canonical_coalitions(inst, k))
            assert len(got) == len(brute)
            assert {class_multiset(inst, s) for s in got} == brute
            assert got == sorted(got, key=lambda s: (len(s), s))
            for subset in got:
                # the lowest-index voters of every class the subset uses
                for c in {inst.voter_class[i] for i in subset}:
                    mine = [i for i in subset if inst.voter_class[i] == c]
                    first = [i for i in range(n) if inst.voter_class[i] == c][: len(mine)]
                    assert mine == first


def test_coalition_count_of_large_tallied_profiles():
    # 30 classes of 1,000 voters: 30 singletons, 30 pairs within a class and
    # C(30, 2) pairs across classes
    inst = ElectionInstance(
        [f"c{i}" for i in range(5)],
        list(permutations(range(5)))[:30],
        counts=[1000] * 30,
    )
    assert _coalition_count(inst, 2) == 30 + 30 + 435
    # a bound past n counts every multiset, up to all 30,000 voters
    assert _coalition_count(inst, 10**9) == 1001**30 - 1


def test_hostile_bound_is_refused_in_time_independent_of_k():
    # 10^6 voters in 30 tallied classes, k = n: the count stops at one past
    # the subset budget instead of running over every size up to n
    inst = ElectionInstance(
        [f"c{i}" for i in range(5)],
        list(permutations(range(5)))[:30],
        counts=[10**6 // 30] * 29 + [10**6 - 29 * (10**6 // 30)],
    )
    assert inst.n == 10**6
    rule = VotingRule.bucklin()
    y = next(c for c in range(5) if c != winner(inst, rule))
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as refused:
        decide_cpmsw(inst, rule, y, inst.n)
    assert time.perf_counter() - start < 0.5
    assert refused.value.cost == DEFAULT_SUBSET_BUDGET + 1
    assert _coalition_count(inst, inst.n, 1000) == 1000
    assert _coalition_count(inst, 2, 1000) == 30 + 30 + 435


def reference_search(inst, k, decide):
    """The plain search: every voter subset, in size-then-index order."""
    verdict = None
    for size in range(1, min(k, inst.n) + 1):
        for subset in combinations(range(inst.n), size):
            verdict = decide(subset)
            if verdict.answer:
                verdict.coalition = subset
                return verdict
    return verdict if verdict is not None else no_verdict("oracle", exhaustive=True)


@pytest.mark.parametrize("m", [3, 4])
def test_search_matches_plain_subset_walk_with_dispatch_deciders(m):
    rng = random.Random(601 + m)
    for _ in range(25 if m == 3 else 12):
        inst = random_instance(rng, m, rng.randint(1, 7), rng.randint(1, 4))
        for rule in rules_for(m):
            x = winner(inst, rule)
            for y in range(m):
                if y == x:
                    continue
                for k in range(0, 4 if m == 3 else 3):
                    decide = lambda subset: decide_cpmw(inst, rule, subset, y)
                    got = search_coalitions(inst, rule, k, y, decide=decide)
                    want = reference_search(inst, k, decide)
                    assert got == want, (rule, y, k)
                    query = DetectionQuery(inst, rule, actual_winner=y, bound=k)
                    assert search_coalitions(query, decide=decide) == want, (rule, y, k)


def reference_target_loop(inst, rule, k):
    """The untargeted reference: the plain search against each alternative
    winner in tie-break order, by the oracle; the first YES, else the last NO."""
    x = winner(inst, rule)
    for y in inst.tiebreak.ranking:
        if y != x:
            verdict = reference_search(inst, k, lambda subset: oracle_cpmw(inst, rule, subset, y))
            if verdict.answer:
                break
    return verdict


def test_search_matches_plain_subset_walk_with_oracle_decider():
    rng = random.Random(605)
    for _ in range(25):
        inst = random_instance(rng, 3, rng.randint(1, 6), rng.randint(1, 3))
        for rule in rules_for(3):
            x = winner(inst, rule)
            for k in range(0, 3):
                want = reference_target_loop(inst, rule, k)
                assert search_coalitions(inst, rule, k) == want, (rule, k)
                assert search_coalitions(DetectionQuery(inst, rule, bound=k)) == want, (rule, k)
                for y in range(3):
                    if y == x:
                        continue
                    want = reference_search(
                        inst, k, lambda subset: oracle_cpmw(inst, rule, subset, y)
                    )
                    assert search_coalitions(inst, rule, k, y) == want, (rule, y, k)


def cpms_rules(m):
    pad = (0,) * (m - 3)
    return [
        VotingRule.maximin(),
        VotingRule.bucklin(),
        VotingRule.stv(),
        VotingRule.scoring(ScoringVector.plurality(m)),
        VotingRule.scoring(ScoringVector.borda(m)),
        VotingRule.scoring(ScoringVector.veto(m)),
        VotingRule.scoring(ScoringVector((3, 1, 0) + pad)),
    ]


def assert_one_cpms(inst, rule, k):
    """`decide_cpms` and the untargeted oracle search name the same target
    and coalition; the greedy picks its own members, so on convex vectors
    only the coalition's size must agree."""
    got = decide_cpms(inst, rule, k)
    want = search_coalitions(inst, rule, k)
    assert (got.answer, got.witness_actual_winner) == (want.answer, want.witness_actual_winner)
    if rule.kind == "scoring" and rule.vector.is_convex() and got.answer:
        assert len(got.coalition) == len(want.coalition)
    else:
        assert got.coalition == want.coalition
    assert got.current_winner == want.current_winner == winner(inst, rule)
    return want


@pytest.mark.parametrize("m", [3, 4])
def test_decide_cpms_and_the_untargeted_search_are_one_definition(m):
    rng = random.Random(f"one-cpms/{m}")
    yes = 0
    for _ in range(20 if m == 3 else 8):
        inst = random_instance(rng, m, rng.randint(3, 8), rng.randint(2, 5))
        for rule in cpms_rules(m):
            for k in range(3):
                yes += assert_one_cpms(inst, rule, k).answer
    assert yes


def test_untargeted_search_tries_targets_in_tie_break_order():
    # current winner c; coalition by coalition, voter 0 elects a first, but
    # the tie-break order b, c, a asks about b first, and voter 2 elects b
    inst = ElectionInstance(
        ("a", "b", "c"), [(2, 1, 0), (0, 1, 2), (2, 0, 1), (0, 1, 2)], tiebreak=(1, 2, 0)
    )
    rule = VotingRule.maximin()
    assert winner(inst, rule) == 2
    verdict = assert_one_cpms(inst, rule, 1)
    assert (verdict.answer, verdict.witness_actual_winner, verdict.coalition) == (True, 1, (2,))


def test_a_refused_untargeted_search_builds_no_table(monkeypatch):
    tables = []
    tally = rules.tally
    monkeypatch.setattr(rules, "tally", lambda *args: tables.append(args) or tally(*args))
    monkeypatch.setattr(oracle, "DEFAULT_SUBSET_BUDGET", 1)
    inst = ElectionInstance(("a", "b", "c"), [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)])
    with pytest.raises(BudgetExceededError):
        search_coalitions(inst, VotingRule.maximin(), 2)
    assert tables == []


def test_a_target_is_checked_and_the_current_winner_reported_at_every_k():
    inst = ElectionInstance(("a", "b", "c"), [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)])
    maximin = VotingRule.maximin()
    x = winner(inst, maximin)
    for k in (0, 1):
        with pytest.raises(InvalidQueryError, match="already the current winner"):
            search_coalitions(inst, maximin, k, x)
        y = next(c for c in range(3) if c != x)
        assert search_coalitions(inst, maximin, k, y).current_winner == x
        assert search_coalitions(inst, maximin, k).current_winner == x
    # a CPMSW query needs its target, though the search it hands over does not
    with pytest.raises(InvalidQueryError, match="actual-winner"):
        decide_cpmsw(inst, maximin, None, 1)


def test_a_search_query_needs_a_bound():
    inst = ElectionInstance(("a", "b", "c"), [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)])
    with pytest.raises(InvalidQueryError):
        search_coalitions(DetectionQuery(inst, VotingRule.maximin(), actual_winner=1))
    with pytest.raises(InvalidQueryError):
        search_coalitions(DetectionQuery(inst, VotingRule.maximin()))


def test_bucklin_search_on_large_tallied_profile_fits_default_budget():
    # 5 candidates, 20,000 voters in 30 tallied ballot lines: all voter pairs
    # are about 2*10^8 subsets, the class multisets of size <= 2 a few hundred.
    rng = random.Random(606)
    perms = rng.sample(list(permutations("abcde")), 30)
    cuts = sorted(rng.sample(range(1, 20_000), 29))
    counts = [b - a for a, b in zip([0, *cuts], [*cuts, 20_000])]
    lines = [f"{c}x {'>'.join(p)}" for c, p in zip(counts, perms)]
    inst = parse_election("candidates: a,b,c,d,e\n" + "\n".join(lines) + "\n")
    assert inst.n == 20_000 and len(inst.classes) == 30
    assert comb(inst.n, 1) + comb(inst.n, 2) > DEFAULT_SUBSET_BUDGET
    assert _coalition_count(inst, 2) <= 30 + 30 + 435
    rule = VotingRule.bucklin()
    x = winner(inst, rule)
    for y in range(5):
        if y != x:
            verdict = decide_cpmsw(inst, rule, y, 2)
            assert verdict.method == "bucklin-greedy"
            assert verify_verdict(inst, rule, verdict)


M = 4
POOL = list(permutations(range(M)))[::4]  # 6 rankings, so classes repeat
ANONYMITY_RULES = [
    VotingRule.scoring(ScoringVector.plurality(M)),
    VotingRule.scoring(ScoringVector.borda(M)),
    VotingRule.maximin(),
    VotingRule.bucklin(),
    VotingRule.stv(),
]


@settings(max_examples=30, deadline=None)
@given(
    ballots=st.lists(st.sampled_from(POOL), min_size=1, max_size=5),
    tiebreak=st.permutations(range(M)),
    k=st.integers(0, 2),
    rng=st.randoms(use_true_random=False),
)
def test_search_answers_are_invariant_under_voter_permutation(ballots, tiebreak, k, rng):
    names = [f"c{i}" for i in range(M)]
    inst = ElectionInstance(names, ballots, tiebreak)
    shuffled = list(ballots)
    rng.shuffle(shuffled)
    other = ElectionInstance(names, shuffled, tiebreak)
    for rule in ANONYMITY_RULES:
        x = winner(inst, rule)
        assert winner(other, rule) == x
        for y in range(M):
            if y != x:
                assert decide_cpmsw(inst, rule, y, k).answer == decide_cpmsw(other, rule, y, k).answer
        assert decide_cpms(inst, rule, k).answer == decide_cpms(other, rule, k).answer


CPMW_RULES = [*ANONYMITY_RULES, VotingRule.scoring(ScoringVector((3, 1, 0, 0)))]


@settings(max_examples=30, deadline=None)
@given(
    ballots=st.lists(st.permutations(range(M)), min_size=1, max_size=5),
    tiebreak=st.permutations(range(M)),
    data=st.data(),
)
def test_cpmw_and_cpm_answers_are_invariant_under_voter_permutation(ballots, tiebreak, data):
    # the exhaustive oracle replays one ballot multiset per leaf, which is
    # sound only if no rule looks at which voter cast which ballot
    n = len(ballots)
    suspects = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
    order = data.draw(st.permutations(range(n)))  # order[j]: the voter moved to position j
    moved = [order.index(i) for i in suspects]
    names = [f"c{i}" for i in range(M)]
    inst = ElectionInstance(names, ballots, tiebreak)
    other = ElectionInstance(names, [ballots[i] for i in order], tiebreak)
    for rule in CPMW_RULES:
        x = winner(inst, rule)
        for y in range(M):
            if y != x:
                got = decide_cpmw(other, rule, moved, y).answer
                assert decide_cpmw(inst, rule, suspects, y).answer == got, (rule, y)
        assert decide_cpm(inst, rule, suspects).answer == decide_cpm(other, rule, moved).answer


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 4), data=st.data())
def test_cpmw_and_cpm_answers_are_invariant_under_candidate_relabelling(m, data):
    # every rule is neutral once the tie-break order is relabelled with the
    # ballots, so renaming the candidates renames the answers and nothing else
    ballots = data.draw(st.lists(st.permutations(range(m)), min_size=1, max_size=5))
    tiebreak = data.draw(st.permutations(range(m)))
    sigma = data.draw(st.permutations(range(m)))  # sigma[c]: the new id of candidate c
    suspects = data.draw(st.sets(st.integers(0, len(ballots) - 1), min_size=1, max_size=3))
    names = [f"c{i}" for i in range(m)]
    inst = ElectionInstance(names, ballots, tiebreak)
    other = ElectionInstance(
        names, [[sigma[c] for c in b] for b in ballots], [sigma[c] for c in tiebreak]
    )
    for rule in rules_for(m):
        x = winner(inst, rule)
        assert winner(other, rule) == sigma[x]
        for y in range(m):
            if y != x:
                got = decide_cpmw(other, rule, suspects, sigma[y]).answer
                assert decide_cpmw(inst, rule, suspects, y).answer == got, (rule, y)
        assert decide_cpm(inst, rule, suspects).answer == decide_cpm(other, rule, suspects).answer


def plain_cpmsw(inst, rule, y, k):
    """CPMSW as a plain walk: every canonical coalition on a fresh `decide_cpmw`."""
    verdict = no_verdict("oracle", exhaustive=True)
    for subset in _canonical_coalitions(inst, k):
        verdict = decide_cpmw(inst, rule, subset, y)
        if verdict.answer:
            verdict.coalition = subset
            break
    return verdict


def plain_cpms(inst, rule, k):
    """CPMS as a plain walk over the alternative winners in tie-break order."""
    verdict = no_verdict("cpms")
    x = winner(inst, rule)
    for y in inst.tiebreak.ranking:
        if y != x:
            verdict = plain_cpmsw(inst, rule, y, k)
            if verdict.answer:
                break
    return verdict


def verdict_fields(verdict):
    return (verdict.answer, verdict.witness, verdict.coalition, verdict.method,
            verdict.exhaustive)


SEARCH_RULES = {
    "bucklin": lambda m: VotingRule.bucklin(),
    "maximin": lambda m: VotingRule.maximin(),
    "stv": lambda m: VotingRule.stv(),
    "3,1,0": lambda m: VotingRule.scoring(ScoringVector((3,) + (1,) * (m - 2) + (0,))),
}


@pytest.mark.parametrize("m, trials, ks", [(3, 30, (0, 1, 2, 3)), (4, 20, (1, 2)), (5, 10, (1,))])
@pytest.mark.parametrize("name", list(SEARCH_RULES))
def test_searches_on_a_shared_context_match_a_plain_walk_on_fresh_queries(name, m, trials, ks):
    # decide_cpmsw and decide_cpms decide every coalition on a query derived
    # from one per target, sharing its context; a fresh decide_cpmw per
    # coalition must give the same verdict, field for field
    rng = random.Random(f"shared-context/{name}/{m}")
    rule = SEARCH_RULES[name](m)
    for _ in range(trials):
        inst = random_instance(rng, m, rng.randint(1, 7), rng.randint(1, 4))
        x = winner(inst, rule)
        for k in ks:
            for y in range(m):
                if y != x:
                    got = decide_cpmsw(inst, rule, y, k)
                    assert verdict_fields(got) == verdict_fields(plain_cpmsw(inst, rule, y, k))
                    assert got.current_winner == x
            got = decide_cpms(inst, rule, k)
            assert verdict_fields(got) == verdict_fields(plain_cpms(inst, rule, k)), (k,)
            assert got.current_winner == x


def assert_witness_replays(inst, rule, verdict, x, y=None):
    """A YES ranks x above y in every witness ballot, and the election with
    the witness ballots cast, counted from scratch, elects y."""
    if not verdict.answer:
        return
    assert y is None or verdict.witness_actual_winner == y
    y = verdict.witness_actual_winner
    assert y != x and verdict.current_winner == x
    assert verdict.witness and set(verdict.witness) == set(verdict.coalition)
    for pref in verdict.witness.values():
        assert pref.ranking.index(x) < pref.ranking.index(y)
    assert winner(inst.with_ballots_replaced(verdict.witness), rule) == y


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 4), data=st.data())
def test_every_yes_witness_ranks_x_above_y_and_re_elects_y(m, data):
    ballots = data.draw(st.lists(st.permutations(range(m)), min_size=1, max_size=5))
    tiebreak = data.draw(st.permutations(range(m)))
    suspects = data.draw(st.sets(st.integers(0, len(ballots) - 1), min_size=1, max_size=2))
    k = data.draw(st.integers(1, 2))
    inst = ElectionInstance([f"c{i}" for i in range(m)], ballots, tiebreak)
    for rule in rules_for(m):
        x = winner(inst, rule)
        for y in range(m):
            if y != x:
                assert_witness_replays(inst, rule, decide_cpmw(inst, rule, suspects, y), x, y)
                assert_witness_replays(inst, rule, decide_cpmsw(inst, rule, y, k), x, y)
        assert_witness_replays(inst, rule, decide_cpm(inst, rule, suspects), x)
        assert_witness_replays(inst, rule, decide_cpms(inst, rule, k), x)
