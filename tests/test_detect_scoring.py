import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from manipdetect import detect_scoring, rules
from manipdetect.core import ElectionInstance, Preference
from manipdetect.detection import DetectionQuery, no_verdict, verify_verdict
from manipdetect.detect_scoring import (
    canonical_manipulated_preference,
    cpmsw_plurality,
    cpmsw_scoring_greedy,
    cpmw_plurality_coalition,
    cpmw_scoring_coalition,
    cpmw_scoring_single,
)
from manipdetect.dispatch import decide_cpm, decide_cpms, decide_cpmsw, decide_cpmw
from manipdetect.errors import ConfigError, InvalidQueryError
from manipdetect.oracle import oracle_cpmw, search_coalitions
from manipdetect.rules import ScoringVector, VotingRule, positional_scores, winner

from samples import A, B, C, e1, e2, e5

BORDA3 = VotingRule.scoring(ScoringVector.borda(3))
PLURALITY3 = VotingRule.scoring(ScoringVector.plurality(3))


# --- canonical ballot -------------------------------------------------------


def test_canonical_ballot_e1_minus_v0():
    inst = e1()
    external = positional_scores(3, inst.ballots_excluding([0]), ScoringVector.borda(3))
    assert external == [2, 4, 0]
    tb_rank = inst.tb_rank
    assert canonical_manipulated_preference(external, A, B, 2, tb_rank).ranking == (C, A, B)
    assert canonical_manipulated_preference(external, A, B, 1, tb_rank).ranking == (A, B, C)


def test_canonical_ballot_four_candidates():
    # roster w,x,y,z = 0,1,2,3; external scores w=5, z=0; x=1 first, y=2 second
    tb_rank = Preference((0, 1, 2, 3)).positions()
    pref = canonical_manipulated_preference([5, 0, 0, 0], 1, 2, 1, tb_rank)
    assert pref.ranking == (1, 2, 3, 0)  # x>y>z>w


def test_canonical_ballot_rejects_bad_position():
    with pytest.raises(InvalidQueryError):
        canonical_manipulated_preference([0, 0, 0], 0, 1, 3, (0, 1, 2))


# --- single suspect ---------------------------------------------------------


def test_single_e1_yes():
    verdict = cpmw_scoring_single(DetectionQuery(e1(), BORDA3, (0,), actual_winner=B))
    assert verdict.answer
    assert verdict.witness[0].ranking == (A, B, C)
    assert verify_verdict(e1(), BORDA3, verdict, suspects=(0,))


def test_single_e2_no():
    assert not cpmw_scoring_single(DetectionQuery(e2(), BORDA3, (0,), actual_winner=B)).answer


def test_single_rejects_current_winner_target():
    with pytest.raises(InvalidQueryError):
        cpmw_scoring_single(DetectionQuery(e1(), BORDA3, (0,), actual_winner=A))


# --- coalitions (convex vectors) -------------------------------------------


def test_coalition_e5_yes():
    verdict = cpmw_scoring_coalition(DetectionQuery(e5(), BORDA3, (0, 1), actual_winner=B))
    assert verdict.answer
    assert all(w.ranking == (A, B, C) for w in verdict.witness.values())
    assert verify_verdict(e5(), BORDA3, verdict, suspects=(0, 1))


def test_coalition_agrees_with_single_on_e1():
    verdict = cpmw_scoring_coalition(DetectionQuery(e1(), BORDA3, (0,), actual_winner=B))
    assert verdict.answer == cpmw_scoring_single(
        DetectionQuery(e1(), BORDA3, (0,), actual_winner=B)
    ).answer


def test_coalition_e2_target_c_no():
    assert not cpmw_scoring_coalition(DetectionQuery(e2(), BORDA3, (0,), actual_winner=C)).answer


def test_coalition_routes_plurality_to_capacity():
    # dispatch sends plurality coalitions to the capacity count, not the test profile
    inst = ElectionInstance(("a", "b", "c"), [(A, B, C)] * 3 + [(B, A, C)] * 2)
    verdict = decide_cpmw(inst, PLURALITY3, (0, 1), B)
    assert verdict.method == "plurality-capacity"


def test_coalition_non_convex_falls_back_to_oracle():
    # (3,1,0): top gap 2 > 1, not convex and not plurality-like
    rule = VotingRule.scoring(ScoringVector((3, 1, 0)))
    inst = e1()
    y = 1 if winner(inst, rule) != 1 else 2
    verdict = decide_cpmw(inst, rule, (0, 1), y)
    assert verdict.method == "oracle-fallback"
    assert verdict.exhaustive


# --- plurality capacities ----------------------------------------------------


def _plur5() -> ElectionInstance:
    return ElectionInstance(("a", "b", "c"), [(A, B, C)] * 3 + [(B, A, C)] * 2)


def test_plurality_two_suspects_yes():
    inst = _plur5()
    verdict = cpmw_plurality_coalition(DetectionQuery(inst, PLURALITY3, (0, 1), actual_winner=B))
    assert verdict.answer
    # both suspects top c, with a kept above b
    for pref in verdict.witness.values():
        assert pref.ranking[0] == C
        assert pref.prefers(A, B)
    assert verify_verdict(inst, PLURALITY3, verdict, suspects=(0, 1))


def test_plurality_one_suspect_no():
    inst = _plur5()
    assert not cpmw_plurality_coalition(
        DetectionQuery(inst, PLURALITY3, (0,), actual_winner=B)
    ).answer


def test_plurality_two_candidates_forced_votes():
    # x=a has 3 tops, y=b has 2; a suspect vote must go to a, pushing it further up
    rule = VotingRule.scoring(ScoringVector.plurality(2))
    inst = ElectionInstance(("a", "b"), [(0, 1)] * 3 + [(1, 0)] * 2)
    assert not cpmw_plurality_coalition(DetectionQuery(inst, rule, (0,), actual_winner=1)).answer
    # removing enough a-voters leaves room: suspects {0,1,2} -> base a=0, b=2; 3 forced
    # a-votes give a=3 > allowed 2 -> still NO
    assert not cpmw_plurality_coalition(
        DetectionQuery(inst, rule, (0, 1, 2), actual_winner=1)
    ).answer


def test_plurality_two_candidates_agrees_with_oracle_on_every_small_profile():
    # with two candidates the general capacity formulas leave x the only
    # candidate with a capacity; the only admissible ballot tops x, so every
    # answer is NO
    for vector in (ScoringVector.plurality(2), ScoringVector((3, 1))):
        rule = VotingRule.scoring(vector)
        for n in range(1, 6):
            for ballots in product([(0, 1), (1, 0)], repeat=n):
                for tiebreak in ((0, 1), (1, 0)):
                    inst = ElectionInstance(("a", "b"), ballots, tiebreak)
                    y = 1 - winner(inst, rule)
                    for size in range(1, n + 1):
                        for suspects in combinations(range(n), size):
                            query = DetectionQuery(inst, rule, suspects, actual_winner=y)
                            got = cpmw_plurality_coalition(query)
                            want = oracle_cpmw(inst, rule, suspects, y)
                            assert got.answer == want.answer, (ballots, tiebreak, suspects)


def _plurality_search_with_skip(inst, rule, y, k):
    """Plurality CPMSW as decided per subset before the closed form: every
    voter subset in size-then-index order, skipping those with a voter who
    tops y, each decided by the capacity method."""
    verdict = None
    for size in range(1, min(k, inst.n) + 1):
        for subset in combinations(range(inst.n), size):
            if any(inst.ballots[i].ranking[0] == y for i in subset):
                continue
            query = DetectionQuery(inst, rule, subset, actual_winner=y)
            verdict = cpmw_plurality_coalition(query)
            if verdict.answer:
                verdict.coalition = subset
                return verdict
    return verdict if verdict is not None else no_verdict("oracle", exhaustive=True)


def test_plurality_cpmsw_closed_form_matches_per_subset_search():
    rng = random.Random(304)
    yes = 0
    for _ in range(400):
        m = rng.randint(2, 5)
        n = rng.randint(1, 9)
        perms = list(permutations(range(m)))
        tiebreak = list(range(m))
        rng.shuffle(tiebreak)
        inst = ElectionInstance(
            [f"c{i}" for i in range(m)], [rng.choice(perms) for _ in range(n)], tiebreak
        )
        # plain plurality, and a plurality-like vector whose low entry is not 0
        for vector in (ScoringVector.plurality(m), ScoringVector((3,) + (1,) * (m - 1))):
            rule = VotingRule.scoring(vector)
            x = winner(inst, rule)
            for y in range(m):
                if y == x:
                    continue
                for k in range(4):
                    got = cpmsw_plurality(DetectionQuery(inst, rule, actual_winner=y, bound=k))
                    assert got == _plurality_search_with_skip(inst, rule, y, k), (vector, y, k)
                    if m > 2:
                        assert decide_cpmsw(inst, rule, y, k) == got
                    yes += got.answer
    assert yes > 100


# --- bounded search ----------------------------------------------------------


def test_greedy_e1_deltas_and_k1():
    verdict = cpmsw_scoring_greedy(DetectionQuery(e1(), BORDA3, (), actual_winner=B, bound=1))
    assert verdict.answer
    assert verdict.coalition == (0,)
    assert verify_verdict(e1(), BORDA3, verdict)


def test_greedy_k0_no():
    assert not cpmsw_scoring_greedy(
        DetectionQuery(e1(), BORDA3, (), actual_winner=B, bound=0)
    ).answer


def test_greedy_e2_target_c_k3_no():
    assert not cpmsw_scoring_greedy(
        DetectionQuery(e2(), BORDA3, (), actual_winner=C, bound=3)
    ).answer
    # the oracle agrees over every coalition of size <= 3
    assert not search_coalitions(e2(), BORDA3, 3, C).answer


@pytest.mark.parametrize(
    "search, rule", [(cpmsw_scoring_greedy, BORDA3), (cpmsw_plurality, PLURALITY3)]
)
def test_search_without_bound_is_refused_before_any_table(monkeypatch, search, rule):
    tables = []

    def counted(*args):
        tables.append(args)
        return tally(*args)

    tally = rules.tally
    y = next(c for c in (A, B, C) if c != winner(e1(), rule))
    monkeypatch.setattr(rules, "tally", counted)
    with pytest.raises(InvalidQueryError, match="coalition bound"):
        search(DetectionQuery(e1(), rule, actual_winner=y))
    assert tables == []
    # the same query with a bound does build the full table
    search(DetectionQuery(e1(), rule, actual_winner=y, bound=1))
    assert tables


def test_greedy_monotone_in_k():
    rng = random.Random(5)
    perms = list(permutations(range(3)))
    for _ in range(30):
        inst = ElectionInstance(("a", "b", "c"), [rng.choice(perms) for _ in range(5)])
        x = winner(inst, BORDA3)
        for y in range(3):
            if y == x:
                continue
            answers = [
                cpmsw_scoring_greedy(
                    DetectionQuery(inst, BORDA3, (), actual_winner=y, bound=k)
                ).answer
                for k in range(0, 5)
            ]
            # YES at k implies YES at every larger bound
            for k in range(len(answers) - 1):
                if answers[k]:
                    assert answers[k + 1]


# --- the score-gap bound of the convex coalition routes ----------------------


# Voters 0 and 1 rank a > c > b, so each test ballot a > b > c lifts b by
# alpha_2 - alpha_3, the most a test ballot can.  a leads b by 1 under Borda
# and by 1/2 under the Fraction vector: exactly what one test ballot closes.
TIGHT = [(A, C, B), (A, C, B), (B, A, C), (B, C, A)]
TIGHT_VECTORS = [ScoringVector.borda(3), ScoringVector([Fraction(5, 6), Fraction(1, 2), 0])]


@pytest.mark.parametrize("vector", TIGHT_VECTORS, ids=["borda", "fraction"])
@pytest.mark.parametrize("tiebreak", [(A, B, C), (B, A, C)], ids=["x-first", "y-first"])
def test_a_bound_equal_to_the_deficit_decides_only_a_tie_won_by_x(vector, tiebreak):
    # one test ballot ties a and b, which b wins only first in the tie-break
    # order; two pass a by less than 1 in the Fraction case, which the bound
    # must not refuse either
    rule, x_first = VotingRule.scoring(vector), tiebreak[0] == A
    inst = ElectionInstance(("a", "b", "c"), TIGHT, tiebreak)
    assert winner(inst, rule) == A
    for suspects in [(0,), (0, 1)]:
        count = len(suspects)
        greedy_query = DetectionQuery(inst, rule, (), B, count)
        assert detect_scoring._out_of_reach(greedy_query, A, B, count) == (count == 1 and x_first)
        coalition = cpmw_scoring_coalition(DetectionQuery(inst, rule, suspects, B))
        greedy = cpmsw_scoring_greedy(greedy_query)
        assert coalition.answer == greedy.answer == (count == 2 or not x_first)
        assert (coalition.method, greedy.method) == ("scoring-coalition", "delta-greedy")
        assert coalition.answer == oracle_cpmw(inst, rule, suspects, B).answer
        assert greedy.answer == search_coalitions(inst, rule, count, B).answer
        if coalition.answer:
            assert coalition.coalition == suspects
            assert greedy.coalition == (suspects if x_first else (0,))
            assert verify_verdict(inst, rule, coalition, suspects)
            assert verify_verdict(inst, rule, greedy, bound=count)


@pytest.mark.parametrize("vector", TIGHT_VECTORS, ids=["borda", "fraction"])
def test_a_bound_no_builds_no_test_ballot(monkeypatch, vector):
    # one test ballot only ties a, first in the tie-break order, so neither
    # route ranks a voter, builds a test ballot or replays one
    def refuse(*args, **kwargs):
        raise AssertionError("a bound NO built a test ballot")

    rule, inst = VotingRule.scoring(vector), ElectionInstance(("a", "b", "c"), TIGHT)
    monkeypatch.setattr(detect_scoring, "_coalition_test_ballot", refuse)
    monkeypatch.setattr(detect_scoring, "_shift_groups", refuse)
    monkeypatch.setattr(DetectionQuery, "confirm", refuse)
    coalition = cpmw_scoring_coalition(DetectionQuery(inst, rule, (0,), B))
    assert coalition == no_verdict("scoring-coalition")
    for k in (0, 1):
        greedy = cpmsw_scoring_greedy(DetectionQuery(inst, rule, (), B, k))
        assert greedy == no_verdict("delta-greedy")


@pytest.mark.parametrize("vector", [ScoringVector.borda(4), ScoringVector.veto(4)])
def test_a_bound_past_sys_maxsize_answers_as_the_voter_count(vector):
    rule = VotingRule.scoring(vector)
    inst = ElectionInstance(
        ("a", "b", "c", "d"), [(0, 1, 2, 3), (2, 0, 3, 1), (3, 2, 0, 1), (0, 3, 1, 2), (1, 2, 3, 0)]
    )
    x = winner(inst, rule)
    for huge in (2**63, 10**20):  # past sys.maxsize, which islice refuses
        assert decide_cpms(inst, rule, huge) == decide_cpms(inst, rule, inst.n)
        for y in range(4):
            if y != x:
                assert decide_cpmsw(inst, rule, y, huge) == decide_cpmsw(inst, rule, y, inst.n)


# --- CPM and CPMS through dispatch ------------------------------------------


def test_cpm_e1_yes_via_b():
    verdict = decide_cpm(e1(), BORDA3, (0,))
    assert verdict.answer
    assert verdict.witness_actual_winner == B


def test_cpm_e2_no():
    assert not decide_cpm(e2(), BORDA3, (0,)).answer


def test_cpm_single_candidate_roster_no():
    # no scoring vector fits one candidate: a 3-entry one is refused, as on
    # any roster, before the roster is found to leave no alternative winner
    inst = ElectionInstance(("a",), [(0,)])
    with pytest.raises(ConfigError, match="does not match roster size 1"):
        decide_cpm(inst, BORDA3, (0,))


def test_cpms_matches_oracle_search_on_e1():
    verdict = decide_cpms(e1(), BORDA3, 1)
    assert verdict.answer == search_coalitions(e1(), BORDA3, 1).answer


# --- oracle equivalence (small but broad) -------------------------------------


def _random_instances(rng, count, m_max=4, n_max=5):
    out = []
    for _ in range(count):
        m = rng.randint(2, m_max)
        n = rng.randint(1, n_max)
        perms = list(permutations(range(m)))
        out.append(
            ElectionInstance([f"c{i}" for i in range(m)], [rng.choice(perms) for _ in range(n)])
        )
    return out


def test_single_matches_oracle_on_random_instances():
    rng = random.Random(101)
    vectors = {
        2: [ScoringVector.borda(2)],
        3: [ScoringVector.borda(3), ScoringVector.plurality(3), ScoringVector.veto(3)],
        4: [ScoringVector.borda(4), ScoringVector.approval(2, 4), ScoringVector((5, 2, 1, 0))],
    }
    for inst in _random_instances(rng, 60):
        for vec in vectors[inst.m]:
            rule = VotingRule.scoring(vec)
            x = winner(inst, rule)
            for i in range(inst.n):
                for y in range(inst.m):
                    if y == x:
                        continue
                    q = DetectionQuery(inst, rule, (i,), actual_winner=y)
                    got = cpmw_scoring_single(q)
                    want = oracle_cpmw(inst, rule, (i,), y)
                    assert got.answer == want.answer, (inst, vec, i, y)
                    assert verify_verdict(inst, rule, got, suspects=(i,))


def test_coalition_matches_oracle_on_random_instances():
    rng = random.Random(202)
    for inst in _random_instances(rng, 40, n_max=5):
        m = inst.m
        vecs = [ScoringVector.borda(m)]
        if m >= 3:
            vecs += [ScoringVector.approval(2, m), ScoringVector.veto(m), ScoringVector.plurality(m)]
        for vec in vecs:
            rule = VotingRule.scoring(vec)
            x = winner(inst, rule)
            for pair in combinations(range(inst.n), 2):
                for y in range(m):
                    if y == x:
                        continue
                    q = DetectionQuery(inst, rule, pair, actual_winner=y)
                    if vec.is_convex():
                        got = cpmw_scoring_coalition(q)
                    else:
                        got = cpmw_plurality_coalition(q)
                    want = oracle_cpmw(inst, rule, pair, y)
                    assert got.answer == want.answer, (inst, vec, pair, y)
                    assert verify_verdict(inst, rule, got, suspects=pair)


def test_lemma_style_swap_preserves_witness():
    # In any found witness ballot, a pair of non-winner candidates where the
    # higher-external-score one sits above the lower can be interchanged
    # without the target losing the replay.  Canonical single-suspect ballots
    # never contain such a pair, so harvest witnesses from the oracle, whose
    # lexicographic-first ballots regularly do.
    rng = random.Random(303)
    checked = 0
    for inst in _random_instances(rng, 60, m_max=4):
        rule = VotingRule.scoring(ScoringVector.borda(inst.m))
        x = winner(inst, rule)
        for i in range(inst.n):
            for y in range(inst.m):
                if y == x:
                    continue
                verdict = oracle_cpmw(inst, rule, (i,), y)
                if not verdict.answer:
                    continue
                replayed = inst.with_ballots_replaced(verdict.witness)
                w = replayed.ballots[i]
                external = positional_scores(
                    inst.m, replayed.ballots_excluding([i]), rule.vector
                )
                for a in range(inst.m):
                    for b in range(inst.m):
                        if {a, b} & {x, y} or a == b:
                            continue
                        if external[a] > external[b] and w.prefers(a, b):
                            r = list(w.ranking)
                            pa, pb = r.index(a), r.index(b)
                            r[pa], r[pb] = r[pb], r[pa]
                            swapped = replayed.with_ballots_replaced({i: Preference(r)})
                            assert winner(swapped, rule) == y
                            checked += 1
    assert checked > 0
