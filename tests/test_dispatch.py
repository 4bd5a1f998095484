import random
from itertools import permutations

import pytest

from manipdetect import core, detection, oracle, rules
from manipdetect.core import ElectionInstance
from manipdetect.detection import DetectionQuery, verify_verdict
from manipdetect.dispatch import decide_cpm, decide_cpms, decide_cpmsw, decide_cpmw
from manipdetect.errors import BudgetExceededError, InvalidQueryError, RosterError
from manipdetect.generators import random_profile
from manipdetect.oracle import oracle_cpm, oracle_cpmw, search_coalitions
from manipdetect.rules import ScoringVector, VotingRule, winner

from samples import e1, e4, e5, e6


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
        (stv, (0,), "stv-tree", True),
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
        (stv, "stv-tree", True),
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
    y = next(c for c in range(inst.m) if c != winner(inst, rule))
    with pytest.raises(InvalidQueryError):
        decide_cpmsw(DetectionQuery(inst, rule, actual_winner=y))


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


def _count_tables(monkeypatch, n):
    """Count the aggregate-table builds from now on: all, and those over more
    than `n` voters' worth of ballots."""
    counts = {"all": 0, "large": 0}

    def counted(build):
        def wrapper(m, profile, *rest):
            if not isinstance(profile, tuple):  # an instance's classes keep their pack
                profile = list(profile)
            counts["all"] += 1
            counts["large"] += sum(w for _, w in profile) > n
            return build(m, profile, *rest)

        return wrapper

    for name in ("positional_scores", "margin_matrix", "topk_counts"):
        monkeypatch.setattr(rules, name, counted(getattr(rules, name)))
    return counts


@pytest.mark.parametrize(
    "m, distinct, copies",
    [
        pytest.param(3, 1, 5, id="3"),
        pytest.param(5, 1, 5, id="5"),
        pytest.param(6, core.COLUMN_CUTOVER, 1, id="6-columns"),
    ],
)
def test_single_suspect_borda_cpm_no_builds_fixed_number_of_score_tables(
    monkeypatch, m, distinct, copies
):
    # The current winner once, then per alternative winner: the full table,
    # the suspect's ballot and m - 1 replays.  The traced benchmark checks the
    # same count on a 20-candidate profile of distinct rankings, whose full
    # tables are counted column by column, as here for m = 6.  Candidate 0
    # leads: it sits as high on every ballot as the number of rankings allows.
    rankings = sorted(permutations(range(m)), key=lambda r: r.index(0))[:distinct]
    inst = ElectionInstance([f"c{i}" for i in range(m)], rankings * copies)
    assert hasattr(inst.classes, "pack") == (copies == 1)
    rule = VotingRule.scoring(ScoringVector.borda(m))
    counts = _count_tables(monkeypatch, 1)
    assert not decide_cpm(inst, rule, (0,)).answer
    assert counts["all"] == 1 + (m - 1) * (m + 1)


def _count_contexts(monkeypatch):
    """Count the `TargetContext`s built from now on."""
    built = []
    init = detection.TargetContext.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(detection.TargetContext, "__init__", counted)
    return built


@pytest.mark.parametrize(
    "rule", [VotingRule.maximin(), VotingRule.bucklin()], ids=["maximin", "bucklin"]
)
def test_a_coalition_search_builds_one_context(monkeypatch, rule):
    # Every one of the 30 canonical coalitions of at most two voters is
    # decided on a query derived from the search's, sharing its context.
    inst = random_profile(4, 9, 3)
    assert len(list(oracle._canonical_coalitions(inst, 2))) == 30
    built = _count_contexts(monkeypatch)
    assert not decide_cpmsw(inst, rule, 1, 2).answer
    assert len(built) == 1


def test_a_no_untargeted_oracle_builds_one_context_per_candidate(monkeypatch):
    # The query's own, for the current winner, and one per alternative winner.
    inst = random_profile(4, 9, 3)
    maximin = VotingRule.maximin()
    built = _count_contexts(monkeypatch)
    assert not oracle_cpm(inst, maximin, (0, 1)).answer
    assert len(built) == inst.m
    del built[:]
    assert not search_coalitions(inst, maximin, 1).answer
    assert len(built) == inst.m


def test_each_polynomial_route_builds_one_full_profile_table(monkeypatch):
    # Nine voters, at most two suspects: a table over more than two voters'
    # ballots is a table over (nearly) the whole profile.
    rankings = [(0, 1, 2, 3), (1, 2, 3, 0), (2, 0, 3, 1), (3, 1, 0, 2), (1, 0, 2, 3)]
    inst = ElectionInstance([f"c{i}" for i in range(4)], [rankings[i % 5] for i in range(9)])
    borda = VotingRule.scoring(ScoringVector.borda(4))
    plurality = VotingRule.scoring(ScoringVector.plurality(4))
    counts = _count_tables(monkeypatch, 2)
    for rule, suspects, method in (
        (borda, (0,), "scoring-single"),
        (borda, (0, 4), "scoring-coalition"),
        (plurality, (0, 4), "plurality-capacity"),
        (VotingRule.maximin(), (0,), "maximin-single"),
        (VotingRule.bucklin(), (0, 4), "bucklin-greedy"),
    ):
        x = winner(inst, rule)
        for y in range(4):
            if y == x:
                continue
            counts["large"] = 0
            verdict = decide_cpmw(inst, rule, suspects, y)
            assert verdict.method == method
            assert counts["large"] == 1, (method, y)
            counts["large"] = 0
            assert verify_verdict(inst, rule, verdict)
            assert counts["large"] == (1 if verdict.answer else 0), (method, y)
    x = winner(inst, borda)
    for y in range(4):
        if y != x:
            counts["large"] = 0
            assert decide_cpmsw(inst, borda, y, 2).method == "delta-greedy"
            assert counts["large"] == 1
    # Bucklin and maximin CPMSW decide many coalitions, each on a query
    # derived from the search's own, so they share its one full table.
    for rule, k, method in (
        (VotingRule.bucklin(), 2, "bucklin-greedy"),
        (VotingRule.maximin(), 1, "maximin-single"),
    ):
        x = winner(inst, rule)
        for y in range(4):
            if y == x:
                continue
            counts["large"] = 0
            verdict = decide_cpmsw(inst, rule, y, k)
            assert verdict.method == method
            assert counts["large"] == 1, (method, y)
    # Plurality CPMSW: the table that validates y; on YES the capacity
    # decision that builds the witness reads it too.  Tops a:4, b:3, c:1,
    # d:1, so against b two a-voters are needed: NO at k = 1, YES at k = 2.
    tops = [(0, 1, 2, 3)] * 4 + [(1, 0, 2, 3)] * 3 + [(2, 0, 1, 3), (3, 0, 1, 2)]
    inst = ElectionInstance([f"c{i}" for i in range(4)], tops)
    seen = set()
    for y in (1, 2, 3):
        for k in (1, 2):
            counts["large"] = 0
            verdict = decide_cpmsw(inst, plurality, y, k)
            assert verdict.method == "plurality-capacity"
            assert counts["large"] == 1, (y, k)
            seen.add(verdict.answer)
    assert seen == {False, True}


def a3_b2():
    # plurality tops a:3, b:2; voters 0 and 1 top a
    return ElectionInstance(("a", "b", "c"), [(0, 1, 2)] * 3 + [(1, 0, 2)] * 2)


@pytest.mark.parametrize(
    "election, rule, suspects, y, method",
    [
        (e1, VotingRule.scoring(ScoringVector.borda(3)), (0,), 1, "scoring-single"),
        (e4, VotingRule.scoring(ScoringVector.borda(3)), (0, 1), 1, "scoring-coalition"),
        (e6, VotingRule.maximin(), (0,), 2, "maximin-single"),
        (e4, VotingRule.bucklin(), (0,), 1, "bucklin-greedy"),
        (e4, VotingRule.stv(), (0, 1), 1, "stv-tree"),
        (a3_b2, VotingRule.scoring(ScoringVector.plurality(3)), (0, 1), 1, "plurality-capacity"),
        (e1, VotingRule.scoring(ScoringVector.borda(3)), (0,), 1, "delta-greedy"),
    ],
)
def test_no_yes_bypasses_the_shared_replay(monkeypatch, election, rule, suspects, y, method):
    def cpmw():
        return decide_cpmw(election(), rule, suspects, y)

    def cpmsw():
        return decide_cpmsw(election(), rule, y, len(suspects))

    # the plurality CPMSW answers with the capacity decision's witness; the
    # greedy search decides CPMSW alone, with a coalition of up to |suspects|
    decisions = {"plurality-capacity": [cpmw, cpmsw], "delta-greedy": [cpmsw]}.get(method, [cpmw])
    for decide in decisions:
        verdict = decide()
        assert (verdict.answer, verdict.method) == (True, method)
    # the replay inside `DetectionQuery.confirm` elects no candidate
    monkeypatch.setattr(detection, "winner_from_ballots", lambda *args, **kwargs: -1)
    for decide in decisions:
        verdict = decide()
        assert (verdict.answer, verdict.method) == (False, method)


def test_replay_budget_reaches_every_derived_query(monkeypatch):
    # Suspects 2 and 3 of e5 can elect a under STV and under maximin.  With a
    # budget of 2, the STV search refuses one round past it, in a target's
    # query (CPM) and in a coalition's (CPMS, and CPMSW against a); the
    # oracle refuses the C(3 + 1, 2) = 6 multisets of two of the 3!/2
    # admissible ballots, and, in a search's coalition query, the 3 ballots
    # of one voter.
    stv, maximin = VotingRule.stv(), VotingRule.maximin()
    calls = (
        (lambda force: decide_cpm(e5(), stv, (2, 3), force=force), (3, 2)),
        (lambda force: decide_cpms(e5(), stv, 2, force=force), (3, 2)),
        (lambda force: oracle_cpm(e5(), maximin, (2, 3), force=force), (6, 2)),
        (lambda force: decide_cpmsw(e5(), stv, 0, 2, force=force), (3, 2)),
        (lambda force: search_coalitions(e5(), maximin, 2, 0, force=force), (3, 2)),
    )
    unbounded = [call(False) for call, _ in calls]
    assert all(verdict.answer for verdict in unbounded)
    monkeypatch.setattr(oracle, "DEFAULT_REPLAY_BUDGET", 2)
    for (call, refusal), verdict in zip(calls, unbounded):
        with pytest.raises(BudgetExceededError) as refused:
            call(False)
        assert (refused.value.cost, refused.value.budget) == refusal
        assert call(True) == verdict
    # e5 has two ballot classes, so five coalitions of at most two voters;
    # the count stops one past the subset budget
    monkeypatch.setattr(oracle, "DEFAULT_SUBSET_BUDGET", 1)
    cpms = calls[1][0]
    with pytest.raises(BudgetExceededError) as refused:
        cpms(False)
    assert (refused.value.cost, refused.value.budget) == (2, 1)
    assert cpms(True) == unbounded[1]
    query = DetectionQuery(e5(), stv, bound=2, force=True)
    assert query.for_target(0).for_coalition((2, 3)).force


def test_every_refusal_is_the_query_check_with_one_message(monkeypatch):
    # the oracle's replays, the coalition count and the STV rounds all refuse
    # through `DetectionQuery.within`, which names the search and its unit
    monkeypatch.setattr(oracle, "DEFAULT_REPLAY_BUDGET", 2)
    monkeypatch.setattr(oracle, "DEFAULT_SUBSET_BUDGET", 1)
    stv, maximin = VotingRule.stv(), VotingRule.maximin()
    refusals = (
        (lambda: oracle_cpmw(e5(), maximin, (2, 3), 0),
         "exhaustive search needs at least 6 replays, budget is 2"),
        (lambda: search_coalitions(e5(), maximin, 2, 0),
         "coalition search needs at least 2 coalitions, budget is 1"),
        (lambda: decide_cpmw(e5(), stv, (2, 3), 0),
         "STV elimination-tree search needs at least 3 rounds, budget is 2"),
    )
    checked = []
    original = DetectionQuery.within

    def within(self, cost, budget, search, unit):
        checked.append((cost, budget))
        return original(self, cost, budget, search, unit)

    monkeypatch.setattr(DetectionQuery, "within", within)
    for call, message in refusals:
        checked.clear()
        with pytest.raises(BudgetExceededError) as refused:
            call()
        assert str(refused.value) == message
        assert checked[-1] == (refused.value.cost, refused.value.budget)
    query = DetectionQuery(e5(), maximin, force=True)
    assert query.within(10**9, 1, "any search", "steps") is None
