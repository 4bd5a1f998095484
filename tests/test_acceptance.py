"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is exact (100% agreement / zero violations) except
the two wall-clock bounds in criterion 9.
"""

import random
import time
from itertools import combinations, permutations, product

from manipdetect.core import ElectionInstance, margin_matrix
from manipdetect.detection import DetectionQuery, verify_verdict
from manipdetect.detect_bucklin import cpmw_bucklin
from manipdetect.detect_maximin import cpmw_maximin_single
from manipdetect.detect_scoring import (
    cpmsw_scoring_greedy,
    cpmw_plurality_coalition,
    cpmw_scoring_coalition,
    cpmw_scoring_single,
)
from manipdetect.dispatch import decide_cpms, decide_cpmsw, decide_cpmw
from manipdetect.generators import (
    MarginFunction,
    X3CInstance,
    cover_witness_ballot,
    find_exact_cover,
    mcgarvey_ballots,
    random_profile,
    x3c_to_stv,
)
from manipdetect.oracle import oracle_cpmw, search_coalitions
from manipdetect.rules import ScoringVector, VotingRule, winner

_WITNESS_CHECKS = {"checked": 0, "violations": 0}


def _track(instance, rule, verdict, suspects=None) -> None:
    if verdict.answer:
        _WITNESS_CHECKS["checked"] += 1
        if not verify_verdict(instance, rule, verdict, suspects=suspects):
            _WITNESS_CHECKS["violations"] += 1


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {detail}"


def _random_vector(rng: random.Random, m: int) -> ScoringVector:
    vals = sorted((rng.randint(0, 5) for _ in range(m)), reverse=True)
    if vals[0] == vals[-1]:
        vals[0] += 1
    return ScoringVector(vals)


def _vectors_for(m: int, rng: random.Random) -> list[ScoringVector]:
    named = [ScoringVector.borda(m), ScoringVector.plurality(m), ScoringVector.veto(m)]
    return named + [_random_vector(rng, m) for _ in range(5)]


def _random_instance(rng: random.Random, m: int, n: int) -> ElectionInstance:
    perms = list(permutations(range(m)))
    return ElectionInstance([f"c{i}" for i in range(m)], [rng.choice(perms) for _ in range(n)])


def test_criterion_1_single_suspect_scoring_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(1001)
    agree = total = 0

    def run(inst: ElectionInstance, vectors) -> None:
        nonlocal agree, total
        for vec in vectors:
            rule = VotingRule.scoring(vec)
            x = winner(inst, rule)
            for i in range(inst.n):
                for y in range(inst.m):
                    if y == x:
                        continue
                    total += 1
                    got = cpmw_scoring_single(
                        DetectionQuery(inst, rule, (i,), actual_winner=y)
                    )
                    want = oracle_cpmw(inst, rule, (i,), y)
                    _track(inst, rule, got, (i,))
                    _track(inst, rule, want, (i,))
                    if got.answer == want.answer:
                        agree += 1

    vectors3 = _vectors_for(3, rng)
    perms3 = list(permutations(range(3)))
    for ballots in product(perms3, repeat=3):
        run(ElectionInstance(("a", "b", "c"), ballots), vectors3)
    vectors4 = _vectors_for(4, rng)
    for _ in range(500):
        run(_random_instance(rng, 4, 5), vectors4)

    elapsed = time.perf_counter() - started
    ok = agree == total and elapsed < 300
    _report(
        1,
        "single-suspect scoring vs oracle",
        ok,
        f"{agree}/{total} agree, {elapsed:.1f}s",
    )


def test_criterion_2_coalition_scoring_oracle_equivalence():
    rng = random.Random(1002)
    agree = total = 0
    for _ in range(500):
        m = rng.randint(3, 4)
        n = rng.randint(2, 5)
        inst = _random_instance(rng, m, n)
        pair = tuple(sorted(rng.sample(range(n), 2)))
        vectors = [
            ScoringVector.borda(m),
            ScoringVector.approval(2, m),
            ScoringVector.veto(m),
            ScoringVector.plurality(m),
        ]
        for vec in vectors:
            rule = VotingRule.scoring(vec)
            x = winner(inst, rule)
            for y in range(m):
                if y == x:
                    continue
                total += 1
                query = DetectionQuery(inst, rule, pair, actual_winner=y)
                if vec.is_plurality_like():
                    got = cpmw_plurality_coalition(query)
                else:
                    got = cpmw_scoring_coalition(query)
                want = oracle_cpmw(inst, rule, pair, y)
                _track(inst, rule, got, pair)
                _track(inst, rule, want, pair)
                if got.answer == want.answer:
                    agree += 1
    _report(2, "coalition scoring vs oracle", agree == total, f"{agree}/{total} agree")


def test_criterion_3_bounded_search_oracle_equivalence():
    rng = random.Random(1003)
    agree = total = 0
    for _ in range(300):
        m = rng.randint(2, 4)
        n = rng.randint(2, 5)
        inst = _random_instance(rng, m, n)
        rule = VotingRule.scoring(ScoringVector.borda(m))
        x = winner(inst, rule)
        for y in range(m):
            if y == x:
                continue
            for k in (1, 2):
                total += 1
                got = cpmsw_scoring_greedy(
                    DetectionQuery(inst, rule, (), actual_winner=y, bound=k)
                )
                want = search_coalitions(inst, rule, k, y)
                _track(inst, rule, got)
                _track(inst, rule, want)
                if got.answer == want.answer:
                    agree += 1
    _report(3, "bounded search vs oracle", agree == total, f"{agree}/{total} agree")


def test_criterion_4_maximin_and_bucklin_oracle_equivalence():
    rng = random.Random(1004)
    agree = total = 0
    for _ in range(300):  # maximin, single suspects
        m = rng.randint(2, 4)
        n = rng.randint(1, 5)
        inst = _random_instance(rng, m, n)
        rule = VotingRule.maximin()
        x = winner(inst, rule)
        for i in range(inst.n):
            for y in range(m):
                if y == x:
                    continue
                total += 1
                got = cpmw_maximin_single(DetectionQuery(inst, rule, (i,), actual_winner=y))
                want = oracle_cpmw(inst, rule, (i,), y)
                _track(inst, rule, got, (i,))
                _track(inst, rule, want, (i,))
                if got.answer == want.answer:
                    agree += 1
    for _ in range(300):  # bucklin, coalitions of size one and two
        m = rng.randint(2, 4)
        n = rng.randint(2, 5)
        inst = _random_instance(rng, m, n)
        rule = VotingRule.bucklin()
        x = winner(inst, rule)
        coalitions = [(i,) for i in range(inst.n)]
        coalitions.append(tuple(sorted(rng.sample(range(inst.n), 2))))
        for suspects in coalitions:
            for y in range(m):
                if y == x:
                    continue
                total += 1
                got = cpmw_bucklin(DetectionQuery(inst, rule, suspects, actual_winner=y))
                want = oracle_cpmw(inst, rule, suspects, y)
                _track(inst, rule, got, suspects)
                _track(inst, rule, want, suspects)
                if got.answer == want.answer:
                    agree += 1
    _report(4, "maximin c=1 and bucklin |M|<=2 vs oracle", agree == total, f"{agree}/{total} agree")


def test_criterion_5_witness_soundness():
    checked = _WITNESS_CHECKS["checked"]
    violations = _WITNESS_CHECKS["violations"]
    ok = violations == 0 and checked > 0
    _report(5, "witness soundness", ok, f"{checked} YES witnesses replayed, {violations} violations")


def test_criterion_6_margin_realization_exactness():
    rng = random.Random(1006)
    exact = 0
    cases = 200
    for _ in range(cases):
        m = rng.randint(2, 5)
        pairs = {}
        for a in range(m):
            for b in range(a + 1, m):
                pairs[(a, b)] = 2 * rng.randint(-3, 3)
        f = MarginFunction.from_pairs(m, pairs)
        ballots = mcgarvey_ballots(f)
        count_ok = len(ballots) == sum(abs(v) for v in pairs.values())
        margins_ok = tuple(tuple(row) for row in margin_matrix(m, [(b, 1) for b in ballots])) == f.margins
        if count_ok and margins_ok:
            exact += 1
    _report(6, "margin construction exactness", exact == cases, f"{exact}/{cases} exact")


def test_criterion_7_x3c_stv_instances():
    yes_instances = [
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
    stv = VotingRule.stv()
    good = 0
    for x3c in yes_instances:
        gadget = x3c_to_stv(x3c)
        cover = find_exact_cover(x3c)
        if cover is None:
            continue
        reported_ok = winner(gadget.instance, stv) == gadget.reported_winner
        ballot = cover_witness_ballot(gadget, cover)
        replayed = gadget.instance.with_ballots_replaced({gadget.suspect: ballot})
        witness_ok = (
            winner(replayed, stv) == gadget.target
            and ballot.prefers(gadget.reported_winner, gadget.target)
        )
        if reported_ok and witness_ok:
            good += 1
    _report(7, "hard STV construction", good == len(yes_instances), f"{good}/10 instances")


def test_criterion_8_search_consistency():
    rule = VotingRule.scoring(ScoringVector.borda(3))
    names = ("a", "b", "c")
    perms = list(permutations(range(3)))
    violations = 0
    checked = 0
    for ballots in product(perms, repeat=4):
        inst = ElectionInstance(names, ballots)
        x = winner(inst, rule)
        for k in (1, 2):
            cpms_answer = decide_cpms(inst, rule, k).answer
            for y in range(3):
                if y == x:
                    continue
                checked += 1
                cpmsw = cpmsw_scoring_greedy(
                    DetectionQuery(inst, rule, (), actual_winner=y, bound=k)
                )
                _track(inst, rule, cpmsw)
                subset_or = any(
                    decide_cpmw(inst, rule, subset, y).answer
                    for size in range(1, k + 1)
                    for subset in combinations(range(4), size)
                )
                if cpmsw.answer != subset_or:
                    violations += 1
                if cpmsw.answer and not cpms_answer:
                    violations += 1
    ok = violations == 0
    _report(8, "search consistency on all m=3 n=4 profiles", ok, f"{checked} checks, {violations} violations")


def test_criterion_9_performance():
    rule50 = VotingRule.scoring(ScoringVector.borda(50))
    inst50 = random_profile(50, 1000, seed=42)
    x = winner(inst50, rule50)
    y = 0 if x != 0 else 1
    started = time.perf_counter()
    decide_cpmw(inst50, rule50, tuple(range(10)), y)
    cpmw_elapsed = time.perf_counter() - started

    inst_big = random_profile(20, 100_000, seed=7)
    rule20 = VotingRule.scoring(ScoringVector.borda(20))
    x = winner(inst_big, rule20)
    y = 0 if x != 0 else 1
    started = time.perf_counter()
    decide_cpmsw(inst_big, rule20, y, 100)
    greedy_elapsed = time.perf_counter() - started

    ok = cpmw_elapsed < 1.0 and greedy_elapsed < 5.0
    _report(
        9,
        "performance of polynomial paths",
        ok,
        f"coalition {cpmw_elapsed * 1000:.0f}ms (<1s), search {greedy_elapsed:.2f}s (<5s)",
    )
