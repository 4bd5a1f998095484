import gc
import json
import warnings

import pytest

from manipdetect.ballotfile import Report, parse_election
from manipdetect.cli import main, rule_from_string
from manipdetect.rules import VotingRule, winner

E1_TEXT = "candidates: a,b,c\na>c>b\n2x b>a>c\n"


@pytest.fixture()
def e1_file(tmp_path):
    path = tmp_path / "e1.txt"
    path.write_text(E1_TEXT)
    return str(path)


def test_rule_from_string_variants():
    assert rule_from_string("borda", 3).vector.alphas == (2, 1, 0)
    assert rule_from_string("plurality", 3).vector.alphas == (1, 0, 0)
    assert rule_from_string("veto", 3).vector.alphas == (1, 1, 0)
    assert rule_from_string("approval:2", 4).vector.alphas == (1, 1, 0, 0)
    assert rule_from_string("scoring:5,2,0", 3).vector.alphas == (5, 2, 0)
    assert rule_from_string("maximin", 3).kind == "maximin"
    assert rule_from_string("bucklin", 3).kind == "bucklin"
    assert rule_from_string("stv", 3).kind == "stv"


def test_winner_command(e1_file, capsys):
    assert main(["winner", e1_file, "--rule", "maximin"]) == 0
    out = capsys.readouterr().out
    assert "winner: b" in out


def test_cpmw_yes_exit_zero(e1_file, capsys):
    code = main(
        ["cpmw", e1_file, "--rule", "borda", "--suspects", "0", "--actual-winner", "b", "--json"]
    )
    assert code == 0
    report = Report.from_dict(json.loads(capsys.readouterr().out))
    assert report.verdict == "YES"
    assert report.witness == [{"voter": 0, "ballot": "a>b>c"}]
    assert report.current_winner == "a"
    assert report.witness_actual_winner == "b"
    assert not report.exhaustive


def test_cpmw_no_exit_one(tmp_path, capsys):
    path = tmp_path / "e2.txt"
    path.write_text("candidates: a,b,c\na>b>c\na>c>b\nb>a>c\n")
    code = main(
        ["cpmw", str(path), "--rule", "borda", "--suspects", "0", "--actual-winner", "b"]
    )
    assert code == 1
    assert "verdict: NO" in capsys.readouterr().out


def test_cpmw_stv_routes_to_oracle(e1_file, capsys):
    # E1's STV winner is b, so a valid query must target another candidate
    code = main(
        ["cpmw", e1_file, "--rule", "stv", "--suspects", "0", "--actual-winner", "a", "--json"]
    )
    report = Report.from_dict(json.loads(capsys.readouterr().out))
    assert report.exhaustive
    assert report.method == "oracle"
    assert code in (0, 1)


def test_cpmsw_and_cpms(e1_file, capsys):
    assert main(["cpmsw", e1_file, "--rule", "borda", "--actual-winner", "b", "-k", "1"]) == 0
    capsys.readouterr()
    assert main(["cpms", e1_file, "--rule", "borda", "-k", "1"]) == 0


def test_oracle_command(e1_file, capsys):
    code = main(
        ["oracle", e1_file, "--rule", "borda", "--suspects", "0", "--actual-winner", "b", "--json"]
    )
    assert code == 0
    report = Report.from_dict(json.loads(capsys.readouterr().out))
    assert report.problem == "oracle"
    assert report.exhaustive


def test_winner_closes_election_file(e1_file, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["winner", e1_file, "--rule", "borda"]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_huge_count_exit_two(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("candidates: a,b\n" + "9" * 20 + "x a>b\n")
    assert main(["winner", str(path), "--rule", "borda"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("candidates: a,b\na>a\n")
    assert main(["winner", str(bad), "--rule", "borda"]) == 2
    assert "error:" in capsys.readouterr().err
    # target equals the current winner
    good = tmp_path / "good.txt"
    good.write_text(E1_TEXT)
    assert (
        main(["cpmw", str(good), "--rule", "maximin", "--suspects", "0", "--actual-winner", "b"])
        == 2
    )


def test_budget_error_exit_two_without_force(tmp_path, capsys):
    # 9 candidates, two suspects: (9!/2)^2 replays, far beyond the default budget
    names = ",".join(f"c{i}" for i in range(9))
    ballot = ">".join(f"c{i}" for i in range(9))
    path = tmp_path / "big.txt"
    path.write_text(f"candidates: {names}\n3x {ballot}\n")
    code = main(
        ["cpmw", str(path), "--rule", "stv", "--suspects", "0,1", "--actual-winner", "c1"]
    )
    assert code == 2
    assert "--force" in capsys.readouterr().err


def test_budget_refusal_json_report(tmp_path, capsys):
    # 7 candidates, three suspects under STV: (7!/2)^3 replays
    names = ",".join(f"c{i}" for i in range(7))
    ballot = ">".join(f"c{i}" for i in range(7))
    path = tmp_path / "big.txt"
    path.write_text(f"candidates: {names}\n4x {ballot}\n")
    code = main(
        ["cpmw", str(path), "--rule", "stv", "--suspects", "0,1,2", "--actual-winner", "c1",
         "--json"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "--force" in captured.err
    report = Report.from_json(captured.out)
    assert report.budget == "exceeded"
    assert report.cost == 2520**3
    assert report.limit == 10_000_000
    assert (report.problem, report.rule, report.verdict) == ("cpmw", "stv", "-")
    assert report.witness is None and report.coalition is None


def test_gen_random_round_trips(capsys):
    assert main(["gen", "random", "--m", "3", "--n", "4", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    inst = parse_election(out)
    assert inst.m == 3 and inst.n == 4


def test_gen_mcgarvey(capsys):
    code = main(
        ["gen", "mcgarvey", "--candidates", "a,b,c", "--margin", "a,b,2", "--margin", "b,c,2"]
    )
    assert code == 0
    inst = parse_election(capsys.readouterr().out)
    assert inst.n == 4


def test_gen_x3c_with_witness(capsys):
    code = main(
        [
            "gen", "x3c", "--universe", "6",
            "--triple", "1,2,3", "--triple", "4,5,6", "--witness",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "# cover witness ballot:" in out
    inst = parse_election(out)
    assert winner(inst, VotingRule.stv()) == inst.candidate_id("x")


def test_end_to_end_witness_replays(e1_file, capsys):
    main(["cpm", e1_file, "--rule", "borda", "--suspects", "0", "--json"])
    report = Report.from_dict(json.loads(capsys.readouterr().out))
    assert report.verdict == "YES"
    inst = parse_election(E1_TEXT)
    replaced = {
        entry["voter"]: [inst.candidate_id(n) for n in entry["ballot"].split(">")]
        for entry in report.witness
    }
    from manipdetect.core import Preference

    replayed = inst.with_ballots_replaced({i: Preference(b) for i, b in replaced.items()})
    rule = rule_from_string(report.rule, inst.m)
    assert winner(replayed, rule) == inst.candidate_id(report.witness_actual_winner)
