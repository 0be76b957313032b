import json
from fractions import Fraction

import pytest

from combicontracts import (
    DomainError,
    GeneralInstance,
    Instance,
    UniformMatroid,
    WeightedMatroidRank,
    embed_binary,
    gen_exponential_coverage,
    gen_subset_sum,
    sample_instance,
    SubsetSumSpec,
)
from combicontracts.cli import main
from combicontracts.generators import SAMPLE_CLASSES
from combicontracts.instancefile import (
    dumps_instance,
    loads_instance,
)


def test_round_trip_every_class():
    for klass in SAMPLE_CLASSES:
        inst = sample_instance(klass, 4, 5, seed=3)
        again = loads_instance(dumps_instance(inst))
        assert again == inst
    tower = gen_exponential_coverage(2)
    assert loads_instance(dumps_instance(tower)) == tower
    ss = gen_subset_sum(SubsetSumSpec((3, 5), 8))
    again = loads_instance(dumps_instance(ss))
    assert again == ss
    assert again.meta["target"] == 8


def test_round_trip_general_both_forms(general_corpus, worked_additive):
    g = general_corpus[0]
    assert loads_instance(dumps_instance(g)) == g
    expected_form = GeneralInstance(
        costs=worked_additive.costs,
        rewards=(Fraction(0), Fraction(1)),
        expected=worked_additive.f,
    )
    assert loads_instance(dumps_instance(expected_form)) == expected_form
    embedded = embed_binary(worked_additive)
    assert loads_instance(dumps_instance(embedded)) == embedded


def test_strict_schema():
    inst = sample_instance("additive", 3, 4, seed=0)
    obj = json.loads(dumps_instance(inst))
    obj["surprise"] = 1
    with pytest.raises(DomainError):
        loads_instance(json.dumps(obj))
    obj = json.loads(dumps_instance(inst))
    obj["version"] = 99
    with pytest.raises(DomainError):
        loads_instance(json.dumps(obj))
    obj = json.loads(dumps_instance(inst))
    obj["function"]["mystery"] = []
    with pytest.raises(DomainError):
        loads_instance(json.dumps(obj))
    with pytest.raises(DomainError):
        loads_instance("not json")


def _binary(function):
    return {"version": 1, "model": "binary", "n": 2, "function": function,
            "costs": ["1/8", "1/8"]}


def _matroid(matroid):
    return _binary({"class": "matroid-rank", "weights": ["1/2", "1/4"], "matroid": matroid})


UNIFORM = _matroid({"type": "uniform", "rank": 1})
PARTITION = _matroid({"type": "partition", "blocks": [[1], [2]], "capacities": [1, 1]})
COVERAGE = _binary({"class": "coverage", "weights": ["1/2", "1/4"], "covers": [[0], [1]]})
TABLE = _binary({"class": "table", "table": ["0", "1/4", "1/4", "1/2"]})
GENERAL = {"version": 1, "model": "general", "n": 1, "costs": ["1/8"],
           "rewards": ["0", "1"], "distributions": [["1", "1/2"], ["0", "1/2"]]}

# field -> (valid file, path of the field in it, what the error says)
BAD_FIELDS = {
    "n": (UNIFORM, ("n",), "expected an integer"),
    "rank": (UNIFORM, ("function", "matroid", "rank"), "expected an integer"),
    "blocks": (PARTITION, ("function", "matroid", "blocks"), "expected a list"),
    "capacities": (PARTITION, ("function", "matroid", "capacities"), "expected a list"),
    "covers": (COVERAGE, ("function", "covers"), "expected a list"),
    "distributions": (GENERAL, ("distributions",), "expected a list"),
    "table.n": (TABLE, ("n",), "negative action count"),
    "general.n": (GENERAL, ("n",), "negative action count"),
    "block overlap": (PARTITION, ("function", "matroid", "blocks"), "overlap"),
    "block cover": (PARTITION, ("function", "matroid", "blocks"), "do not cover"),
    "scale": (UNIFORM, ("scale",), "non-positive scale"),
    "cover index": (COVERAGE, ("function", "covers"), "outside 0..1"),
    "encoding": (None, (), "not UTF-8"),  # the value is the raw file
    "k": (UNIFORM, ("k",), "exceeds the limit"),
}
# commands that build 2**k-sized values, which a huge k must stop first (exit 2)
K_COMMANDS = (["solve", "--method", "search"], ["fptas", "--epsilon", "1/2"], ["verify"])


def _bad_file(tmp_path, field, value):
    base, keys, _ = BAD_FIELDS[field]
    path = tmp_path / "bad.inst"
    if base is None:
        path.write_bytes(value)
        return str(path)
    obj = json.loads(json.dumps(base))
    parent = obj
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", "x"),
        ("rank", "r"),
        ("rank", 2.5),
        ("blocks", 3),
        ("blocks", [3, [2]]),
        ("capacities", 3),
        ("covers", 3),
        ("covers", [0, [1]]),
        ("distributions", 3),
        ("table.n", -1),
        ("general.n", -1),
        ("block overlap", [[1, 2], [2]]),
        ("block cover", [[1], [2, 5]]),
        ("scale", "0"),
        ("cover index", [[-1], [1]]),
        ("cover index", [[2**62], [1]]),
        ("encoding", b"\xff\xfe{}"),
        ("k", 2**62),
    ],
)
def test_bad_integer_fields_exit_without_traceback(tmp_path, capsys, field, value):
    path = _bad_file(tmp_path, field, value)
    commands, exit_code = (["solve"], ["robust", "solve-linear"]), 1
    if field == "k":
        commands, exit_code = K_COMMANDS, 2
    for command in commands:
        assert main(command + [path]) == exit_code
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert BAD_FIELDS[field][2] in err
        if command == ["verify"]:  # the rows computed before the refusal
            assert ["v-oracle-vs-brute-demand", "PASS"] in [r.split()[:2] for r in out.splitlines()]


def test_integer_fields_accept_ints_and_integer_strings(tmp_path):
    for value, error in (
        ("1", None),
        (1, None),
        ("-1", "negative matroid rank"),
        (True, "expected an integer"),
        ("1.0", "expected an integer"),
    ):
        _bad_file(tmp_path, "rank", value)
        text = (tmp_path / "bad.inst").read_text()
        if error is None:
            assert loads_instance(text).f.matroid.rank == int(value)
        else:
            with pytest.raises(DomainError, match=error):
                loads_instance(text)


@pytest.fixture()
def worked_file(tmp_path, worked_additive):
    path = tmp_path / "worked.inst"
    path.write_text(dumps_instance(worked_additive))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def pairs_of(out):
    rows = {}
    for line in out.splitlines():
        parts = line.split(None, 1)
        if len(parts) == 2:
            rows[parts[0]] = parts[1].strip()
    return rows


def test_solve_command(worked_file, capsys):
    code, out = run_cli(capsys, "solve", worked_file)
    assert code == 0
    assert "alpha_star    1/2" in out
    assert "utility       9/20" in out
    assert "{1,2}" in out


def test_solve_deterministic_output(worked_file, capsys):
    _, first = run_cli(capsys, "solve", worked_file, "--method", "brute")
    _, second = run_cli(capsys, "solve", worked_file, "--method", "brute")
    assert first == second


def test_critical_set_csv(worked_file, capsys):
    code, out = run_cli(capsys, "critical-set", worked_file, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,alpha,v,utility,demand"
    assert lines[1].startswith("1,1/5,1/2,")
    assert lines[2].startswith("2,1/2,9/10,")


def test_demand_command(worked_file, capsys):
    code, out = run_cli(capsys, "demand", worked_file, "--alpha", "1/2")
    assert code == 0
    assert "greedy_order" in out and "[1,2]" in out
    assert "v " in out or "v\n" in out


def test_succ_methods_agree(worked_file, capsys, tmp_path):
    code, out = run_cli(capsys, "succ", worked_file, "--alpha", "0")
    assert code == 0 and pairs_of(out)["successor"] == "1/5"
    code, out = run_cli(capsys, "succ", worked_file, "--alpha", "0", "--method", "gs")
    assert code == 0 and "1/5" in out
    # search needs k: write a k-valid file
    inst = sample_instance("additive", 3, 5, seed=9)
    path = tmp_path / "k.inst"
    path.write_text(dumps_instance(inst))
    code, out = run_cli(capsys, "succ", str(path), "--alpha", "0", "--method", "search")
    assert code == 0
    code3, out3 = run_cli(capsys, "succ", str(path), "--alpha", "0", "--method", "brute")
    assert pairs_of(out)["successor"] == pairs_of(out3)["successor"]


def test_fptas_command(tmp_path, capsys):
    inst = sample_instance("budget-additive", 4, 5, seed=11)
    path = tmp_path / "ba.inst"
    path.write_text(dumps_instance(inst))
    code, out = run_cli(capsys, "fptas", str(path), "--epsilon", "1/2")
    assert code == 0
    rows = pairs_of(out)
    assert rows["grid_size"] == "5"
    assert rows["v_queries"] == "5"


def test_gen_commands_round_trip(tmp_path, capsys):
    out_path = tmp_path / "gen.inst"
    code, _ = run_cli(
        capsys, "gen", "subset-sum", "--values", "3,5", "--target", "8",
        "-o", str(out_path),
    )
    assert code == 0
    inst = loads_instance(out_path.read_text())
    assert inst.f.budget == 1

    code, _ = run_cli(
        capsys, "gen", "coverage-tower", "--n", "2", "--normalize", "-o", str(out_path)
    )
    assert code == 0
    tower = loads_instance(out_path.read_text())
    assert tower.scale == 1

    code, _ = run_cli(
        capsys, "gen", "random", "--class", "unit-demand", "--n", "5", "--k", "6",
        "--seed", "4", "-o", str(out_path),
    )
    assert code == 0
    rand = loads_instance(out_path.read_text())
    assert rand.k == 6

    # identical seeds give byte-identical files
    second = tmp_path / "gen2.inst"
    run_cli(
        capsys, "gen", "random", "--class", "unit-demand", "--n", "5", "--k", "6",
        "--seed", "4", "-o", str(second),
    )
    assert out_path.read_text() == second.read_text()


def test_robust_commands(tmp_path, capsys, worked_additive):
    path = tmp_path / "gen.inst"
    path.write_text(dumps_instance(embed_binary(worked_additive)))
    code, out = run_cli(
        capsys, "robust", "solve-linear", str(path), "--method", "brute"
    )
    assert code == 0
    assert "alpha_star    1/2" in out
    assert "utility       9/20" in out

    code, out = run_cli(
        capsys, "robust", "linearize", str(path), "--payments", "0=1/10,9/10=1/2"
    )
    assert code == 0
    assert "alpha" in out

    # binary files are embedded automatically
    bpath = tmp_path / "bin.inst"
    bpath.write_text(dumps_instance(worked_additive))
    code, out = run_cli(capsys, "robust", "solve-linear", str(bpath))
    assert code == 0 and "alpha_star    1/2" in out

    # with R = f the robust solve is the binary solve, certified n = 40 too,
    # and search uses the file's declared k
    keys = ("alpha_star", "utility", "actions", "v_queries")
    for klass in SAMPLE_CLASSES:
        n = 40 if klass in ("additive", "unit-demand", "matroid-rank") else 6
        bpath.write_text(dumps_instance(sample_instance(klass, n, 12, seed=5)))
        for method in ("auto", "search"):
            code, out = run_cli(capsys, "solve", str(bpath), "--method", method)
            assert code == 0
            code, robust_out = run_cli(
                capsys, "robust", "solve-linear", str(bpath), "--method", method
            )
            assert code == 0
            assert [pairs_of(robust_out)[k] for k in keys] == [pairs_of(out)[k] for k in keys]

    # R(A) above the largest reward level: an unnormalized binary file, and
    # a general file whose expected reward passes its top level
    over = {"version": 1, "model": "general", "n": 2, "costs": ["1/8", "1/8"],
            "rewards": ["0", "1"],
            "expected": {"class": "additive", "values": ["3/4", "1/2"]}}
    for text in (dumps_instance(gen_exponential_coverage(2)), json.dumps(over)):
        bpath.write_text(text)
        assert main(["robust", "solve-linear", str(bpath)]) == 1
        assert "exceeds the largest reward level" in capsys.readouterr().err


def test_verify_command(tmp_path, capsys):
    inst = sample_instance("matroid-rank", 5, 6, seed=8)
    path = tmp_path / "m.inst"
    path.write_text(dumps_instance(inst))
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "FAIL" not in out
    assert "greedy-vs-brute-demand" in out
    assert ["v-oracle-vs-brute-demand", "PASS"] in [row.split()[:2] for row in out.splitlines()]

    cov = gen_exponential_coverage(3)
    cpath = tmp_path / "c.inst"
    cpath.write_text(dumps_instance(cov))
    code, out = run_cli(capsys, "verify", str(cpath))
    assert code == 0
    assert "not gs_certified" in out and "count = 7" in out
    assert ["v-oracle-vs-brute-demand", "PASS"] in [row.split()[:2] for row in out.splitlines()]


def test_exit_codes(tmp_path, capsys, monkeypatch):
    # validation failure: non-monotone table
    bad = tmp_path / "bad.inst"
    bad.write_text(
        json.dumps(
            {
                "version": 1,
                "model": "binary",
                "n": 2,
                "function": {"class": "table", "table": ["0", "1/2", "1/4", "1/3"]},
                "costs": ["1/10", "1/10"],
            }
        )
    )
    code, _ = run_cli(capsys, "solve", str(bad))
    assert code == 1

    # resource limit: brute force beyond the configured cap
    inst = sample_instance("coverage", 4, 5, seed=2)
    path = tmp_path / "cov.inst"
    path.write_text(dumps_instance(inst))
    monkeypatch.setenv("COMBICONTRACTS_BRUTE_LIMIT", "3")
    code, _ = run_cli(capsys, "critical-set", str(path))
    assert code == 2
    monkeypatch.delenv("COMBICONTRACTS_BRUTE_LIMIT")

    # missing file / bad usage
    code, _ = run_cli(capsys, "solve", str(tmp_path / "missing.inst"))
    assert code == 1
    code, _ = run_cli(capsys, "succ", str(path))
    assert code == 1


def test_succ_null_printed(worked_file, capsys):
    code, out = run_cli(capsys, "succ", worked_file, "--alpha", "1/2")
    assert code == 0
    assert pairs_of(out)["successor"] == "NULL"
