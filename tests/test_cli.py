import json
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from combicontracts import (
    ENUMERATION_LIMIT,
    Additive,
    DomainError,
    ExplicitTable,
    GeneralInstance,
    Instance,
    ResourceLimitError,
    UniformMatroid,
    WeightedMatroidRank,
    embed_binary,
    gen_exponential_coverage,
    gen_subset_sum,
    sample_instance,
    SubsetSumSpec,
)
from combicontracts import generators
from combicontracts.cli import main
from combicontracts.generators import SAMPLE_CLASSES
from combicontracts.instancefile import (
    _read_instance,
    dumps_instance,
    loads_instance,
)
from combicontracts.rational import format_rational


def test_round_trip_every_class():
    """Every listed class: ``SAMPLE_CLASSES`` holds ``functions._CLASSES``'s
    kinds (``test_generators`` checks it), so a class added to that list is
    round-trip tested here too."""
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


def test_dumps_instance_refuses_a_non_instance():
    with pytest.raises(DomainError, match="cannot serialize dict"):
        dumps_instance({"n": 1, "costs": ["1/2"]})


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
    assert "k" not in json.loads(dumps_instance(embedded))
    # an embedding keeps the binary file's k; the general schema checks it
    with_k = embed_binary(sample_instance("additive", 3, 4, seed=0))
    assert with_k.k == 4 and loads_instance(dumps_instance(with_k)) == with_k
    obj = json.loads(dumps_instance(with_k))
    for bad, error in ((0, "must be a positive integer"), ("x", "expected an integer")):
        obj["k"] = bad
        with pytest.raises(DomainError, match=error):
            loads_instance(json.dumps(obj))


def _dumped_entry_by_entry(inst) -> str:
    """dumps_instance's text with every rational list formatted per entry."""
    obj = json.loads(dumps_instance(inst))
    fmt = lambda xs: [format_rational(x) for x in xs]  # noqa: E731
    obj["costs"] = fmt(inst.costs)
    functions = [("function", inst.f)] if isinstance(inst, Instance) else []
    if isinstance(inst, GeneralInstance):
        obj["rewards"] = fmt(inst.rewards)
        if inst.distributions is not None:
            obj["distributions"] = [fmt(tab.table) for tab in inst.distributions]
        else:
            functions = [("expected", inst.expected)]
    for key, f in functions:
        for name in f._params:
            x = getattr(f, name)
            obj[key][name] = fmt(x) if isinstance(x, tuple) else format_rational(x)
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _tables_of(inst) -> list:
    if isinstance(inst, Instance):
        functions = [inst.f]
    else:
        functions = list(inst.distributions or ()) + [inst.expected]
    return [f for f in functions if isinstance(f, ExplicitTable)]


def test_dumped_tables_read_entry_by_entry_and_load_back(general_corpus):
    binary = [
        sample_instance(klass, n, k, seed)
        for klass in SAMPLE_CLASSES
        for n in (1, 3, 6, 10)
        for k in (4, 8)
        for seed in (0, 1)
    ]
    binary.append(gen_exponential_coverage(3))
    general = general_corpus[:20] + [embed_binary(inst) for inst in binary[-20:]]
    # reward tables made from ints, in the expected form and as a binary f
    general += [
        GeneralInstance(g.costs, (Fraction(0), Fraction(1)), expected=g.reward)
        for g in general_corpus[:10]
    ]
    binary += [Instance(g.reward, g.costs, scale=g.top_reward) for g in general_corpus[:10]]
    negative = ExplicitTable(1, ("0", "-1/3"))
    general.append(GeneralInstance((1,), (0, 1), distributions=(negative, negative)))
    for inst in binary + general:
        text = dumps_instance(inst)
        assert text == _dumped_entry_by_entry(inst)
        again = loads_instance(text)
        assert again == inst and hash(again) == hash(inst)
        assert [t._lifted for t in _tables_of(again)] == [t._lifted for t in _tables_of(inst)]
    assert sum(map(len, map(_tables_of, binary + general))) > 50


@pytest.mark.parametrize(
    "tables, error",
    [
        ([["1", 1], [True, "0"]], "got True"),
        ([["1", "1/2"], ["0", True]], "got True"),
        ([[1, "1"], [0, ["1"]]], "got ['1']"),
        ([["1", ["0"]], ["0", "1"]], "got ['0']"),
        ([["1", "1"], ["0", 0.5]], "got 0.5"),
    ],
)
def test_distribution_literals_fail_as_written(tables, error):
    obj = {
        "version": 1,
        "model": "general",
        "n": 1,
        "costs": ["1/8"],
        "rewards": ["0", "1"],
        "distributions": tables,
    }
    with pytest.raises(DomainError) as exc:
        loads_instance(json.dumps(obj))
    assert str(exc.value) == "distributions: rationals must be strings, " + error


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

# a JSON integer literal over int()'s 4300-digit limit
LONG_INT_FILE = json.dumps(UNIFORM).replace('"1/8"', "1" * 5000, 1).encode()

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
    "long integer": (None, (), "not valid JSON: Exceeds the limit (4300 digits)"),
    "k": (UNIFORM, ("k",), "exceeds the limit"),
    "long n": (UNIFORM, ("n",), "n: integer over 4300 digits"),
    "long k": (UNIFORM, ("k",), "k: integer over 4300 digits"),
    "long rank": (UNIFORM, ("function", "matroid", "rank"), "rank: integer over 4300 digits"),
    "long cover index": (COVERAGE, ("function", "covers"), "covers: integer over 4300 digits"),
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


# (file, command before its path, flags after it, stderr); each a DomainError
REFUSALS = {
    "missing field": (_binary({"class": "additive"}), ["solve"], [],
                      "error: function: missing fields ['values']\n"),
    "unknown class": (_binary({"class": "graphic"}), ["solve"], [],
                      "error: unknown function class 'graphic'\n"),
    "class not a string": (_binary({"class": ["additive"]}), ["solve"], [],
                           "error: unknown function class ['additive']\n"),
    "matroid not an object": (_matroid(3), ["solve"], [],
                              "error: function.matroid: expected an object\n"),
    "unknown matroid type": (_matroid({"type": "graphic", "rank": 1}), ["solve"], [],
                             "error: unknown matroid type 'graphic'\n"),
    "top level not an object": ([TABLE], ["solve"], [],
                                "error: instance file must be a JSON object\n"),
    "cost count": ({**TABLE, "costs": ["1/8"]}, ["solve"], [],
                   "error: 1 costs for 2 actions\n"),
    "general file to solve": (GENERAL, ["solve"], [],
                              "error: this command needs a binary-model instance file\n"),
    "no contract": (GENERAL, ["robust", "linearize"], [],
                    "error: supply --slope or --payments\n"),
    "payment without =": (GENERAL, ["robust", "linearize"], ["--payments", "0=0,1"],
                          "error: bad payment entry '1'; use level=payment\n"),
    "repeated payment level": (GENERAL, ["robust", "linearize"],
                               ["--payments", "0=0,1=1/2,2/2=1/4"],
                               "error: duplicate reward level in payment table\n"),
    "slope and payments": (GENERAL, ["robust", "linearize"],
                           ["--slope", "1/2", "--payments", "0=0"],
                           "error: a contract is either linear or a payment table\n"),
    # the validators' refusals, each naming its first violation
    "non-monotone table": (_binary({"class": "table", "table": ["0", "1/2", "1/4", "1/3"]}),
                           ["solve"], [], "error: f is not monotone\n"),
    "f(A) over the scale": ({**_binary({"class": "additive", "values": ["1/2", "1/4"]}),
                             "scale": "1/2"}, ["solve"], [],
                            "error: f(full set) exceeds the declared scale\n"),
    "rows not distributions": ({**GENERAL, "distributions": [["1", "1/2"], ["0", "1/4"]]},
                               ["robust", "solve-linear"], [],
                               "error: outcome probabilities sum to 3/4 on mask 1\n"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refused_inputs_exit_1(tmp_path, capsys, case):
    from combicontracts.cli import _run, build_parser

    obj, command, flags, err_head = REFUSALS[case]
    path = tmp_path / "refused.inst"
    path.write_text(json.dumps(obj))
    argv = [*command, str(path), *flags]
    args = build_parser().parse_args(argv)
    with pytest.raises(DomainError):
        _run(args)
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith(err_head)


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
        pytest.param("long integer", LONG_INT_FILE, id="long integer-5000 digits"),
        ("k", 2**62),
        pytest.param("long n", "9" * 5001, id="long n-5001 digits"),
        pytest.param("long k", "4" * 5001, id="long k-5001 digits"),
        pytest.param("long rank", "-" + "1" * 5001, id="long rank-5001 digits"),
        pytest.param("long cover index", [["0" * 5000 + "1"], [1]], id="long cover index"),
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


TRUE_ERROR = "error: function.table: rationals must be strings, got True"


@pytest.mark.parametrize(
    "table, costs, error",
    [
        (["0", 1, "1", "2/2", True, "1", "1", "1"], None, TRUE_ERROR),
        ([True, "1", "1", "1", "1", "1", "1", "1"], None, TRUE_ERROR),
        (
            ["0", "1", "1", "1", "1", "1", "1", "1"],
            ["1/8", True, "1/8"],
            "error: costs: rationals must be strings, got True",
        ),
        (
            ["0", "1/x", "1/4", "1/x", "abc", "1/x", "1/2", "3/4"],
            None,
            "error: cannot parse rational '1/x': Invalid literal for Fraction: '1/x'",
        ),
        (
            ["0", "1/0", "1/4", "1/0", "1/4", "1/2", "1/2", "3/4"],
            None,
            "error: cannot parse rational '1/0': Fraction(1, 0)",
        ),
        (
            ["0", ["1"], "1/x", "1/x", "1/4", "1/2", "1/2", "3/4"],
            None,
            "error: function.table: rationals must be strings, got ['1']",
        ),
        (
            ["0", "1/4", "1/4", "1/2", "1/4", "1/2", "1/2", "3/4"],
            ["x", "1/8", "x"],
            "error: cannot parse rational 'x': Invalid literal for Fraction: 'x'",
        ),
        (["0", "1", "1", "1", "1", "1", "1", "1"], None, None),
        (["0", 1, "1", "2/2", "1", 1, "2/2", "1"], None, None),
    ],
)
def test_table_literals_load_or_fail_as_written(tmp_path, capsys, table, costs, error):
    """Repeated literals share one parse; the first bad entry is still the
    one reported, and JSON true is refused even after an equal 1."""
    obj = {
        "version": 1,
        "model": "binary",
        "n": 3,
        "function": {"class": "table", "table": table},
        "costs": costs or ["1/8", "1/8", "1/8"],
    }
    path = tmp_path / "table.inst"
    path.write_text(json.dumps(obj))
    for command in (["solve"], ["robust", "solve-linear"]):
        code = main(command + [str(path)])
        err = capsys.readouterr().err.splitlines()
        if error is None:
            assert code == 0
        else:
            assert (code, err[0]) == (1, error)
    if error is None:
        assert loads_instance(path.read_text()).f.table == (0,) + (1,) * 7


PARSE_ERROR = "cannot parse rational '1/x': Invalid literal for Fraction: '1/x'"


@pytest.mark.parametrize(
    "entries, error",
    [
        (["1/x", True], PARSE_ERROR),
        (["1/x", 1.5], PARSE_ERROR),
        ([True, "1/x"], "function.table: rationals must be strings, got True"),
        ([1.5, "1/x"], "function.table: rationals must be strings, got 1.5"),
        ([1, True], "function.table: rationals must be strings, got True"),
        (["1", 1, True], "function.table: rationals must be strings, got True"),
    ],
)
def test_first_bad_table_entry_in_file_order_is_refused(entries, error):
    """A malformed string and a non-string entry are refused in file order,
    and JSON true is never merged with an equal 1 seen before it."""
    table = ["0", *entries, *["1"] * (8 - 1 - len(entries))]
    obj = {
        "version": 1,
        "model": "binary",
        "n": 3,
        "function": {"class": "table", "table": table},
        "costs": ["1/8", "1/8", "1/8"],
    }
    with pytest.raises(DomainError) as info:
        loads_instance(json.dumps(obj))
    assert str(info.value) == error


def test_each_distinct_table_literal_is_parsed_once(monkeypatch):
    from combicontracts import instancefile
    from combicontracts.rational import parse_rational

    calls = []

    def counted(text, k=None):
        calls.append(text)
        return parse_rational(text, k)

    monkeypatch.setattr(instancefile, "parse_rational", counted)
    inst = sample_instance("table", 10, 4, seed=2)
    text = dumps_instance(inst)
    obj = json.loads(text)
    table, costs = obj["function"]["table"], obj["costs"]
    assert len(set(table)) < len(table) // 10
    assert loads_instance(text) == inst
    assert len(calls) == len(set(table)) + len(costs)  # costs: once per entry
    calls.clear()
    tab = instancefile._table(table, 10, "function.table")
    assert tab == inst.f and tab._lifted == inst.f._lifted
    assert calls == list(dict.fromkeys(table))  # once each, in first-seen order


def test_file_commands_never_build_a_tables_fractions(tmp_path, monkeypatch, general_corpus):
    """Each table a command loads or derives is made from its ints, and its
    tuple of Fractions is never read."""
    made = []
    from_ints = ExplicitTable._from_ints.__func__
    monkeypatch.setattr(
        ExplicitTable, "_from_ints", classmethod(lambda *a: made.append(from_ints(*a)) or made[-1])
    )
    monkeypatch.setattr(ExplicitTable, "__post_init__", lambda tab: pytest.fail("made from Fractions"))
    binary, general = tmp_path / "table.inst", tmp_path / "general.inst"
    binary.write_text(dumps_instance(sample_instance("table", 6, 4, seed=7)))
    general.write_text(dumps_instance(general_corpus[4]))
    for argv in (
        ["solve", binary],
        ["solve", binary, "--method", "search"],
        ["critical-set", binary],
        ["demand", binary, "--alpha", "1/2"],
        ["succ", binary, "--alpha", "0"],
        ["succ", binary, "--alpha", "0", "--method", "search"],
        ["fptas", binary, "--epsilon", "1/4"],
        ["robust", "solve-linear", general],
    ):
        made.clear()
        assert main([str(a) for a in argv]) == 0, argv
        assert made and all("table" not in tab.__dict__ for tab in made), argv


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


def test_fptas_grid_size_is_read_from_the_grid(tmp_path, capsys, monkeypatch):
    from combicontracts import approx

    path = tmp_path / "ba.inst"
    path.write_text(dumps_instance(sample_instance("budget-additive", 4, 5, seed=11)))
    fptas = approx.fptas
    monkeypatch.setattr(approx, "fptas", lambda *a: replace(fptas(*a), v_queries=99))
    code, out = run_cli(capsys, "fptas", str(path), "--epsilon", "1/2")
    assert code == 0
    assert (pairs_of(out)["grid_size"], pairs_of(out)["v_queries"]) == ("5", "99")


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

    code = main(["gen", "subset-sum", "--values", "1,x", "--target", "3", "-o", str(second)])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert "error: --values must be comma-separated integers" in err


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

    # an additive R answers in closed form: with w_i = 1/32 and c_i = i/320
    # the agent takes the actions with i < 10s, and the tie i = 10s too while
    # s < 1; R(A) = 5/8
    n = 20
    wide = GeneralInstance(
        costs=tuple(Fraction(i, 320) for i in range(1, n + 1)),
        rewards=(Fraction(0), Fraction(1)),
        expected=Additive((Fraction(1, 32),) * n),
    )
    path.write_text(dumps_instance(wide))
    for flag, value, s, t0 in (
        ("--slope", "1/3", Fraction(1, 3), Fraction(0)),
        ("--payments", "0=1/8,5/8=17/16", Fraction(3, 2), Fraction(1, 8)),
    ):
        taken = sum(1 for i in range(1, n + 1) if i < 10 * s or s < 1 and i == 10 * s)
        original = Fraction(taken, 32) * (1 - s) - t0
        code, out = run_cli(capsys, "robust", "linearize", str(path), flag, value)
        assert code == 0
        rows = pairs_of(out)
        keys = ("alpha", "worst_case_utility_original", "worst_case_utility_linear")
        assert [rows[k] for k in keys] == [
            format_rational(s), format_rational(original), format_rational(original + t0)
        ]

    # binary files are embedded automatically
    bpath = tmp_path / "bin.inst"
    bpath.write_text(dumps_instance(worked_additive))
    code, out = run_cli(capsys, "robust", "solve-linear", str(bpath))
    assert code == 0 and "alpha_star    1/2" in out

    # with R = f the robust solve is the binary solve, certified n = 40 too,
    # and search uses the file's declared k, also from the embedding's file
    keys = ("alpha_star", "utility", "actions", "v_queries")
    gpath = tmp_path / "embedded.inst"
    for klass in SAMPLE_CLASSES:
        n = 40 if klass in ("additive", "unit-demand", "matroid-rank") else 6
        inst = sample_instance(klass, n, 12, seed=5)
        bpath.write_text(dumps_instance(inst))
        gpath.write_text(dumps_instance(embed_binary(inst)))
        for method in ("auto", "search"):
            code, out = run_cli(capsys, "solve", str(bpath), "--method", method)
            assert code == 0
            for robust_path in (bpath, gpath):
                code, robust_out = run_cli(
                    capsys, "robust", "solve-linear", str(robust_path), "--method", method
                )
                assert code == 0
                assert [pairs_of(robust_out)[k] for k in keys] == [
                    pairs_of(out)[k] for k in keys
                ]

    # R(A) above the largest reward level: an unnormalized binary file, and
    # a general file whose expected reward passes its top level
    over = {"version": 1, "model": "general", "n": 2, "costs": ["1/8", "1/8"],
            "rewards": ["0", "1"],
            "expected": {"class": "additive", "values": ["3/4", "1/2"]}}
    for text in (dumps_instance(gen_exponential_coverage(2)), json.dumps(over)):
        bpath.write_text(text)
        assert main(["robust", "solve-linear", str(bpath)]) == 1
        assert "exceeds the largest reward level" in capsys.readouterr().err


def test_each_file_is_read_once_as_text_mode_reads_it(
    tmp_path, capsys, monkeypatch, worked_additive
):
    # one open per command; the digest is of the bytes parsed, and they decode
    # as open(path, encoding="utf-8").read() does: universal newlines, and the
    # same JSON error positions and UTF-8 refusal
    import builtins
    import hashlib

    text = dumps_instance(worked_additive)
    broken = text.replace('"n": 2', '"n": }')
    cases = [text.replace("\n", "\r\n"), text.replace("\n", "\r"), broken.replace("\n", "\r\n")]
    cases = [c.encode() for c in cases] + [b"\xff" + text.encode(), text.encode() + b"\xe2\x82"]
    opened, real_open = [], builtins.open
    path = tmp_path / "file.inst"
    for data in cases:
        path.write_bytes(data)
        try:
            with open(path, encoding="utf-8") as fh:
                expected = str(loads_instance(fh.read()).costs)
        except (DomainError, UnicodeDecodeError) as exc:
            expected = str(exc)
        monkeypatch.setattr(
            builtins, "open", lambda *a, **kw: opened.append(a) or real_open(*a, **kw)
        )
        code = main(["solve", str(path)])
        monkeypatch.undo()
        out, err = capsys.readouterr()
        assert len(opened) == 1
        opened.clear()
        if code == 0:
            assert str(_read_instance(str(path))[0].costs) == expected
            assert pairs_of(out)["input_digest"] == hashlib.sha256(data).hexdigest()[:16]
        else:
            assert code == 1 and expected in err


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


@pytest.mark.parametrize("n", [14, 20])
def test_table_files_past_12_actions_answer(tmp_path, capsys, n):
    path = tmp_path / "table.inst"
    path.write_text(dumps_instance(sample_instance("table", n, 8, seed=1)))
    for argv in (["solve"], ["critical-set"], ["demand", "--alpha", "1/2"], ["verify"]):
        code, out = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 0 and "FAIL" not in out


def test_a_huge_table_n_is_refused_before_any_entry(tmp_path, capsys):
    # the limit compares n with its log2: building 2**n would overflow or exhaust memory
    def entries():
        raise AssertionError("an entry was read")
        yield

    with pytest.raises(ResourceLimitError):
        ExplicitTable(10**100, entries())
    path = tmp_path / "huge.inst"
    obj = {"version": 1, "model": "binary", "n": 10**100, "costs": []}
    path.write_text(json.dumps(obj | {"function": {"class": "table", "table": []}}))
    code, out = run_cli(capsys, "solve", str(path))
    assert (code, out) == (2, "")


VERIFY_ROWS = [
    "v-oracle-vs-brute-demand",
    "greedy-vs-brute-demand",
    "succ-gs-vs-envelope",
    "critical-count-bound",
    "k-bit-critical-values",
    "succ-search-vs-envelope",
    "succ-search-query-bound",
    "fptas-guarantee",
    "fptas-query-count",
    "optimal-contract-backends",
]


def _broken_path(name):
    """(module, attribute, stand-in) that makes the named verify row wrong."""
    from dataclasses import replace

    from combicontracts import approx, contract, demand

    if name == "v-oracle-vs-brute-demand":
        level = demand.GreedyKernel.level  # every level, counted or not, and so V
        return demand.GreedyKernel, "level", lambda self, p, q: 2 * level(self, p, q)
    if name == "succ-gs-vs-envelope":
        return contract, "succ_gs", lambda inst, alpha, **kw: None
    if name == "greedy-vs-brute-demand":
        return demand, "greedy_demand", lambda inst, alpha: demand.OrderedDemand((), ())
    if name == "succ-search-vs-envelope":
        return approx, "succ_search", lambda inst, alpha, **kw: None
    if name == "optimal-contract-backends":  # the argmax every method shares never moves off 0
        solve = contract.optimal_contract
        zero = {"alpha_star": Fraction(0), "utility": Fraction(0), "actions": frozenset()}

        def broken(inst, method):
            return replace(solve(inst, method), **zero)

        return contract, "optimal_contract", broken
    fptas = approx.fptas
    return approx, "fptas", lambda inst, eps: replace(fptas(inst, eps), utility=Fraction(0))


@pytest.mark.parametrize("klass", ["additive", "unit-demand", "matroid-rank"])
@pytest.mark.parametrize(
    "row",
    [
        "v-oracle-vs-brute-demand",
        "greedy-vs-brute-demand",
        "succ-gs-vs-envelope",
        "succ-search-vs-envelope",
        "fptas-guarantee",
        "optimal-contract-backends",
    ],
)
def test_verify_fails_on_a_broken_path(tmp_path, capsys, monkeypatch, klass, row):
    path = _generated_file(tmp_path, capsys, klass)
    code, out = run_cli(capsys, "verify", path)
    assert code == 0 and "FAIL" not in out
    monkeypatch.setattr(*_broken_path(row))
    code, out = run_cli(capsys, "verify", path)
    assert code == 3
    status = {r.split()[0]: r.split()[1] for r in out.splitlines()[1:]}
    assert list(status) == VERIFY_ROWS
    assert status[row] == "FAIL"
    before = VERIFY_ROWS[: VERIFY_ROWS.index(row)]
    assert all(status[name] == "PASS" for name in before)


def test_verify_reports_a_miscounted_grid(tmp_path, capsys, monkeypatch):
    """fptas leaves its query count to the crosscheck, whose row reads FAIL
    when every V query is counted twice; all ten rows still print."""
    from combicontracts import demand

    path = _generated_file(tmp_path, capsys, "additive")
    call = demand.VOracle.__call__

    def counted_twice(self, *at):
        self.queries += 1
        return call(self, *at)

    monkeypatch.setattr(demand.VOracle, "__call__", counted_twice)
    code, out = run_cli(capsys, "verify", path)
    assert code == 3
    rows = [r.split() for r in out.splitlines()[1:]]
    assert [r[0] for r in rows] == VERIFY_ROWS
    assert rows[VERIFY_ROWS.index("fptas-query-count")][1] == "FAIL"


@pytest.mark.parametrize("epsilon", ["5", "0"])
def test_verify_refuses_epsilon_outside_the_unit_interval(
    tmp_path, capsys, worked_file, epsilon
):
    # before any row, with or without a declared k
    for path in (worked_file, _generated_file(tmp_path, capsys, "additive")):
        code = main(["verify", path, "--epsilon", epsilon])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith(f"error: epsilon must lie in (0, 1), got {epsilon}\n")


def test_exit_codes(tmp_path, capsys):
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

    # resource limit: a 2**n scan one action past the enumeration limit
    n = ENUMERATION_LIMIT.bit_length()
    inst = sample_instance("additive", n, 5, seed=2)
    path = tmp_path / "wide.inst"
    path.write_text(dumps_instance(inst))
    assert main(["critical-set", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()[0]
    assert err == f"resource limit: an enumeration of {n} actions needs over 1048576 rows"

    # missing file / bad usage
    code, _ = run_cli(capsys, "solve", str(tmp_path / "missing.inst"))
    assert code == 1
    code, _ = run_cli(capsys, "succ", str(path))
    assert code == 1


SUCC_USAGE = (
    "usage: combicontracts succ [-h] --alpha ALPHA [--method {gs,search,brute}]\n"
    "                           [--format {table,csv}] [--decimal D]\n"
    "                           instance\n"
)


def test_usage_error_prints_usage_then_error(worked_file, capsys, monkeypatch):
    # argparse wraps the usage line at the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    code = main(["succ", worked_file])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    head = SUCC_USAGE + "error: the following arguments are required: --alpha\n"
    assert err.startswith(head)
    assert err[len(head):].startswith("wall_time_s ")


def test_succ_null_printed(worked_file, capsys):
    code, out = run_cli(capsys, "succ", worked_file, "--alpha", "1/2")
    assert code == 0
    assert pairs_of(out)["successor"] == "NULL"


@pytest.mark.parametrize("method", ["brute", "gs", "search"])
@pytest.mark.parametrize("alpha", ["-1", "3/2"])
def test_succ_refuses_alpha_outside_the_unit_interval(tmp_path, capsys, alpha, method):
    path = _generated_file(tmp_path, capsys, "additive")
    code = main(["succ", path, "--alpha", alpha, "--method", method])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith(f"error: contract value {alpha} outside [0, 1]")


def test_gen_refuses_k_above_the_limit(tmp_path, capsys):
    path = tmp_path / "x.inst"
    argv = ["gen", "random", "--class", "additive", "--n", "3", "--k", "100000", "--seed", "1"]
    assert main(argv + ["-o", str(path)]) == 2
    assert "bit precision k = 100000 exceeds the limit 1024" in capsys.readouterr().err
    assert not path.exists()
    assert main(["gen", "random", "--class", "additive", "--n", "3", "--k", "0", "--seed", "1",
                 "-o", str(path)]) == 1
    assert "bit precision must be a positive integer, got 0" in capsys.readouterr().err


def test_gen_refuses_an_invalid_generated_instance(tmp_path, capsys, monkeypatch):
    # f(A) = 3/2 > 1: the validation after a generator is the last guard
    bad = Instance(Additive((Fraction(3, 2),)), (Fraction(1, 2),))
    monkeypatch.setattr(generators, "sample_instance", lambda *args: bad)
    path = tmp_path / "x.inst"
    argv = ["gen", "random", "--class", "additive", "--n", "1", "--k", "4", "--seed", "1"]
    assert main(argv + ["-o", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invariant breach: generator produced an invalid instance")
    assert not path.exists()


def test_declared_k_admits_decimal_literals(tmp_path, capsys):
    obj = {
        "version": 1,
        "model": "binary",
        "n": 2,
        "k": 4,
        "function": {"class": "additive", "values": ["0.5", "1/4"]},
        "costs": ["0.0625", "1/8"],
        "scale": "1.0",
    }
    path = tmp_path / "decimal.inst"
    path.write_text(json.dumps(obj))
    inst = loads_instance(path.read_text())
    assert inst.costs == (Fraction(1, 16), Fraction(1, 8))
    assert inst.f.values == (Fraction(1, 2), Fraction(1, 4))
    code, out = run_cli(capsys, "solve", str(path))
    assert code == 0 and pairs_of(out)["alpha_star"] == "1/8"
    for k, cost, error in (
        (4, "0.03125", "error: '0.03125' is not a multiple of 2**-4"),
        (None, "0.0625", "error: decimal literal '0.5' needs a declared bit precision"),
        (0, "0.0625", "error: decimal literal '0.5' needs a declared bit precision"),
    ):
        obj.update(k=k, costs=[cost, "1/8"])
        path.write_text(json.dumps(obj))
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err.startswith(error)


def test_general_files_read_their_declared_k(tmp_path, capsys):
    from combicontracts.rational import decimal_string, parse_rational

    ginst = embed_binary(sample_instance("additive", 3, 4, 1))
    obj = json.loads(dumps_instance(ginst))
    path = tmp_path / "general.inst"
    path.write_text(json.dumps(obj))
    code, out = run_cli(capsys, "robust", "solve-linear", str(path))
    assert code == 0
    for key in ("costs", "rewards"):
        obj[key] = [decimal_string(parse_rational(v), 4) for v in obj[key]]
    values = obj["expected"]["values"]
    obj["expected"]["values"] = [decimal_string(parse_rational(v), 4) for v in values]
    assert "0.0625" in obj["costs"]
    path.write_text(json.dumps(obj))
    assert loads_instance(path.read_text()) == ginst
    code, decimal_out = run_cli(capsys, "robust", "solve-linear", str(path))
    assert code == 0
    pairs, decimal_pairs = pairs_of(out), pairs_of(decimal_out)
    assert pairs.pop("input_digest") != decimal_pairs.pop("input_digest")
    assert decimal_pairs == pairs

    table = {"version": 1, "model": "general", "n": 1, "k": 2, "costs": ["0.25"],
             "rewards": ["0", "1"], "distributions": [["1", "0.5"], ["0", "0.5"]]}
    path.write_text(json.dumps(table))
    tabs = loads_instance(path.read_text()).distributions
    assert [t.table for t in tabs] == [(1, Fraction(1, 2)), (0, Fraction(1, 2))]


@pytest.mark.parametrize("model", ["binary", "general"])
def test_both_models_refuse_k_zero_alike(tmp_path, capsys, model):
    inst = sample_instance("additive", 3, 4, 1)
    obj = json.loads(dumps_instance(inst if model == "binary" else embed_binary(inst)))
    obj["k"] = 0
    path = tmp_path / "k0.inst"
    path.write_text(json.dumps(obj))
    command = ["solve"] if model == "binary" else ["robust", "solve-linear"]
    assert main(command + [str(path)]) == 1
    assert "error: bit precision must be a positive integer, got 0" in capsys.readouterr().err


def _generated_file(tmp_path, capsys, klass):
    path = tmp_path / f"{klass}.inst"
    argv = ["gen", "random", "--class", klass, "--n", "5", "--k", "4", "--seed", "1"]
    code = main(argv + ["-o", str(path)])
    capsys.readouterr()
    assert code == 0
    return str(path)


def test_large_decimal_exits_without_traceback(tmp_path, capsys):
    path = _generated_file(tmp_path, capsys, "additive")
    for argv in (
        ("solve", path, "--decimal", "5000"),
        ("demand", path, "--alpha", "1/2", "--decimal", "4301"),
        ("critical-set", path, "--decimal", "100000"),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.err.startswith("error: digits must lie in 0..4000"), argv
    code, out = run_cli(capsys, "solve", path, "--decimal", "4000")
    assert code == 0 and "(0." in out


def test_grid_past_the_cap_exits_with_resource_limit(tmp_path, capsys, monkeypatch):
    from combicontracts import approx

    path = _generated_file(tmp_path, capsys, "coverage")
    monkeypatch.setattr(approx, "MAX_GRID", 16)  # the k=4 grid at eps=1/10 has 27 points
    for argv in (("fptas", path, "--epsilon", "1/10"), ("verify", path, "--epsilon", "1/10")):
        code = main(list(argv))
        assert code == 2, argv
        assert "resource limit: epsilon 1/10 needs over 16 grid points" in capsys.readouterr().err


def test_tiny_epsilon_exits_with_resource_limit_at_once(tmp_path, capsys):
    path = _generated_file(tmp_path, capsys, "coverage")
    for argv in (("fptas", path, "--epsilon", "1/100000"), ("verify", path, "--epsilon", "1/100000")):
        started = time.perf_counter()
        code = main(list(argv))
        assert time.perf_counter() - started < 1, argv
        assert code == 2, argv
        err = capsys.readouterr().err
        assert "resource limit: epsilon 1/100000 needs over 16384 grid points" in err


def test_parser_is_built_once_and_reused(worked_file, capsys):
    from combicontracts.cli import build_parser

    assert build_parser() is build_parser()

    def outcome(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        err = [line for line in captured.err.splitlines() if not line.startswith("wall_time_s")]
        return code, captured.out, err

    usage, solve = ("solve", worked_file, "--method", "nope"), ("solve", worked_file)
    build_parser.cache_clear()
    alone = [outcome(*usage)]
    build_parser.cache_clear()
    alone.append(outcome(*solve))
    assert alone[0][0] == 1 and alone[1][0] == 0
    assert [outcome(*usage), outcome(*solve)] == alone


HELP_SNAPSHOT = Path(__file__).parent / "cli_help.txt"
HELP_COMMANDS = [
    [], ["solve"], ["critical-set"], ["demand"], ["succ"], ["fptas"], ["gen"],
    ["gen", "subset-sum"], ["gen", "coverage-tower"], ["gen", "random"], ["robust"],
    ["robust", "linearize"], ["robust", "solve-linear"], ["verify"],
]


def render_help(capsys) -> str:
    """Every parser's --help text, each under a `$ combicontracts ... --help` line."""
    from combicontracts.cli import build_parser

    parts = []
    for prefix in HELP_COMMANDS:
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*prefix, "--help"])
        assert exit_info.value.code == 0
        parts.append(f"$ {' '.join(['combicontracts', *prefix, '--help'])}\n")
        parts.append(capsys.readouterr().out)
    return "".join(parts)


def test_help_texts_match_the_snapshot(capsys, monkeypatch):
    # argparse wraps help at the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    assert render_help(capsys) == HELP_SNAPSHOT.read_text()
