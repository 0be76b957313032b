"""Property test: no command line makes ``cli.main`` raise.

Every sub-command is drawn with its numeric flags at the extremes, on small
generated files; ``main`` must return 0, 1 or 2 and let no exception out.
File and output paths are drawn as the placeholder names of ``FILES`` and
``OUT`` and filled in by the test, so that examples can name them too.
"""

from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from combicontracts import sample_instance  # noqa: E402
from combicontracts.cli import main  # noqa: E402
from combicontracts.generators import SAMPLE_CLASSES  # noqa: E402
from combicontracts.instancefile import dumps_instance  # noqa: E402

from conftest import make_general_corpus  # noqa: E402

ALPHAS = ("-1", "0", "1", "3/2", "0.5", "1e999999")
EPSILONS = ("0", "1", "1/100000", "1/2")
KS = ("0", "1", "1024", "1025", "100000")
NS = ("-1", "0", "1", "3", "6")  # coverage sampling is quadratic in n
METHODS = ("auto", "gs", "search", "brute")
DECIMALS = ([], ["--decimal", "-1"], ["--decimal", "4001"], ["--decimal", "3"])
FORMATS = ([], ["--format", "csv"])

# placeholder -> the instance behind it (n <= 6)
FILES = {
    "GS_FILE": lambda: sample_instance("matroid-rank", 6, 4, seed=1),
    "ENUM_FILE": lambda: sample_instance("coverage", 5, 4, seed=1),
    "NO_K_FILE": lambda: replace(sample_instance("additive", 3, 4, seed=1), k=None),
    "GENERAL_FILE": lambda: make_general_corpus(5)[4],
}
BINARY = ("GS_FILE", "ENUM_FILE", "NO_K_FILE")
OUT = "OUT"


@st.composite
def argvs(draw):
    def pick(options):
        return draw(st.sampled_from(options))

    command = pick(("solve", "critical-set", "demand", "succ", "fptas", "gen", "robust", "verify"))
    if command == "gen":
        kind = pick(("random", "subset-sum", "coverage-tower"))
        if kind == "random":
            argv = ["--class", pick(SAMPLE_CLASSES), "--n", pick(NS), "--k", pick(KS), "--seed", "1"]
        elif kind == "subset-sum":
            argv = ["--values", pick(("3,5", "1,2", "0,5", "x")), "--target", pick(("8", "-1"))]
        else:
            argv = ["--n", pick(NS)] + pick(([], ["--normalize"]))
        return ["gen", kind] + argv + ["-o", OUT] + pick(FORMATS)
    if command == "robust":
        path = pick(BINARY + ("GENERAL_FILE",))
        if draw(st.booleans()):
            payments = [["--payments", "0=0,1=1/2"], ["--payments", "x"], []]
            shape = pick([["--slope", a] for a in ALPHAS] + payments)
            argv = ["robust", "linearize", path] + shape
        else:
            argv = ["robust", "solve-linear", path, "--method", pick(METHODS)]
        return argv + pick(DECIMALS) + pick(FORMATS)
    argv = [command, pick(BINARY)]
    if command in ("demand", "succ"):
        argv += ["--alpha", pick(ALPHAS)]
    if command in ("solve", "succ"):
        argv += pick([[]] + [["--method", m] for m in METHODS])
    if command in ("fptas", "verify"):
        argv += ["--epsilon", pick(EPSILONS)]
    if command != "verify":
        argv += pick(DECIMALS)
    return argv + pick(FORMATS)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    out = {OUT: str(root / "out.inst")}
    for name, make in FILES.items():
        path = root / f"{name.lower()}.inst"
        path.write_text(dumps_instance(make()))
        out[name] = str(path)
    return out


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argv=argvs())
@example(argv=["gen", "random", "--class", "additive", "--n", "3", "--k", "100000",
               "--seed", "1", "-o", OUT])
@example(argv=["succ", "GS_FILE", "--alpha", "1e999999", "--method", "brute"])
def test_no_command_line_escapes_main(paths, argv):
    argv = [paths.get(a, a) for a in argv]
    assert main(argv) in (0, 1, 2), argv
