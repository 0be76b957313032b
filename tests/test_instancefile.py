"""Property test: any JSON object over the schema's keys loads or is refused.

Each drawn file is usually well shaped, field by field, so that many of
them load; any field may instead hold an int up to 2**64, a negative, a
wrong type or a list of the wrong length.  Loading either yields an
instance or raises a ``ContractError``; whatever loads then gets a report,
or a ``ContractError``, from the checks the CLI runs on it: ``validate``
for a binary file, ``validate_general`` for a general file or a binary
file embedded for the robust commands.
"""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from combicontracts import (  # noqa: E402
    ContractError,
    GeneralInstance,
    Instance,
    ValidationReport,
    embed_binary,
    loads_instance,
    validate,
    validate_general,
)

BIG = 2**64
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-BIG, BIG) | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=2),
    max_leaves=6,
)


def usually(good, bad=JUNK):
    """Draws from ``good`` fifteen times in sixteen, else from ``bad``."""
    return st.integers(0, 15).flatmap(lambda i: bad if i == 0 else good)


BAD_INT = st.integers(-BIG, BIG) | st.integers(-BIG, BIG).map(str) | JUNK
BAD_RATIONAL = (
    st.integers(-BIG, BIG)
    | st.fractions(-1, 2, max_denominator=17).map(str)
    | st.sampled_from(["1/0", "0.5", "1e9", "x"])
    | JUNK
)
COST = usually(st.fractions(Fraction(1, 16), 1, max_denominator=16).map(str), BAD_RATIONAL)
VALUE = usually(st.fractions(0, 1, max_denominator=16).map(str), BAD_RATIONAL)


def sized(element, n):
    """A list of n elements, else a list of any length up to 5 or junk."""
    return usually(
        st.lists(element, min_size=n, max_size=n), st.lists(element, max_size=5) | JUNK
    )


def usually_int(lo, hi):
    """An int in lo..hi, else one just outside it or a bad int."""
    return usually(st.integers(lo, hi), st.integers(lo - 2, hi + 2) | BAD_INT)


@st.composite
def functions(draw, n):
    klass = draw(
        usually(
            st.sampled_from(
                ["additive", "unit-demand", "matroid-rank", "budget-additive", "coverage", "table"]
            )
        )
    )
    if klass == "table":
        table = draw(sized(VALUE, 1 << n))
        if isinstance(table, list) and draw(st.booleans()):
            table = ["0"] + table[1:]  # f(empty set) = 0
        return {"class": klass, "table": table}
    if klass == "coverage":
        weights = draw(sized(VALUE, draw(st.integers(0, 4))))
        size = len(weights) if isinstance(weights, list) else 1
        element = usually_int(0, max(size - 1, 0))
        covers = draw(sized(st.lists(element, max_size=3), n))
        return {"class": klass, "weights": weights, "covers": covers}
    key = "weights" if klass == "matroid-rank" else "values"
    obj = {"class": klass, key: draw(sized(VALUE, n))}
    if klass == "budget-additive":
        obj["budget"] = draw(VALUE)
    elif klass == "matroid-rank":
        if draw(st.booleans()):
            obj["matroid"] = {"type": "uniform", "rank": draw(usually_int(0, n))}
        else:
            count = draw(st.integers(1, 3))
            owner = [draw(usually_int(0, count - 1)) for _ in range(n)]
            blocks = [[a + 1 for a in range(n) if owner[a] == b] for b in range(count)]
            caps = draw(sized(usually_int(0, 2), count))
            obj["matroid"] = {"type": "partition", "blocks": blocks, "capacities": caps}
    return obj


@st.composite
def files(draw):
    n = draw(st.integers(0, 4))
    obj = {
        "version": draw(usually(st.just(1))),
        "n": draw(usually_int(n, n)),
        "costs": draw(sized(COST, n)),
    }
    if draw(st.sampled_from(["binary", "binary", "general"])) == "binary":
        obj["model"] = draw(usually(st.just("binary")))
        obj["function"] = draw(usually(functions(n)))
        if draw(st.booleans()):
            obj["k"] = draw(usually_int(4, 6))
        if draw(st.booleans()):
            obj["scale"] = draw(usually(st.sampled_from(["1", "2", "0"]), BAD_RATIONAL))
    else:
        obj["model"] = draw(usually(st.just("general")))
        m = draw(st.integers(0, 3))
        obj["rewards"] = draw(sized(VALUE, m))
        forms = draw(
            usually(
                st.sampled_from([{"distributions"}, {"expected"}]),
                st.sampled_from([set(), {"distributions", "expected"}]),
            )
        )
        if "distributions" in forms:
            obj["distributions"] = draw(sized(sized(VALUE, 1 << n), m))
        if "expected" in forms:
            obj["expected"] = draw(usually(functions(n)))
    return obj


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(obj=files())
def test_any_object_loads_or_is_refused(obj):
    try:
        inst = loads_instance(json.dumps(obj))
    except ContractError:
        return
    if isinstance(inst, Instance):
        checks = (lambda: validate(inst), lambda: validate_general(embed_binary(inst)))
    else:
        assert isinstance(inst, GeneralInstance)
        checks = (lambda: validate_general(inst),)
    for check in checks:
        try:
            report = check()
        except ContractError:
            continue
        assert isinstance(report, ValidationReport)
