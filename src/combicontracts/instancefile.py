"""Versioned JSON instance files.

Exact rationals serialize as reduced "a/b" strings ("a" when integral).
The schema is strict: unknown fields are errors, not warnings, so a report
produced from a file is reproducible from that file alone.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Union

from .errors import DomainError
from .functions import (
    Additive,
    BudgetAdditive,
    Coverage,
    ExplicitTable,
    Instance,
    PartitionMatroid,
    SuccessFunction,
    UniformMatroid,
    UnitDemand,
    WeightedMatroidRank,
)
from .rational import format_rational, parse_rational
from .robust import GeneralInstance

__all__ = [
    "SCHEMA_VERSION",
    "loads_instance",
    "load_instance",
    "dumps_instance",
    "dump_instance",
]

SCHEMA_VERSION = 1


def _require_keys(obj: dict, required: set, optional: set, where: str) -> None:
    keys = set(obj)
    missing = required - keys
    if missing:
        raise DomainError(f"{where}: missing fields {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise DomainError(f"{where}: unknown fields {sorted(unknown)}")


def _rat(value, where: str) -> Fraction:
    if not isinstance(value, str) and not isinstance(value, int):
        raise DomainError(f"{where}: rationals must be strings, got {value!r}")
    return parse_rational(str(value))


def _int(value, where: str) -> int:
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{where}: expected an integer, got {value!r}")
    return value


def _list(values, where: str) -> list:
    if not isinstance(values, list):
        raise DomainError(f"{where}: expected a list")
    return values


def _rat_list(values, where: str) -> tuple:
    return tuple(_rat(v, where) for v in _list(values, where))


def _int_sets(values, where: str) -> tuple:
    """A list of lists of integers, as a tuple of frozensets."""
    return tuple(
        frozenset(_int(a, where) for a in _list(entry, where))
        for entry in _list(values, where)
    )


def _function_from_json(obj: dict, n: int) -> SuccessFunction:
    if not isinstance(obj, dict):
        raise DomainError("function: expected an object")
    klass = obj.get("class")
    if klass in ("additive", "unit-demand"):
        _require_keys(obj, {"class", "values"}, set(), "function")
        values = _rat_list(obj["values"], "function.values")
        f = Additive(values) if klass == "additive" else UnitDemand(values)
    elif klass == "matroid-rank":
        _require_keys(obj, {"class", "weights", "matroid"}, set(), "function")
        weights = _rat_list(obj["weights"], "function.weights")
        mat = obj["matroid"]
        if not isinstance(mat, dict):
            raise DomainError("function.matroid: expected an object")
        if mat.get("type") == "uniform":
            _require_keys(mat, {"type", "rank"}, set(), "function.matroid")
            matroid = UniformMatroid(_int(mat["rank"], "function.matroid.rank"))
        elif mat.get("type") == "partition":
            _require_keys(
                mat, {"type", "blocks", "capacities"}, set(), "function.matroid"
            )
            blocks = _int_sets(mat["blocks"], "function.matroid.blocks")
            where = "function.matroid.capacities"
            caps = tuple(_int(c, where) for c in _list(mat["capacities"], where))
            matroid = PartitionMatroid(blocks, caps)
        else:
            raise DomainError(f"unknown matroid type {mat.get('type')!r}")
        f = WeightedMatroidRank(weights, matroid)
    elif klass == "budget-additive":
        _require_keys(obj, {"class", "values", "budget"}, set(), "function")
        f = BudgetAdditive(
            _rat_list(obj["values"], "function.values"),
            _rat(obj["budget"], "function.budget"),
        )
    elif klass == "coverage":
        _require_keys(obj, {"class", "weights", "covers"}, set(), "function")
        weights = _rat_list(obj["weights"], "function.weights")
        f = Coverage(weights, _int_sets(obj["covers"], "function.covers"))
    elif klass == "table":
        _require_keys(obj, {"class", "table"}, set(), "function")
        f = ExplicitTable(n, _rat_list(obj["table"], "function.table"))
    else:
        raise DomainError(f"unknown function class {klass!r}")
    if f.n != n:
        raise DomainError(f"function describes {f.n} actions, file says {n}")
    return f


def _function_to_json(f: SuccessFunction) -> dict:
    if isinstance(f, (Additive, UnitDemand)):
        return {"class": f.kind, "values": [format_rational(v) for v in f.values]}
    if isinstance(f, WeightedMatroidRank):
        if isinstance(f.matroid, UniformMatroid):
            mat = {"type": "uniform", "rank": f.matroid.rank}
        else:
            mat = {
                "type": "partition",
                "blocks": [sorted(b) for b in f.matroid.blocks],
                "capacities": list(f.matroid.capacities),
            }
        return {
            "class": f.kind,
            "weights": [format_rational(w) for w in f.weights],
            "matroid": mat,
        }
    if isinstance(f, BudgetAdditive):
        return {
            "class": f.kind,
            "values": [format_rational(v) for v in f.values],
            "budget": format_rational(f.budget),
        }
    if isinstance(f, Coverage):
        return {
            "class": f.kind,
            "weights": [format_rational(w) for w in f.weights],
            "covers": [sorted(c) for c in f.covers],
        }
    if isinstance(f, ExplicitTable):
        return {"class": f.kind, "table": [format_rational(v) for v in f.table]}
    raise DomainError(f"cannot serialize function class {type(f).__name__}")


def loads_instance(text: str) -> Union[Instance, GeneralInstance]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"instance file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DomainError("instance file must be a JSON object")
    version = obj.get("version")
    if version != SCHEMA_VERSION:
        raise DomainError(f"unsupported schema version {version!r}")
    model = obj.get("model")
    if model == "binary":
        _require_keys(
            obj,
            {"version", "model", "n", "function", "costs"},
            {"k", "scale", "meta"},
            "instance",
        )
        n = _int(obj["n"], "n")
        f = _function_from_json(obj["function"], n)
        costs = _rat_list(obj["costs"], "costs")
        k = obj.get("k")
        if k is not None:
            k = _int(k, "k")
        scale = _rat(obj["scale"], "scale") if "scale" in obj else Fraction(1)
        return Instance(f, costs, k=k, scale=scale, meta=obj.get("meta"))
    if model == "general":
        _require_keys(
            obj,
            {"version", "model", "n", "costs", "rewards"},
            {"distributions", "expected", "meta"},
            "instance",
        )
        n = _int(obj["n"], "n")
        costs = _rat_list(obj["costs"], "costs")
        rewards = _rat_list(obj["rewards"], "rewards")
        distributions = None
        expected = None
        if "distributions" in obj:
            distributions = tuple(
                ExplicitTable(n, _rat_list(tab, "distributions"))
                for tab in _list(obj["distributions"], "distributions")
            )
        if "expected" in obj:
            expected = _function_from_json(obj["expected"], n)
        return GeneralInstance(
            costs=costs,
            rewards=rewards,
            distributions=distributions,
            expected=expected,
            meta=obj.get("meta"),
        )
    raise DomainError(f"unknown model {model!r}")


def load_instance(path: str) -> Union[Instance, GeneralInstance]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"instance file is not UTF-8 text: {exc}") from exc
    return loads_instance(text)


def dumps_instance(inst: Union[Instance, GeneralInstance]) -> str:
    if isinstance(inst, Instance):
        obj: dict = {
            "version": SCHEMA_VERSION,
            "model": "binary",
            "n": inst.n,
            "function": _function_to_json(inst.f),
            "costs": [format_rational(c) for c in inst.costs],
        }
        if inst.k is not None:
            obj["k"] = inst.k
        if inst.scale != 1:
            obj["scale"] = format_rational(inst.scale)
        if inst.meta is not None:
            obj["meta"] = inst.meta
    elif isinstance(inst, GeneralInstance):
        obj = {
            "version": SCHEMA_VERSION,
            "model": "general",
            "n": inst.n,
            "costs": [format_rational(c) for c in inst.costs],
            "rewards": [format_rational(r) for r in inst.rewards],
        }
        if inst.distributions is not None:
            obj["distributions"] = [
                [format_rational(v) for v in tab.table] for tab in inst.distributions
            ]
        if inst.expected is not None:
            obj["expected"] = _function_to_json(inst.expected)
        if inst.meta is not None:
            obj["meta"] = inst.meta
    else:
        raise DomainError(f"cannot serialize {type(inst).__name__}")
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dump_instance(inst: Union[Instance, GeneralInstance], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(inst))
