"""Versioned JSON instance files.

Exact rationals serialize as reduced "a/b" strings ("a" when integral).
The schema is strict: unknown fields are errors, not warnings, so a report
produced from a file is reproducible from that file alone.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import fields
from fractions import Fraction
from functools import partial
from typing import Union

from .errors import DomainError
from .functions import (
    _CLASSES,
    Coverage,
    ExplicitTable,
    Instance,
    PartitionMatroid,
    SuccessFunction,
    UniformMatroid,
    WeightedMatroidRank,
    _lift,
)
from .rational import format_rational, parse_rational
from .robust import GeneralInstance

__all__ = [
    "SCHEMA_VERSION",
    "loads_instance",
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


def _rat(value, where: str, k: int | None = None) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise DomainError(f"{where}: rationals must be strings, got {value!r}")
    return parse_rational(str(value), k)


def _int(value, where: str) -> int:
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        if len(value.lstrip("-")) > 4300:  # int() refuses more digits
            raise DomainError(f"{where}: integer over 4300 digits")
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{where}: expected an integer, got {value!r}")
    return value


def _list(values, where: str) -> list:
    if not isinstance(values, list):
        raise DomainError(f"{where}: expected a list")
    return values


def _rat_list(values, where: str, k: int | None = None) -> tuple:
    return tuple(_rat(v, where, k) for v in _list(values, where))


def _table(values, n: int, where: str, k: int | None = None) -> ExplicitTable:
    """The table of a list of literals, each distinct one parsed once, lifted together;
    anything but a str or int (JSON true too) is refused in file order, never merged with 1."""
    values = _list(values, where)
    if not set(map(type, values)) <= {str, int}:
        _rat_list(values, where, k)
    parsed = dict.fromkeys(values)
    D, ints = _lift([_rat(v, where, k) for v in parsed])
    lifted = dict(zip(parsed, ints))
    return ExplicitTable._from_ints(n, D, map(lifted.__getitem__, values))


def _int_sets(values, where: str) -> tuple:
    """A list of lists of integers, as a tuple of frozensets."""
    return tuple(
        frozenset(_int(a, where) for a in _list(entry, where))
        for entry in _list(values, where)
    )


def _matroid(mat, where: str) -> Union[UniformMatroid, PartitionMatroid]:
    if not isinstance(mat, dict):
        raise DomainError(f"{where}: expected an object")
    if mat.get("type") == "uniform":
        _require_keys(mat, {"type", "rank"}, set(), where)
        return UniformMatroid(_int(mat["rank"], f"{where}.rank"))
    if mat.get("type") != "partition":
        raise DomainError(f"unknown matroid type {mat.get('type')!r}")
    _require_keys(mat, {"type", "blocks", "capacities"}, set(), where)
    blocks = _int_sets(mat["blocks"], f"{where}.blocks")
    where += ".capacities"
    return PartitionMatroid(blocks, tuple(_int(c, where) for c in _list(mat["capacities"], where)))


def _function_from_json(obj: dict, n: int, k: int | None = None) -> SuccessFunction:
    """The function of the listed class that "class" names: a table's entries
    through ``_table``, any other class's declared fields in order."""
    if not isinstance(obj, dict):
        raise DomainError("function: expected an object")
    klass = obj.get("class")
    cls = _CLASSES.get(klass) if isinstance(klass, str) else None
    if cls is None:
        raise DomainError(f"unknown function class {klass!r}")
    if cls is ExplicitTable:
        _require_keys(obj, {"class", "table"}, set(), "function")
        return _table(obj["table"], n, "function.table", k)
    names = [x.name for x in fields(cls)]
    _require_keys(obj, {"class", *names}, set(), "function")
    # the first parameter is a list of rationals, each other one a rational
    read = dict.fromkeys(cls._params, partial(_rat, k=k))
    read |= {cls._params[0]: partial(_rat_list, k=k), "covers": _int_sets, "matroid": _matroid}
    f = cls(*[read[name](obj[name], f"function.{name}") for name in names])
    if f.n != n:
        raise DomainError(f"function describes {f.n} actions, file says {n}")
    return f


def _formatted(x):
    """The file form of a rational, a tuple of them or a table (one per value)."""
    if isinstance(x, ExplicitTable):
        D, ints = x._lifted
        text = {v: format_rational(Fraction(v, D)) for v in dict.fromkeys(ints)}
        return list(map(text.__getitem__, ints))
    return [format_rational(v) for v in x] if isinstance(x, tuple) else format_rational(x)


def _function_to_json(f: SuccessFunction) -> dict:
    """The file form: each declared parameter under its field name, the
    matroid or covers beside them."""
    obj = {"class": f.kind}
    for name in f._params:
        obj[name] = _formatted(f if isinstance(f, ExplicitTable) else getattr(f, name))
    if isinstance(f, Coverage):
        obj["covers"] = [sorted(c) for c in f.covers]
    elif isinstance(f, WeightedMatroidRank) and isinstance(f.matroid, UniformMatroid):
        obj["matroid"] = {"type": "uniform", "rank": f.matroid.rank}
    elif isinstance(f, WeightedMatroidRank):
        obj["matroid"] = {
            "type": "partition",
            "blocks": [sorted(b) for b in f.matroid.blocks],
            "capacities": list(f.matroid.capacities),
        }
    return obj


def loads_instance(text: str) -> Union[Instance, GeneralInstance]:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # also int literals over the digit limit
        raise DomainError(f"instance file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DomainError("instance file must be a JSON object")
    version = obj.get("version")
    if version != SCHEMA_VERSION:
        raise DomainError(f"unsupported schema version {version!r}")
    model = obj.get("model")
    if model == "binary":
        required, optional = {"function"}, {"scale"}
    elif model == "general":
        required, optional = {"rewards"}, {"distributions", "expected"}
    else:
        raise DomainError(f"unknown model {model!r}")
    _require_keys(
        obj,
        {"version", "model", "n", "costs"} | required,
        {"k", "meta"} | optional,
        "instance",
    )
    n = _int(obj["n"], "n")
    k = None if obj.get("k") is None else _int(obj["k"], "k")
    bits = k if k is not None and k > 0 else None  # the instance refuses a bad k
    if model == "binary":
        f = _function_from_json(obj["function"], n, bits)
        costs = _rat_list(obj["costs"], "costs", bits)
        scale = _rat(obj["scale"], "scale", bits) if "scale" in obj else Fraction(1)
        return Instance(f, costs, k=k, scale=scale, meta=obj.get("meta"))
    costs = _rat_list(obj["costs"], "costs", bits)
    rewards = _rat_list(obj["rewards"], "rewards", bits)
    distributions = expected = None
    if "distributions" in obj:
        distributions = tuple(
            _table(tab, n, "distributions", bits)
            for tab in _list(obj["distributions"], "distributions")
        )
    if "expected" in obj:
        expected = _function_from_json(obj["expected"], n, bits)
    return GeneralInstance(
        costs=costs,
        rewards=rewards,
        distributions=distributions,
        expected=expected,
        k=k,
        meta=obj.get("meta"),
    )


def _read_instance(path: str) -> tuple[Union[Instance, GeneralInstance], bytes]:
    """The instance parsed from the file's text, and its bytes, read once."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"instance file is not UTF-8 text: {exc}") from exc
    return loads_instance(text), data


def dumps_instance(inst: Union[Instance, GeneralInstance]) -> str:
    if not isinstance(inst, (Instance, GeneralInstance)):
        raise DomainError(f"cannot serialize {type(inst).__name__}")
    obj: dict = {
        "version": SCHEMA_VERSION,
        "n": inst.n,
        "costs": [format_rational(c) for c in inst.costs],
    }
    if isinstance(inst, Instance):
        obj["model"] = "binary"
        obj["function"] = _function_to_json(inst.f)
        if inst.scale != 1:
            obj["scale"] = format_rational(inst.scale)
    else:
        obj["model"] = "general"
        obj["rewards"] = [format_rational(r) for r in inst.rewards]
        if inst.distributions is not None:
            obj["distributions"] = [_formatted(tab) for tab in inst.distributions]
        if inst.expected is not None:
            obj["expected"] = _function_to_json(inst.expected)
    if inst.k is not None:
        obj["k"] = inst.k
    if inst.meta is not None:
        obj["meta"] = inst.meta
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dump_instance(inst: Union[Instance, GeneralInstance], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(inst))
