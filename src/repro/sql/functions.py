"""Builtin scalar functions and aggregates (Hive UDF/UDAF equivalents).

Scalar functions are plain callables over Python values with Hive's
NULL-propagation behaviour.  Aggregates follow the GenericUDAF protocol:
``create -> update* -> partial`` on the map side, ``merge* -> result`` on
the reduce side, which is what lets both engines do map-side partial
aggregation before the shuffle.

Dates are ISO-8601 strings (Hive's string-date idiom the TPC-H port
uses); ``year``/``month`` slice them and the ``date_add_*`` helpers do
real calendar arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import SemanticError
from repro.common.rows import DataType

# ---------------------------------------------------------------------------
# scalar functions
# ---------------------------------------------------------------------------

_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def _days_in_month(year: int, month: int) -> int:
    if month == 2 and _is_leap(year):
        return 29
    return _DAYS_IN_MONTH[month - 1]


def _split_date(text: str) -> Tuple[int, int, int]:
    parts = text.split("-")
    if len(parts) != 3:
        raise SemanticError(f"malformed date: {text!r}")
    return int(parts[0]), int(parts[1]), int(parts[2])


def _join_date(year: int, month: int, day: int) -> str:
    return f"{year:04d}-{month:02d}-{day:02d}"


def date_add_months(text: Optional[str], months) -> Optional[str]:
    """Calendar-correct ``date + INTERVAL n MONTH`` (day clamped)."""
    if text is None or months is None:
        return None
    year, month, day = _split_date(text)
    index = year * 12 + (month - 1) + int(months)
    year, month = index // 12, index % 12 + 1
    return _join_date(year, month, min(day, _days_in_month(year, month)))


def date_add_days(text: Optional[str], days) -> Optional[str]:
    """Calendar-correct ``date + INTERVAL n DAY``."""
    if text is None or days is None:
        return None
    year, month, day = _split_date(text)
    day += int(days)
    while day > _days_in_month(year, month):
        day -= _days_in_month(year, month)
        month += 1
        if month > 12:
            month, year = 1, year + 1
    while day < 1:
        month -= 1
        if month < 1:
            month, year = 12, year - 1
        day += _days_in_month(year, month)
    return _join_date(year, month, day)


def _fn_year(value):
    return None if value is None else int(str(value)[0:4])


def _fn_month(value):
    return None if value is None else int(str(value)[5:7])


def _fn_substr(value, start, length=None):
    if value is None or start is None:
        return None
    text = str(value)
    start = int(start)
    begin = start - 1 if start > 0 else len(text) + start
    begin = max(0, begin)
    if length is None:
        return text[begin:]
    return text[begin : begin + max(0, int(length))]


def _fn_concat(*args):
    if any(arg is None for arg in args):
        return None
    return "".join(str(arg) for arg in args)


def _fn_if(condition, then_value, else_value):
    return then_value if condition else else_value


def _fn_coalesce(*args):
    for arg in args:
        if arg is not None:
            return arg
    return None


def _fn_round(value, digits=0):
    if value is None or digits is None:
        return None
    rounded = round(float(value) + 1e-12, int(digits))
    return rounded if digits else float(int(rounded))


def _null_prop(fn: Callable) -> Callable:
    def wrapper(*args):
        if any(arg is None for arg in args):
            return None
        return fn(*args)

    return wrapper


@dataclass(frozen=True)
class ScalarFunction:
    name: str
    impl: Callable
    # fixed return type or a rule over argument types
    return_type: object  # DataType | Callable[[List[DataType]], DataType]
    min_args: int = 1
    max_args: int = 8

    def infer_type(self, arg_types: List[DataType]) -> DataType:
        if isinstance(self.return_type, DataType):
            return self.return_type
        return self.return_type(arg_types)


def _first_arg_type(arg_types: List[DataType]) -> DataType:
    return arg_types[0] if arg_types else DataType.STRING


def _second_arg_type(arg_types: List[DataType]) -> DataType:
    return arg_types[1] if len(arg_types) > 1 else DataType.STRING


SCALAR_FUNCTIONS: Dict[str, ScalarFunction] = {}


def _register(name: str, impl: Callable, return_type, min_args=1, max_args=8) -> None:
    SCALAR_FUNCTIONS[name] = ScalarFunction(name, impl, return_type, min_args, max_args)


_register("year", _fn_year, DataType.INT)
_register("month", _fn_month, DataType.INT)
_register("substr", _fn_substr, DataType.STRING, 2, 3)
_register("substring", _fn_substr, DataType.STRING, 2, 3)
_register("concat", _fn_concat, DataType.STRING, 1, 16)
_register("lower", _null_prop(lambda s: str(s).lower()), DataType.STRING)
_register("upper", _null_prop(lambda s: str(s).upper()), DataType.STRING)
_register("length", _null_prop(lambda s: len(str(s))), DataType.INT)
_register("trim", _null_prop(lambda s: str(s).strip()), DataType.STRING)
_register("abs", _null_prop(abs), _first_arg_type)
_register("floor", _null_prop(lambda x: int(math.floor(x))), DataType.BIGINT)
_register("ceil", _null_prop(lambda x: int(math.ceil(x))), DataType.BIGINT)
_register("sqrt", _null_prop(math.sqrt), DataType.DOUBLE)
_register("round", _fn_round, DataType.DOUBLE, 1, 2)
_register("if", _fn_if, _second_arg_type, 3, 3)
_register("coalesce", _fn_coalesce, _first_arg_type, 1, 16)
_register("date_add_months", date_add_months, DataType.DATE, 2, 2)
_register("date_add_days", date_add_days, DataType.DATE, 2, 2)
_register("hash_code", _null_prop(lambda s: hash(str(s)) & 0x7FFFFFFF), DataType.INT)


def get_scalar(name: str) -> ScalarFunction:
    try:
        return SCALAR_FUNCTIONS[name.lower()]
    except KeyError:
        raise SemanticError(f"unknown function: {name}") from None


def is_scalar(name: str) -> bool:
    return name.lower() in SCALAR_FUNCTIONS


# ---------------------------------------------------------------------------
# aggregates (GenericUDAF protocol)
# ---------------------------------------------------------------------------

class Aggregate:
    """Stateless descriptor; accumulators are plain tuples so they can be
    shuffled as partial values between map and reduce sides."""

    name: str = "abstract"

    def create(self):
        raise NotImplementedError

    def update(self, acc, value):
        raise NotImplementedError

    def merge(self, acc, partial):
        raise NotImplementedError

    def partial(self, acc) -> Tuple:
        """Serializable partial state (tuple of primitives)."""
        return acc

    def result(self, acc):
        raise NotImplementedError

    def result_type(self, arg_type: Optional[DataType]) -> DataType:
        raise NotImplementedError


class CountAggregate(Aggregate):
    name = "count"

    def create(self):
        return (0,)

    def update(self, acc, value):
        # COUNT(*) passes the sentinel True; COUNT(x) skips NULLs.
        if value is None:
            return acc
        return (acc[0] + 1,)

    def merge(self, acc, partial):
        return (acc[0] + partial[0],)

    def result(self, acc):
        return acc[0]

    def result_type(self, arg_type):
        return DataType.BIGINT


class SumAggregate(Aggregate):
    name = "sum"

    def create(self):
        return (None,)

    def update(self, acc, value):
        if value is None:
            return acc
        return (value if acc[0] is None else acc[0] + value,)

    def merge(self, acc, partial):
        if partial[0] is None:
            return acc
        return self.update(acc, partial[0])

    def result(self, acc):
        return acc[0]

    def result_type(self, arg_type):
        if arg_type in (DataType.INT, DataType.BIGINT):
            return DataType.BIGINT
        return DataType.DOUBLE


class AvgAggregate(Aggregate):
    name = "avg"

    def create(self):
        return (0.0, 0)

    def update(self, acc, value):
        if value is None:
            return acc
        return (acc[0] + value, acc[1] + 1)

    def merge(self, acc, partial):
        return (acc[0] + partial[0], acc[1] + partial[1])

    def result(self, acc):
        return acc[0] / acc[1] if acc[1] else None

    def result_type(self, arg_type):
        return DataType.DOUBLE


class MinAggregate(Aggregate):
    name = "min"

    def create(self):
        return (None,)

    def update(self, acc, value):
        if value is None:
            return acc
        if acc[0] is None or value < acc[0]:
            return (value,)
        return acc

    def merge(self, acc, partial):
        return self.update(acc, partial[0])

    def result(self, acc):
        return acc[0]

    def result_type(self, arg_type):
        return arg_type or DataType.STRING


class MaxAggregate(MinAggregate):
    name = "max"

    def update(self, acc, value):
        if value is None:
            return acc
        if acc[0] is None or value > acc[0]:
            return (value,)
        return acc


class CountDistinctAggregate(Aggregate):
    """COUNT(DISTINCT x).

    Holds a set; never shipped as a partial (the planner disables
    map-side aggregation when a distinct aggregate is present, matching
    Hive's plan shape), so :meth:`partial` raises by design.
    """

    name = "count_distinct"

    def create(self):
        return frozenset()

    def update(self, acc, value):
        if value is None:
            return acc
        return acc | {value}

    def merge(self, acc, partial):
        return acc | set(partial)

    def partial(self, acc):
        raise SemanticError("distinct aggregates cannot be partially shuffled")

    def result(self, acc):
        return len(acc)

    def result_type(self, arg_type):
        return DataType.BIGINT


AGGREGATES: Dict[str, Aggregate] = {
    agg.name: agg
    for agg in (
        CountAggregate(),
        SumAggregate(),
        AvgAggregate(),
        MinAggregate(),
        MaxAggregate(),
        CountDistinctAggregate(),
    )
}


def get_aggregate(name: str, distinct: bool = False) -> Aggregate:
    lowered = name.lower()
    if distinct:
        if lowered == "count":
            return AGGREGATES["count_distinct"]
        if lowered in ("sum", "avg", "min", "max"):
            # min/max distinct degenerate to plain; sum/avg distinct unsupported
            if lowered in ("min", "max"):
                return AGGREGATES[lowered]
            raise SemanticError(f"{name}(DISTINCT ...) is not supported")
    try:
        return AGGREGATES[lowered]
    except KeyError:
        raise SemanticError(f"unknown aggregate: {name}") from None


def is_aggregate(name: str) -> bool:
    return name.lower() in ("count", "sum", "avg", "min", "max")
