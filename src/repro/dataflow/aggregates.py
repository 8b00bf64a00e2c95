"""Aggregate functions available in OverLog heads (``min<>``, ``max<>``, ...)."""

from __future__ import annotations

from typing import Any, Callable, Dict, Sequence

from ..core import values
from ..core.errors import DataflowError

AggregateFunction = Callable[[Sequence[Any]], Any]


def agg_min(items: Sequence[Any]) -> Any:
    if not items:
        raise DataflowError("min over empty input")
    best = items[0]
    for item in items[1:]:
        if values.compare(item, best) < 0:
            best = item
    return best


def agg_max(items: Sequence[Any]) -> Any:
    if not items:
        raise DataflowError("max over empty input")
    best = items[0]
    for item in items[1:]:
        if values.compare(item, best) > 0:
            best = item
    return best


def agg_count(items: Sequence[Any]) -> int:
    return len(items)


def agg_sum(items: Sequence[Any]) -> Any:
    """Exact integer sum when every item is an int (not a bool), else float."""
    if all(isinstance(item, int) and not isinstance(item, bool) for item in items):
        return int(sum(items))
    total = 0.0
    for item in items:
        total += values.to_float(item)
    return total


def agg_avg(items: Sequence[Any]) -> float:
    if not items:
        raise DataflowError("avg over empty input")
    return agg_sum(items) / len(items)


AGGREGATES: Dict[str, AggregateFunction] = {
    "min": agg_min,
    "max": agg_max,
    "count": agg_count,
    "sum": agg_sum,
    "avg": agg_avg,
}

#: Aggregates that have a meaningful value on an empty group (only count).
EMPTY_GROUP_VALUE = {"count": 0}


def get_aggregate(name: str) -> AggregateFunction:
    try:
        return AGGREGATES[name]
    except KeyError:
        raise DataflowError(f"unknown aggregate function {name!r}") from None
