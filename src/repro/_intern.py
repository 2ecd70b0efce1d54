"""Bounded interning: one shared copy of a value held many times.

A long-running server files the same few values again and again into
its bounded logs: a tenant's name, a delegation's log record, the layout
of one call shape's trace or event records.  :func:`intern` keeps one
copy per distinct key in a table, so the logs hold references instead
of copies; a full table starts over, so a stream of distinct keys
cannot grow it.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["INTERN_LIMIT", "intern"]

# Distinct keys a table shares before it starts over.
INTERN_LIMIT = 1024


def intern(table: dict, key: Any, make: Callable[[Any], Any] | None = None) -> Any:
    """The value ``table`` shares for ``key``: on its first use, ``key``
    itself, or ``make(key)`` when ``make`` is given.  A hot path may try
    ``table.get(key)`` first and call this on a miss.  Racing callers
    may each make a value; the table stays whole."""
    value = table.get(key)
    if value is None:
        if len(table) >= INTERN_LIMIT:
            table.clear()
        value = table[key] = key if make is None else make(key)
    return value
