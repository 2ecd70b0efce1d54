"""Group-operation counting for cost accounting in benchmarks and serving.

The pairing and group layers call :func:`record_operation` on every
expensive primitive (pairing, G1 scalar multiplication, GT exponentiation,
hash-to-point).  Benchmarks activate an :class:`OperationCounter` context to
attribute those costs to a scheme operation, producing the per-operation
cost tables of experiment E1 without instrument-specific code in the
schemes themselves; the wire engine opens one per request.

Open counters live in a context variable, not in process-global state, so
a counter sees the operations of its own thread or task only.  Work handed
to another thread joins the counts of the code that handed it over when it
runs under :func:`contextvars.copy_context`.
"""

from __future__ import annotations

from contextvars import ContextVar

__all__ = ["OperationCounter", "record_operation", "count_operations", "SUBSTRATE_OPS"]

# What the pairing layer records: the operations a request's cost is made of
# (the result cache records its hits, misses and evictions beside them).
SUBSTRATE_OPS = frozenset(
    {"pairing", "pairing_extra", "miller_precompute", "hash_to_g1", "g1_mul", "gt_exp",
     "g1_decompress"}
)

# The counters open in this context, innermost last.
_OPEN: ContextVar[tuple["OperationCounter", ...]] = ContextVar(
    "repro_operation_counters", default=()
)


class OperationCounter:
    """A tally of expensive group operations; ``with`` it to count them."""

    def __init__(self):
        self.counts: dict[str, int] = {}

    def record(self, kind: str, amount: int = 1) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + amount

    def get(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    def as_dict(self) -> dict[str, int]:
        return dict(self.counts)

    def total(self) -> int:
        return sum(self.counts.values())

    def __enter__(self) -> "OperationCounter":
        self._token = _OPEN.set(_OPEN.get() + (self,))
        return self

    def __exit__(self, *_exc) -> bool:
        _OPEN.reset(self._token)
        return False

    def __repr__(self) -> str:
        inner = ", ".join("%s=%d" % (k, v) for k, v in sorted(self.counts.items()))
        return "OperationCounter(%s)" % inner


def record_operation(kind: str, amount: int = 1) -> None:
    """Record an operation against every counter open in this context."""
    for counter in _OPEN.get():
        counts = counter.counts
        counts[kind] = counts.get(kind, 0) + amount


def count_operations() -> OperationCounter:
    """A fresh counter, active for the ``with`` block it is used in.

    Counters nest: inner contexts do not steal counts from outer ones.
    """
    return OperationCounter()
