"""Benchmark instrumentation: operation counters, timers, table rendering."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "counters": ("OperationCounter", "count_operations", "record_operation"),
        "report": ("print_table", "render_table"),
        "timing": ("TimedResult", "measure"),
    },
)

__all__ = [
    "OperationCounter",
    "count_operations",
    "record_operation",
    "TimedResult",
    "measure",
    "render_table",
    "print_table",
]
