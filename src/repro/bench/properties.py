"""E4 property-table generation, straight from the scheme registry.

The E4 comparison table (the Ateniese et al. property taxonomy the paper
cites) used to be assembled by hand wherever it was printed — the bench
adapters, the README, the CLI each carried their own copy of who is
unidirectional, non-interactive, collusion-safe, identity-based and
type-granular.  Since every backend now *declares* its
:class:`~repro.core.api.SchemeCapabilities`, the registry is the single
source of truth; this module renders the table from it, so registering
a backend updates every consumer and a drifted hand-written copy is a
test failure, not a silent lie.
"""

from __future__ import annotations

from repro.core.api import (
    CAPABILITY_NAMES,
    PROPERTY_NAMES,
    REGISTRY,
    SchemeRegistry,
)

__all__ = [
    "declared_property_matrix",
    "declared_capability_matrix",
    "property_table_rows",
]


def declared_property_matrix(
    registry: SchemeRegistry | None = None,
) -> dict[str, dict[str, bool]]:
    """Scheme id -> the five E4 property flags, from declared capabilities."""
    registry = REGISTRY if registry is None else registry
    return {
        scheme_id: registry.backend_class(scheme_id).capabilities.properties()
        for scheme_id in registry.ids()
    }


def declared_capability_matrix(
    registry: SchemeRegistry | None = None,
) -> dict[str, dict[str, bool]]:
    """Scheme id -> every capability flag (E4 properties + operational)."""
    registry = REGISTRY if registry is None else registry
    return {
        scheme_id: registry.backend_class(scheme_id).capabilities.as_dict()
        for scheme_id in registry.ids()
    }


def property_table_rows(
    registry: SchemeRegistry | None = None, flags: tuple[str, ...] = PROPERTY_NAMES
) -> list[list[str]]:
    """The E4 table as printable rows: scheme id, display name, yes/no flags.

    Pass ``flags=CAPABILITY_NAMES`` to include the operational
    ``deterministic_reencrypt`` column the service layer keys on.
    """
    unknown = [name for name in flags if name not in CAPABILITY_NAMES]
    if unknown:
        raise ValueError("unknown capability flags: %s" % ", ".join(unknown))
    registry = REGISTRY if registry is None else registry
    rows = []
    for scheme_id in registry.ids():
        backend_class = registry.backend_class(scheme_id)
        declared = backend_class.capabilities.as_dict()
        rows.append(
            [scheme_id, backend_class.display_name]
            + ["yes" if declared[name] else "no" for name in flags]
        )
    return rows
