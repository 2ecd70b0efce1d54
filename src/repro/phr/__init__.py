"""The fine-grained PHR disclosure application (paper Section 5)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "actors": ("AccessDeniedError", "CategoryProxy", "Patient", "Requester"),
        "bundle": ("BundleError", "export_bundle", "import_bundle"),
        "recovery": ("KeyCustodianShare", "backup_private_key", "recover_private_key"),
        "audit": ("AuditEvent", "AuditLog"),
        "generator": ("PhrGenerator", "WorkloadMix"),
        "policy": ("DisclosurePolicy", "Grant"),
        "records": ("DEFAULT_TAXONOMY", "PhrCategory", "PhrEntry", "Sensitivity"),
        "store": ("EncryptedPhrStore", "FilePhrStore"),
        "stored": ("EntryNotFoundError", "StoredRecord"),
        "workflow": ("PhrSystem",),
    },
)

__all__ = [
    "PhrSystem",
    "Patient",
    "Requester",
    "CategoryProxy",
    "AccessDeniedError",
    "PhrEntry",
    "PhrCategory",
    "DEFAULT_TAXONOMY",
    "Sensitivity",
    "DisclosurePolicy",
    "Grant",
    "EncryptedPhrStore",
    "FilePhrStore",
    "StoredRecord",
    "EntryNotFoundError",
    "AuditLog",
    "AuditEvent",
    "PhrGenerator",
    "WorkloadMix",
    "export_bundle",
    "import_bundle",
    "BundleError",
    "backup_private_key",
    "recover_private_key",
    "KeyCustodianShare",
]
