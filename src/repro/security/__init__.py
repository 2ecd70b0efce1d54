"""Security games, adversary strategies, and executable property checks."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ablation": ("LabelOnlyPre", "LabelledCiphertext", "PolicyViolationError"),
        "adversaries": (
            "ALL_DR_CPA_ADVERSARIES",
            "ColludingDelegateeAdversary",
            "PreencObserverAdversary",
            "RandomGuessAdversary",
            "SideDomainAdversary",
            "TypeMixingAdversary",
        ),
        "games": (
            "GameResult",
            "IllegalQueryError",
            "IndIdCpaGame",
            "IndIdDrCpaGame",
            "OneWaynessGame",
            "estimate_advantage",
        ),
        "stats": ("AdvantageEstimate", "binomial_confidence_interval", "estimate_from_wins"),
        "properties": (
            "bbs_collusion_recovers_secret",
            "bbs_is_bidirectional",
            "dodis_ivan_collusion_recovers_secret",
            "tipre_collusion_recovers_only_type_key",
            "tipre_delegation_is_unidirectional",
            "tipre_is_non_interactive",
            "tipre_type_isolation_holds",
        ),
    },
)

__all__ = [
    "IndIdCpaGame",
    "OneWaynessGame",
    "IndIdDrCpaGame",
    "GameResult",
    "IllegalQueryError",
    "estimate_advantage",
    "RandomGuessAdversary",
    "TypeMixingAdversary",
    "ColludingDelegateeAdversary",
    "PreencObserverAdversary",
    "SideDomainAdversary",
    "ALL_DR_CPA_ADVERSARIES",
    "LabelOnlyPre",
    "LabelledCiphertext",
    "PolicyViolationError",
    "bbs_is_bidirectional",
    "bbs_collusion_recovers_secret",
    "dodis_ivan_collusion_recovers_secret",
    "tipre_collusion_recovers_only_type_key",
    "tipre_type_isolation_holds",
    "tipre_is_non_interactive",
    "tipre_delegation_is_unidirectional",
    "AdvantageEstimate",
    "binomial_confidence_interval",
    "estimate_from_wins",
]
