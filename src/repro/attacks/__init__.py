"""Attack library: the attack families, their payloads and their cells.

Each family -- UID corruption (:mod:`repro.attacks.uid_attacks`) and
address injection (:mod:`repro.attacks.memory_attacks`) -- has one cell
builder that takes any :class:`~repro.api.spec.SystemSpec`, the one-variant
baseline included.  Run one attack against one system with
:func:`repro.api.campaign.run_attack`, and attacks x system specs with
:func:`repro.api.campaign.run_campaign`.
:class:`~repro.api.campaign.CampaignReport` stays importable from here for
report-consuming callers.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.api.campaign": ("CampaignReport",),
        "repro.attacks.code_injection": (
            "CodeInjectionAttack",
            "run_code_injection_tagged",
            "run_code_injection_untagged",
        ),
        "repro.attacks.memory_attacks": (
            "AddressInjectionAttack",
            "INJECTED_ABSOLUTE_ADDRESS",
            "standard_address_attacks",
        ),
        "repro.attacks.outcomes": ("AttackOutcome", "OutcomeKind", "classify"),
        "repro.attacks.payloads": (
            "DEFAULT_TARGET_FILE",
            "OverflowSpec",
            "banner_pointer_payload",
            "benign_request",
            "traversal_path",
            "uid_overwrite_payload",
        ),
        "repro.attacks.uid_attacks": (
            "SHADOW_MARKER",
            "UIDAttack",
            "standard_uid_attacks",
        ),
    },
)
