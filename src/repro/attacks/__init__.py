"""Attack library: payload builders and spec-based attack drivers.

Campaigns (attacks x system specs) run through
:func:`repro.api.campaign.run_campaign`; the legacy ``CampaignConfiguration``
/ ``run_uid_campaign`` / ``run_address_campaign`` shims were removed after
their one-release deprecation window.  :class:`~repro.api.campaign.CampaignReport`
stays importable from here for report-consuming callers.
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
            "run_address_attack_nvariant",
            "run_address_attack_single",
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
            "run_remote_attack_nvariant",
            "run_remote_attack_single",
            "run_uid_attack",
            "standard_uid_attacks",
        ),
    },
)
