"""Attack library: payload builders and spec-based attack drivers.

Campaigns (attacks x system specs) run through
:func:`repro.api.campaign.run_campaign`; the legacy ``CampaignConfiguration``
/ ``run_uid_campaign`` / ``run_address_campaign`` shims were removed after
their one-release deprecation window.  :class:`~repro.api.campaign.CampaignReport`
stays importable from here for report-consuming callers.
"""

from repro.api.campaign import CampaignReport
from repro.attacks.code_injection import (
    CodeInjectionAttack,
    run_code_injection_tagged,
    run_code_injection_untagged,
)
from repro.attacks.memory_attacks import (
    AddressInjectionAttack,
    INJECTED_ABSOLUTE_ADDRESS,
    run_address_attack_nvariant,
    run_address_attack_single,
    standard_address_attacks,
)
from repro.attacks.outcomes import AttackOutcome, OutcomeKind, classify
from repro.attacks.payloads import (
    DEFAULT_TARGET_FILE,
    OverflowSpec,
    banner_pointer_payload,
    benign_request,
    traversal_path,
    uid_overwrite_payload,
)
from repro.attacks.uid_attacks import (
    SHADOW_MARKER,
    UIDAttack,
    run_remote_attack_nvariant,
    run_remote_attack_single,
    run_uid_attack,
    standard_uid_attacks,
)

__all__ = [
    "AddressInjectionAttack",
    "AttackOutcome",
    "CampaignReport",
    "CodeInjectionAttack",
    "DEFAULT_TARGET_FILE",
    "INJECTED_ABSOLUTE_ADDRESS",
    "OutcomeKind",
    "OverflowSpec",
    "SHADOW_MARKER",
    "UIDAttack",
    "banner_pointer_payload",
    "benign_request",
    "classify",
    "run_address_attack_nvariant",
    "run_address_attack_single",
    "run_code_injection_tagged",
    "run_code_injection_untagged",
    "run_remote_attack_nvariant",
    "run_remote_attack_single",
    "run_uid_attack",
    "standard_address_attacks",
    "standard_uid_attacks",
    "traversal_path",
    "uid_overwrite_payload",
]
