"""Attack library: the attack families, their payloads and their cells.

Each family -- UID corruption (:mod:`repro.attacks.uid_attacks`) and
address injection (:mod:`repro.attacks.memory_attacks`) -- has one cell
builder that takes any :class:`~repro.api.spec.SystemSpec`, the one-variant
baseline included.  Run one attack against one system with
:func:`repro.api.campaign.run_attack`, and attacks x system specs with
:func:`repro.api.campaign.run_campaign`.
"""
