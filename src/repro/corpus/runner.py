"""Run corpus records through the campaign machinery, on either backend.

A record is pure data, so one job list drives both tiers: each record
becomes a :class:`~repro.engine.campaign.CampaignJob` whose preparer is
``functools.partial(prepare_record, record)``.  The virtual backend calls it
in process and interleaves the cell as a resumable session under the
campaign scheduler; the process backend pickles it to a pre-forked worker,
which builds the identical cell there.  Results come back in submission
order on both paths, and a seeded corpus produces byte-identical outcome
dicts either way -- the cross-backend scorecard equality the ``corpus``
experiment claims.
"""

from __future__ import annotations

import functools
from typing import Any, Mapping, Sequence

from repro.api.spec import SystemSpec
from repro.attacks.memory_attacks import AddressInjectionAttack
from repro.attacks.mutators import PartialPointerAttack, annotation_overflow_payload
from repro.attacks.outcomes import AttackOutcome, PreparedAttack, prepare_attack
from repro.attacks.payloads import uid_overwrite_payload
from repro.attacks.uid_attacks import UIDAttack
from repro.corpus.records import CorpusError, CorpusRecord
from repro.engine.campaign import CampaignJob, run_jobs
from repro.memory.corruption import CorruptionSpec


def build_attack(data: Mapping[str, Any]):
    """Rebuild the real attack object from a record's declarative dict."""
    kind = data.get("kind")
    name = str(data.get("name") or kind)
    description = str(data.get("description", ""))
    if kind == "uid-overwrite":
        return UIDAttack(
            name=name,
            description=description,
            payload=uid_overwrite_payload(
                int(data["uid"]), partial_bytes=int(data.get("partial_bytes", 4))
            ),
        )
    if kind == "annotation":
        return UIDAttack(
            name=name,
            description=description,
            payload=annotation_overflow_payload(
                int(data["length"]), path=str(data["path"])
            ),
        )
    if kind == "uid-corruption":
        return UIDAttack(
            name=name,
            description=description,
            corruption=CorruptionSpec(
                kind=str(data["corruption_kind"]),
                payload=int(data.get("payload", 0)),
                byte_count=int(data.get("byte_count", 4)),
            ),
        )
    if kind == "address-injection":
        return AddressInjectionAttack(
            name=name, description=description, address=int(data["address"])
        )
    if kind == "pointer-partial":
        return PartialPointerAttack(
            name=name,
            description=description,
            address=int(data["value"]),
            partial_bytes=int(data["partial_bytes"]),
        )
    raise CorpusError(f"unknown attack kind {kind!r} in record attack {data!r}")


#: The parsed spec of each distinct spec dict met, keyed on its ``repr``;
#: the oldest entry goes first once :data:`_SPEC_CACHE_SIZE` are held.
_SPECS: dict[str, SystemSpec] = {}
_SPEC_CACHE_SIZE = 256


def system_spec(data: Mapping[str, Any]) -> SystemSpec:
    """The :class:`~repro.api.spec.SystemSpec` a record's spec dict describes.

    A corpus carries few distinct specs (25 in the 240 records of the
    default seed), so each is parsed once.  The key is the dict's ``repr``:
    equal reprs mean equal JSON content, and a reordered dict only misses.
    The spec is frozen, so sharing it is safe; a malformed dict raises on
    every call, because only a parsed spec is stored.
    """
    key = repr(data)
    spec = _SPECS.get(key)
    if spec is None:
        spec = SystemSpec.from_dict(dict(data))
        if len(_SPECS) >= _SPEC_CACHE_SIZE:
            del _SPECS[next(iter(_SPECS))]
        _SPECS[key] = spec
    return spec


def prepare_record(record: CorpusRecord) -> PreparedAttack:
    """Build the runnable attack-x-configuration cell a record describes."""
    return prepare_attack(build_attack(record.attack), system_spec(record.spec))


def outcome_to_dict(outcome: AttackOutcome) -> dict[str, Any]:
    """A picklable, comparison-stable rendering of an attack outcome."""
    return {
        "attack": outcome.attack,
        "configuration": outcome.configuration,
        "kind": outcome.kind.value,
        "goal_reached": outcome.goal_reached,
        "detected": outcome.detected,
        "detail": outcome.detail,
    }


def run_corpus_records(
    records: Sequence[CorpusRecord],
    *,
    backend: str = "virtual",
    workers: int = 1,
) -> list[dict[str, Any]]:
    """Run every record; returns outcome dicts in record order.

    ``prepare_record`` is looked up when the jobs are built, so a wrapper
    installed over it (a per-cell clock, say) sees every cell.
    """
    jobs = [
        CampaignJob(record.record_id, functools.partial(prepare_record, record))
        for record in records
    ]
    execution = run_jobs(jobs, backend=backend, workers=workers)
    return [outcome_to_dict(job.value) for job in execution.jobs]
