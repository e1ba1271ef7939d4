"""The probe primitive: checked reads against a keyed fleet.

A probe is a guess about where a keyed fleet keeps its data.  The probing
program maps one small "secret" region at a *nominal* address every variant
shares; under a keyed address scheme the region's concrete location differs
per variant and is unknown to the attacker.  Each probe then ``peek``\\ s one
candidate absolute address and immediately surfaces the outcome through
``cond_chk``:

* **unanimous miss** -- every variant gets EFAULT, ``cond_chk(False)`` agrees
  everywhere, the monitor stays silent and the attacker learns only that the
  guess was wrong;
* **partial hit** -- the guess lies inside *some* variant's region; that
  variant's ``cond_chk(True)`` diverges from its siblings' ``False`` and the
  monitor halts the session.  This is the detection event the
  probes-to-first-alarm metric counts;
* **unanimous hit** -- every variant reads data and the monitor stays silent:
  an undetected compromise.  Disjoint partitions make this impossible for
  N >= 2, which the `entropy` experiment claims as probes-to-success = never.

``peek`` executes per variant against each variant's own address space (it
belongs to no wrapper policy set), and its arguments are identical across
variants, so the probe itself never trips the request comparison -- only the
*outcome* divergence does, exactly like a real dereference would.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.api.builders import build_session
from repro.api.spec import SystemSpec
from repro.attacks.outcomes import PreparedAttack
from repro.engine.session import NVariantSession, SessionState
from repro.kernel.kernel import SimulatedKernel
from repro.memory.memory_model import MemoryRegion

#: Nominal address of the probed secret region.  Deliberately small so the
#: region fits every keyed scheme's per-partition capacity at any supported
#: ``key_bits`` (capacity >= 2^16 - slide).
SECRET_NOMINAL_BASE = 0x00001000

#: Size of the probed secret region in bytes.
SECRET_REGION_SIZE = 64

@dataclasses.dataclass(frozen=True)
class ProbeOutcome:
    """What one probe cell (one planned probe sequence) observed.

    Picklable and JSON-round-trippable: both backends finish a probe cell
    with the same dict :meth:`to_dict` produces, so a seeded trial is
    byte-identical across backends.
    """

    name: str
    strategy: str
    configuration: str
    num_variants: int
    key_bits: int
    planned: int
    #: 1-based index of the probe whose divergence raised the first alarm,
    #: or ``None`` when the whole plan ran silent.
    probes_to_first_alarm: Optional[int]
    #: 1-based index of the first *unanimous* hit (an undetected compromise),
    #: or ``None`` -- which disjoint partitions guarantee for N >= 2.
    probes_to_success: Optional[int]
    detail: str = ""

    @property
    def alarmed(self) -> bool:
        """True when the fleet caught the probe sequence."""
        return self.probes_to_first_alarm is not None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, value: dict) -> "ProbeOutcome":
        return cls(**value)


def make_probe_factory(addresses: Sequence[int]):
    """A program factory probing *addresses* in order against its own layout.

    Every variant runs the identical program (same probe list, same syscall
    sequence), maps the secret region at the shared nominal base -- the
    address space relocates it into the variant's secret partition -- and
    reports ``{"hits", "first_hit"}`` as its return value.
    """
    plan = tuple(int(address) for address in addresses)

    def factory(context):
        region = context.address_space.map_region(
            MemoryRegion("secret", SECRET_NOMINAL_BASE, SECRET_REGION_SIZE)
        )
        region.write(region.base, b"\x5a" * SECRET_REGION_SIZE)

        def program():
            hits = 0
            first_hit = None
            for number, address in enumerate(plan, start=1):
                result = yield context.libc.peek(address, 1)
                yield context.libc.cond_chk(result.ok)
                if result.ok:
                    hits += 1
                    if first_hit is None:
                        first_hit = number
            return {"hits": hits, "first_hit": first_hit}

        return program()

    return factory


def summarize_probe_session(
    session: NVariantSession,
    *,
    planned: int,
    name: str = "probe",
    strategy: str = "probe",
    configuration: Optional[str] = None,
) -> dict:
    """Reduce a finished probe session to a plain outcome dict.

    Each probe costs exactly two lockstep rounds (``peek`` then ``cond_chk``)
    and the alarm, when it comes, fires on the ``cond_chk`` round, so a
    halted session pins the alarming probe at ``rounds // 2``; a completed
    session spent one extra round retiring the generators.
    """
    halted = session.state is SessionState.HALTED
    result = session.result()
    spec_dict = {
        "name": name,
        "strategy": strategy,
        "configuration": configuration or session.name,
        "num_variants": session.num_variants,
        "planned": planned,
    }
    if halted:
        alarm = result.first_alarm()
        return {
            **spec_dict,
            "probes_to_first_alarm": session.rounds // 2,
            "probes_to_success": None,
            "detail": alarm.describe() if alarm is not None else "halted",
        }
    first_hits = [
        (variant.return_value or {}).get("first_hit") for variant in result.variants
    ]
    unanimous = first_hits[0] is not None and all(h == first_hits[0] for h in first_hits)
    return {
        **spec_dict,
        "probes_to_first_alarm": None,
        "probes_to_success": first_hits[0] if unanimous else None,
        "detail": "silent sweep" if not unanimous else "unanimous hit",
    }


def prepare_probe_cell(
    spec: SystemSpec,
    addresses: Sequence[int],
    *,
    name: Optional[str] = None,
    strategy: str = "probe",
    key_bits: int = 0,
) -> PreparedAttack:
    """One schedulable probe cell: a keyed fleet vs one planned probe sequence.

    Returns a :class:`~repro.attacks.outcomes.PreparedAttack` so probe cells
    ride the same campaign scheduler as every attack cell; ``finish`` returns
    the plain outcome dict (merge it into :class:`ProbeOutcome` driver-side).
    """
    cell_name = name or f"{strategy}@{spec.name}"
    plan = tuple(int(address) for address in addresses)

    def start():
        kernel = SimulatedKernel()
        return build_session(spec, kernel, make_probe_factory(plan), name=cell_name)

    def finish(session) -> dict:
        summary = summarize_probe_session(
            session,
            planned=len(plan),
            name=cell_name,
            strategy=strategy,
            configuration=spec.name,
        )
        summary["key_bits"] = key_bits
        return summary

    return PreparedAttack(cell_name, spec.name, start, finish)
