#!/usr/bin/env python3
"""Figure 1 walkthrough: address-space partitioning and pointer injection.

Shows the complementary variation from the original N-variant systems work:
the two variants occupy disjoint halves of the address space, so an injected
absolute pointer (delivered here by overflowing the mini-httpd's header
buffer into its banner pointer) can be valid in at most one variant.  The
sibling variant's segmentation fault is the detection event.

Also demonstrates why this variation does *not* stop the UID attack (the
corrupted UID is an ordinary data value, valid in both address spaces), which
is the gap the paper's data diversity fills.
"""

from repro import ADDRESS_ORBIT_3_SPEC, ADDRESS_PARTITIONING_SPEC, SINGLE_PROCESS_SPEC, run_attack
from repro.attacks.memory_attacks import standard_address_attacks
from repro.attacks.uid_attacks import standard_uid_attacks
from repro.memory.address_space import AddressSpace
from repro.memory.memory_model import MemoryRegion
from repro.memory.partition import high_bit_scheme, orbit_scheme


def show_partitions() -> None:
    """Print how the same nominal region lands in each variant's partition."""
    print("Address layout of the same nominal region under each scheme:")
    for scheme in (high_bit_scheme(), orbit_scheme(3)):
        print(f"  {scheme.describe()}:")
        for index in range(scheme.num_partitions):
            space = AddressSpace(scheme=scheme, index=index)
            region = space.map_region(MemoryRegion("server-state", 0x00400000, 256))
            print(f"    variant {index}: server-state mapped at 0x{region.base:08X}")
    print()


def main() -> None:
    show_partitions()

    print("Absolute-address injection attacks:")
    for attack in standard_address_attacks():
        single = run_attack(attack, SINGLE_PROCESS_SPEC)
        redundant = run_attack(attack, ADDRESS_PARTITIONING_SPEC)
        orbit = run_attack(attack, ADDRESS_ORBIT_3_SPEC)
        print(f"  {attack.name}")
        print(f"    single process        : {single.kind.value}")
        print(f"    2-variant partitioned : {redundant.kind.value} -- {redundant.detail}")
        print(f"    3-variant orbit       : {orbit.kind.value} -- {orbit.detail}")
    print()

    print("The UID-corruption attack against address partitioning alone:")
    uid_attack = next(a for a in standard_uid_attacks() if a.name == "full-word-root-overwrite")
    outcome = run_attack(uid_attack, ADDRESS_PARTITIONING_SPEC)
    print(f"  {uid_attack.name}: {outcome.kind.value}")
    print("  (address partitioning does not defend non-control data; the UID")
    print("   variation of the paper exists exactly for this attack class)")


if __name__ == "__main__":
    main()
