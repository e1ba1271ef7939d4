"""Process credentials: user and group identities.

The paper's UID variation protects the data the kernel consults when deciding
what a process may do.  This module provides that data model: the real,
effective and saved user/group ids of a process, together with the POSIX
rules that govern how ``setuid``-family system calls may change them.

Two representation details matter for the reproduction:

* UID values are 32-bit unsigned integers.  The paper's ``R_1`` reexpression
  function is ``u XOR 0x7FFFFFFF``, chosen over ``0xFFFFFFFF`` because the
  kernel treats "negative" UIDs (high bit set) specially.  We reproduce that
  constraint: :func:`validate_uid` rejects values with the sign bit set, so a
  full-flip reexpression really does break inside the simulated kernel (see
  the ablation benchmark).
* ``ROOT_UID`` is 0, and privilege checks are expressed through
  :meth:`Credentials.is_privileged` so that every decision point the attacker
  might target funnels through one place.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from repro.kernel.errors import Errno, KernelError

#: Number of bits in a uid_t / gid_t value.
UID_BITS = 32

#: Mask of all uid_t bits.
UID_MASK = (1 << UID_BITS) - 1

#: The superuser id.
ROOT_UID = 0

#: The superuser's primary group.
ROOT_GID = 0

#: Conventional "overflow"/nobody uid used for unmapped identities.
NOBODY_UID = 65534

#: Highest UID value the simulated kernel accepts.  UIDs with the sign bit
#: set are rejected, mirroring the Linux behaviour the paper cites as the
#: reason the authors could not flip the high bit in their reexpression
#: function.
MAX_VALID_UID = 0x7FFFFFFF


def validate_uid(value: int) -> int:
    """Validate *value* as a uid_t the kernel will accept.

    Returns the value unchanged if it is a non-negative integer that fits in
    31 bits.  Raises :class:`KernelError` with ``EINVAL`` otherwise.  This is
    the simulated analogue of the kernel's special treatment of negative UID
    values described in Section 3.2 of the paper.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise KernelError(Errno.EINVAL, f"uid must be an integer, got {value!r}")
    if value < 0:
        raise KernelError(Errno.EINVAL, f"negative uid {value}")
    if value > MAX_VALID_UID:
        raise KernelError(
            Errno.EINVAL,
            f"uid 0x{value:08x} has the sign bit set; the kernel treats such "
            "values as special and rejects them",
        )
    return value


def validate_gid(value: int) -> int:
    """Validate *value* as a gid_t; same rules as :func:`validate_uid`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise KernelError(Errno.EINVAL, f"gid must be an integer, got {value!r}")
    if value < 0 or value > MAX_VALID_UID:
        raise KernelError(Errno.EINVAL, f"invalid gid {value}")
    return value


@dataclasses.dataclass
class Credentials:
    """The identity of a simulated process.

    Follows the POSIX model of real / effective / saved ids.  The effective
    ids are the ones consulted for permission checks; the real and saved ids
    bound what an unprivileged process may switch its effective ids to.
    """

    ruid: int = ROOT_UID
    euid: int = ROOT_UID
    suid: int = ROOT_UID
    rgid: int = ROOT_GID
    egid: int = ROOT_GID
    sgid: int = ROOT_GID
    groups: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # A plain in-range int is checked in place (every process spawn builds
        # credentials); anything else goes to the validator, which raises.
        for uid in (self.ruid, self.euid, self.suid):
            if uid.__class__ is not int or not 0 <= uid <= MAX_VALID_UID:
                validate_uid(uid)
        for gid in (self.rgid, self.egid, self.sgid):
            if gid.__class__ is not int or not 0 <= gid <= MAX_VALID_UID:
                validate_gid(gid)
        self.groups = tuple(validate_gid(g) for g in self.groups) if self.groups else ()

    # -- queries ----------------------------------------------------------

    def is_privileged(self) -> bool:
        """True when the process runs with superuser privileges."""
        return self.euid == ROOT_UID

    def in_group(self, gid: int) -> bool:
        """True when *gid* is the effective group or a supplementary group."""
        return gid == self.egid or gid in self.groups

    def copy(self) -> "Credentials":
        """Return an independent copy of these credentials."""
        return dataclasses.replace(self)

    def as_tuple(self) -> tuple[int, ...]:
        """Canonical tuple form, used by the monitor for equivalence checks."""
        return (
            self.ruid,
            self.euid,
            self.suid,
            self.rgid,
            self.egid,
            self.sgid,
        ) + tuple(sorted(self.groups))

    # -- mutation following POSIX setuid/setgid semantics ------------------

    def setuid(self, uid: int) -> None:
        """Apply ``setuid(uid)`` semantics.

        A privileged process sets all three of real, effective and saved uid,
        irrevocably dropping privilege when *uid* is not root.  An
        unprivileged process may only switch to its real or saved uid.
        """
        validate_uid(uid)
        if self.is_privileged():
            self.ruid = self.euid = self.suid = uid
        elif uid in (self.ruid, self.suid):
            self.euid = uid
        else:
            raise KernelError(Errno.EPERM, f"setuid({uid}) not permitted")

    def seteuid(self, euid: int) -> None:
        """Apply ``seteuid(euid)`` semantics."""
        validate_uid(euid)
        # ``is_privileged()`` in place: the httpd drops and restores its
        # effective ids on every request.
        if self.euid == ROOT_UID or euid in (self.ruid, self.euid, self.suid):
            self.euid = euid
        else:
            raise KernelError(Errno.EPERM, f"seteuid({euid}) not permitted")

    def setreuid(self, ruid: int, euid: int) -> None:
        """Apply ``setreuid(ruid, euid)`` semantics; -1 leaves a field alone."""
        new_ruid = self.ruid if ruid == -1 else validate_uid(ruid)
        new_euid = self.euid if euid == -1 else validate_uid(euid)
        if not self.is_privileged():
            allowed = {self.ruid, self.euid, self.suid}
            if new_ruid not in allowed or new_euid not in allowed:
                raise KernelError(Errno.EPERM, "setreuid not permitted")
        # POSIX: if the real uid changes or the effective uid is set to a
        # value other than the previous real uid, the saved uid is set to the
        # new effective uid.
        if new_ruid != self.ruid or new_euid != self.ruid:
            self.suid = new_euid
        self.ruid = new_ruid
        self.euid = new_euid

    def setresuid(self, ruid: int, euid: int, suid: int) -> None:
        """Apply ``setresuid`` semantics; -1 leaves a field alone."""
        targets = []
        for requested, current in ((ruid, self.ruid), (euid, self.euid), (suid, self.suid)):
            targets.append(current if requested == -1 else validate_uid(requested))
        if not self.is_privileged():
            allowed = {self.ruid, self.euid, self.suid}
            for value in targets:
                if value not in allowed:
                    raise KernelError(Errno.EPERM, "setresuid not permitted")
        self.ruid, self.euid, self.suid = targets

    def setgid(self, gid: int) -> None:
        """Apply ``setgid(gid)`` semantics (mirror of :meth:`setuid`)."""
        validate_gid(gid)
        if self.is_privileged():
            self.rgid = self.egid = self.sgid = gid
        elif gid in (self.rgid, self.sgid):
            self.egid = gid
        else:
            raise KernelError(Errno.EPERM, f"setgid({gid}) not permitted")

    def setegid(self, egid: int) -> None:
        """Apply ``setegid(egid)`` semantics."""
        validate_gid(egid)
        if self.euid == ROOT_UID or egid in (self.rgid, self.egid, self.sgid):
            self.egid = egid
        else:
            raise KernelError(Errno.EPERM, f"setegid({egid}) not permitted")

    def setgroups(self, groups: Iterable[int]) -> None:
        """Apply ``setgroups`` semantics: privileged processes only."""
        if not self.is_privileged():
            raise KernelError(Errno.EPERM, "setgroups requires privilege")
        self.groups = tuple(validate_gid(g) for g in groups)


def root_credentials() -> Credentials:
    """Fresh credentials for a process started by init as root."""
    return Credentials()
