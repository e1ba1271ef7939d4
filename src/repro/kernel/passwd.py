"""User account databases: ``/etc/passwd`` and ``/etc/group``.

Apache (and our mini-httpd) maps the ``User``/``Group`` directives from its
configuration file to numeric UIDs/GIDs by reading these files.  Section 3.4
of the paper points out that this trusted external data must also be
reexpressed per variant, otherwise the untransformed UID would have the wrong
representation when it reaches the target interpreter.  The paper's solution
is *unshared files*: the framework keeps ``/etc/passwd-0`` and
``/etc/passwd-1``, identical except that UID/GID columns are transformed with
the respective variant's reexpression function.

This module provides parsing and formatting of the classic colon-separated
formats plus :func:`diversify_passwd` / :func:`diversify_group`, which apply a
reexpression function to the numeric columns to produce a variant's copy.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Iterable, Sequence

from repro.kernel.errors import Errno, KernelError


@dataclasses.dataclass(frozen=True)
class PasswdEntry:
    """One line of ``/etc/passwd``."""

    name: str
    password: str
    uid: int
    gid: int
    gecos: str
    home: str
    shell: str

    def format(self) -> str:
        """Render the entry back into passwd(5) format."""
        return ":".join(
            [
                self.name,
                self.password,
                str(self.uid),
                str(self.gid),
                self.gecos,
                self.home,
                self.shell,
            ]
        )


@dataclasses.dataclass(frozen=True)
class GroupEntry:
    """One line of ``/etc/group``."""

    name: str
    password: str
    gid: int
    members: tuple[str, ...]

    def format(self) -> str:
        """Render the entry back into group(5) format."""
        return ":".join([self.name, self.password, str(self.gid), ",".join(self.members)])


def parse_passwd(text: str) -> list[PasswdEntry]:
    """Parse the contents of an ``/etc/passwd`` file (a fresh list every call)."""
    return list(_parse_passwd(text))


def parse_group(text: str) -> list[GroupEntry]:
    """Parse the contents of an ``/etc/group`` file (a fresh list every call)."""
    return list(_parse_group(text))


# Every host and every httpd start-up parses the same few account-database
# texts, so parsing is memoised on the text.  The cache holds tuples of frozen
# entries, which no caller can mutate; a malformed text raises on every call
# because ``lru_cache`` does not cache exceptions.
@functools.lru_cache(maxsize=256)
def _parse_passwd(text: str) -> tuple[PasswdEntry, ...]:
    entries = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(":")
        if len(fields) != 7:
            raise KernelError(
                Errno.EINVAL, f"malformed passwd line {line_number}: expected 7 fields"
            )
        name, password, uid, gid, gecos, home, shell = fields
        entries.append(
            PasswdEntry(
                name=name,
                password=password,
                uid=int(uid),
                gid=int(gid),
                gecos=gecos,
                home=home,
                shell=shell,
            )
        )
    return tuple(entries)


@functools.lru_cache(maxsize=256)
def _parse_group(text: str) -> tuple[GroupEntry, ...]:
    entries = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(":")
        if len(fields) != 4:
            raise KernelError(
                Errno.EINVAL, f"malformed group line {line_number}: expected 4 fields"
            )
        name, password, gid, members = fields
        member_names = tuple(m for m in members.split(",") if m)
        entries.append(
            GroupEntry(name=name, password=password, gid=int(gid), members=member_names)
        )
    return tuple(entries)


def format_passwd(entries: Iterable[PasswdEntry]) -> str:
    """Render passwd entries into file contents (trailing newline included)."""
    lines = [entry.format() for entry in entries]
    return "\n".join(lines) + ("\n" if lines else "")


def format_group(entries: Iterable[GroupEntry]) -> str:
    """Render group entries into file contents (trailing newline included)."""
    lines = [entry.format() for entry in entries]
    return "\n".join(lines) + ("\n" if lines else "")


class UserDatabase:
    """Convenience lookups over parsed passwd/group entries.

    This is the user-space view that ``getpwnam``/``getgrnam`` style library
    routines provide; the mini-httpd uses it to turn its configured user and
    group names into numeric ids.
    """

    def __init__(self, passwd: Sequence[PasswdEntry], groups: Sequence[GroupEntry] = ()):
        self.passwd = list(passwd)
        self.groups = list(groups)

    @classmethod
    def from_text(cls, passwd_text: str, group_text: str = "") -> "UserDatabase":
        """Build a database from raw file contents."""
        return cls(parse_passwd(passwd_text), parse_group(group_text))

    def getpwnam(self, name: str) -> PasswdEntry:
        """Look up a passwd entry by user name."""
        for entry in self.passwd:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def getpwuid(self, uid: int) -> PasswdEntry:
        """Look up a passwd entry by uid."""
        for entry in self.passwd:
            if entry.uid == uid:
                return entry
        raise KeyError(uid)

    def getgrnam(self, name: str) -> GroupEntry:
        """Look up a group entry by group name."""
        for entry in self.groups:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def getgrgid(self, gid: int) -> GroupEntry:
        """Look up a group entry by gid."""
        for entry in self.groups:
            if entry.gid == gid:
                return entry
        raise KeyError(gid)


def diversify_passwd(
    entries: Iterable[PasswdEntry], reexpress: Callable[[int], int]
) -> list[PasswdEntry]:
    """Apply *reexpress* to the UID and GID columns of passwd entries.

    This is how the framework generates ``/etc/passwd-i`` for variant *i*:
    everything is identical except the numeric identity columns, which carry
    that variant's representation of each UID/GID.
    """
    return [
        PasswdEntry(
            name=entry.name,
            password=entry.password,
            uid=reexpress(entry.uid),
            gid=reexpress(entry.gid),
            gecos=entry.gecos,
            home=entry.home,
            shell=entry.shell,
        )
        for entry in entries
    ]


def diversify_group(
    entries: Iterable[GroupEntry], reexpress: Callable[[int], int]
) -> list[GroupEntry]:
    """Apply *reexpress* to the GID column of group entries."""
    return [
        GroupEntry(
            name=entry.name,
            password=entry.password,
            gid=reexpress(entry.gid),
            members=entry.members,
        )
        for entry in entries
    ]


def default_passwd_entries() -> list[PasswdEntry]:
    """A realistic default account database for the simulated host."""
    return [
        PasswdEntry("root", "x", 0, 0, "root", "/root", "/bin/sh"),
        PasswdEntry("daemon", "x", 1, 1, "daemon", "/usr/sbin", "/usr/sbin/nologin"),
        PasswdEntry("bin", "x", 2, 2, "bin", "/bin", "/usr/sbin/nologin"),
        PasswdEntry("www-data", "x", 33, 33, "www-data", "/var/www", "/usr/sbin/nologin"),
        PasswdEntry("backup", "x", 34, 34, "backup", "/var/backups", "/usr/sbin/nologin"),
        PasswdEntry("alice", "x", 1000, 1000, "Alice", "/home/alice", "/bin/sh"),
        PasswdEntry("bob", "x", 1001, 1001, "Bob", "/home/bob", "/bin/sh"),
        PasswdEntry("nobody", "x", 65534, 65534, "nobody", "/nonexistent", "/usr/sbin/nologin"),
    ]


def default_group_entries() -> list[GroupEntry]:
    """A realistic default group database for the simulated host."""
    return [
        GroupEntry("root", "x", 0, ()),
        GroupEntry("daemon", "x", 1, ()),
        GroupEntry("bin", "x", 2, ()),
        GroupEntry("www-data", "x", 33, ()),
        GroupEntry("backup", "x", 34, ()),
        GroupEntry("alice", "x", 1000, ("alice",)),
        GroupEntry("bob", "x", 1001, ("bob",)),
        GroupEntry("nogroup", "x", 65534, ()),
    ]
