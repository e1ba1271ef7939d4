"""In-memory Unix-like virtual filesystem.

The paper's case study depends on the filesystem in two ways:

* Apache reads trusted configuration data (``/etc/passwd``, ``/etc/group``,
  ``httpd.conf``) whose UID contents must be diversified per variant -- the
  *unshared files* mechanism of Section 3.4 opens ``/etc/passwd-0`` for
  variant 0 and ``/etc/passwd-1`` for variant 1.
* Whether a request succeeds depends on file permissions checked against the
  server's (possibly corrupted) credentials, which is exactly what the UID
  attack tries to subvert.

This module provides a small but complete VFS: hierarchical directories,
regular files with byte contents, ownership and permission bits, and
permission checks that consult :class:`~repro.kernel.credentials.Credentials`.
"""

from __future__ import annotations

import dataclasses
import posixpath
import stat as stat_module
from typing import Iterator

from repro.kernel.credentials import Credentials, ROOT_GID, ROOT_UID
from repro.kernel.errors import Errno, KernelError

# Permission bit masks (same values as the POSIX ones).
S_IRUSR = 0o400
S_IWUSR = 0o200
S_IXUSR = 0o100
S_IRGRP = 0o040
S_IWGRP = 0o020
S_IXGRP = 0o010
S_IROTH = 0o004
S_IWOTH = 0o002
S_IXOTH = 0o001

# ``access`` / permission-check modes.
R_OK = 4
W_OK = 2
X_OK = 1
F_OK = 0

# ``open`` flags (subset).
O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_CREAT = 0o100
O_TRUNC = 0o1000
O_APPEND = 0o2000
O_ACCMODE = 0o3


@dataclasses.dataclass(frozen=True)
class StatResult:
    """Result of ``stat``/``fstat``: the canonical metadata of an inode."""

    inode_number: int
    mode: int
    uid: int
    gid: int
    size: int
    is_directory: bool

    def as_tuple(self) -> tuple[int, ...]:
        """Tuple form used by monitors when comparing stat results."""
        return (
            self.inode_number,
            self.mode,
            self.uid,
            self.gid,
            self.size,
            int(self.is_directory),
        )


class Inode:
    """A filesystem object: either a regular file or a directory.

    The owning :class:`FileSystem` assigns ``number``, so a fresh filesystem
    numbers its inodes the same way however many were built before it; a
    bare inode made outside any filesystem is number 0.

    ``data`` is copy-on-write: it holds immutable ``bytes``, which clones
    share, until the first in-place write turns it into this inode's own
    ``bytearray`` (:meth:`mutable_data`).
    """

    __slots__ = ("number", "mode", "uid", "gid", "is_directory", "data", "entries")

    def __init__(
        self, *, mode: int, uid: int, gid: int, is_directory: bool, number: int = 0
    ):
        self.number = number
        self.mode = mode
        self.uid = uid
        self.gid = gid
        self.is_directory = is_directory
        self.data: bytes | bytearray = b""
        self.entries: dict[str, "Inode"] = {}

    def clone(self) -> "Inode":
        """A copy of this inode and its subtree: new objects, shared immutable data."""
        # Every standard host is a clone, so this skips ``__init__`` and its
        # throwaway dict.
        copy = Inode.__new__(Inode)
        copy.number = self.number
        copy.mode = self.mode
        copy.uid = self.uid
        copy.gid = self.gid
        copy.is_directory = self.is_directory
        # ``bytes`` of a ``bytes`` is the same object; a mutated buffer is copied.
        copy.data = bytes(self.data)
        copy.entries = {name: child.clone() for name, child in self.entries.items()}
        return copy

    def mutable_data(self) -> bytearray:
        """This inode's own writable buffer, made from ``data`` on first use."""
        data = self.data
        if type(data) is not bytearray:
            data = self.data = bytearray(data)
        return data

    # -- metadata ----------------------------------------------------------

    @property
    def size(self) -> int:
        """Size in bytes (0 for directories)."""
        return 0 if self.is_directory else len(self.data)

    def stat(self) -> StatResult:
        """Return the :class:`StatResult` describing this inode."""
        file_type = stat_module.S_IFDIR if self.is_directory else stat_module.S_IFREG
        return StatResult(
            inode_number=self.number,
            mode=file_type | self.mode,
            uid=self.uid,
            gid=self.gid,
            size=self.size,
            is_directory=self.is_directory,
        )

    # -- permission checking ------------------------------------------------

    def permits(self, creds: Credentials, want: int) -> bool:
        """Check whether *creds* grants the access bits in *want* (R/W/X_OK).

        Root bypasses read/write checks and execute checks when any execute
        bit is set, mirroring Unix semantics.
        """
        if want == F_OK:
            return True
        if creds.euid == ROOT_UID:
            if want & X_OK and not self.is_directory:
                any_exec = self.mode & (S_IXUSR | S_IXGRP | S_IXOTH)
                return bool(any_exec)
            return True
        if creds.euid == self.uid:
            shift = 6
        elif creds.in_group(self.gid):
            shift = 3
        else:
            shift = 0
        granted = (self.mode >> shift) & 0o7
        return (granted & want) == want


class FileSystem:
    """A tree of :class:`Inode` objects rooted at ``/``."""

    def __init__(self) -> None:
        self._next_number = 1
        self.root = self._new_inode(mode=0o755, uid=ROOT_UID, gid=ROOT_GID, is_directory=True)

    def _new_inode(self, *, mode: int, uid: int, gid: int, is_directory: bool) -> Inode:
        node = Inode(
            mode=mode, uid=uid, gid=gid, is_directory=is_directory, number=self._next_number
        )
        self._next_number += 1
        return node

    def clone(self) -> "FileSystem":
        """A structural copy: new inodes, same numbers, metadata and data bytes.

        File contents are shared until one side writes in place (see
        :class:`Inode`), so a clone costs one object per inode.  The copy
        numbers the inodes it creates from where this filesystem would, so a
        clone of a fresh build behaves exactly like that build.
        """
        copy = FileSystem.__new__(FileSystem)
        copy._next_number = self._next_number
        copy.root = self.root.clone()
        return copy

    # -- path handling -------------------------------------------------------

    @staticmethod
    def _normalize(path: str) -> str:
        if not path or not path.startswith("/"):
            raise KernelError(Errno.EINVAL, f"path must be absolute: {path!r}")
        # Without an empty, "." or ".." component there is nothing to
        # normalise, and almost every path a program passes has none.
        if "//" in path or "/." in path or path.endswith("/"):
            return posixpath.normpath(path)
        return path

    @staticmethod
    def split(path: str) -> list[str]:
        """Split an absolute path into its components (no empty parts)."""
        normalized = FileSystem._normalize(path)
        if normalized == "/":
            return []
        return list(filter(None, normalized.split("/")))

    def _lookup(self, path: str) -> Inode:
        node = self.root
        for part in self.split(path):
            if not node.is_directory:
                raise KernelError(Errno.ENOTDIR, path)
            child = node.entries.get(part)
            if child is None:
                raise KernelError(Errno.ENOENT, path)
            node = child
        return node

    def _lookup_parent(self, path: str) -> tuple[Inode, str]:
        parts = self.split(path)
        if not parts:
            raise KernelError(Errno.EINVAL, "cannot operate on /")
        parent = self.root
        for part in parts[:-1]:
            child = parent.entries.get(part)
            if child is None:
                raise KernelError(Errno.ENOENT, path)
            if not child.is_directory:
                raise KernelError(Errno.ENOTDIR, path)
            parent = child
        return parent, parts[-1]

    # -- queries -------------------------------------------------------------

    def exists(self, path: str) -> bool:
        """True if *path* resolves to an inode."""
        try:
            self._lookup(path)
        except KernelError:
            return False
        return True

    def lookup(self, path: str) -> Inode:
        """Resolve *path* to its inode, raising ``ENOENT``/``ENOTDIR``."""
        return self._lookup(path)

    def stat(self, path: str) -> StatResult:
        """``stat`` the inode at *path*."""
        return self._lookup(path).stat()

    def listdir(self, path: str) -> list[str]:
        """Return the sorted names in the directory at *path*."""
        node = self._lookup(path)
        if not node.is_directory:
            raise KernelError(Errno.ENOTDIR, path)
        return sorted(node.entries)

    def walk(self, path: str = "/") -> Iterator[tuple[str, Inode]]:
        """Yield ``(path, inode)`` pairs for the subtree rooted at *path*."""
        node = self._lookup(path)
        yield self._normalize(path), node
        if node.is_directory:
            base = self._normalize(path)
            for name in sorted(node.entries):
                child_path = posixpath.join(base, name)
                yield from self.walk(child_path)

    def access(self, path: str, creds: Credentials, mode: int) -> bool:
        """Check whether *creds* may access *path* with *mode* (R/W/X/F_OK)."""
        node = self._lookup(path)
        return node.permits(creds, mode)

    # -- mutation --------------------------------------------------------------

    def mkdir(
        self,
        path: str,
        *,
        mode: int = 0o755,
        uid: int = ROOT_UID,
        gid: int = ROOT_GID,
        parents: bool = False,
    ) -> Inode:
        """Create a directory at *path*.

        With *parents*, every missing component is created in one walk and
        existing directories are kept (``mkdir -p``).
        """
        if parents:
            node = self.root
            for part in self.split(path):
                child = node.entries.get(part)
                if child is None:
                    child = self._new_inode(mode=mode, uid=uid, gid=gid, is_directory=True)
                    node.entries[part] = child
                elif not child.is_directory:
                    raise KernelError(Errno.ENOTDIR, path)
                node = child
            return node
        parent, name = self._lookup_parent(path)
        if name in parent.entries:
            raise KernelError(Errno.EEXIST, path)
        node = self._new_inode(mode=mode, uid=uid, gid=gid, is_directory=True)
        parent.entries[name] = node
        return node

    def create_file(
        self,
        path: str,
        content: bytes | str = b"",
        *,
        mode: int = 0o644,
        uid: int = ROOT_UID,
        gid: int = ROOT_GID,
    ) -> Inode:
        """Create (or replace) a regular file at *path* with *content*."""
        if isinstance(content, str):
            content = content.encode()
        parent, name = self._lookup_parent(path)
        existing = parent.entries.get(name)
        if existing is not None and existing.is_directory:
            raise KernelError(Errno.EISDIR, path)
        node = self._new_inode(mode=mode, uid=uid, gid=gid, is_directory=False)
        node.data = bytes(content)
        parent.entries[name] = node
        return node

    def read_file(self, path: str) -> bytes:
        """Return the full content of the file at *path*."""
        node = self._lookup(path)
        if node.is_directory:
            raise KernelError(Errno.EISDIR, path)
        return bytes(node.data)

    def unlink(self, path: str) -> None:
        """Remove the file at *path*."""
        parent, name = self._lookup_parent(path)
        node = parent.entries.get(name)
        if node is None:
            raise KernelError(Errno.ENOENT, path)
        if node.is_directory:
            if node.entries:
                raise KernelError(Errno.ENOTEMPTY, path)
        del parent.entries[name]

    def rename(self, old: str, new: str) -> None:
        """Rename/move the inode at *old* to *new*.

        Renaming a path onto itself does nothing, and a directory cannot be
        moved into its own subtree (``EINVAL``).
        """
        node = self._lookup(old)
        new_parent, new_name = self._lookup_parent(new)
        old_parent, old_name = self._lookup_parent(old)
        old_parts, new_parts = self.split(old), self.split(new)
        if new_parts == old_parts:
            return
        if node.is_directory and new_parts[: len(old_parts)] == old_parts:
            raise KernelError(Errno.EINVAL, f"cannot move {old} into itself")
        new_parent.entries[new_name] = node
        del old_parent.entries[old_name]

    def chown(self, path: str, uid: int, gid: int) -> None:
        """Change ownership of the inode at *path* (-1 leaves a field alone)."""
        node = self._lookup(path)
        if uid != -1:
            node.uid = uid
        if gid != -1:
            node.gid = gid

    def chmod(self, path: str, mode: int) -> None:
        """Change the permission bits of the inode at *path*."""
        node = self._lookup(path)
        node.mode = mode & 0o7777
