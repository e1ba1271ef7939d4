"""Per-process file descriptor tables and open-file objects.

Section 3.4 of the paper modifies the kernel so that *each variant keeps its
own file table*, kept slot-synchronised across variants: slot *n* of variant
0's table corresponds to slot *n* of variant 1's table, and a shared-file
bitmap records whether a given slot refers to a shared file (one physical
file, I/O performed once, result replicated) or an unshared file (each
variant has its own diversified copy and performs its own I/O).

The :class:`FileDescriptorTable` here models one variant's table; the
shared/unshared bookkeeping lives in the N-variant wrapper layer
(:mod:`repro.core.wrappers`), mirroring where the paper put it (the kernel's
wrapper code rather than per-process state).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.kernel.errors import Errno, KernelError
from repro.kernel.filesystem import Inode, O_ACCMODE, O_APPEND, O_RDONLY, O_RDWR, O_WRONLY


@dataclasses.dataclass
class OpenFile:
    """An open file description: inode reference, offset and flags."""

    inode: Inode
    flags: int
    offset: int = 0
    path: str = ""

    def read(self, count: int) -> bytes:
        """Read up to *count* bytes from the current offset."""
        if (self.flags & O_ACCMODE) not in (O_RDONLY, O_RDWR):
            raise KernelError(Errno.EBADF, f"{self.path} not open for reading")
        if count < 0:
            raise KernelError(Errno.EINVAL, "negative read count")
        data = bytes(self.inode.data[self.offset : self.offset + count])
        self.offset += len(data)
        return data

    def write(self, data: bytes) -> int:
        """Write *data* at the current offset (append if O_APPEND)."""
        if (self.flags & O_ACCMODE) not in (O_WRONLY, O_RDWR):
            raise KernelError(Errno.EBADF, f"{self.path} not open for writing")
        buffer = self.inode.mutable_data()
        if self.flags & O_APPEND:
            self.offset = len(buffer)
        end = self.offset + len(data)
        if end > len(buffer):
            buffer.extend(b"\x00" * (end - len(buffer)))
        buffer[self.offset : end] = data
        self.offset = end
        return len(data)

    def seek(self, offset: int, whence: int) -> int:
        """Reposition the offset (whence: 0=SET, 1=CUR, 2=END)."""
        if whence == 0:
            new_offset = offset
        elif whence == 1:
            new_offset = self.offset + offset
        elif whence == 2:
            new_offset = len(self.inode.data) + offset
        else:
            raise KernelError(Errno.EINVAL, f"bad whence {whence}")
        if new_offset < 0:
            raise KernelError(Errno.EINVAL, "negative seek offset")
        self.offset = new_offset
        return self.offset


@dataclasses.dataclass
class SocketDescriptor:
    """A descriptor referring to a simulated socket endpoint.

    ``endpoint`` is either a :class:`~repro.kernel.network.ListeningSocket`
    or a :class:`~repro.kernel.network.Connection`; the kernel dispatches on
    the concrete type.
    """

    endpoint: object
    path: str = "<socket>"


class FileDescriptorTable:
    """One process's (or variant's) descriptor table.

    Descriptors are small integers allocated lowest-free-first, as on Unix.
    A configurable limit models ``EMFILE``.
    """

    def __init__(self, max_descriptors: int = 256):
        self.max_descriptors = max_descriptors
        self._table: dict[int, OpenFile | SocketDescriptor] = {}

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, fd: int) -> bool:
        return fd in self._table

    def descriptors(self) -> list[int]:
        """Return the currently allocated descriptor numbers, sorted."""
        return sorted(self._table)

    def allocate(self, entry: OpenFile | SocketDescriptor) -> int:
        """Install *entry* at the lowest free descriptor and return it."""
        for fd in range(self.max_descriptors):
            if fd not in self._table:
                self._table[fd] = entry
                return fd
        raise KernelError(Errno.EMFILE, "too many open files")

    def install(self, fd: int, entry: OpenFile | SocketDescriptor) -> None:
        """Install *entry* at a specific descriptor number (used by the
        unshared-files machinery to keep variant tables slot-aligned)."""
        if fd < 0 or fd >= self.max_descriptors:
            raise KernelError(Errno.EBADF, f"descriptor {fd} out of range")
        self._table[fd] = entry

    def get(self, fd: int) -> OpenFile | SocketDescriptor:
        """Look up descriptor *fd*, raising ``EBADF`` if not open."""
        entry = self._table.get(fd)
        if entry is None:
            raise KernelError(Errno.EBADF, f"bad file descriptor {fd}")
        return entry

    def get_file(self, fd: int) -> OpenFile:
        """Look up *fd* expecting a regular open file."""
        entry = self._table.get(fd)
        if not isinstance(entry, OpenFile):
            self.get(fd)  # EBADF when nothing is open at fd
            raise KernelError(Errno.EINVAL, f"descriptor {fd} is not a file")
        return entry

    def get_socket(self, fd: int) -> SocketDescriptor:
        """Look up *fd* expecting a socket."""
        entry = self._table.get(fd)
        if not isinstance(entry, SocketDescriptor):
            self.get(fd)  # EBADF when nothing is open at fd
            raise KernelError(Errno.ENOTSOCK, f"descriptor {fd} is not a socket")
        return entry

    def close(self, fd: int) -> None:
        """Close descriptor *fd*."""
        if fd not in self._table:
            raise KernelError(Errno.EBADF, f"bad file descriptor {fd}")
        del self._table[fd]

    def close_all(self) -> None:
        """Close every descriptor (process exit)."""
        self._table.clear()

    def peek(self, fd: int) -> Optional[OpenFile | SocketDescriptor]:
        """Return the entry at *fd* or ``None`` without raising."""
        return self._table.get(fd)
