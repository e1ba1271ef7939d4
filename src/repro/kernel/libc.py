"""A tiny "libc" for simulated programs.

Programs are generators that yield system-call requests and receive each
call's :class:`~repro.kernel.syscalls.SyscallResult` as the value of the
``yield``.  :class:`Libc` provides named helpers that build those requests,
so program code reads like ordinary C-with-syscalls::

    result = yield libc.open("/etc/passwd", O_RDONLY)
    if result.ok:
        data = (yield libc.read(result.value, 4096)).value

A helper is a plain function that returns its request: the program traps
with one ``yield``, and no generator is made per call.  The program gets the
raw result, so it implements its own error handling (the mini-httpd, for
instance, turns ``ENOENT`` into a 404 response rather than crashing).
"""

from __future__ import annotations

from typing import Any

from repro.kernel.filesystem import O_RDONLY
from repro.kernel.syscalls import Syscall, SyscallRequest, _trusted_request

# Bound once: attribute access on an Enum class goes through the metaclass's
# ``__getattr__`` hook, several times slower than a module global, and every
# helper call reads one.
_EXIT = Syscall.EXIT
_SETUID = Syscall.SETUID
_SETEUID = Syscall.SETEUID
_SETGID = Syscall.SETGID
_SETEGID = Syscall.SETEGID
_SETGROUPS = Syscall.SETGROUPS
_OPEN = Syscall.OPEN
_CLOSE = Syscall.CLOSE
_READ = Syscall.READ
_WRITE = Syscall.WRITE
_LSEEK = Syscall.LSEEK
_STAT = Syscall.STAT
_FSTAT = Syscall.FSTAT
_ACCESS = Syscall.ACCESS
_MKDIR = Syscall.MKDIR
_UNLINK = Syscall.UNLINK
_CHOWN = Syscall.CHOWN
_CHMOD = Syscall.CHMOD
_GETDENTS = Syscall.GETDENTS
_BIND = Syscall.BIND
_LISTEN = Syscall.LISTEN
_ACCEPT = Syscall.ACCEPT
_RECV = Syscall.RECV
_SEND = Syscall.SEND
_SHUTDOWN = Syscall.SHUTDOWN
_GETRANDOM = Syscall.GETRANDOM
_NANOSLEEP = Syscall.NANOSLEEP
_PEEK = Syscall.PEEK
_UID_VALUE = Syscall.UID_VALUE
_COND_CHK = Syscall.COND_CHK
_CC_EQ = Syscall.CC_EQ
_CC_NEQ = Syscall.CC_NEQ
_CC_LT = Syscall.CC_LT
_CC_LEQ = Syscall.CC_LEQ
_CC_GT = Syscall.CC_GT
_CC_GEQ = Syscall.CC_GEQ


# The zero-argument calls carry no per-call data, so each has one request,
# built once and returned by every call (requests are frozen).
_GETPID_REQUEST = _trusted_request(Syscall.GETPID, ())
_GETUID_REQUEST = _trusted_request(Syscall.GETUID, ())
_GETEUID_REQUEST = _trusted_request(Syscall.GETEUID, ())
_GETGID_REQUEST = _trusted_request(Syscall.GETGID, ())
_GETEGID_REQUEST = _trusted_request(Syscall.GETEGID, ())
_SOCKET_REQUEST = _trusted_request(Syscall.SOCKET, ())
_TIME_REQUEST = _trusted_request(Syscall.TIME, ())
# Descriptors are small, so each of the first 64 has one close request too.
_CLOSE_REQUESTS = tuple(_trusted_request(_CLOSE, (fd,)) for fd in range(64))


class Libc:
    """Named system-call helpers: each returns the request a program yields."""

    # -- any call ----------------------------------------------------------------

    @staticmethod
    def syscall(name: Syscall, *args: Any) -> SyscallRequest:
        """The request for an arbitrary system call (``TypeError`` if *name* is not one)."""
        return SyscallRequest(name, tuple(args))

    # -- process ----------------------------------------------------------------

    def exit(self, code: int = 0) -> SyscallRequest:
        """Terminate the calling program."""
        return _trusted_request(_EXIT, (code,))

    def getpid(self) -> SyscallRequest:
        """Return the process id."""
        return _GETPID_REQUEST

    # -- credentials --------------------------------------------------------------

    def getuid(self) -> SyscallRequest:
        """Return the real user id."""
        return _GETUID_REQUEST

    def geteuid(self) -> SyscallRequest:
        """Return the effective user id."""
        return _GETEUID_REQUEST

    def getgid(self) -> SyscallRequest:
        """Return the real group id."""
        return _GETGID_REQUEST

    def getegid(self) -> SyscallRequest:
        """Return the effective group id."""
        return _GETEGID_REQUEST

    def setuid(self, uid: int) -> SyscallRequest:
        """Set the real/effective/saved user id."""
        return _trusted_request(_SETUID, (uid,))

    def seteuid(self, euid: int) -> SyscallRequest:
        """Set the effective user id."""
        return _trusted_request(_SETEUID, (euid,))

    def setgid(self, gid: int) -> SyscallRequest:
        """Set the real/effective/saved group id."""
        return _trusted_request(_SETGID, (gid,))

    def setegid(self, egid: int) -> SyscallRequest:
        """Set the effective group id."""
        return _trusted_request(_SETEGID, (egid,))

    def setgroups(self, groups: tuple[int, ...]) -> SyscallRequest:
        """Set the supplementary group list."""
        return _trusted_request(_SETGROUPS, (tuple(groups),))

    # -- files ----------------------------------------------------------------------

    def open(self, path: str, flags: int = O_RDONLY, mode: int = 0o644) -> SyscallRequest:
        """Open *path*, returning a descriptor in ``result.value``."""
        return _trusted_request(_OPEN, (path, flags, mode))

    def close(self, fd: int) -> SyscallRequest:
        """Close descriptor *fd*."""
        if fd.__class__ is int and 0 <= fd < 64:
            return _CLOSE_REQUESTS[fd]
        return _trusted_request(_CLOSE, (fd,))

    def read(self, fd: int, count: int) -> SyscallRequest:
        """Read up to *count* bytes from *fd*."""
        return _trusted_request(_READ, (fd, count))

    def write(self, fd: int, data: bytes | str) -> SyscallRequest:
        """Write *data* to *fd*."""
        return _trusted_request(_WRITE, (fd, data))

    def lseek(self, fd: int, offset: int, whence: int = 0) -> SyscallRequest:
        """Reposition the file offset of *fd*."""
        return _trusted_request(_LSEEK, (fd, offset, whence))

    def stat(self, path: str) -> SyscallRequest:
        """Stat the inode at *path*."""
        return _trusted_request(_STAT, (path,))

    def fstat(self, fd: int) -> SyscallRequest:
        """Stat the inode open at *fd*."""
        return _trusted_request(_FSTAT, (fd,))

    def access(self, path: str, mode: int) -> SyscallRequest:
        """Check accessibility of *path* for the caller's credentials."""
        return _trusted_request(_ACCESS, (path, mode))

    def mkdir(self, path: str, mode: int = 0o755) -> SyscallRequest:
        """Create a directory."""
        return _trusted_request(_MKDIR, (path, mode))

    def unlink(self, path: str) -> SyscallRequest:
        """Remove a file."""
        return _trusted_request(_UNLINK, (path,))

    def chown(self, path: str, uid: int, gid: int) -> SyscallRequest:
        """Change ownership of *path*."""
        return _trusted_request(_CHOWN, (path, uid, gid))

    def chmod(self, path: str, mode: int) -> SyscallRequest:
        """Change the permission bits of *path*."""
        return _trusted_request(_CHMOD, (path, mode))

    def getdents(self, path: str) -> SyscallRequest:
        """List the names in the directory at *path*."""
        return _trusted_request(_GETDENTS, (path,))

    # -- sockets ---------------------------------------------------------------------

    def socket(self) -> SyscallRequest:
        """Create a socket descriptor."""
        return _SOCKET_REQUEST

    def bind(self, fd: int, port: int) -> SyscallRequest:
        """Bind socket *fd* to *port*."""
        return _trusted_request(_BIND, (fd, port))

    def listen(self, fd: int, backlog: int = 128) -> SyscallRequest:
        """Mark socket *fd* as listening."""
        return _trusted_request(_LISTEN, (fd, backlog))

    def accept(self, fd: int) -> SyscallRequest:
        """Accept a pending connection on listening socket *fd*."""
        return _trusted_request(_ACCEPT, (fd,))

    def recv(self, fd: int, count: int) -> SyscallRequest:
        """Receive up to *count* bytes from connected socket *fd*."""
        return _trusted_request(_RECV, (fd, count))

    def send(self, fd: int, data: bytes | str) -> SyscallRequest:
        """Send *data* on connected socket *fd*."""
        return _trusted_request(_SEND, (fd, data))

    def shutdown(self, fd: int) -> SyscallRequest:
        """Shut down the socket at *fd*."""
        return _trusted_request(_SHUTDOWN, (fd,))

    # -- misc ----------------------------------------------------------------------------

    def time(self) -> SyscallRequest:
        """Return the kernel's virtual clock."""
        return _TIME_REQUEST

    def getrandom(self, count: int) -> SyscallRequest:
        """Return *count* deterministic pseudo-random bytes."""
        return _trusted_request(_GETRANDOM, (count,))

    def nanosleep(self, ticks: int) -> SyscallRequest:
        """Advance the virtual clock by *ticks*."""
        return _trusted_request(_NANOSLEEP, (ticks,))

    def peek(self, address: int, count: int = 4) -> SyscallRequest:
        """Checked read of *count* bytes at absolute *address* (EFAULT on miss)."""
        return _trusted_request(_PEEK, (address, count))

    # -- detection calls (Table 2 of the paper) ----------------------------------------

    def uid_value(self, uid: int) -> SyscallRequest:
        """Expose a single UID use to the monitor; returns the passed value."""
        return _trusted_request(_UID_VALUE, (uid,))

    def cond_chk(self, condition: bool) -> SyscallRequest:
        """Expose a UID-influenced conditional to the monitor."""
        return _trusted_request(_COND_CHK, (bool(condition),))

    def cc_eq(self, left: int, right: int) -> SyscallRequest:
        """Cross-checked UID equality comparison."""
        return _trusted_request(_CC_EQ, (left, right))

    def cc_neq(self, left: int, right: int) -> SyscallRequest:
        """Cross-checked UID inequality comparison."""
        return _trusted_request(_CC_NEQ, (left, right))

    def cc_lt(self, left: int, right: int) -> SyscallRequest:
        """Cross-checked UID less-than comparison."""
        return _trusted_request(_CC_LT, (left, right))

    def cc_leq(self, left: int, right: int) -> SyscallRequest:
        """Cross-checked UID less-or-equal comparison."""
        return _trusted_request(_CC_LEQ, (left, right))

    def cc_gt(self, left: int, right: int) -> SyscallRequest:
        """Cross-checked UID greater-than comparison."""
        return _trusted_request(_CC_GT, (left, right))

    def cc_geq(self, left: int, right: int) -> SyscallRequest:
        """Cross-checked UID greater-or-equal comparison."""
        return _trusted_request(_CC_GEQ, (left, right))


#: A module-level instance; Libc is stateless so sharing it is safe.
libc = Libc()
