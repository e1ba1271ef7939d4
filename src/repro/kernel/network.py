"""Simplified network stack for the simulated kernel.

The paper's threat model is a *remote attacker*: all attack data arrives over
the same network channel as legitimate client requests, and the N-variant
framework replicates that input to every variant.  We therefore only need a
network model rich enough to (a) let the mini-httpd bind, listen, accept,
receive and send, and (b) let workload generators and attack drivers inject
request bytes and read back responses.

Connections are plain in-memory byte queues.  Delivery is deterministic and
FIFO, which keeps N-variant runs reproducible -- the simulated analogue of
the paper's framework removing input non-determinism by having the kernel
perform each input system call once.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Callable, Optional

from repro.kernel.errors import Errno, KernelError


@dataclasses.dataclass(eq=False)
class Connection:
    """One client connection: inbound request bytes and outbound response bytes.

    Connections compare by identity: two clients that sent and received the
    same bytes are still two connections, so an accept queue never removes
    the wrong one.
    """

    connection_id: int
    client: str = "client"
    inbound: bytearray = dataclasses.field(default_factory=bytearray)
    #: The sent chunks, in send order, each held once as ``bytes``; empty
    #: (falsy) until the server sends a byte.
    outbound: list[bytes] = dataclasses.field(default_factory=list)
    closed_by_server: bool = False

    def recv(self, count: int) -> bytes:
        """Server-side receive of up to *count* bytes (empty means EOF)."""
        if count < 0:
            raise KernelError(Errno.EINVAL, "negative recv count")
        data = bytes(self.inbound[:count])
        del self.inbound[:count]
        return data

    def send(self, data: bytes) -> int:
        """Server-side send; the chunk is kept for the client to read.

        ``bytes(data)`` snapshots a mutable buffer and returns *data* itself
        when it already is ``bytes``, so a sent byte is never copied twice.
        """
        if self.closed_by_server:
            raise KernelError(Errno.EPIPE, "connection closed by server")
        chunk = bytes(data)
        if chunk:
            self.outbound.append(chunk)
        return len(chunk)

    def response_bytes(self) -> bytes:
        """Client-side view of everything the server has sent.

        The chunks are joined on the first read that finds more than one,
        and the joined object replaces them: the bytes are held once, and a
        repeated read returns the same object.
        """
        chunks = self.outbound
        if not chunks:
            return b""
        if len(chunks) > 1:
            chunks[:] = [b"".join(chunks)]
        return chunks[0]


@dataclasses.dataclass
class ListeningSocket:
    """A bound, listening server socket with a queue of pending connections.

    ``bound`` distinguishes a listener the server has actually bound from a
    placeholder created by an early client connect (workload drivers queue
    their requests before the simulated server runs; see
    :meth:`NetworkStack.connect`).

    ``on_empty`` is the blocking half of ``accept``: called once with the
    listener when the queue is empty, it may queue connections (the open-loop
    driver advances the clock to the next arrival).  Without a hook, or when
    it queues nothing, ``accept`` fails with ``EAGAIN``.
    """

    port: int
    backlog: int = 128
    bound: bool = False
    pending: collections.deque = dataclasses.field(default_factory=collections.deque)
    on_empty: Optional[Callable[["ListeningSocket"], None]] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    def enqueue(self, connection: Connection) -> None:
        """Queue an incoming client connection for ``accept``."""
        if len(self.pending) >= self.backlog:
            raise KernelError(Errno.ECONNREFUSED, f"backlog full on port {self.port}")
        self.pending.append(connection)

    def accept(self) -> Connection:
        """Dequeue the next pending connection, blocking via ``on_empty``."""
        if not self.pending and self.on_empty is not None:
            self.on_empty(self)
        if not self.pending:
            raise KernelError(Errno.EAGAIN, "no pending connections")
        return self.pending.popleft()


class NetworkStack:
    """Host-wide network state: bound ports and all connections ever made."""

    def __init__(self) -> None:
        self.listeners: dict[int, ListeningSocket] = {}
        self.connections: list[Connection] = []
        #: Connections the server has shut down, counted so a client can
        #: look for finished responses only after one more closed.
        self.server_closes = 0
        self._next_connection_id = 1

    def bind(self, port: int, backlog: int = 128) -> ListeningSocket:
        """Bind and listen on *port*; raises ``EADDRINUSE`` if already bound.

        If clients connected before the server bound (the workload drivers
        queue every request up front because the simulation is not
        concurrent), the placeholder listener and its pending connections are
        adopted rather than rejected.
        """
        existing = self.listeners.get(port)
        if existing is not None:
            if existing.bound:
                raise KernelError(Errno.EADDRINUSE, f"port {port} already bound")
            existing.bound = True
            existing.backlog = max(existing.backlog, backlog)
            return existing
        listener = ListeningSocket(port=port, backlog=backlog, bound=True)
        self.listeners[port] = listener
        return listener

    def unbind(self, port: int) -> None:
        """Release *port* (server shutdown)."""
        self.listeners.pop(port, None)

    def listener(self, port: int) -> ListeningSocket:
        """The listener on *port*, or a new placeholder for :meth:`bind` to adopt."""
        listener = self.listeners.get(port)
        if listener is None:
            listener = ListeningSocket(port=port, backlog=1 << 16, bound=False)
            self.listeners[port] = listener
        return listener

    def connect(self, port: int, request: bytes = b"", *, client: str = "client") -> Connection:
        """Client-side connect: create a connection and queue it on the listener.

        The *request* bytes, if given, are queued immediately so the server's
        subsequent ``recv`` calls see them.  Returns the connection so the
        caller can later read the server's response.
        """
        listener = self.listener(port)
        connection = Connection(
            connection_id=self._next_connection_id, client=client, inbound=bytearray(request)
        )
        self._next_connection_id += 1
        listener.enqueue(connection)
        self.connections.append(connection)
        return connection
