"""The deliberately planted vulnerabilities in the mini-httpd.

The paper's threat model assumes the application contains residual memory
vulnerabilities that let a remote attacker corrupt program data.  The
mini-httpd reproduces the two classes the evaluation needs:

* **Header-copy overflow** -- the server copies the value of the
  ``X-Annotation`` request header into a fixed 64-byte buffer with an
  unchecked copy (a ``strcpy`` analogue).  The buffer sits directly in front
  of the server's cached ``uid_t`` fields and a banner pointer, so an
  over-long header overwrites them.  This is the non-control-data attack of
  Chen et al.: corrupt the UID used when dropping privileges and the original
  program keeps running, but as root.
* **Unsanitised path traversal** -- the request path is joined to the
  document root without removing ``..`` components, so once privileges are
  wrongly retained the attacker can read files outside the docroot (e.g.
  ``/etc/shadow``), which is how the attack's *goal* becomes observable.

The overflow is bounds-checked only against the enclosing memory region, so
it cannot escape the simulated process -- but within the region it behaves
exactly like the real bug.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.memory.memory_model import MemoryRegion, MemoryVariable, StackFrame

#: Size of the vulnerable header buffer (bytes).
ANNOTATION_BUFFER_SIZE = 64

#: Name of the request header whose value is copied unchecked.
VULNERABLE_HEADER = "X-Annotation"

#: Nominal base address of the server's state region (variant-neutral).
STATE_REGION_BASE = 0x00400000

#: Nominal base address of the read-only banner region.
BANNER_REGION_BASE = 0x00200000

#: Size of the server-state region.
STATE_REGION_SIZE = 256

#: Size of the banner region.
BANNER_REGION_SIZE = 64

#: The banner text the server reads through its banner pointer on every
#: request; an injected absolute pointer makes this dereference fault in the
#: variant whose partition does not contain the injected address.
BANNER_TEXT = b"mini-httpd ready"


@dataclasses.dataclass
class ServerStateLayout:
    """The server's in-memory security-critical state.

    Layout (allocation order fixes adjacency, low addresses first)::

        annotation_buf   64 bytes   <- unchecked header copy lands here
        worker_uid        4 bytes   <- uid used to drop privileges per request
        worker_gid        4 bytes
        admin_uid         4 bytes   <- uid allowed to access /admin
        banner_ptr        4 bytes   <- pointer dereferenced on every request
    """

    region: MemoryRegion
    banner_region: MemoryRegion
    annotation_buf: MemoryVariable
    worker_uid: MemoryVariable
    worker_gid: MemoryVariable
    admin_uid: MemoryVariable
    banner_ptr: MemoryVariable


def build_server_state(
    address_space,
    *,
    worker_uid: int,
    worker_gid: int,
    admin_uid: int,
) -> ServerStateLayout:
    """Map and initialise the server's state in *address_space*.

    The regions are declared at nominal addresses and relocated into the
    variant's partition by the address space, so under address partitioning
    the concrete addresses (and hence any legitimate pointer values) differ
    between variants while the layout stays identical.  Both regions are
    mapped from templates (:func:`_state_template`): mapping relocates a
    template into a region of this space's own, its bytes copied in one
    write, so no two calls share a byte of memory.
    """
    banner_region = address_space.map_region(_BANNER_TEMPLATE)
    template, fields = _state_template(worker_uid, worker_gid, admin_uid, banner_region.base)
    state_region = address_space.map_region(template)
    return ServerStateLayout(
        state_region,
        banner_region,
        *[MemoryVariable(name, state_region, offset, kind, size) for name, offset, kind, size in fields],
    )


#: The banner region at its nominal base, text written; only ever relocated.
_BANNER_TEMPLATE = MemoryRegion("banner", BANNER_REGION_BASE, BANNER_REGION_SIZE)
_BANNER_TEMPLATE.write(BANNER_REGION_BASE, BANNER_TEXT)


@functools.lru_cache(maxsize=256)
def _state_template(
    worker_uid: int, worker_gid: int, admin_uid: int, banner_pointer: int
) -> tuple[MemoryRegion, tuple[tuple[str, int, str, int], ...]]:
    """The state region at its nominal base, initialised, and its fields.

    Laid out by a :class:`~repro.memory.memory_model.StackFrame`, in
    :class:`ServerStateLayout` order; each field is ``(name, offset, kind,
    size)``.  The region is only ever relocated, never handed out, so no
    caller can write to it.
    """
    frame = StackFrame(MemoryRegion("server-state", STATE_REGION_BASE, STATE_REGION_SIZE))
    fields = (
        frame.alloc_buffer("annotation_buf", ANNOTATION_BUFFER_SIZE),
        frame.alloc_word("worker_uid", worker_uid),
        frame.alloc_word("worker_gid", worker_gid),
        frame.alloc_word("admin_uid", admin_uid),
        frame.alloc_word("banner_ptr", banner_pointer),
    )
    return frame.region, tuple((f.name, f.offset, f.kind, f.size) for f in fields)


def copy_annotation_header(layout: ServerStateLayout, value: str) -> int:
    """The vulnerable copy: write the header value into the fixed buffer.

    No per-buffer bounds check is performed (the region bound still applies),
    so values longer than :data:`ANNOTATION_BUFFER_SIZE` spill into the
    adjacent UID fields and banner pointer.  Returns the number of bytes
    written.
    """
    data = value.encode("latin-1", errors="replace") + b"\x00"
    return layout.region.unchecked_copy(layout.annotation_buf.address, data)


def read_banner(address_space, layout: ServerStateLayout) -> bytes:
    """Dereference the banner pointer (the address-injection detection point)."""
    pointer = layout.banner_ptr.get()
    return address_space.dereference(pointer, len(BANNER_TEXT))
