"""Simulated Unix kernel substrate.

This package stands in for the modified Linux kernel of the paper's
prototype.  It provides processes with POSIX-style credentials, a virtual
filesystem with permissions, per-process descriptor tables, a minimal network
stack, and the system-call interface (including the paper's new detection
calls from Table 2).

The N-variant machinery itself (running programs -- the unprotected baseline
is a one-variant session -- lockstep execution, monitoring, input
replication, unshared files, reexpression) lives in :mod:`repro.core` and is
layered *on top of* this kernel, mirroring how the paper layered its wrapper
code on top of stock kernel services.
"""
