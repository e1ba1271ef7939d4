"""The fd-orbit variation: descriptor-space data diversity.

File descriptors ride the same N-ary partition-scheme protocol as the
address and UID families: variant *i* holds every descriptor re-expressed
into the *i*-th top-bits slice, arguments are decoded ahead of the kernel,
and an fd value injected identically into every variant decodes to N
pairwise-different descriptors -- an argument divergence at first use.
"""

import pytest

from repro.api.builders import build_variations
from repro.api.registry import registry
from repro.api.spec import SystemSpec
from repro.core.alarm import AlarmType
from repro.core.nvariant import nvexec
from repro.core.variations import (
    AddressPartitioning,
    FdOrbitVariation,
    OrbitAddressPartitioning,
    OrbitUIDVariation,
    UIDVariation,
)
from repro.core.variations.fdspace import FD_ARGUMENT_SYSCALLS, FD_RESULT_SYSCALLS
from repro.engine.session import NVariantSession
from repro.kernel.filesystem import O_RDONLY
from repro.kernel.host import build_standard_host
from repro.kernel.syscalls import Syscall, request
from repro.memory.partition import fd_orbit_scheme

ALL_N = range(2, 9)


class TestFdOrbitScheme:
    def test_kind(self):
        assert fd_orbit_scheme(3).kind == "fd-orbit"

    @pytest.mark.parametrize("n", ALL_N)
    def test_round_trip_and_disjoint_inverses(self, n):
        scheme = fd_orbit_scheme(n)
        for fd in (0, 1, 2, 3, 17, 255):
            for index in range(n):
                assert scheme.untranslate(index, scheme.translate(index, fd)) == fd
            decoded = {scheme.untranslate(index, fd) for index in range(n)}
            assert len(decoded) == n

    @pytest.mark.parametrize("n", ALL_N)
    def test_real_descriptors_place_in_their_partition(self, n):
        scheme = fd_orbit_scheme(n)
        for index in range(n):
            assert scheme.partition_of(scheme.translate(index, 5)) == index

    def test_variant_zero_keeps_real_descriptors(self):
        scheme = fd_orbit_scheme(4)
        assert scheme.translate(0, 7) == 7

    def test_reexpression_domain_is_fd(self):
        assert FdOrbitVariation(2).reexpression(1).domain == "fd"


class TestFdOrbitVariation:
    @pytest.mark.parametrize("n", ALL_N)
    def test_encode_decode_round_trip(self, n):
        variation = FdOrbitVariation(n)
        for index in range(n):
            for fd in (0, 3, 42):
                assert variation.decode(index, variation.encode(index, fd)) == fd

    def test_footprints_cover_exactly_the_fd_calls(self):
        assert Syscall.WRITE in FD_ARGUMENT_SYSCALLS
        assert Syscall.ACCEPT in FD_ARGUMENT_SYSCALLS
        assert Syscall.GETDENTS not in FD_ARGUMENT_SYSCALLS  # takes a path
        assert FD_RESULT_SYSCALLS == {Syscall.OPEN, Syscall.SOCKET, Syscall.ACCEPT}
        assert FdOrbitVariation.canonical_syscalls == FD_ARGUMENT_SYSCALLS
        assert FdOrbitVariation.transform_syscalls == FD_ARGUMENT_SYSCALLS

    def test_negative_sentinels_are_never_decoded(self):
        variation = FdOrbitVariation(2)
        transformed = variation.transform_request(1, request(Syscall.CLOSE, -1))
        assert transformed.args == (-1,)

    def test_scheme_partition_count_must_match(self):
        with pytest.raises(ValueError):
            FdOrbitVariation(3, scheme=fd_orbit_scheme(2))

    def test_registered_in_variation_registry(self):
        assert "fd-orbit" in registry
        variation = registry.create("fd-orbit", {"num_variants": 5})
        assert isinstance(variation, FdOrbitVariation)
        assert variation.num_variants == 5

    def test_spec_injects_variant_count(self):
        spec = SystemSpec(name="t", num_variants=4, variations=("fd-orbit",))
        (variation,) = build_variations(spec)
        assert variation.num_variants == 4


def _benign_fd_factory(ctx):
    """Exercises every fd path: open/read/lseek/fstat/close and the socket
    family (bind/listen/accept/recv/send/shutdown) on a queued connection."""

    def program():
        opened = yield ctx.libc.open("/etc/passwd", O_RDONLY)
        yield ctx.libc.read(opened.value, 64)
        yield ctx.libc.lseek(opened.value, 0)
        yield ctx.libc.fstat(opened.value)
        yield ctx.libc.close(opened.value)
        sock = yield ctx.libc.socket()
        yield ctx.libc.bind(sock.value, 8080)
        yield ctx.libc.listen(sock.value)
        conn = yield ctx.libc.accept(sock.value)
        yield ctx.libc.recv(conn.value, 64)
        yield ctx.libc.send(conn.value, b"ok")
        yield ctx.libc.shutdown(conn.value)
        yield ctx.libc.close(conn.value)
        yield ctx.libc.close(sock.value)
        yield ctx.libc.exit(0)

    return program()


class TestFdOrbitEngine:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_benign_fd_traffic_stays_equivalent(self, n):
        kernel = build_standard_host()
        kernel.client_connect(8080, b"hello")
        result = nvexec(kernel, _benign_fd_factory, [FdOrbitVariation(n)], num_variants=n)
        assert result.completed_normally, result.alarms
        assert not result.attack_detected

    def test_injected_concrete_fd_is_detected(self):
        """The attack the variation exists for: an fd value delivered
        identically to every variant decodes differently and alarms."""

        def attack_factory(ctx):
            def program():
                opened = yield ctx.libc.open("/etc/passwd", O_RDONLY)
                yield ctx.libc.close(opened.value)
                # Raw concrete value, NOT the variant's own representation --
                # what an overflow that overwrites a stored descriptor plants.
                yield ctx.libc.write(3, b"pwned")
                yield ctx.libc.exit(0)

            return program()

        result = nvexec(build_standard_host(), attack_factory, [FdOrbitVariation(2)])
        assert result.attack_detected
        alarm = result.first_alarm()
        assert alarm.alarm_type is AlarmType.ARGUMENT_MISMATCH
        assert alarm.syscall == "write"

    def test_without_fd_diversity_the_injection_passes_unnoticed(self):
        """The undefended contrast cell: identical injected fds compare equal."""

        def attack_factory(ctx):
            def program():
                opened = yield ctx.libc.open("/etc/passwd", O_RDONLY)
                yield ctx.libc.close(opened.value)
                yield ctx.libc.write(3, b"pwned")
                yield ctx.libc.exit(0)

            return program()

        result = nvexec(build_standard_host(), attack_factory, [])
        assert not result.attack_detected

    @pytest.mark.parametrize("n", [2, 3])
    def test_stacks_with_uid_and_address_families(self, n):
        if n == 2:
            stack = [FdOrbitVariation(2), UIDVariation(), AddressPartitioning()]
        else:
            stack = [
                FdOrbitVariation(n),
                OrbitUIDVariation(n),
                OrbitAddressPartitioning(n),
            ]
        kernel = build_standard_host()
        kernel.client_connect(8080, b"hello")
        result = nvexec(kernel, _benign_fd_factory, stack, num_variants=n)
        assert result.completed_normally, result.alarms
        assert not result.attack_detected

    def test_wide_table_composes_with_fd_orbit(self):
        kernel = build_standard_host()
        kernel.client_connect(8080, b"hello")
        result = NVariantSession(
            kernel,
            _benign_fd_factory,
            [FdOrbitVariation(2)],
            interposition="wide",
        ).run()
        assert result.completed_normally, result.alarms
