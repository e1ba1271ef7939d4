"""Tests for the monitor, the wrapper layer and the lockstep N-variant engine."""

import pytest

from repro.core.alarm import AlarmType
from repro.core.monitor import Monitor
from repro.core.nvariant import UIDCodec, nvexec
from repro.core.pipeline import (
    AppInterpreter,
    DataDiversityPipeline,
    TargetInterpreter,
    vulnerable_app_interpreter,
)
from repro.core.variations.address import AddressPartitioning
from repro.core.variations.uid import UIDVariation
from repro.core.wrappers import SyscallWrappers, UnsharedFileRegistry
from repro.engine.session import NVariantSession
from repro.kernel.errors import SegmentationFault
from repro.kernel.filesystem import O_RDONLY
from repro.kernel.host import build_standard_host
from repro.kernel.syscalls import Syscall, request


def faithful_app_interpreter():
    """An application layer with no vulnerability: trusted data passes through."""
    return AppInterpreter(name="app", process=lambda external, trusted: trusted)


class TestMonitor:
    def test_equivalent_requests_raise_no_alarm(self):
        monitor = Monitor()
        alarm = monitor.check_syscalls([request(Syscall.SETUID, 33), request(Syscall.SETUID, 33)])
        assert alarm is None
        assert not monitor.attack_detected

    def test_different_syscalls_classified_as_syscall_mismatch(self):
        monitor = Monitor()
        alarm = monitor.check_syscalls([request(Syscall.SETUID, 33), request(Syscall.GETUID)])
        assert alarm.alarm_type is AlarmType.SYSCALL_MISMATCH

    def test_uid_argument_mismatch_classified_as_uid_divergence(self):
        monitor = Monitor()
        alarm = monitor.check_syscalls([request(Syscall.SETUID, 0), request(Syscall.SETUID, 33)])
        assert alarm.alarm_type is AlarmType.UID_DIVERGENCE

    def test_uid_value_mismatch_classified_as_uid_divergence(self):
        monitor = Monitor()
        alarm = monitor.check_syscalls([request(Syscall.UID_VALUE, 0), request(Syscall.UID_VALUE, 1)])
        assert alarm.alarm_type is AlarmType.UID_DIVERGENCE

    def test_cond_chk_mismatch_classified_as_control_flow(self):
        monitor = Monitor()
        alarm = monitor.check_syscalls(
            [request(Syscall.COND_CHK, True), request(Syscall.COND_CHK, False)]
        )
        assert alarm.alarm_type is AlarmType.CONTROL_FLOW_DIVERGENCE

    def test_generic_argument_mismatch(self):
        monitor = Monitor()
        alarm = monitor.check_syscalls(
            [request(Syscall.WRITE, 1, b"a"), request(Syscall.WRITE, 1, b"b")]
        )
        assert alarm.alarm_type is AlarmType.ARGUMENT_MISMATCH

    def test_fault_and_lifecycle_reports(self):
        monitor = Monitor()
        monitor.report_fault(1, SegmentationFault("boom", address=0x1234))
        monitor.report_lifecycle_divergence("one variant exited")
        kinds = [alarm.alarm_type for alarm in monitor.alarms]
        assert AlarmType.VARIANT_FAULT in kinds and AlarmType.LIFECYCLE_DIVERGENCE in kinds

    def test_stats_track_detection_calls(self):
        monitor = Monitor()
        monitor.check_syscalls([request(Syscall.CC_EQ, 1, 1), request(Syscall.CC_EQ, 1, 1)])
        assert monitor.stats.detection_calls_checked == 1
        assert monitor.stats.lockstep_points == 1


class TestWrappers:
    def _setup(self, num_variants=2):
        kernel = build_standard_host()
        processes = [kernel.spawn_process(f"v{i}") for i in range(num_variants)]
        registry = UnsharedFileRegistry(num_variants)
        registry.register("/etc/passwd", [f"/etc/passwd-{i}" for i in range(num_variants)])
        from repro.kernel.host import install_diversified_user_db

        install_diversified_user_db(kernel.fs, (0, 0x7FFFFFFF))
        wrappers = SyscallWrappers(kernel, processes, registry)
        return kernel, processes, wrappers

    def test_shared_open_executes_once_and_mirrors_descriptor(self):
        kernel, processes, wrappers = self._setup()
        results = wrappers.execute_round(
            [request(Syscall.OPEN, "/etc/httpd.conf", O_RDONLY)] * 2
        )
        fd = results[0].value
        assert results[0] == results[1]
        assert processes[0].fds.get(fd) is processes[1].fds.get(fd)

    def test_unshared_open_redirects_per_variant(self):
        kernel, processes, wrappers = self._setup()
        results = wrappers.execute_round([request(Syscall.OPEN, "/etc/passwd", O_RDONLY)] * 2)
        fd = results[0].value
        assert processes[0].fds.get(fd).path == "/etc/passwd-0"
        assert processes[1].fds.get(fd).path == "/etc/passwd-1"

    def test_unshared_read_returns_different_data(self):
        kernel, processes, wrappers = self._setup()
        fd = wrappers.execute_round([request(Syscall.OPEN, "/etc/passwd", O_RDONLY)] * 2)[0].value
        reads = wrappers.execute_round([request(Syscall.READ, fd, 4096)] * 2)
        assert reads[0].value != reads[1].value
        assert b"root:x:0:" in reads[0].value
        assert b"root:x:2147483647:" in reads[1].value

    def test_shared_read_replicates_one_result(self):
        kernel, processes, wrappers = self._setup()
        fd = wrappers.execute_round([request(Syscall.OPEN, "/etc/httpd.conf", O_RDONLY)] * 2)[0].value
        reads = wrappers.execute_round([request(Syscall.READ, fd, 64)] * 2)
        assert reads[0].value == reads[1].value
        assert wrappers.stats.replicated_calls >= 2

    def test_close_clears_unshared_flag_and_alignment(self):
        kernel, processes, wrappers = self._setup()
        fd = wrappers.execute_round([request(Syscall.OPEN, "/etc/passwd", O_RDONLY)] * 2)[0].value
        wrappers.execute_round([request(Syscall.CLOSE, fd)] * 2)
        assert fd not in processes[0].fds and fd not in processes[1].fds
        # The number comes back for a shared file, whose reads replicate again.
        reopened = wrappers.execute_round(
            [request(Syscall.OPEN, "/etc/httpd.conf", O_RDONLY)] * 2
        )[0].value
        assert reopened == fd
        replicated = wrappers.stats.replicated_calls
        reads = wrappers.execute_round([request(Syscall.READ, fd, 64)] * 2)
        assert reads[0] == reads[1]
        assert wrappers.stats.replicated_calls > replicated

    def test_credential_calls_run_per_variant(self):
        kernel, processes, wrappers = self._setup()
        wrappers.execute_round([request(Syscall.SETUID, 33)] * 2)
        assert all(process.credentials.euid == 33 for process in processes)

    def test_registry_validates_path_count(self):
        registry = UnsharedFileRegistry(2)
        with pytest.raises(ValueError):
            registry.register("/etc/passwd", ["/etc/passwd-0"])


def _benign_factory(ctx):
    def program():
        opened = yield ctx.libc.open("/etc/passwd", O_RDONLY)
        yield ctx.libc.read(opened.value, 4096)
        yield ctx.libc.close(opened.value)
        yield ctx.libc.setuid(ctx.uid_codec.constant(33))
        yield ctx.libc.exit(0)

    return program()


class TestNVariantEngine:
    def test_benign_program_completes_without_alarm(self):
        result = nvexec(build_standard_host(), _benign_factory, [UIDVariation()])
        assert result.completed_normally
        assert result.lockstep_rounds > 0
        assert not result.attack_detected

    def test_uid_codec_exposed_to_variants(self):
        kernel = build_standard_host()
        session = NVariantSession(kernel, _benign_factory, [UIDVariation()])
        assert session.contexts[0].uid_codec.root == 0
        assert session.contexts[1].uid_codec.root == 0x7FFFFFFF

    def test_identity_codec_without_uid_variation(self):
        kernel = build_standard_host()
        session = NVariantSession(kernel, _benign_factory, [AddressPartitioning()])
        assert session.contexts[1].uid_codec.root == 0
        assert session.contexts[1].address_space.partition == 1

    def test_injected_identical_uid_detected(self):
        def attack_factory(ctx):
            def program():
                yield ctx.libc.setuid(0)  # same concrete value in both variants
                yield ctx.libc.exit(0)

            return program()

        result = nvexec(build_standard_host(), attack_factory, [UIDVariation()])
        assert result.attack_detected
        assert result.first_alarm().alarm_type is AlarmType.UID_DIVERGENCE

    def test_divergent_syscalls_detected(self):
        def factory(ctx):
            def program():
                if ctx.index == 0:
                    yield ctx.libc.getuid()
                else:
                    yield ctx.libc.getpid()
                yield ctx.libc.exit(0)

            return program()

        result = nvexec(build_standard_host(), factory, [UIDVariation()])
        assert result.attack_detected
        assert result.first_alarm().alarm_type is AlarmType.SYSCALL_MISMATCH

    def test_variant_fault_detected(self):
        def factory(ctx):
            def program():
                yield ctx.libc.getuid()
                if ctx.index == 1:
                    raise SegmentationFault("injected pointer", address=0x1234)
                yield ctx.libc.getuid()
                yield ctx.libc.exit(0)

            return program()

        result = nvexec(build_standard_host(), factory, [AddressPartitioning()])
        assert result.attack_detected
        assert result.first_alarm().alarm_type is AlarmType.VARIANT_FAULT
        assert result.first_alarm().faulting_variant == 1

    def test_lifecycle_divergence_detected(self):
        def factory(ctx):
            def program():
                yield ctx.libc.getuid()
                if ctx.index == 0:
                    yield ctx.libc.exit(0)
                yield ctx.libc.getuid()
                yield ctx.libc.getuid()
                yield ctx.libc.exit(0)

            return program()

        result = nvexec(build_standard_host(), factory, [UIDVariation()])
        assert result.attack_detected
        kinds = {alarm.alarm_type for alarm in result.alarms}
        assert AlarmType.LIFECYCLE_DIVERGENCE in kinds or AlarmType.SYSCALL_MISMATCH in kinds

    def test_halt_policy_stops_variants(self):
        def attack_factory(ctx):
            def program():
                yield ctx.libc.setuid(0)
                yield ctx.libc.getuid()
                yield ctx.libc.exit(0)

            return program()

        kernel = build_standard_host()
        result = nvexec(kernel, attack_factory, [UIDVariation()])
        assert result.attack_detected
        assert all(not process.alive for process in kernel.processes.all())

    def test_three_variants_supported_without_uid_variation(self):
        def factory(ctx):
            def program():
                yield ctx.libc.getuid()
                yield ctx.libc.exit(0)

            return program()

        result = nvexec(build_standard_host(), factory, [], num_variants=3)
        assert result.completed_normally
        assert len(result.variants) == 3

    def test_one_variant_program_returning_without_exit_exits_zero(self):
        def factory(ctx):
            def program():
                yield ctx.libc.getuid()
                return "done"

            return program()

        result = nvexec(build_standard_host(), factory, [], num_variants=1)
        assert not result.alarms
        assert result.completed_normally
        [variant] = result.variants
        assert variant.exit_code == 0 and variant.return_value == "done"

    def test_one_variant_fault_raises_one_variant_fault_alarm(self):
        def factory(ctx):
            def program():
                yield ctx.libc.getuid()
                raise SegmentationFault("injected pointer", address=0x1234)

            return program()

        result = nvexec(build_standard_host(), factory, [], num_variants=1)
        assert [alarm.alarm_type for alarm in result.alarms] == [AlarmType.VARIANT_FAULT]
        assert result.variants[0].fault is not None

    def test_result_describe_is_readable(self):
        result = nvexec(build_standard_host(), _benign_factory, [UIDVariation()])
        text = result.describe()
        assert "lockstep rounds" in text and "variant 0" in text


class TestUIDCodec:
    def test_identity_codec(self):
        codec = UIDCodec.identity()
        assert codec.constant(33) == 33 and codec.decode(33) == 33 and codec.root == 0

    def test_variant_codec_round_trip(self):
        variation = UIDVariation()
        codec = UIDCodec(
            encode=lambda value: variation.encode(1, value),
            decode=lambda value: variation.decode(1, value),
        )
        assert codec.decode(codec.constant(33)) == 33
        assert codec.root == 0x7FFFFFFF


class TestPipelineModel:
    def test_benign_flow_reaches_target(self):
        variation = UIDVariation()
        applied = []
        pipeline = DataDiversityPipeline(
            variation.reexpressions(), faithful_app_interpreter(), TargetInterpreter("setuid", applied.append)
        )
        run = pipeline.process(b"GET /", 33)
        assert not run.attack_detected
        assert applied == [33]
        assert run.decoded_values == (33, 33)
        assert run.concrete_values[0] != run.concrete_values[1]

    def test_injected_value_detected_and_blocked(self):
        variation = UIDVariation()
        applied = []
        pipeline = DataDiversityPipeline(
            variation.reexpressions(), vulnerable_app_interpreter(), TargetInterpreter("setuid", applied.append)
        )
        run = pipeline.process(b"EXPLOIT: 0", 33)
        assert run.attack_detected
        assert applied == []
        assert run.alarm.alarm_type is AlarmType.UID_DIVERGENCE

    def test_single_variant_pipeline_rejected(self):
        variation = UIDVariation()
        with pytest.raises(ValueError):
            DataDiversityPipeline([variation.reexpression(0)], faithful_app_interpreter(), TargetInterpreter("t", lambda v: v))

    def test_malformed_exploit_payload_falls_back_to_trusted_value(self):
        variation = UIDVariation()
        pipeline = DataDiversityPipeline(
            variation.reexpressions(), vulnerable_app_interpreter(), TargetInterpreter("t", lambda v: v)
        )
        run = pipeline.process(b"EXPLOIT: not-a-number", 33)
        assert not run.attack_detected
