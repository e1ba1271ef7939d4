#!/usr/bin/env python3
"""Quickstart: data diversity in an N-variant system, in three steps.

Step 1 shows the idea at the level of the paper's interpreters model
(Figure 2): two variants carry different concrete representations of the same
trusted UID; an attacker who injects a concrete value through the shared
input channel necessarily feeds both variants the same bytes, which decode to
different UIDs and trip the monitor.

Step 2 runs the same idea through the full simulated stack: a tiny program,
the lockstep N-variant engine, the kernel wrappers and the UID variation.

Step 3 launches the mini Apache case study under the 2-variant UID
configuration, serves a benign request, and then shows a real UID-corruption
attack (a header overflow) being detected.
"""

from repro import UID_DIVERSITY_SPEC, build_session
from repro.apps.clients.webbench import WebBenchWorkload, drive_nvariant
from repro.apps.httpd.server import make_httpd_factory
from repro.attacks.payloads import benign_request, uid_overwrite_payload
from repro.core import (
    DataDiversityPipeline,
    TargetInterpreter,
    UIDVariation,
    nvexec,
    vulnerable_app_interpreter,
)
from repro.kernel.host import HTTP_PORT, build_standard_host


def step1_pipeline_model() -> None:
    """The interpreters model: reexpression + disjoint inverses = detection."""
    print("=" * 72)
    print("Step 1: the data-diversity pipeline (Figure 2)")
    print("=" * 72)
    variation = UIDVariation()
    pipeline = DataDiversityPipeline(
        reexpressions=variation.reexpressions(),
        app=vulnerable_app_interpreter(),
        target=TargetInterpreter(name="setuid", apply=lambda uid: f"setuid({uid})"),
    )

    benign = pipeline.process(b"GET /index.html", trusted_value=33)
    print(f"benign request : concrete per-variant values {benign.concrete_values} "
          f"-> decoded {benign.decoded_values} -> {benign.target_result}")

    attack = pipeline.process(b"EXPLOIT: 0", trusted_value=33)
    print(f"attack request : both variants receive concrete 0 "
          f"-> decoded {attack.decoded_values} -> ALARM: {attack.alarm.description}")
    print()


def step2_lockstep_engine() -> None:
    """The same property through the lockstep engine and kernel wrappers."""
    print("=" * 72)
    print("Step 2: the lockstep N-variant engine")
    print("=" * 72)

    def benign_factory(context):
        def program():
            libc, codec = context.libc, context.uid_codec
            # Drop privileges to www-data using the variant's own constant.
            yield libc.setuid(codec.constant(33))
            euid = (yield libc.geteuid()).value
            yield libc.cc_eq(euid, codec.constant(33))
            yield libc.exit(0)

        return program()

    result = nvexec(build_standard_host(), benign_factory, [UIDVariation()])
    print(f"benign program : completed normally = {result.completed_normally}, "
          f"alarms = {len(result.alarms)}")

    def attack_factory(context):
        def program():
            # The attacker injects the concrete value 0 (root) -- identical in
            # both variants because inputs are replicated.
            yield context.libc.setuid(0)
            yield context.libc.exit(0)

        return program()

    result = nvexec(build_standard_host(), attack_factory, [UIDVariation()])
    print(f"attack program : detected = {result.attack_detected}")
    print(f"                 {result.first_alarm().describe()}")
    print()


def step3_mini_apache() -> None:
    """The Apache case study: benign traffic, then a UID-corruption attack."""
    print("=" * 72)
    print("Step 3: the mini Apache case study (2-variant UID configuration)")
    print("=" * 72)

    measurement, result = drive_nvariant(
        WebBenchWorkload(total_requests=6), UID_DIVERSITY_SPEC.with_name("quickstart")
    )
    print(f"benign workload: {measurement.requests_completed} requests served, "
          f"statuses {measurement.status_counts}, alarms {measurement.alarms}")

    kernel = build_standard_host()
    kernel.client_connect(HTTP_PORT, benign_request())
    kernel.client_connect(HTTP_PORT, uid_overwrite_payload(0), client="attacker")
    attack_result = build_session(
        UID_DIVERSITY_SPEC,
        kernel,
        make_httpd_factory(transformed=True, max_requests=2),
        name="httpd",
    ).run()
    print(f"attack request : detected = {attack_result.attack_detected}")
    print(f"                 {attack_result.first_alarm().describe()}")


def main() -> None:
    step1_pipeline_model()
    step2_lockstep_engine()
    step3_mini_apache()


if __name__ == "__main__":
    main()
