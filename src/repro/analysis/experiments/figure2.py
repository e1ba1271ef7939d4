"""Experiment: Figure 2 (the data-diversity pipeline through the interpreters model).

Figure 2 of the paper shows how data diversity slots into an N-variant
system: trusted data is reexpressed per variant, untrusted input is
replicated verbatim, and the inverse reexpression functions sit immediately
in front of the target interpreters, whose inputs the monitor compares.

This experiment exercises that picture twice:

* at the model level, with :class:`~repro.core.pipeline.DataDiversityPipeline`
  (a vulnerable application interpreter, the UID reexpression pair, and a
  credential-setting target interpreter);
* end to end, by tracing a UID from the per-variant ``/etc/passwd-i`` files
  through the transformed mini-httpd into the kernel's ``seteuid``, showing
  that the two variants' user-space representations differ while the decoded
  value the kernel sees is identical.
"""

from __future__ import annotations

import dataclasses

from repro.api.experiments import ExperimentReport, ReportKeyValues
from repro.api.spec import UID_DIVERSITY_SPEC
from repro.apps.clients.webbench import WebBenchWorkload, drive_nvariant
from repro.core.pipeline import (
    DataDiversityPipeline,
    TargetInterpreter,
    vulnerable_app_interpreter,
)
from repro.core.variations.uid import UIDVariation
from repro.kernel.host import build_standard_host
from repro.kernel.passwd import parse_passwd


@dataclasses.dataclass
class Figure2Result:
    """Model-level and system-level traces of the data-diversity pipeline."""

    benign_decoded: tuple[int, ...]
    benign_concrete: tuple[int, ...]
    benign_detected: bool
    attack_decoded: tuple[int, ...]
    attack_detected: bool
    variant_passwd_uids: tuple[int, int]
    kernel_euids_after_drop: tuple[int, ...]
    system_alarms: int

    @property
    def reproduces_figure(self) -> bool:
        """Benign data flows through; identical injected data is stopped."""
        return (
            not self.benign_detected
            and self.attack_detected
            and len(set(self.kernel_euids_after_drop)) == 1
            and self.variant_passwd_uids[0] != self.variant_passwd_uids[1]
            and self.system_alarms == 0
        )

    def to_report(self) -> ExperimentReport:
        """The traces as a shared experiment report."""
        section = ReportKeyValues(
            title="Figure 2. N-variant systems with data diversity",
            pairs=(
                ("benign trusted value, concrete per variant", str(self.benign_concrete)),
                ("benign trusted value, decoded at target", str(self.benign_decoded)),
                ("injected value, decoded at target", str(self.attack_decoded)),
                (
                    "www-data uid in /etc/passwd-0 vs /etc/passwd-1",
                    str(self.variant_passwd_uids),
                ),
                (
                    "kernel euid after privilege drop, per variant",
                    str(self.kernel_euids_after_drop),
                ),
                ("alarms during benign end-to-end run", str(self.system_alarms)),
            ),
        )
        claims = {
            "benign trusted data flows through undetected": not self.benign_detected,
            "replicated injected data is detected": self.attack_detected,
            "per-variant passwd representations differ": (
                self.variant_passwd_uids[0] != self.variant_passwd_uids[1]
            ),
            "decoded kernel euids agree across variants": (
                len(set(self.kernel_euids_after_drop)) == 1
            ),
            "figure 2 claim reproduced": self.reproduces_figure,
        }
        return ExperimentReport(
            title="Figure 2: N-variant systems with data diversity",
            sections=(section,),
            claims=claims,
            result=self,
        )


def run() -> Figure2Result:
    """Run the Figure 2 scenario."""
    variation = UIDVariation()

    # -- model level: the interpreters pipeline ------------------------------------
    applied: list[int] = []
    pipeline = DataDiversityPipeline(
        reexpressions=[variation.reexpression(0), variation.reexpression(1)],
        app=vulnerable_app_interpreter(),
        target=TargetInterpreter(name="setuid", apply=applied.append),
    )
    benign = pipeline.process(b"GET /index.html", trusted_value=33)
    attack = pipeline.process(b"EXPLOIT: 0", trusted_value=33)

    # -- system level: unshared passwd files + the transformed server --------------
    kernel = build_standard_host()
    workload = WebBenchWorkload(total_requests=4)
    _, result = drive_nvariant(
        workload, UID_DIVERSITY_SPEC.with_name("figure2"), kernel=kernel
    )
    uids = []
    for index in range(2):
        entries = parse_passwd(kernel.fs.read_file(f"/etc/passwd-{index}").decode())
        uids.append(next(e.uid for e in entries if e.name == "www-data"))
    euids = tuple(
        process.credentials.euid
        for process in kernel.processes.all()
        if process.name.startswith("httpd")
    )

    return Figure2Result(
        benign_decoded=benign.decoded_values,
        benign_concrete=benign.concrete_values,
        benign_detected=benign.attack_detected,
        attack_decoded=attack.decoded_values,
        attack_detected=attack.attack_detected,
        variant_passwd_uids=(uids[0], uids[1]),
        kernel_euids_after_drop=euids,
        system_alarms=len(result.alarms),
    )
