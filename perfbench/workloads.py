"""The benchmark's workloads: which groups, protocols and provers each runs.

A workload is a list of trial configurations, each one
(group, protocol, prover, repetitions).  The timed loop runs them round
robin, one pass at a time, so every run holds the same mix of trials.
README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

from orderproof.fixtures import PROTOCOL_FIXTURES, get_fixture
from orderproof.sampling import derive_seed

#: Label the fixed relabel seeds are derived from.  Relabeling is fixed
#: per group rather than drawn from the workload seed: on abelian groups
#: the pcgs length depends on the encoding (cyclic:32768 gets 15 or 30
#: rounds depending on the relabeling, cyclic:12 gets 8, 16 or 24), so a
#: per-seed relabeling would make every cost metric bimodal across seeds.
RELABEL_LABEL = "orderproof-bench/relabel"


@dataclass(frozen=True)
class Group:
    name: str
    spec: str
    primes: tuple[int, ...] | None = None  # the 2-message verifier's primes

    def relabeled_spec(self) -> str:
        return f"{self.spec}@seed={derive_seed(0, f'{RELABEL_LABEL}/{self.name}')}"


@dataclass(frozen=True)
class Config:
    group: str
    protocol: str
    prover: str
    repetitions: int = 1
    #: Trials of this configuration in each pass of the timed loop.
    weight: int = 1

    @property
    def label(self) -> str:
        return f"{self.group}/{self.protocol}/{self.prover}/x{self.repetitions}"


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[Group, ...]
    configs: tuple[Config, ...]
    #: Set-ups per untraced run; setup_s is their median.
    setup_reps: int
    #: Passes per second of --seconds in the fixed block that the
    #: deterministic metrics are taken over (at least one pass).
    block_passes_per_s: float
    #: Group the traced run's layer probe uses.
    probe_group: str
    #: Configuration cross-checked against harness.run_experiment.
    crosscheck: int

    def group(self, name: str) -> Group:
        return next(g for g in self.groups if g.name == name)

    def block_trials(self, seconds: float) -> int:
        passes = max(1, int(seconds * self.block_passes_per_s))
        return passes * sum(c.weight for c in self.configs)


_FIXTURE_PROVERS = ("honest", "deflate", "random_bits", "guess_inflate")

S4 = Group("s4", get_fixture("s4").spec, get_fixture("s4").primes)
S4xS3 = Group("s4xs3", "direct:perm:4:(1 2),(1 2 3 4),perm:3:(1 2),(1 2 3)")
S4wrC2 = Group("s4wrc2", "perm:8:(1 2),(1 2 3 4),(1 5)(2 6)(3 7)(4 8)", (2, 3))
C32768 = Group("c32768", "cyclic:32768", (2,))

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fixtures-2msg",
            groups=tuple(
                Group(name, get_fixture(name).spec, get_fixture(name).primes)
                for name in PROTOCOL_FIXTURES
            ),
            configs=tuple(
                Config(name, "2msg", prover, 3)
                for name in PROTOCOL_FIXTURES
                for prover in _FIXTURE_PROVERS
            ),
            setup_reps=9,
            block_passes_per_s=15.0,
            probe_group="s4",
            crosscheck=0,
        ),
        Workload(
            name="commit-3msg",
            groups=(S4, S4xS3),
            configs=(
                Config("s4", "3msg", "honest"),
                Config("s4", "3msg", "garbage_commitment"),
                Config("s4", "3msg", "random_bits"),
                Config("s4", "3msg", "order_forger"),
                Config("s4xs3", "3msg", "honest"),
                Config("s4xs3", "3msg", "garbage_commitment"),
                Config("s4xs3", "3msg", "random_bits"),
            ),
            setup_reps=3,
            block_passes_per_s=0.4,
            probe_group="s4",
            crosscheck=0,
        ),
        Workload(
            name="scale-2msg",
            groups=(S4wrC2, C32768),
            # Two S4 wr C2 trials per pass keep the median trial time away
            # from the gap between the two groups' trial times.
            configs=(
                Config("s4wrc2", "2msg", "honest", weight=2),
                Config("c32768", "2msg", "honest"),
            ),
            setup_reps=3,
            block_passes_per_s=2.5,
            probe_group="c32768",
            crosscheck=1,
        ),
    )
}
