"""Seeded Monte-Carlo experiment campaigns with machine-readable reports.

An experiment runs one protocol many times against one prover strategy and
tallies how often the verifier outputs the true order, a wrong order, or an
abort, with Wilson score intervals on every rate.  Reports are JSON; the
deterministic portion (everything except wall-clock timing) is
byte-reproducible for a fixed configuration and seed.  An optional
newline-delimited transcript log captures every execution for independent
recomputation of the report's rates.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from random import Random

from .groups import make_group, parse_group_spec
from .polycyclic import group_order, prime_fault
from .protocol import Transcript, canonical_json_bytes, outcome_to_wire, run_repeated
from .prover import PROVERS, make_prover
from .sampling import derive_seed

_WILSON_Z95 = 1.959963984540054


class UsageError(ValueError):
    """An experiment configuration is invalid."""


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


@dataclass(frozen=True)
class ExperimentConfig:
    group: str
    protocol: str  # "2msg" | "3msg"
    prover: str = "honest"
    primes: tuple[int, ...] | None = None
    trials: int = 100
    repetitions: int = 1
    seed: int = 0
    out: str | None = None
    transcripts: str | None = None

    def validate(self) -> None:
        if self.protocol not in ("2msg", "3msg"):
            raise UsageError(f"protocol must be 2msg or 3msg, got {self.protocol!r}")
        if self.trials < 1:
            raise UsageError("trials must be >= 1")
        if self.repetitions < 1:
            raise UsageError("repetitions must be >= 1")
        if self.prover not in PROVERS:
            known = ", ".join(sorted(PROVERS))
            raise UsageError(f"unknown prover {self.prover!r}; known: {known}")
        if self.protocol == "2msg" and self.primes is None:
            raise UsageError("the 2-message protocol requires --primes")
        if self.protocol == "3msg" and self.primes is not None:
            raise UsageError("the 3-message protocol takes no primes")
        for p in self.primes or ():
            if fault := prime_fault(p):
                raise UsageError(fault)
        if self.protocol == "2msg" and self.prover == "garbage_commitment":
            raise UsageError("garbage_commitment tampers a commitment; use --protocol 3msg")


@dataclass
class Report:
    """Outcome tallies and accounting for one experiment campaign."""

    config: ExperimentConfig
    group_order: int
    correct_order: int = 0
    wrong_order: int = 0
    abort: int = 0
    total_queries_product: int = 0
    total_queries_inverse: int = 0
    total_message_bytes: int = 0
    wall_seconds: float = 0.0
    wrong_orders_seen: list[int] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return self.config.trials

    def _rates(self) -> dict:
        rates = {}
        for label, count in (
            ("correct_order", self.correct_order),
            ("wrong_order", self.wrong_order),
            ("abort", self.abort),
        ):
            low, high = wilson_interval(count, self.trials)
            rates[label] = {
                "count": count,
                "rate": count / self.trials,
                "wilson95": [low, high],
            }
        return rates

    def deterministic_dict(self) -> dict:
        """Everything reproducible from (config, seed): no wall-clock data."""
        return {
            "config": {
                "group": self.config.group,
                "protocol": self.config.protocol,
                "prover": self.config.prover,
                "primes": None if self.config.primes is None else list(self.config.primes),
                "trials": self.config.trials,
                "repetitions": self.config.repetitions,
                "seed": self.config.seed,
            },
            "group_order": self.group_order,
            "outcomes": self._rates(),
            "wrong_orders_seen": sorted(set(self.wrong_orders_seen)),
            "mean_queries_per_trial": {
                "product": self.total_queries_product / self.trials,
                "inverse": self.total_queries_inverse / self.trials,
            },
            "mean_message_bytes_per_trial": self.total_message_bytes / self.trials,
        }

    def canonical_bytes(self) -> bytes:
        return canonical_json_bytes(self.deterministic_dict())

    def to_dict(self) -> dict:
        d = self.deterministic_dict()
        d["timing"] = {
            "wall_seconds": self.wall_seconds,
            "per_trial_seconds": self.wall_seconds / self.trials,
        }
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _trial_record(index: int, outcome, transcripts: list[Transcript]) -> dict:
    return {
        "trial": index,
        "outcome": outcome_to_wire(outcome),
        "copies": [t.to_wire() for t in transcripts],
    }


def run_experiment(config: ExperimentConfig) -> Report:
    """Execute a seeded campaign and write any requested artifacts."""
    config.validate()
    G = make_group(parse_group_spec(config.group))
    expected = group_order(G)

    def factory(group, rng: Random):
        return make_prover(config.prover, group, rng)

    report = Report(config=config, group_order=expected)
    with open(config.transcripts, "wb") if config.transcripts else nullcontext() as log:
        started = time.perf_counter()
        for trial in range(config.trials):
            outcome, transcripts = run_repeated(
                G,
                config.protocol,
                factory,
                config.repetitions,
                derive_seed(config.seed, f"trial-{trial}"),
                primes=config.primes,
            )
            if outcome.aborted:
                report.abort += 1
            elif outcome.order == expected:
                report.correct_order += 1
            else:
                report.wrong_order += 1
                report.wrong_orders_seen.append(outcome.order)
            for t in transcripts:
                report.total_queries_product += t.queries.product
                report.total_queries_inverse += t.queries.inverse
                report.total_message_bytes += t.message_bytes()
            if log is not None:
                # One line per trial as it finishes: the log is never held in memory.
                log.write(canonical_json_bytes(_trial_record(trial, outcome, transcripts)))
                log.write(b"\n")
        report.wall_seconds = time.perf_counter() - started

    if config.out:
        with open(config.out, "w") as fh:
            fh.write(report.to_json() + "\n")
    return report


def recount_from_log(path: str, expected_order: int) -> dict[str, int]:
    """Recompute outcome tallies from a transcript log (report cross-check)."""
    counts = {"correct_order": 0, "wrong_order": 0, "abort": 0}
    with open(path, "rb") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            order = record["outcome"]["order"]
            if order is None:
                counts["abort"] += 1
            elif order == expected_order:
                counts["correct_order"] += 1
            else:
                counts["wrong_order"] += 1
    return counts
