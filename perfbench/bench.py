"""One workload with one seed: set-up, the timed loop, checks and metrics.

The loop is closed with one client: each trial is one ``run_repeated``
call, and the next starts when the previous one returns.  Trials run in
passes, each configuration ``weight`` times per pass, so each run holds
the same mix.  The first passes form a fixed block whose trials depend only
on the seed; query, byte and round counts are taken over that block, so
the same seed gives the same counts.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from random import Random
from pathlib import Path
from time import perf_counter

import orderproof
from orderproof import harness, polycyclic, protocol, prover, sampling
from orderproof.groups import enumerate_closure, make_group, parse_group_spec
from orderproof.prover import make_prover
from orderproof.sampling import derive_seed

from tracing import SpanTotals, Tracer, installed
from workloads import WORKLOADS, Config, Workload

HERE = Path(__file__).resolve().parent
SRC = Path(orderproof.__file__).resolve().parent.parent

#: (unit, better) of the end-to-end metrics a run with tracing off reports.
END_TO_END = {
    "trials_per_s": ("1/s", "higher"),
    "trial_p50_ms": ("ms", "lower"),
    "trial_tail_ms": ("ms", "lower"),
    "verifier_queries_per_trial": ("count", "lower"),
    "oracle_queries_per_trial": ("count", "lower"),
    "message_bytes_per_trial": ("bytes", "lower"),
    "setup_s": ("s", "lower"),
    "setup_queries": ("count", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: (unit, better) of the per-layer metrics a traced run reports.
PER_LAYER = {
    "groups.product_ns": ("ns", "lower"),
    "groups.inverse_ns": ("ns", "lower"),
    "groups.closure_elements_per_s": ("1/s", "higher"),
    "groups.products_per_trial": ("count", "lower"),
    "groups.inverses_per_trial": ("count", "lower"),
    "polycyclic.compute_pcgs_s": ("s", "lower"),
    "polycyclic.compute_pcgs_queries": ("count", "lower"),
    "polycyclic.refine_s": ("s", "lower"),
    "polycyclic.chain_build_s": ("s", "lower"),
    "polycyclic.chain_entries": ("count", "lower"),
    "polycyclic.get_chain_ms_per_trial": ("ms", "lower"),
    "polycyclic.chain_cache_hit_ratio": ("ratio", "higher"),
    "polycyclic.rounds": ("count", "lower"),
    "polycyclic.trivial_rounds": ("count", "lower"),
    "prover.honest_commitment_s": ("s", "lower"),
    "prover.commit_ms": ("ms", "lower"),
    "prover.respond_ms": ("ms", "lower"),
    "prover.queries_per_trial": ("count", "lower"),
    "protocol.check_commitment_ms": ("ms", "lower"),
    "protocol.check_commitment_queries": ("count", "lower"),
    "protocol.check_commitment_rejects": ("1/trial", "higher"),
    "protocol.setup_2msg_ms": ("ms", "lower"),
    "protocol.finalize_ms": ("ms", "lower"),
    "protocol.finalize_queries": ("count", "lower"),
    "protocol.encode_ms": ("ms", "lower"),
    "protocol.decode_ms": ("ms", "lower"),
    "protocol.runner_self_ms": ("ms", "lower"),
    "sampling.subproduct_ms_per_draw": ("ms", "lower"),
    "sampling.subproduct_queries_per_trial": ("count", "lower"),
    "sampling.cube_builds_per_draw": ("ratio", "lower"),
}

#: (unit, better) of what runs report besides the metrics above.
REPORT_ONLY = {
    "failure_rate": ("ratio", "lower"),
    "sampling.subproduct_ms_per_trial": ("ms", "lower"),
    "trace.untraced_trials_per_s": ("1/s", "higher"),
    "trace.traced_trials_per_s": ("1/s", "higher"),
    "trace.overhead": ("ratio", "lower"),
}

#: Metrics that repeat exactly for a given seed.
DETERMINISTIC = (
    "verifier_queries_per_trial",
    "oracle_queries_per_trial",
    "message_bytes_per_trial",
    "setup_queries",
    "polycyclic.rounds",
)

#: Label of the warm-up trials' seeds.  They do not depend on the workload
#: seed, so every run's set-up does the same work.
WARM_UP_LABEL = "orderproof-bench/warm-up"

#: Trials per window of trial_tail_ms.
TAIL_WINDOW = 1000

#: First-pass trials re-run to compare transcript bytes.
REPLAY_TRIALS = 4

#: Trials of the harness cross-check's run_experiment.
CROSSCHECK_TRIALS = 3

#: Operand pairs timed per group by the oracle microbenchmark.
MICROBENCH_OPS = 20_000

ENCODE = ("protocol.challenge_to_wire", "protocol.response_to_wire",
          "protocol.commitment_to_wire", "protocol.canonical_json_bytes")
DECODE = ("protocol.challenge_from_wire", "protocol.response_from_wire",
          "protocol.commitment_from_wire")
RUNNER = ("protocol.run_repeated", "protocol.run_protocol_2msg", "protocol.run_protocol_3msg")
PROVER = ("prover.commit", "prover.respond")
SAMPLER = ("sampling.cube_build", "sampling.draw")
ALL_PHASES = ("setup", "trial", "probe")


def context(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """What a timing depends on: the machine, the interpreter and the inputs."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "host": platform.node(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


@dataclass
class TrialRecord:
    config: int
    seconds: float
    verifier_product: int
    verifier_inverse: int
    oracle_product: int
    oracle_inverse: int
    message_bytes: int
    executions: int
    finalized: int  # executions that reached verifier_finalize
    commitments: int  # executions whose commitment was checked
    failure: str | None


def counted(r: TrialRecord) -> tuple[int, int, int, int]:
    return r.verifier_product, r.verifier_inverse, r.oracle_product, r.oracle_inverse


def outcome_failure(prover_name: str, outcome, transcripts, order: int) -> str | None:
    """Why an outcome breaks the correctness rule for its prover, or None.

    Honest provers must yield exactly |G|; deflation must never yield a
    wrong order; a garbage commitment must abort at the commitment check;
    every other adversary may abort or inflate to a multiple of |G|.
    """
    if prover_name == "honest":
        ok = outcome.order == order
    elif prover_name == "deflate":
        ok = outcome.aborted or outcome.order == order
    elif prover_name == "garbage_commitment":
        ok = outcome.aborted and all(
            (t.outcome.reason or "").startswith("commitment check failed") for t in transcripts
        )
    else:
        ok = outcome.aborted or outcome.order % order == 0
    return None if ok else f"{prover_name} returned {outcome}"


def transcripts_digest(transcripts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for t in transcripts:
        h.update(t.canonical_bytes())
    return h.hexdigest()


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    With ten or fewer samples there is no such percentile; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def windowed_tail(times: list[float]) -> tuple[float, float]:
    """Median over windows of TAIL_WINDOW consecutive trials of each window's tail.

    Over a whole run of short trials the tail percentile climbs past
    p99.9, where it only counts rare pauses of the machine; per window it
    stays near p99.  Runs shorter than two windows form one window.
    """
    k = max(1, len(times) // TAIL_WINDOW)
    bounds = [round(i * len(times) / k) for i in range(k + 1)]
    tails = [tail(times[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return statistics.median(t[0] for t in tails), tails[0][1]


def setup_once(workload: str, seed: int, seconds: float) -> list:
    """One set-up on fresh oracles: [seconds, queries, failed warm-ups]."""
    bench = Bench(WORKLOADS[workload], seed, seconds)
    _, elapsed, queries = bench.set_up(bench.factories(None))
    return [elapsed, queries, bench.failed_setups]


def setup_in_child(workload: str, seed: int, seconds: float) -> list:
    """``setup_once`` in a fresh interpreter, as a campaign starts; waits for it."""
    code = (f"import json, sys; sys.path[:0] = {[str(SRC), str(HERE)]!r}; import bench; "
            f"print(json.dumps(bench.setup_once({workload!r}, {seed!r}, {seconds!r})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=HERE)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed in a child process:\n{proc.stderr}")
    return json.loads(proc.stdout)


class TrialLoop:
    """The closed loop over one set of oracles, run one pass at a time.

    ``busy`` is the loop's wall time without the correctness checks,
    digests and decoding that run between trials.  ``digests`` holds the
    transcript digest of each configuration's first trial.
    """

    def __init__(self, bench: "Bench", oracles, factories, tracer: Tracer | None = None):
        self.bench, self.oracles, self.factories, self.tracer = bench, oracles, factories, tracer
        configs = bench.workload.configs
        self.schedule = [ci for ci, cfg in enumerate(configs) for _ in range(cfg.weight)]
        self.counts = [0] * len(configs)
        self.records: list[TrialRecord] = []
        self.digests: list[str] = []
        self.busy = 0.0

    def run_pass(self) -> None:
        bench, tracer, records = self.bench, self.tracer, self.records
        bookkeeping = 0.0
        started = perf_counter()
        for ci in self.schedule:
            cfg = bench.workload.configs[ci]
            G = self.oracles[cfg.group]
            index = self.counts[ci]
            self.counts[ci] += 1
            if tracer is not None:
                tracer.trial, tracer.oracle = len(records), G
            q0 = G.query_counts()
            t0 = perf_counter()
            try:
                outcome, transcripts = bench.trial(
                    self.oracles, self.factories, ci,
                    derive_seed(bench.config_seeds[ci], f"trial-{index}"))
                failure = None
            except Exception as exc:  # a failed trial is counted, not fatal
                outcome, transcripts = None, []
                failure = f"{cfg.label} trial {index} raised {type(exc).__name__}: {exc}"
            t1 = perf_counter()
            q1 = G.query_counts()
            if failure is None:
                failure = outcome_failure(cfg.prover, outcome, transcripts, bench.orders[cfg.group])
            records.append(TrialRecord(
                ci, t1 - t0,
                sum(t.queries.product for t in transcripts),
                sum(t.queries.inverse for t in transcripts),
                q1.product - q0.product, q1.inverse - q0.inverse,
                sum(t.message_bytes() for t in transcripts),
                len(transcripts),
                sum(1 for t in transcripts if any(m.kind == "response" for m in t.messages)),
                sum(1 for t in transcripts if any(m.kind == "commitment" for m in t.messages)),
                failure,
            ))
            if index == 0:
                if tracer is not None:
                    tracer.trial = "check"
                self.digests.append(transcripts_digest(transcripts))
            if tracer is not None:
                tracer.trial = len(records) - 1
                for t in transcripts:
                    for m in t.messages:
                        getattr(protocol, f"{m.kind}_from_wire")(m.body)
            bookkeeping += perf_counter() - t1
        self.busy += perf_counter() - started - bookkeeping


class Bench:
    """Runs one workload with one seed in this process."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.config_seeds = [derive_seed(seed, f"config/{c.label}") for c in workload.configs]
        self.failed_setups: list[str] = []
        # |G| from group_order on oracles the measured run never touches.
        self.orders = {
            g.name: polycyclic.group_order(make_group(parse_group_spec(g.relabeled_spec())))
            for g in workload.groups
        }

    # -- inputs ------------------------------------------------------------

    def factories(self, tracer: Tracer | None):
        def factory_for(cfg: Config):
            def factory(G, rng):
                p = make_prover(cfg.prover, G, rng)
                if tracer is not None:
                    p.commit = tracer.wrap("prover.commit", p.commit)
                    p.respond = tracer.wrap("prover.respond", p.respond)
                return p
            return factory
        return [factory_for(c) for c in self.workload.configs]

    def trial(self, oracles, factories, ci: int, seed: int):
        cfg = self.workload.configs[ci]
        return protocol.run_repeated(
            oracles[cfg.group], cfg.protocol, factories[ci], cfg.repetitions, seed,
            primes=self.workload.group(cfg.group).primes if cfg.protocol == "2msg" else None,
        )

    # -- set-up ------------------------------------------------------------

    def set_up(self, factories, tracer: Tracer | None = None):
        """Fresh oracles plus one untimed warm-up trial per configuration.

        Returns (oracles, wall seconds, oracle queries).
        """
        oracles, seconds, queries = {}, 0.0, 0
        for group in self.workload.groups:
            started = perf_counter()
            G = make_group(parse_group_spec(group.relabeled_spec()))
            oracles[group.name] = G
            if tracer is not None:
                tracer.oracle = G
            for ci, cfg in enumerate(self.workload.configs):
                if cfg.group == group.name:
                    outcome, transcripts = self.trial(
                        oracles, factories, ci, derive_seed(0, f"{WARM_UP_LABEL}/{cfg.label}"))
                    failure = outcome_failure(cfg.prover, outcome, transcripts, self.orders[group.name])
                    if failure:
                        self.failed_setups.append(f"warm-up {cfg.label}: {failure}")
            seconds += perf_counter() - started
            queries += G.query_counts().total
        return oracles, seconds, queries

    def tower(self, oracles) -> dict:
        """Rounds and trivial rounds of every tower the workload's verifiers use."""
        shapes = {}
        for cfg in self.workload.configs:
            G, group = oracles[cfg.group], self.workload.group(cfg.group)
            key = f"{group.name}/{cfg.protocol}"
            if key in shapes:
                continue
            if cfg.protocol == "2msg":
                refined = polycyclic.refine_with_primes(G, polycyclic.compute_pcgs(G), group.primes)
                orders = refined.quotient_orders
            else:
                elements = prover.honest_commitment(G).elements
                orders = polycyclic.get_chain(G, elements).quotient_orders
            shapes[key] = {"rounds": len(orders), "trivial_rounds": sum(1 for m in orders if m == 1)}
        return shapes

    # -- the timed loop ----------------------------------------------------

    def loop(self, oracles, factories, block: int, seconds: float) -> "TrialLoop":
        """Run ``block`` trials, then whole passes until ``seconds`` have passed."""
        trials = TrialLoop(self, oracles, factories)
        while len(trials.records) < block or trials.busy < seconds:
            trials.run_pass()
        return trials

    # -- checks ------------------------------------------------------------

    def replay(self, oracles, factories, digests: list[str]) -> str | None:
        """Re-run the first trials of the first pass; compare canonical transcript bytes."""
        for ci, expected in enumerate(digests[:REPLAY_TRIALS]):
            _, transcripts = self.trial(
                oracles, factories, ci, derive_seed(self.config_seeds[ci], "trial-0"))
            if transcripts_digest(transcripts) != expected:
                return f"{self.workload.configs[ci].label}: replayed transcript bytes differ"
        return None

    def crosscheck(self, records: list[TrialRecord], block: int) -> str | None:
        """harness.run_experiment on the same seeds must report the same means."""
        ci = self.workload.crosscheck
        cfg = self.workload.configs[ci]
        group = self.workload.group(cfg.group)
        mine = [r for r in records[:block] if r.config == ci][:CROSSCHECK_TRIALS]
        report = harness.run_experiment(harness.ExperimentConfig(
            group=group.relabeled_spec(),
            protocol=cfg.protocol,
            prover=cfg.prover,
            primes=group.primes if cfg.protocol == "2msg" else None,
            trials=len(mine),
            repetitions=cfg.repetitions,
            seed=self.config_seeds[ci],
        )).deterministic_dict()
        k = len(mine)
        expected = {
            "product": sum(r.verifier_product for r in mine) / k,
            "inverse": sum(r.verifier_inverse for r in mine) / k,
            "bytes": sum(r.message_bytes for r in mine) / k,
        }
        got = dict(report["mean_queries_per_trial"], bytes=report["mean_message_bytes_per_trial"])
        if got != expected:
            return f"{cfg.label}: run_experiment reports {got}, the benchmark measured {expected}"
        return None

    # -- metrics -----------------------------------------------------------

    def trial_metrics(self, records: list[TrialRecord], busy: float, block: int) -> dict:
        times = [r.seconds for r in records]
        fixed = records[:block]
        n, nb = len(records), len(fixed)
        tail_s, tail_pct = windowed_tail(times)
        failed = sum(1 for r in records if r.failure)
        return {
            "trials_per_s": (n / busy, n, "trials"),
            "trial_p50_ms": (statistics.median(times) * 1e3, n, "trials"),
            "trial_tail_ms": (tail_s * 1e3, n, f"trials, p{tail_pct:.2f} of {TAIL_WINDOW}-trial windows"),
            "verifier_queries_per_trial": (
                sum(r.verifier_product + r.verifier_inverse for r in fixed) / nb, nb, "block trials"),
            "oracle_queries_per_trial": (
                sum(r.oracle_product + r.oracle_inverse for r in fixed) / nb, nb, "block trials"),
            "message_bytes_per_trial": (sum(r.message_bytes for r in fixed) / nb, nb, "block trials"),
            "failure_rate": (failed / n, n, "trials"),
        }

    def layer_metrics(self, spans: SpanTotals, records: list[TrialRecord], probe: dict) -> dict:
        n = len(records)
        trial = ("trial",)
        setup = ("setup", "probe")

        def per_call(names, key="self_ns", scale=1e-6):
            calls = spans.get(names, ALL_PHASES, "calls")
            return (spans.get(names, ALL_PHASES, key) * scale / calls if calls else 0.0), calls, "calls"

        def per_trial(names, key="self_ns", scale=1e-6):
            return spans.get(names, trial, key) * scale / n, n, "trials"

        chain_lookups = spans.get(("polycyclic.get_chain",), trial, "calls")
        trial_builds = len(spans.get(("polycyclic.get_chain",), trial, "notes"))
        built = spans.get(("polycyclic.get_chain",), ALL_PHASES, "notes")
        setup_builds = len(spans.get(("polycyclic.get_chain",), setup, "notes"))
        draws = spans.get(("sampling.draw",), ALL_PHASES, "calls")
        cube_builds = spans.get(("sampling.cube_build",), ALL_PHASES, "calls")
        rejects = sum(spans.get(("protocol.verifier_check_commitment",), trial, "notes"))
        return {
            "groups.product_ns": probe["product_ns"],
            "groups.inverse_ns": probe["inverse_ns"],
            "groups.closure_elements_per_s": probe["closure_elements_per_s"],
            "groups.products_per_trial": (sum(r.oracle_product for r in records) / n, n, "trials"),
            "groups.inverses_per_trial": (sum(r.oracle_inverse for r in records) / n, n, "trials"),
            "polycyclic.compute_pcgs_s": (
                spans.get(("polycyclic.compute_pcgs",), setup, "self_ns") * 1e-9,
                spans.get(("polycyclic.compute_pcgs",), setup, "calls"), "set-up and probe calls"),
            "polycyclic.compute_pcgs_queries": (
                spans.get(("polycyclic.compute_pcgs",), setup, "self_q"),
                spans.get(("polycyclic.compute_pcgs",), setup, "calls"), "set-up and probe calls"),
            "polycyclic.refine_s": (
                spans.get(("polycyclic.refine_with_primes",), setup, "self_ns") * 1e-9,
                spans.get(("polycyclic.refine_with_primes",), setup, "calls"), "set-up and probe calls"),
            "polycyclic.chain_build_s": (
                spans.get(("polycyclic.get_chain",), setup, "noted_ns") * 1e-9,
                setup_builds, "set-up and probe builds"),
            "polycyclic.chain_entries": (sum(built), len(built), "chains built"),
            "polycyclic.get_chain_ms_per_trial": per_trial(("polycyclic.get_chain",)),
            "polycyclic.chain_cache_hit_ratio": (
                (chain_lookups - trial_builds) / chain_lookups if chain_lookups else 0.0,
                chain_lookups, "trial lookups"),
            "prover.honest_commitment_s": (
                spans.get(("prover.honest_commitment",), setup, "self_ns") * 1e-9,
                spans.get(("prover.honest_commitment",), setup, "calls"), "set-up and probe calls"),
            "prover.commit_ms": per_call(("prover.commit",)),
            "prover.respond_ms": per_call(("prover.respond",)),
            "prover.queries_per_trial": per_trial(PROVER, "incl_q", 1),
            "protocol.check_commitment_ms": per_call(("protocol.verifier_check_commitment",)),
            "protocol.check_commitment_queries": per_call(
                ("protocol.verifier_check_commitment",), "self_q", 1),
            "protocol.check_commitment_rejects": (rejects / n, n, "trials"),
            "protocol.setup_2msg_ms": per_call(("protocol.verifier_setup_2msg",)),
            "protocol.finalize_ms": per_call(("protocol.verifier_finalize",)),
            "protocol.finalize_queries": per_call(("protocol.verifier_finalize",), "self_q", 1),
            "protocol.encode_ms": per_trial(ENCODE),
            "protocol.decode_ms": per_trial(DECODE),
            "protocol.runner_self_ms": per_trial(RUNNER),
            "sampling.subproduct_ms_per_draw": (
                spans.get(SAMPLER, ALL_PHASES, "incl_ns") * 1e-6 / draws if draws else 0.0,
                draws, "draws"),
            "sampling.subproduct_ms_per_trial": per_trial(SAMPLER, "incl_ns"),
            "sampling.subproduct_queries_per_trial": per_trial(SAMPLER, "incl_q", 1),
            "sampling.cube_builds_per_draw": (cube_builds / draws if draws else 0.0, draws, "draws"),
        }

    # -- layer probes ------------------------------------------------------

    def probe(self, oracles, tracer: Tracer) -> None:
        """Call every layer once on the probe group, traced as phase "probe".

        Each per-call layer metric then has a value on every workload, also
        where the workload's own trials never reach that layer.
        """
        group = self.workload.group(self.workload.probe_group)
        G = oracles[group.name]
        tracer.trial, tracer.oracle = "probe", G
        rng = Random(derive_seed(self.seed, "probe"))
        commitment = prover.honest_commitment(G)
        tracer.wrap("prover.commit", make_prover("honest", G, rng).commit)()
        protocol.verifier_check_commitment(G, G.generators, commitment)
        protocol.verifier_setup_2msg(G, group.primes, rng)
        epsilon = 2.0 ** -min(2 * G.encoding_length, 1000)
        sampling.SubproductSampler(G, G.generators, epsilon, rng).draw()

    def microbench(self, oracles) -> dict:
        """Oracle product and inverse cost, and closure speed on fresh oracles."""
        rng = Random(derive_seed(self.seed, "microbench"))
        product_ns, inverse_ns = [], []
        elements, closure_s = 0, 0.0
        for group in self.workload.groups:
            G = oracles[group.name]
            pool = [G.identity]
            for _ in range(255):
                pool.append(G.product(pool[-1], rng.choice(G.generators)))
            pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(MICROBENCH_OPS)]
            singles = [a for a, _ in pairs]
            t0 = perf_counter()
            for a, b in pairs:
                G.product(a, b)
            t1 = perf_counter()
            for a in singles:
                G.inverse(a)
            t2 = perf_counter()
            product_ns.append((t1 - t0) * 1e9 / MICROBENCH_OPS)
            inverse_ns.append((t2 - t1) * 1e9 / MICROBENCH_OPS)
            fresh = make_group(parse_group_spec(group.relabeled_spec()))
            t0 = perf_counter()
            elements += len(enumerate_closure(fresh, fresh.generators))
            closure_s += perf_counter() - t0
        k = len(product_ns)
        return {
            "product_ns": (statistics.fmean(product_ns), k * MICROBENCH_OPS, "products"),
            "inverse_ns": (statistics.fmean(inverse_ns), k * MICROBENCH_OPS, "inverses"),
            "closure_elements_per_s": (elements / closure_s, elements, "elements"),
        }

    # -- whole runs --------------------------------------------------------

    def run(self) -> dict:
        """Untraced run: the end-to-end metrics and the correctness checks.

        All set-ups but the last run in child processes, one at a time, so
        each starts from a fresh interpreter as a campaign would and peak
        memory is that of one set-up.
        """
        children = [setup_in_child(self.workload.name, self.seed, self.seconds)
                    for _ in range(self.workload.setup_reps - 1)]
        factories = self.factories(None)
        oracles, seconds, queries = self.set_up(factories)
        setup_times = [c[0] for c in children] + [seconds]
        setup_queries = [c[1] for c in children] + [queries]
        self.failed_setups += [f for c in children for f in c[2]]
        tower = self.tower(oracles)
        block = self.workload.block_trials(self.seconds)
        trials = self.loop(oracles, factories, block, self.seconds)
        records, digests = trials.records, trials.digests
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        metrics = self.trial_metrics(records, trials.busy, block)
        metrics["setup_s"] = (statistics.median(setup_times), len(setup_times), "set-ups")
        metrics["setup_queries"] = (queries, len(setup_queries), "set-ups")
        metrics["peak_rss_mb"] = (peak_rss_mb, 1, "process")
        metrics.update(self.tower_metrics(tower))
        checks = {
            "outcomes": self.failed_setups[0] if self.failed_setups else None,
            "setup_queries_repeat": None if len(set(setup_queries)) == 1
            else f"set-up query counts differ across set-ups: {setup_queries}",
            "replay": self.replay(oracles, factories, digests),
            "harness": self.crosscheck(records, block),
        }
        return self.report(False, metrics, records, checks, tower, digests)

    def run_traced(self) -> dict:
        """Traced run: the same block on two sets of fresh oracles, one traced.

        Passes alternate between the two sides, and which side goes first,
        so both meet the same machine; their query counts and transcripts
        must agree, and their speeds give the tracing overhead.
        """
        block = self.workload.block_trials(self.seconds / 2)
        factories = self.factories(None)
        oracles, _, setup_queries = self.set_up(factories)
        untraced = TrialLoop(self, oracles, factories)

        tracer = Tracer()
        traced_factories = self.factories(tracer)
        with installed(tracer):
            traced_oracles, _, traced_setup_queries = self.set_up(traced_factories, tracer)
        traced = TrialLoop(self, traced_oracles, traced_factories, tracer)
        passes = 0
        while len(traced.records) < block:
            sides = (untraced, traced) if passes % 2 == 0 else (traced, untraced)
            passes += 1
            for side in sides:
                if side is traced:
                    with installed(tracer):
                        side.run_pass()
                else:
                    side.run_pass()
        with installed(tracer):
            self.probe(traced_oracles, tracer)
        spans = SpanTotals(tracer.spans)
        tower = self.tower(traced_oracles)
        records = traced.records

        metrics = self.layer_metrics(spans, records, self.microbench(traced_oracles))
        metrics.update(self.tower_metrics(tower))
        n = len(records)
        metrics["trace.untraced_trials_per_s"] = (n / untraced.busy, n, "block trials")
        metrics["trace.traced_trials_per_s"] = (n / traced.busy, n, "block trials")
        metrics["trace.overhead"] = (traced.busy / untraced.busy - 1, n, "block trials")
        checks = {
            "outcomes": self.failed_setups[0] if self.failed_setups else None,
            "traced_queries": None if list(map(counted, records)) == list(map(counted, untraced.records))
            and setup_queries == traced_setup_queries
            else "traced query counts differ from untraced ones",
            "traced_transcripts": None if untraced.digests == traced.digests
            else "traced transcripts differ from untraced ones",
            "spans": self.span_sanity(tracer, spans, records),
            "harness": self.crosscheck(records, block),
        }
        self.tracer = tracer
        return self.report(True, metrics, untraced.records + records, checks, tower,
                           untraced.digests)

    def tower_metrics(self, tower: dict) -> dict:
        return {
            "polycyclic.rounds": (sum(s["rounds"] for s in tower.values()), len(tower), "towers"),
            "polycyclic.trivial_rounds": (
                sum(s["trivial_rounds"] for s in tower.values()), len(tower), "towers"),
        }

    @staticmethod
    def span_sanity(tracer: Tracer, spans: SpanTotals, records: list[TrialRecord]) -> str | None:
        """Span counts must match the calls the trials made; no self time is negative."""
        trial = ("trial",)
        expected = {
            ("protocol.run_repeated",): len(records),
            ("protocol.run_protocol_2msg", "protocol.run_protocol_3msg"):
                sum(r.executions for r in records),
            ("protocol.verifier_finalize",): sum(r.finalized for r in records),
            ("protocol.verifier_check_commitment",): sum(r.commitments for r in records),
        }
        for names, count in expected.items():
            seen = spans.get(names, trial, "calls")
            if seen != count:
                return f"{'+'.join(names)}: {seen} spans for {count} calls"
        if tracer._stack:
            return "spans left open"
        if spans.negative_self:
            return f"{spans.negative_self} spans with negative self time or queries"
        return None

    def report(self, traced: bool, metrics: dict, records: list[TrialRecord], checks: dict,
               tower: dict, digests: list[str]) -> dict:
        failures = [r.failure for r in records if r.failure]
        problems = {k: v for k, v in checks.items() if v is not None}
        units = {**END_TO_END, **PER_LAYER, **REPORT_ONLY}
        return {
            "context": context(self.workload.name, self.seed, self.seconds, traced),
            "correct": not failures and not problems,
            "attempted": len(records),
            "failed": len(failures),
            "first_failures": failures[:5],
            "checks": {k: v or "ok" for k, v in checks.items()},
            "tower": tower,
            "transcript_digest": hashlib.blake2b("".join(digests).encode(), digest_size=16).hexdigest(),
            "metrics": {
                name: {"value": value, "unit": units[name][0], "n": n, "of": of}
                for name, (value, n, of) in metrics.items()
            },
        }
