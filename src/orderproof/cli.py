"""Command-line experiment runner.

Subcommands:

  run           seeded Monte-Carlo campaign of one protocol vs one prover
  fixtures      list the built-in group fixtures with orders and solvability
  sampler-test  uniformity diagnostics for the exact and subproduct samplers
  pcgs          print a (refined) polycyclic sequence for a group and the
                oracle queries its set-up cost; with --primes also the
                rounds, trivial rounds and inflatable rounds of its
                compacted tower

Group specs use the grammar ``cyclic:12``, ``direct:cyclic:4,cyclic:3``,
``perm:4:(1 2),(1 2 3 4)``, optionally suffixed with ``@seed=<u64>`` for a
relabeled element encoding.
"""

from __future__ import annotations

import argparse
import json
import sys

from .fixtures import fixture_report
from .groups import (
    ClosureOverflowError,
    GroupSpecError,
    enumerate_closure,
    make_group,
    parse_group_spec,
)
from .harness import ExperimentConfig, UsageError, run_experiment
from .polycyclic import (
    NotSolvableError,
    RefinementError,
    compact_tower,
    compute_pcgs,
    get_chain,
    group_order,
    refine_with_primes,
    table_entries,
)
from .prover import inflatable_rounds, list_adversaries
from .sampling import ExactSampler, SubproductSampler, tv_distance_empirical


def _parse_primes(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse prime list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orderproof",
        description="Verifier-prover protocols for solvable group order.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a seeded experiment campaign")
    run.add_argument("--group", help="group spec string")
    run.add_argument("--protocol", choices=["2msg", "3msg"], default="2msg")
    run.add_argument("--prover", default=None, help="honest or an adversary name")
    run.add_argument("--adversary", default=None, help="alias for --prover <adversary>")
    run.add_argument("--primes", default=None, help="comma-separated primes (2msg only)")
    run.add_argument("--trials", type=int, default=100)
    run.add_argument("--repetitions", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default=None, help="write the JSON report here")
    run.add_argument("--transcripts", default=None, help="write an NDJSON transcript log here")
    run.add_argument("--list-adversaries", action="store_true")

    sub.add_parser("fixtures", help="list built-in fixtures")

    sampler = sub.add_parser("sampler-test", help="sampler uniformity diagnostics")
    sampler.add_argument("--group", required=True)
    sampler.add_argument("--mode", choices=["exact", "subproduct"], default="exact")
    sampler.add_argument("--epsilon", type=float, default=2.0**-8)
    sampler.add_argument("--draws", type=int, default=10000)
    sampler.add_argument("--seed", type=int, default=0)

    pcgs = sub.add_parser("pcgs", help="print a polycyclic sequence")
    pcgs.add_argument("--group", required=True)
    pcgs.add_argument("--primes", default=None, help="refine with these primes")

    return parser


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_run(args) -> int:
    if args.list_adversaries:
        for name in list_adversaries():
            print(name)
        return 0
    if args.prover and args.adversary:
        raise UsageError("give either --prover or --adversary, not both")
    if not args.group:
        raise UsageError("--group is required")
    config = ExperimentConfig(
        group=args.group,
        protocol=args.protocol,
        prover=args.adversary or args.prover or "honest",
        primes=_parse_primes(args.primes),
        trials=args.trials,
        repetitions=args.repetitions,
        seed=args.seed,
        out=args.out,
        transcripts=args.transcripts,
    )
    report = run_experiment(config)
    if not args.out:
        print(report.to_json())
    return 0


def _cmd_fixtures(args) -> int:
    _emit({"fixtures": fixture_report()})
    return 0


def _cmd_sampler_test(args) -> int:
    if args.draws < 1:
        raise UsageError("--draws must be >= 1")
    G = make_group(parse_group_spec(args.group))
    before = G.query_counts()
    if args.mode == "exact":
        sampler = ExactSampler(G, G.generators, args.seed)
        epsilon = 0.0
    else:
        sampler = SubproductSampler(G, G.generators, args.epsilon, args.seed)
        epsilon = args.epsilon
    counts: dict[bytes, int] = {}
    for _ in range(args.draws):
        code = sampler.draw()
        counts[code] = counts.get(code, 0) + 1
    # The sampler's cost only.  The TV check reads the exact sampler's own
    # list of G; the subproduct mode enumerates G after this count.
    delta = G.query_counts() - before
    if args.mode == "exact":
        subgroup = sampler.elements
    else:
        subgroup = enumerate_closure(G, G.generators)
    tv = tv_distance_empirical(counts, subgroup)
    _emit(
        {
            "group": args.group,
            "mode": args.mode,
            "epsilon": epsilon,
            "draws": args.draws,
            "tv_distance": tv,
            "queries": delta.total,
            "queries_by_oracle": {"product": delta.product, "inverse": delta.inverse},
        }
    )
    return 0


def _cmd_pcgs(args) -> int:
    G = make_group(parse_group_spec(args.group))
    sequence = compute_pcgs(G)
    primes = _parse_primes(args.primes)
    payload = {"group": args.group, "group_order": group_order(G)}
    if primes is not None:
        sequence = refine_with_primes(G, sequence, primes)
        tower = compact_tower(G, sequence)
        payload.update(
            rounds=len(tower),
            trivial_rounds=tower.quotient_orders.count(1),
            inflatable_rounds=len(inflatable_rounds(get_chain(G, tower.elements))),
        )
    payload.update(
        # G is fresh, so every query it has answered is set-up.
        setup_queries=G.query_counts().total,
        table_entries=table_entries(G),
        length=len(sequence),
        elements=[code.hex() for code in sequence.elements],
        primes=None if sequence.primes is None else list(sequence.primes),
        quotient_orders=list(sequence.quotient_orders),
    )
    _emit(payload)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "fixtures": _cmd_fixtures,
    "sampler-test": _cmd_sampler_test,
    "pcgs": _cmd_pcgs,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (
        UsageError,
        GroupSpecError,
        RefinementError,
        NotSolvableError,
        ClosureOverflowError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
