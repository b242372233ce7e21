import hashlib
import json
import math
import subprocess
import sys
import time

import pytest

from orderproof import (
    ExperimentConfig,
    SubproductSampler,
    UsageError,
    compute_pcgs,
    make_group,
    parse_group_spec,
    run_experiment,
    wilson_interval,
)
from orderproof import harness, protocol
from orderproof.cli import main
from orderproof.harness import recount_from_log
from orderproof.polycyclic import _pcgs_table, is_prime


def test_wilson_interval_known_values():
    low, high = wilson_interval(5, 10)
    assert low == pytest.approx(0.2366, abs=2e-4)
    assert high == pytest.approx(0.7634, abs=2e-4)
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == 1.0
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(protocol="5msg", primes=(2,)),
        dict(protocol="2msg", primes=None),
        dict(protocol="3msg", primes=(2,)),
        dict(protocol="2msg", primes=(2, 3), trials=0),
        dict(protocol="2msg", primes=(2, 3), repetitions=0),
        dict(protocol="2msg", primes=(2, 3), prover="sneaky"),
        dict(protocol="2msg", primes=(2, 3), prover="garbage_commitment"),
        dict(protocol="2msg", primes=(2, 4)),
        dict(protocol="2msg", primes=(2, 2**89 - 1)),
    ],
)
def test_config_validation_rejects(kwargs):
    config = ExperimentConfig(group="cyclic:12", **kwargs)
    with pytest.raises(UsageError):
        config.validate()


def test_honest_experiment_counts():
    config = ExperimentConfig(
        group="cyclic:12", protocol="2msg", prover="honest",
        primes=(2, 3), trials=25, seed=7,
    )
    report = run_experiment(config)
    assert report.group_order == 12
    assert report.correct_order == 25
    assert report.correct_order + report.wrong_order + report.abort == 25
    d = report.to_dict()
    assert d["outcomes"]["correct_order"]["rate"] == 1.0
    assert "timing" in d and d["timing"]["wall_seconds"] > 0
    assert d["mean_queries_per_trial"]["product"] > 0


def test_report_deterministic_bytes():
    config = ExperimentConfig(
        group="cyclic:12", protocol="2msg", prover="guess_inflate",
        primes=(2, 3), trials=40, seed=5,
    )
    assert run_experiment(config).canonical_bytes() == run_experiment(config).canonical_bytes()


def test_wrong_orders_recorded():
    config = ExperimentConfig(
        group="cyclic:12", protocol="2msg", prover="guess_inflate",
        primes=(2, 3), trials=60, seed=2,
    )
    report = run_experiment(config)
    assert report.wrong_order > 0
    assert set(report.wrong_orders_seen) == {36}  # 12 * r on the targeted round


def test_transcript_log_recount_matches_report(tmp_path):
    log = tmp_path / "runs.ndjson"
    config = ExperimentConfig(
        group="cyclic:12", protocol="2msg", prover="guess_inflate",
        primes=(2, 3), trials=50, seed=3, transcripts=str(log),
    )
    report = run_experiment(config)
    counts = recount_from_log(str(log), report.group_order)
    assert counts == {
        "correct_order": report.correct_order,
        "wrong_order": report.wrong_order,
        "abort": report.abort,
    }


def test_readme_transcript_log_is_byte_identical(tmp_path):
    # The README's guess_inflate --transcripts example; the sha256 was taken
    # when the log was joined in memory and written after the last trial.
    log = tmp_path / "runs.ndjson"
    run_experiment(ExperimentConfig(
        group="cyclic:12", protocol="2msg", prover="guess_inflate",
        primes=(2, 3), trials=2000, seed=1, transcripts=str(log),
    ))
    digest = hashlib.sha256(log.read_bytes()).hexdigest()
    assert digest == "5b2d22fe44e71a8dccd30617091f10a7345abb2b0d07256708ea42e58c4c5221"


def test_transcript_log_is_written_as_trials_finish(tmp_path, monkeypatch):
    # A campaign that fails on its fourth trial leaves the first three lines:
    # each line is written when its trial finishes, not held until the end.
    log = tmp_path / "runs.ndjson"
    calls = []

    def run_repeated(*args, **kwargs):
        calls.append(None)
        if len(calls) == 4:
            raise RuntimeError("trial 3 fails")
        return protocol.run_repeated(*args, **kwargs)

    monkeypatch.setattr(harness, "run_repeated", run_repeated)
    with pytest.raises(RuntimeError):
        run_experiment(ExperimentConfig(
            group="cyclic:12", protocol="2msg", primes=(2, 3), trials=5, seed=1,
            transcripts=str(log),
        ))
    assert [json.loads(line)["trial"] for line in log.read_bytes().splitlines()] == [0, 1, 2]


def test_nonsolvable_honest_runs_abort():
    config = ExperimentConfig(
        group="perm:5:(1 2 3),(3 4 5)", protocol="3msg", prover="honest",
        trials=3, seed=0,
    )
    report = run_experiment(config)
    assert report.abort == 3 and report.group_order == 60


def test_repetitions_through_harness():
    config = ExperimentConfig(
        group="cyclic:12", protocol="2msg", prover="honest",
        primes=(2, 3), trials=10, repetitions=3, seed=1,
    )
    report = run_experiment(config)
    assert report.correct_order == 10


# -- CLI ------------------------------------------------------------------------

def test_cli_fixtures(capsys):
    assert main(["fixtures"]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_name = {row["name"]: row for row in payload["fixtures"]}
    assert by_name["cyclic12"]["order"] == 12
    assert by_name["s4"]["order"] == 24
    assert by_name["c3xc9"]["order"] == 27
    assert by_name["a5"]["solvable"] is False


def test_cli_run_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "run", "--group", "cyclic:12", "--protocol", "2msg", "--prover", "honest",
        "--primes", "2,3", "--trials", "10", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["outcomes"]["correct_order"]["count"] == 10


def test_cli_adversary_alias(capsys):
    code = main([
        "run", "--group", "cyclic:12", "--protocol", "2msg",
        "--adversary", "deflate", "--primes", "2,3", "--trials", "5", "--seed", "1",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["prover"] == "deflate"
    assert payload["outcomes"]["wrong_order"]["count"] == 0


def test_cli_refuses_a_prime_past_the_primality_bound(capsys):
    # 2^89 - 1 is prime, but at or above the bound of exact primality tests.
    started = time.perf_counter()
    code = main([
        "run", "--group", "perm:18:(1 2)", "--protocol", "2msg",
        "--primes", str(2**89 - 1), "--trials", "1",
    ])
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert "primality" in capsys.readouterr().err


def test_cli_list_adversaries(capsys):
    assert main(["run", "--list-adversaries"]) == 0
    names = capsys.readouterr().out.split()
    assert "guess_inflate" in names and "honest" not in names


def test_cli_sampler_test(capsys):
    code = main([
        "sampler-test", "--group", "cyclic:12", "--mode", "exact",
        "--draws", "2000", "--seed", "4",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["draws"] == 2000
    assert payload["tv_distance"] < 0.1
    assert payload["queries"] == payload["queries_by_oracle"]["product"] + (
        payload["queries_by_oracle"]["inverse"]
    )


def test_cli_sampler_test_counts_only_the_sampler(capsys):
    # The TV check enumerates the group after the draws; its queries are the
    # diagnostic's, not the sampler's.
    G = make_group(parse_group_spec("cyclic:12"))
    sampler = SubproductSampler(G, G.generators, 0.25, 0)
    for _ in range(10):
        sampler.draw()
    direct = G.query_counts().total
    assert main([
        "sampler-test", "--group", "cyclic:12", "--mode", "subproduct",
        "--epsilon", "0.25", "--draws", "10", "--seed", "0",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["queries"] == direct == 95


def test_cli_sampler_test_exact_enumerates_once(capsys, monkeypatch):
    # The exact sampler's own list of G serves the TV check.
    def fail(*args, **kwargs):
        raise AssertionError("the exact mode enumerated G a second time")

    monkeypatch.setattr("orderproof.cli.enumerate_closure", fail)
    assert main([
        "sampler-test", "--group", "perm:4:(1 2),(1 2 3 4)", "--mode", "exact",
        "--draws", "100", "--seed", "3",
    ]) == 0
    assert json.loads(capsys.readouterr().out)["tv_distance"] > 0


def test_cli_sampler_test_output_is_independent_of_the_hash_seed(child_env):
    # The TV sum runs over a set of codes, whose order follows the string
    # hash; the printed distance must not.
    argv = [
        sys.executable, "-m", "orderproof.cli", "sampler-test",
        "--group", "perm:4:(1 2),(1 2 3 4)", "--mode", "exact",
        "--draws", "500", "--seed", "3",
    ]
    outputs = [
        subprocess.run(argv, env={**child_env, "PYTHONHASHSEED": hash_seed},
                       capture_output=True, text=True, check=True).stdout
        for hash_seed in ("0", "1")
    ]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["tv_distance"] > 0


def test_cli_pcgs(capsys):
    code = main(["pcgs", "--group", "cyclic:12", "--primes", "2,3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["group_order"] == 12
    assert sorted(m for m in payload["quotient_orders"] if m > 1) == [2, 2, 3]
    assert len(payload["elements"]) == payload["length"]
    # The compacted tower the protocols run: (6, 9, 3, 1), with 3 in <6, 9>.
    assert (payload["rounds"], payload["trivial_rounds"], payload["inflatable_rounds"]) == (4, 1, 1)
    # pcgs, order, refinement and the refined tower's table, each paid once;
    # the compacted tower's table is a view of the refined one, at no query.
    assert payload["setup_queries"] == 48
    # Under two primes the refined tower is not pure over the pcgs tower
    # (g), so it gets a table of its own: two tables of 12 entries, and the
    # compacted tower's view adds none.
    assert payload["table_entries"] == 24


def test_cli_pcgs_holds_one_table_for_a_pure_tower(capsys):
    # The refined and compacted towers of cyclic:32768 read the pcgs table
    # index for index: one table of the group's 32768 elements.
    assert main(["pcgs", "--primes", "2", "--group", "cyclic:32768@seed=7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["setup_queries"], payload["table_entries"]) == (65567, 32768)


@pytest.mark.parametrize("spec,setup_queries,entries,orders", [
    ("cyclic:4096", 8195, 4096, [4096]),
    ("direct:cyclic:3,cyclic:9", 76, 27, [9, 3]),
    ("cyclic:72@seed=3", 147, 72, [4, 6, 3]),
    ("direct:cyclic:8,cyclic:9@seed=4", 166, 72, [36, 2]),
])
def test_cli_pcgs_splits_composite_blocks_at_no_query(capsys, spec, setup_queries, entries, orders):
    # The pcgs table holds each composite block as its prime steps, filled
    # from the block's one power list: the queries and entries of a single
    # step, while the pcgs keeps its composite quotient orders.
    assert main(["pcgs", "--group", spec]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["setup_queries"], payload["table_entries"]) == (setup_queries, entries)
    assert payload["quotient_orders"] == orders
    G = make_group(parse_group_spec(spec))
    table = _pcgs_table(G, compute_pcgs(G).elements)
    assert all(is_prime(m) for m in table.quotient_orders)
    assert math.prod(table.quotient_orders) == math.prod(orders)


def test_cli_pcgs_without_primes_has_no_round_counts(capsys):
    assert main(["pcgs", "--group", "cyclic:12"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["quotient_orders"] == [12]
    assert "rounds" not in payload


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--group", "cyclic:zzz", "--primes", "2", "--trials", "1"],
        ["run", "--group", "cyclic:12", "--protocol", "2msg", "--trials", "1"],
        ["run", "--group", "cyclic:12", "--protocol", "2msg", "--primes", "2,3",
         "--prover", "honest", "--adversary", "deflate", "--trials", "1"],
        ["run", "--protocol", "2msg", "--primes", "2", "--trials", "1"],
        ["sampler-test", "--group", "cyclic:12", "--draws", "0"],
        ["pcgs", "--group", "perm:5:(1 2 3),(3 4 5)"],
    ],
)
def test_cli_usage_errors_exit_nonzero(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
