from collections import Counter
from random import Random

import pytest

from orderproof import (
    HonestProver,
    PROVERS,
    ProverError,
    build_commitment,
    compute_pcgs,
    eval_word,
    get_chain,
    group_order,
    honest_commitment,
    list_adversaries,
    make_group,
    make_prover,
    parse_group_spec,
    prime_factors,
    refine_with_primes,
    run_protocol_2msg,
    run_protocol_3msg,
    verifier_check_commitment,
)
from orderproof.fixtures import PROTOCOL_FIXTURES, get_fixture
from orderproof.polycyclic import _pcgs_table
from orderproof.prover import _pick_other_element, relation_schedule

PROTOCOL_SPECS = [get_fixture(name).spec for name in PROTOCOL_FIXTURES]


def _factory(name):
    return lambda G, rng: make_prover(name, G, rng)


def _honest_refined_sequence(G):
    """The refined sequence behind the honest commitment."""
    return refine_with_primes(G, compute_pcgs(G), prime_factors(group_order(G)))


def test_registry_and_listing():
    assert "honest" in PROVERS
    assert sorted(list_adversaries()) == sorted(
        ["guess_inflate", "deflate", "random_bits", "garbage_commitment", "order_forger"]
    )
    with pytest.raises(ValueError):
        make_prover("nope", None, Random(0))


def test_honest_commitment_trivial_group(group_for):
    G = group_for("cyclic:1")
    c = honest_commitment(G)
    assert c.elements == () and c.rows == ((),) * len(G.generators)
    assert verifier_check_commitment(G, G.generators, c) is None


@pytest.mark.parametrize(
    "spec", ["cyclic:12", "direct:cyclic:3,cyclic:9", "perm:3:(1 2),(1 2 3)",
             "perm:4:(1 2),(1 2 3 4)", "perm:4:(1 2 3 4),(1 3)"]
)
def test_honest_commitment_passes_checks(group_for, spec):
    G = group_for(spec)
    assert verifier_check_commitment(G, G.generators, honest_commitment(G)) is None


def test_commitment_power_rows_hold(group_for):
    # The power rows follow the s generator rows, one per i = 2..t.
    G = group_for("cyclic:12")
    c = honest_commitment(G)
    t, s = len(c.elements), len(G.generators)
    for i in range(2, t + 1):
        lhs = G.power(c.elements[i - 1], c.primes[i - 1])
        assert eval_word(G, c.elements[: i - 1], c.rows[s + i - 2]) == lhs


def test_commitment_conjugate_rows_hold(group_for):
    # The conjugate rows follow the power rows, for i = 2..t and l = 1..i-1.
    G = group_for("perm:3:(1 2),(1 2 3)")
    c = honest_commitment(G)
    t, s = len(c.elements), len(G.generators)
    k = s + t - 1
    for i in range(2, t + 1):
        h_inv = G.inverse(c.elements[i - 1])
        for l in range(1, i):
            conj = G.product(G.product(c.elements[i - 1], c.elements[l - 1]), h_inv)
            assert eval_word(G, c.elements[: i - 1], c.rows[k]) == conj
            k += 1
    assert k == len(c.rows)


def _relation_target(G, c, family, i, l):
    """The target of one relation, computed here independently of the prover."""
    h = c.elements
    if family == "generator":
        return G.generators[i - 1]
    if family == "power":
        return G.power(h[i - 1], c.primes[i - 1])
    return G.product(G.product(h[i - 1], h[l - 1]), G.inverse(h[i - 1]))


@pytest.mark.parametrize("spec", PROTOCOL_SPECS + ["direct:perm:4:(1 2),(1 2 3 4),perm:3:(1 2),(1 2 3)"])
def test_honest_rows_evaluate_to_their_relation_targets(group_for, spec):
    G = group_for(spec)
    c = honest_commitment(G)
    t, s = len(c.elements), len(G.generators)
    assert len(c.rows) == s + max(0, t - 1) + t * (t - 1) // 2
    schedule = list(relation_schedule(s, t))
    assert [family for family, *_ in schedule] == (
        ["generator"] * s + ["power"] * max(0, t - 1) + ["conjugate"] * (t * (t - 1) // 2))
    for relation, row in zip(schedule, c.rows, strict=True):
        prefix = relation[3]
        assert len(row) == prefix
        assert eval_word(G, c.elements[:prefix], row) == _relation_target(G, c, *relation[:3])


def _parent_garbage(c, s, seed):
    """The garbage commitment as drawn over the three tables, laid out as flat rows.

    Splits the honest rows into generator rows, power rows and per-element
    conjugate blocks, bumps one entry by the path enumeration that drew
    over those tables, and flattens the result back in row order.
    """
    t = len(c.elements)
    generator_exponents = list(c.rows[:s])
    power_exponents = list(c.rows[s:s + max(0, t - 1)])
    rest = iter(c.rows[s + max(0, t - 1):])
    conjugate_exponents = [[next(rest) for _ in range(i - 1)] for i in range(2, t + 1)]
    paths = []
    for i, row in enumerate(generator_exponents):
        paths.extend(("generator", i, j) for j in range(len(row)))
    for i, row in enumerate(power_exponents):
        paths.extend(("power", i, j) for j in range(len(row)))
    for i, block in enumerate(conjugate_exponents):
        for l, row in enumerate(block):
            paths.extend(("conjugate", i, l, j) for j in range(len(row)))
    path = paths[Random(seed).randrange(len(paths))]

    def bump(row, j):
        return row[:j] + (row[j] + 1,) + row[j + 1:]

    if path[0] == "generator":
        _, i, j = path
        generator_exponents[i] = bump(generator_exponents[i], j)
    elif path[0] == "power":
        _, i, j = path
        power_exponents[i] = bump(power_exponents[i], j)
    else:
        _, i, l, j = path
        conjugate_exponents[i][l] = bump(conjugate_exponents[i][l], j)
    flat = generator_exponents + power_exponents
    return tuple(flat + [row for block in conjugate_exponents for row in block])


@pytest.mark.parametrize("spec", [
    "perm:4:(1 2),(1 2 3 4)", "direct:perm:4:(1 2),(1 2 3 4),perm:3:(1 2),(1 2 3)",
])
def test_garbage_draws_the_entry_the_three_tables_drew(group_for, spec):
    G = group_for(spec)
    c = honest_commitment(G)
    for seed in range(50):
        garbage = make_prover("garbage_commitment", G, Random(seed)).commit()
        assert garbage.elements == c.elements and garbage.primes == c.primes
        assert garbage.rows == _parent_garbage(c, len(G.generators), seed)
        assert garbage.rows != c.rows


def test_build_commitment_rejects_non_generating_sequence(group_for):
    G = group_for("cyclic:12")
    g = G.generators[0]
    with pytest.raises(ProverError):
        build_commitment(G, (G.power(g, 6),), (2,))


def test_honest_response_cases(group_for):
    G = group_for("cyclic:12")
    refined = _honest_refined_sequence(G)
    chain = get_chain(G, refined.elements)
    prover = HonestProver(G, Random(0))

    trivial = next(
        i for i, m in enumerate(chain.quotient_orders, start=1)
        if m == 1 and chain.level_order(i - 1) >= 2
    )
    nontrivial = next(i for i, m in enumerate(chain.quotient_orders, start=1) if m > 1)

    def respond_with(i, challenge):
        masked = [G.identity] * len(refined.elements)
        masked[i - 1] = challenge
        return prover.respond(refined.elements, masked)

    # trivial round, either secret bit: member challenge, bit 0, valid row
    h_t = refined.elements[trivial - 1]
    x = chain.level_elements(trivial - 1)[1]
    for challenge in (x, G.product(h_t, x)):
        r = respond_with(trivial, challenge)
        assert r.bits[trivial - 1] == 0
        assert eval_word(G, refined.elements[: trivial - 1], r.exponents[trivial - 1]) == h_t

    # nontrivial round, masked with the element itself (secret bit 1): non-member
    h_n = refined.elements[nontrivial - 1]
    r = respond_with(nontrivial, G.product(h_n, G.identity))
    assert r.bits[nontrivial - 1] == 1

    # nontrivial round, secret bit 0: member challenge but no decomposition exists
    r = respond_with(nontrivial, G.identity)
    assert r.bits[nontrivial - 1] == 0
    word = eval_word(G, refined.elements[: nontrivial - 1], r.exponents[nontrivial - 1])
    assert word != h_n


def test_deflate_has_no_winning_exponents(group_for):
    G = group_for("cyclic:12")
    refined = _honest_refined_sequence(G)
    chain = get_chain(G, refined.elements)
    for i, m in enumerate(chain.quotient_orders, start=1):
        if m > 1:
            assert not chain.is_member(i - 1, refined.elements[i - 1])


def test_deflate_never_deflates(group_for):
    G = group_for("cyclic:12")
    for seed in range(200):
        outcome, _ = run_protocol_2msg(G, (2, 3), _factory("deflate"), seed)
        assert outcome.aborted or outcome.order == 12


def _pick_from_the_level_list(chain, level, avoid, rng):
    """The wrong-element pick from a copy of the level: the reference."""
    pool = chain.level_elements(level)
    avoid_index = pool.index(avoid)
    index = rng.randrange(len(pool) - 1)
    if index >= avoid_index:
        index += 1
    return pool[index]


#: (spec, primes, whether the refined chain reads the pcgs table).  Under
#: (2, 3) cyclic:12's refined tower is impure and has a table of its own.
@pytest.mark.parametrize("spec,primes,shared", [
    (get_fixture("s4").spec, (2, 3), True),
    ("cyclic:12", (2, 3), False),
    ("cyclic:4096", (2,), True),
])
def test_wrong_element_by_index_matches_the_level_list(spec, primes, shared):
    # The same element and the same rng state after the pick, on every seed.
    G = make_group(parse_group_spec(spec))
    pcgs = compute_pcgs(G)
    chain = get_chain(G, refine_with_primes(G, pcgs, primes).elements)
    assert (chain._codes is _pcgs_table(G, pcgs.elements)._codes) == shared
    levels = [j for j in range(len(chain) + 1) if chain.level_order(j) >= 2]
    for seed in range(200):
        draw = Random(-seed)
        level = draw.choice(levels)
        avoid = chain.level_element(level, draw.randrange(chain.level_order(level)))
        by_index, by_list = Random(seed), Random(seed)
        wrong = _pick_other_element(chain, level, avoid, by_index)
        assert wrong == _pick_from_the_level_list(chain, level, avoid, by_list)
        assert wrong != avoid and by_index.getstate() == by_list.getstate()


def test_guess_inflate_per_round_success_rate(group_for):
    G = group_for("cyclic:12")
    tally = Counter()
    for seed in range(2000):
        outcome, _ = run_protocol_2msg(G, (2, 3), _factory("guess_inflate"), seed)
        tally["win" if not outcome.aborted else "abort"] += 1
        if not outcome.aborted:
            assert outcome.order != 12
    assert 0.46 <= tally["win"] / 2000 <= 0.54


def test_random_bits_never_wrong(group_for):
    G = group_for("perm:3:(1 2),(1 2 3)")
    for seed in range(300):
        outcome, _ = run_protocol_2msg(G, (2, 3), _factory("random_bits"), seed)
        assert outcome.aborted or outcome.order == 6


@pytest.mark.parametrize("spec", ["cyclic:12", "perm:3:(1 2),(1 2 3)"])
def test_garbage_commitment_always_aborts(group_for, spec):
    G = group_for(spec)
    for seed in range(40):
        outcome, transcript = run_protocol_3msg(G, _factory("garbage_commitment"), seed)
        assert outcome.aborted
        assert "commitment check failed" in (outcome.reason or "")


def test_order_forger_commitment_passes_step_checks(group_for):
    G = group_for("cyclic:12")
    forger = make_prover("order_forger", G, Random(3))
    c = forger.commit()
    assert len(c.elements) == len(honest_commitment(G).elements) + 1
    assert verifier_check_commitment(G, G.generators, c) is None


def test_order_forger_outcomes(group_for):
    G = group_for("cyclic:12")
    tally = Counter()
    for seed in range(400):
        outcome, _ = run_protocol_3msg(G, _factory("order_forger"), seed)
        if outcome.aborted:
            tally["abort"] += 1
        else:
            assert outcome.order == 12 * 2  # true order times the claimed prime
            tally["wrong"] += 1
    assert tally["wrong"] > 100 and tally["abort"] > 100


def test_strategies_are_deterministic_per_seed(group_for):
    G = group_for("cyclic:12")
    for name in list_adversaries():
        protocol = run_protocol_3msg if name in ("garbage_commitment", "order_forger") else None
        if protocol is None:
            a = run_protocol_2msg(G, (2, 3), _factory(name), 5)[1].canonical_bytes()
            b = run_protocol_2msg(G, (2, 3), _factory(name), 5)[1].canonical_bytes()
        else:
            a = protocol(G, _factory(name), 5)[1].canonical_bytes()
            b = protocol(G, _factory(name), 5)[1].canonical_bytes()
        assert a == b, name


def test_forged_towers_share_the_honest_table():
    # The appended element lies in G, so its quotient order is 1 and the
    # forged tower's chain is a view of the honest one: the commitment
    # costs only its power and conjugate rows, as when rebuilt afterwards.
    G = make_group(parse_group_spec("perm:4:(1 2),(1 2 3 4)"))
    honest = honest_commitment(G)
    honest_chain = get_chain(G, honest.elements)
    # At least 30 seeds, and on until the appended element has been the
    # identity and a committed element.
    extras, seed = set(), 0
    while seed < 30 or G.identity not in extras or not extras & set(honest.elements):
        seed += 1
        forger = make_prover("order_forger", G, Random(seed))
        before = G.query_counts()
        c = forger.commit()
        spent = G.query_counts() - before
        extras.add(c.elements[-1])
        chain = get_chain(G, c.elements)
        assert chain._codes is honest_chain._codes and chain._index is honest_chain._index
        assert chain.quotient_orders == honest_chain.quotient_orders + (1,)
        before = G.query_counts()
        assert build_commitment(G, c.elements, c.primes) == c
        assert spent == G.query_counts() - before
