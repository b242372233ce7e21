import hashlib
import math
from random import Random
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderproof import (
    NotSolvableError,
    PolycyclicSequence,
    ProverError,
    QueryCounts,
    RefinementError,
    SubgroupChain,
    build_commitment,
    compact_tower,
    compute_pcgs,
    enumerate_closure,
    eval_word,
    get_chain,
    group_order,
    honest_commitment,
    inflatable_rounds,
    make_group,
    parse_group_spec,
    prime_factors,
    refine_with_primes,
    refinement_exponents,
)
from orderproof.fixtures import PROTOCOL_FIXTURES, get_fixture
from orderproof.polycyclic import (
    MILLER_RABIN_EXACT_BELOW,
    _conjugation_closure,
    _derived_series,
    _pcgs_table,
    is_prime,
)


# -- exponent schedule --------------------------------------------------------

def test_schedule_single_prime():
    assert refinement_exponents({2}, 2) == (2, 1)


def test_schedule_two_primes():
    assert refinement_exponents({2, 3}, 4) == (648, 324, 162, 81, 27, 9, 3, 1)


def test_schedule_last_entry_is_one():
    for primes, n in [({2}, 1), ({2, 3}, 3), ({2, 3, 5}, 2)]:
        assert refinement_exponents(primes, n)[-1] == 1


@settings(max_examples=50, deadline=None)
@given(
    primes=st.sets(st.sampled_from([2, 3, 5, 7, 11]), min_size=1, max_size=4),
    n=st.integers(min_value=1, max_value=6),
)
def test_schedule_properties(primes, n):
    schedule = refinement_exponents(primes, n)
    assert len(schedule) == len(primes) * n
    assert all(a > b for a, b in zip(schedule, schedule[1:]))
    assert all(a % b == 0 and a // b in primes for a, b in zip(schedule, schedule[1:]))
    assert schedule[-1] == 1


@pytest.mark.parametrize("spec,primes", [("cyclic:12", (2, 3)), ("cyclic:30", (5, 2, 3))])
def test_refinement_attaches_the_schedule_ratios(spec, primes):
    # Each ascending prime repeated n times: the first is the ratio the
    # schedule would continue with, the others are its consecutive ratios.
    G = make_group(parse_group_spec(spec))
    n = G.encoding_length
    schedule = refinement_exponents(primes, n)
    attached = [p for p in sorted(primes) for _ in range(n)]
    assert [a // b for a, b in zip(schedule, schedule[1:])] == attached[1:]
    pcgs = compute_pcgs(G)
    assert refine_with_primes(G, pcgs, primes).primes == tuple(attached) * len(pcgs)


def test_schedule_rejects_bad_input():
    with pytest.raises(ValueError):
        refinement_exponents([], 3)
    with pytest.raises(ValueError):
        refinement_exponents([4], 3)
    with pytest.raises(ValueError):
        refinement_exponents([2, 2, 3], 3)
    with pytest.raises(ValueError):
        refinement_exponents([2], 0)


def test_prime_helpers():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_factors(12) == (2, 3)
    assert prime_factors(1) == ()
    assert prime_factors(97) == (97,)
    with pytest.raises(ValueError):
        prime_factors(0)


def _trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division():
    assert all(is_prime(r) == _trial_division_is_prime(r) for r in range(10**5))


@pytest.mark.parametrize("n", [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,  # Carmichael
    3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
    3825123056546413051,  # strong pseudoprime to every prime base up to 23
    318665857834031151167461,  # strong pseudoprime to every prime base up to 37
])
def test_is_prime_rejects_pseudoprimes(n):
    assert n < MILLER_RABIN_EXACT_BELOW
    assert not is_prime(n)


@pytest.mark.parametrize("n", [MILLER_RABIN_EXACT_BELOW, 2**89 - 1])
def test_is_prime_refuses_numbers_at_or_above_its_bound(n):
    # Past the bound the test is no longer exact; it raises at once
    # instead of falling back to trial division.
    started = time.perf_counter()
    with pytest.raises(ValueError, match="primality"):
        is_prime(n)
    with pytest.raises(ValueError, match="primality"):
        refinement_exponents([2, n], 1)
    assert time.perf_counter() - started < 1.0

@pytest.mark.parametrize("p", [2**61 - 1, 2**64 - 59])
def test_is_prime_is_fast_on_large_primes(p):
    # Trial division would need 2^29 to 2^31 odd divisors for these.
    started = time.perf_counter()
    assert is_prime(p)
    assert time.perf_counter() - started < 0.01


# -- computing a polycyclic sequence ------------------------------------------

def _assert_normal_tower(G, pcgs):
    """Each prefix subgroup is normal in the next.

    ``build_commitment`` decomposes every conjugate of an earlier element by
    a later one over the prefix before the later one, and raises
    ProverError when one escapes it.
    """
    build_commitment(G, pcgs.elements, pcgs.quotient_orders)


def test_pcgs_trivial_group(group_for):
    G = group_for("cyclic:1")
    assert len(compute_pcgs(G).elements) == 0


def test_pcgs_cyclic12(group_for):
    G = group_for("cyclic:12")
    pcgs = compute_pcgs(G)
    assert len(enumerate_closure(G, pcgs.elements)) == 12
    _assert_normal_tower(G, pcgs)


def test_pcgs_s3_has_three_cycle_first(group_for):
    G = group_for("perm:3:(1 2),(1 2 3)")
    pcgs = compute_pcgs(G)
    assert pcgs.quotient_orders == (3, 2)
    # first element generates the rotation subgroup of order 3
    assert len(enumerate_closure(G, pcgs.elements[:1])) == 3


def test_pcgs_not_solvable(group_for):
    G = group_for("perm:5:(1 2 3),(3 4 5)")
    assert group_order(G) == 60
    with pytest.raises(NotSolvableError):
        compute_pcgs(G)


@pytest.mark.parametrize(
    "spec", ["cyclic:12", "direct:cyclic:3,cyclic:9", "perm:4:(1 2),(1 2 3 4)",
             "perm:4:(1 2 3 4),(1 3)", "perm:4:(1 2 3),(2 3 4)"]
)
def test_pcgs_generates_and_is_normal_tower(group_for, spec):
    G = group_for(spec)
    pcgs = compute_pcgs(G)
    chain = get_chain(G, pcgs.elements)
    assert chain.group_order() == group_order(G)
    _assert_normal_tower(G, pcgs)
    assert math.prod(chain.quotient_orders) == group_order(G)


# -- refinement ----------------------------------------------------------------

def test_refine_cyclic12(group_for):
    G = group_for("cyclic:12")
    g = G.generators[0]
    refined = refine_with_primes(G, compute_pcgs(G), (2, 3))
    assert len(refined.elements) == 2 * G.encoding_length  # l * n * t'
    for k in (6, 3, 1):
        assert G.power(g, k) in refined.elements
    nontrivial = sorted(m for m in refined.quotient_orders if m > 1)
    assert nontrivial == [2, 2, 3]


def test_refine_trivial_group(group_for):
    G = group_for("cyclic:1")
    refined = refine_with_primes(G, compute_pcgs(G), ())
    assert refined.elements == () and refined.quotient_orders == ()


def test_refine_s4_order_product(group_for):
    G = group_for("perm:4:(1 2),(1 2 3 4)")
    refined = refine_with_primes(G, compute_pcgs(G), (2, 3))
    assert math.prod(refined.quotient_orders) == 24


@pytest.mark.parametrize(
    "spec,primes",
    [("cyclic:12", (2, 3)), ("direct:cyclic:3,cyclic:9", (3,)),
     ("perm:3:(1 2),(1 2 3)", (2, 3)), ("perm:4:(1 2),(1 2 3 4)", (2, 3)),
     ("perm:4:(1 2 3 4),(1 3)", (2,))],
)
def test_refined_orders_in_one_or_prime(group_for, spec, primes):
    G = group_for(spec)
    refined = refine_with_primes(G, compute_pcgs(G), primes)
    assert refined.primes is not None
    for m, r in zip(refined.quotient_orders, refined.primes):
        assert m in (1, r)
        assert r in primes


def test_refine_missing_prime_is_rejected(group_for):
    G = group_for("cyclic:12")
    with pytest.raises(RefinementError):
        refine_with_primes(G, compute_pcgs(G), (2,))


# -- decomposition and membership -----------------------------------------------

def _manual_chain(G):
    g = G.generators[0]
    return get_chain(G, (G.power(g, 6), G.power(g, 3), g))


def test_decompose_identity_is_zeros(group_for):
    G = group_for("cyclic:12")
    assert _manual_chain(G).decompose(3, G.identity) == (0, 0, 0)


def test_decompose_eleven(group_for):
    G = group_for("cyclic:12")
    chain = _manual_chain(G)
    assert chain.quotient_orders == (2, 2, 3)
    assert chain.decompose(3, G.power(G.generators[0], 11)) == (1, 1, 2)


def test_decompose_non_member(group_for):
    G = group_for("perm:3:(1 2),(1 2 3)")
    chain = get_chain(G, (G.generators[1],))  # the 3-cycle
    assert chain.decompose(1, G.generators[0]) is None
    assert not chain.is_member(1, G.generators[0])


def test_is_member_level_zero(group_for):
    G = group_for("cyclic:12")
    chain = _manual_chain(G)
    assert chain.is_member(0, G.identity)
    assert not chain.is_member(0, G.generators[0])


def test_is_member_proper_subgroup(group_for):
    G = group_for("cyclic:12")
    g = G.generators[0]
    chain = get_chain(G, (G.power(g, 6),))
    assert not chain.is_member(1, G.power(g, 3))
    for code in enumerate_closure(G, chain.elements):
        assert chain.is_member(1, code)


def test_level_bounds_checked(group_for):
    G = group_for("cyclic:12")
    chain = _manual_chain(G)
    with pytest.raises(ValueError):
        chain.decompose(4, G.identity)
    with pytest.raises(ValueError):
        chain.is_member(-1, G.identity)


def test_decompose_eval_word_round_trip(group_for, protocol_fixtures):
    for _, spec, primes in protocol_fixtures:
        G = group_for(spec)
        refined = refine_with_primes(G, compute_pcgs(G), primes)
        chain = get_chain(G, refined.elements)
        for j in range(len(chain) + 1):
            for k in range(chain.level_order(j)):
                h = chain.level_element(j, k)
                exps = chain.decompose(j, h)
                assert len(exps) == j
                assert eval_word(G, refined.elements[:j], exps) == h


@pytest.mark.parametrize(
    "spec,primes",
    [("cyclic:12", (2, 3)), ("perm:4:(1 2),(1 2 3 4)", (2, 3)), ("perm:4:(1 2 3 4),(1 3)", (2,))],
)
def test_levels_are_prefixes_equal_to_closures(group_for, spec, primes):
    G = group_for(spec)
    for elements in (compute_pcgs(G).elements,
                     refine_with_primes(G, compute_pcgs(G), primes).elements):
        chain = get_chain(G, elements)
        for j in range(len(chain) + 1):
            level = chain.level_elements(j)
            assert len(level) == chain.level_order(j)
            assert set(level) == set(enumerate_closure(G, elements[:j]))
            assert all(chain.is_member(j, h) for h in level)
            if j < len(chain):
                assert chain.level_elements(j + 1)[: len(level)] == level


def test_normal_form_bijection_cyclic12(group_for):
    G = group_for("cyclic:12")
    refined = refine_with_primes(G, compute_pcgs(G), (2, 3))
    chain = get_chain(G, refined.elements)
    seen = set()
    import itertools
    for exps in itertools.product(*(range(m) for m in chain.quotient_orders)):
        seen.add(eval_word(G, refined.elements, exps))
    assert len(seen) == 12


def test_build_commitment_catches_non_polycyclic():
    G = make_group(parse_group_spec("perm:3:(1 2),(1 3)"))
    swap12, swap13 = G.generators
    # <(1 2)> is not normal in S3, so this 2-element sequence is not a
    # polycyclic tower even though normal forms happen not to collide.
    assert get_chain(G, (swap12, swap13)).group_order() == 4
    with pytest.raises(ProverError, match="escapes the prefix"):
        _assert_normal_tower(G, PolycyclicSequence((swap12, swap13), None, (2, 2)))


def test_chain_caching_returns_same_object(group_for):
    G = group_for("cyclic:12")
    assert _manual_chain(G) is _manual_chain(G)


def test_pcgs_chain_is_the_memoized_chain(group_for):
    G = make_group(parse_group_spec("perm:4:(1 2),(1 2 3 4)"))
    pcgs = compute_pcgs(G)
    queries = G.query_counts()
    chain = get_chain(G, pcgs.elements)
    assert G.query_counts() == queries
    assert chain.quotient_orders == pcgs.quotient_orders


# -- set-up cost ---------------------------------------------------------------

def test_group_order_reads_the_pcgs_enumeration():
    G = make_group(parse_group_spec("perm:4:(1 2),(1 2 3 4)@seed=5"))
    compute_pcgs(G)
    queries = G.query_counts()
    assert group_order(G) == 24
    assert G.query_counts() == queries
    # Either call order enumerates G once, so both orders cost the same.
    totals = []
    for first, second in ((compute_pcgs, group_order), (group_order, compute_pcgs)):
        H = make_group(parse_group_spec("perm:4:(1 2),(1 2 3 4)@seed=5"))
        first(H)
        second(H)
        totals.append(H.query_counts().total)
    assert totals[0] == totals[1]


@pytest.mark.parametrize("seed,order", [("(1 2)", 24), ("(1 2)(3 4)", 4), ("(1 2 3)", 12)])
def test_normal_closure_conjugates_the_generators_it_adds(seed, order):
    # Conjugating (1 2) by the 4-cycle gives (2 3), whose conjugate (3 4)
    # is needed too: one round of conjugates generates only S3.
    G = make_group(parse_group_spec(f"perm:4:(1 2 3 4),{seed}"))
    cycle, x = G.generators
    gens, elements = _conjugation_closure(G, [x], [cycle, x])
    members = set(elements)
    assert len(elements) == len(members) == order
    assert members == set(enumerate_closure(G, gens))
    for c in enumerate_closure(G, G.generators):
        for y in gens:
            assert G.product(G.product(c, y), G.inverse(c)) in members


def test_chain_reuses_the_quotient_order_powers():
    # Finding m = 12 costs the products g^2 .. g^12; the coset step then
    # takes g^a from that search, with no product for the identity row.
    G = make_group(parse_group_spec("cyclic:12"))
    chain = SubgroupChain(G, G.generators)
    assert chain.quotient_orders == (12,)
    assert G.query_counts().total == 11
    assert [chain.decompose(1, chain.level_element(1, k)) for k in range(12)] == [
        (k,) for k in range(12)
    ]


# -- the index-coded table -------------------------------------------------------

TABLE_CASES = [
    ("cyclic:12", (2, 3)),
    ("perm:4:(1 2),(1 2 3 4)", (2, 3)),
    ("perm:4:(1 2 3 4),(1 3)", (2,)),
]


def _digits(chain, j, k):
    """The mixed-radix digits of index k over the first j positions."""
    return tuple(k // chain.level_order(p) % m for p, m in enumerate(chain.quotient_orders[:j]))


@pytest.mark.parametrize("spec,primes", TABLE_CASES)
def test_rows_are_the_digits_of_the_index(group_for, spec, primes):
    G = group_for(spec)
    chain = get_chain(G, refine_with_primes(G, compute_pcgs(G), primes).elements)
    trivial = [p for p, m in enumerate(chain.quotient_orders) if m == 1]
    assert trivial
    for j in range(len(chain) + 1):
        for k, h in enumerate(chain.level_elements(j)):
            row = chain.decompose(j, h)
            assert row == _digits(chain, j, k)
            assert all(row[p] == 0 for p in trivial if p < j)


@pytest.mark.parametrize("spec,primes", TABLE_CASES)
def test_refined_and_compacted_tables_agree(group_for, spec, primes):
    G = group_for(spec)
    refined = refine_with_primes(G, compute_pcgs(G), primes)
    tower = compact_tower(G, refined)
    full, compact = get_chain(G, refined.elements), get_chain(G, tower.elements)
    assert full.level_elements(len(full)) == compact.level_elements(len(compact))
    kept = [refined.elements.index(h) for h in tower.elements]
    for jc in range(len(compact) + 1):
        j = kept[jc - 1] + 1 if jc else 0
        assert full.level_order(j) == compact.level_order(jc)
        for h in compact.level_elements(jc):
            row = full.decompose(j, h)
            assert tuple(row[p] for p in kept[:jc]) == compact.decompose(jc, h)
            assert not any(a for p, a in enumerate(row) if p not in kept)


#: C2 wr C2 wr C2 wr C2, order 32768: its paper tower has 960 positions.
C2_WREATH_4 = ("perm:16:(1 2),(1 3)(2 4),(1 5)(2 6)(3 7)(4 8),"
               "(1 9)(2 10)(3 11)(4 12)(5 13)(6 14)(7 15)(8 16)@seed=7")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_full_tower_table_memory_is_bounded(child_env):
    # The table stores one index per element, so the 960-level table costs
    # what the compacted tower's does.  Storing an exponent tuple per
    # element peaked at about 400 MB on this group.
    script = (
        "import resource, sys\n"
        "from orderproof import make_group, make_prover, parse_group_spec, run_protocol_2msg\n"
        "G = make_group(parse_group_spec(sys.argv[1]))\n"
        "outcome, _ = run_protocol_2msg(G, (2,), lambda g, rng: make_prover('honest', g, rng), 1)\n"
        "print(outcome.order, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    result = subprocess.run([sys.executable, "-c", script, C2_WREATH_4], env=child_env,
                            capture_output=True, text=True, check=True)
    order, max_rss_kib = map(int, result.stdout.split())
    assert order == 32768
    assert max_rss_kib < 150 * 1024


#: blake2b-128 digests of the concatenated element codes of the pcgs and of
#: its refinement, computed with breadth-first closures and square-and-
#: multiply refinement: the coset-step set-up must give the same towers.
#: The relabel seeds are the benchmark's for S4 wr C2 and cyclic:32768.
PINNED_TOWER_DIGESTS = [
    ("perm:8:(1 2),(1 2 3 4),(1 5)(2 6)(3 7)(4 8)@seed=10819181988376914608", (2, 3),
     "83acc45694ca1bddb36c0e5b7b487ba0", "2f063c5762d3786a755624f1c11091f5"),
    ("cyclic:32768@seed=14532532462565509960", (2,),
     "268aeecd9000d51f45b94dfc29a77b72", "7ccfe8f80fdb8800badbd9e6777b67cd"),
]


@pytest.mark.parametrize("spec,primes,pcgs_digest,refined_digest", PINNED_TOWER_DIGESTS)
def test_towers_match_pinned_digests(spec, primes, pcgs_digest, refined_digest):
    def digest(elements):
        return hashlib.blake2b(b"".join(elements), digest_size=16).hexdigest()

    G = make_group(parse_group_spec(spec))
    pcgs = compute_pcgs(G)
    assert digest(pcgs.elements) == pcgs_digest
    assert digest(refine_with_primes(G, pcgs, primes).elements) == refined_digest


def test_s4_cubed_setup_costs_at_most_four_queries_per_element():
    # pcgs, order and refinement of S4^3 (order 13824); breadth-first
    # closures and square-and-multiply refinement spent 646k queries here.
    G = make_group(parse_group_spec("direct:" + ",".join(["perm:4:(1 2),(1 2 3 4)"] * 3)))
    pcgs = compute_pcgs(G)
    assert group_order(G) == 13824
    refined = refine_with_primes(G, pcgs, (2, 3))
    assert math.prod(refined.quotient_orders) == 13824
    assert G.query_counts().total <= 4 * 13824


# -- tower compaction ------------------------------------------------------------

#: The protocol fixtures plus S4xS3 and S4 wr C2, whose paper towers have
#: 168 and 432 positions.
COMPACTION_CASES = [
    *((get_fixture(name).spec, get_fixture(name).primes) for name in PROTOCOL_FIXTURES),
    ("direct:perm:4:(1 2),(1 2 3 4),perm:3:(1 2),(1 2 3)", (2, 3)),
    ("perm:8:(1 2),(1 2 3 4),(1 5)(2 6)(3 7)(4 8)", (2, 3)),
]


@pytest.mark.parametrize("spec,primes", COMPACTION_CASES)
def test_compact_tower_drops_identity_and_repeats(group_for, spec, primes):
    G = group_for(spec)
    refined = refine_with_primes(G, compute_pcgs(G), primes)
    queries = G.query_counts()
    tower = compact_tower(G, refined)
    assert G.query_counts() == queries
    assert G.identity not in tower.elements
    assert len(set(tower.elements)) == len(tower)
    assert set(tower.elements) == set(refined.elements) - {G.identity}
    # Each kept element sits at its first position in the paper tower.
    kept = [refined.elements.index(h) for h in tower.elements]
    assert kept == sorted(kept)
    assert tower.primes == tuple(refined.primes[i] for i in kept)
    assert tower.quotient_orders == tuple(refined.quotient_orders[i] for i in kept)
    assert math.prod(tower.quotient_orders) == group_order(G)
    assert get_chain(G, tower.elements).quotient_orders == tower.quotient_orders


@pytest.mark.parametrize("spec,primes", COMPACTION_CASES)
def test_refined_orders_match_a_chain_of_the_full_tower(group_for, spec, primes):
    # A chain built directly over every paper position, outside the
    # memoized store, must agree with the orders refine_with_primes reports.
    G = group_for(spec)
    refined = refine_with_primes(G, compute_pcgs(G), primes)
    assert refined.quotient_orders == SubgroupChain(G, refined.elements).quotient_orders


@pytest.mark.parametrize("spec,primes", COMPACTION_CASES)
def test_honest_commitment_is_the_compacted_tower(group_for, spec, primes):
    G = group_for(spec)
    refined = refine_with_primes(G, compute_pcgs(G), prime_factors(group_order(G)))
    tower = compact_tower(G, refined)
    commitment = honest_commitment(G)
    assert commitment.elements == tower.elements
    assert commitment.primes == tower.primes


def test_compacted_cyclic12_keeps_an_inflatable_round(group_for):
    # A verifier running this tower still plays the guessing game that the
    # inflation-soundness criteria measure.  The tower is (6, 9, 3, 1) in
    # Z/12, and 3 already lies in <6, 9>, so round 3 is trivial with a
    # prefix of size 4.
    G = group_for("cyclic:12")
    tower = compact_tower(G, refine_with_primes(G, compute_pcgs(G), (2, 3)))
    assert tower.quotient_orders == (2, 2, 1, 3)
    assert inflatable_rounds(get_chain(G, tower.elements)) == [3]


def test_compact_tower_of_the_trivial_group(group_for):
    G = group_for("cyclic:1")
    tower = compact_tower(G, refine_with_primes(G, compute_pcgs(G), ()))
    assert tower.elements == () and tower.primes == () and tower.quotient_orders == ()


#: COMPACTION_CASES plus cyclic:32768, whose dense 15-bit encoding gives a
#: 45-position paper tower.
VIEW_CASES = [*COMPACTION_CASES, ("cyclic:32768@seed=7", (2,))]


@pytest.mark.parametrize("spec,primes", VIEW_CASES)
def test_compacted_chain_is_a_view_of_the_refined_chain(spec, primes):
    G = make_group(parse_group_spec(spec))
    refined = refine_with_primes(G, compute_pcgs(G), primes)
    tower = compact_tower(G, refined)
    queries = G.query_counts()
    chain = get_chain(G, tower.elements)
    assert G.query_counts() == queries
    full = get_chain(G, refined.elements)
    assert chain._codes is full._codes and chain._index is full._index
    fresh = SubgroupChain(G, tower.elements)
    assert chain.quotient_orders == fresh.quotient_orders
    assert chain.group_order() == fresh.group_order()
    top = fresh.level_elements(len(fresh))
    assert [chain.level_element(len(chain), k) for k in range(len(top))] == top
    probes = top[:: max(1, len(top) // 512)]
    for j in range(len(chain) + 1):
        assert chain.level_order(j) == fresh.level_order(j)
        for h in probes:
            assert chain.is_member(j, h) == fresh.is_member(j, h)
            assert chain.decompose(j, h) == fresh.decompose(j, h)


def test_a_tower_that_adds_codes_elsewhere_gets_its_own_table():
    # (6, 9, 3, 1) in Z/12: g = 1 is in the table, at index 4, but it is
    # none of the table's steps, so the tower (1,) is no view.
    G = make_group(parse_group_spec("cyclic:12"))
    full = get_chain(G, compact_tower(G, refine_with_primes(G, compute_pcgs(G), (2, 3))).elements)
    g = G.generators[0]
    assert full.view((g,)) is None
    assert full.view((G.identity, g)) is None
    assert full.view((b"\xff",)) is None
    chain = get_chain(G, (g,), full)
    assert chain._codes is not full._codes
    assert chain.quotient_orders == (12,)
    # A prefix of the tower, with a repeat and the identity, is a view.
    six, nine = full.elements[:2]
    prefix = get_chain(G, (six, G.identity, nine, six), full)
    assert prefix._codes is full._codes
    assert prefix.quotient_orders == (2, 1, 2, 1)
    assert prefix.group_order() == 4 and prefix.level_elements(4) == full.level_elements(2)
    # Past the prefix's top level its view cannot go, though the codes are there.
    assert prefix.view(full.elements) is None
    assert prefix.view((nine, six)) is None
    assert prefix.view((six, nine)).quotient_orders == (2, 2)


# -- views by index arithmetic -----------------------------------------------------

def _assert_same_chain(chain, fresh):
    """``chain`` lists ``fresh``'s codes in its order, with its levels and digits.

    The probes include codes of ``chain``'s table outside ``fresh``'s group.
    """
    assert chain.elements == fresh.elements
    assert chain.quotient_orders == fresh.quotient_orders
    top = fresh.level_elements(len(fresh))
    assert [chain.level_element(len(chain), k) for k in range(len(top))] == top
    table = chain._codes
    probes = top[:: max(1, len(top) // 256)] + table[:: max(1, len(table) // 256)]
    for j in range(len(chain) + 1):
        assert chain.level_order(j) == fresh.level_order(j)
        for h in probes:
            assert chain.is_member(j, h) == fresh.is_member(j, h)
            assert chain.decompose(j, h) == fresh.decompose(j, h)
            k = chain.level_index(j, h)
            assert k == fresh.level_index(j, h)
            assert k is None or chain.level_element(j, k) == h


#: Refined towers whose nontrivial steps are the pcgs table's prime steps.
#: cyclic:32768 splits its block of order 16384 into 2-steps, cyclic:4096
#: its only block, c3xc9 its block of order 9 into two 3-steps; S4's pcgs
#: has prime quotient orders only, so its table is the pcgs chain.
PURE_REFINED_CASES = [
    ("cyclic:32768@seed=7", (2,)),
    ("cyclic:4096", (2,)),
    ("direct:cyclic:3,cyclic:9", (3,)),
    (get_fixture("s4").spec, get_fixture("s4").primes),
]


@pytest.mark.parametrize("spec,primes", PURE_REFINED_CASES)
def test_refined_view_matches_a_chain_built_from_scratch(spec, primes):
    G = make_group(parse_group_spec(spec))
    pcgs = compute_pcgs(G)
    source = _pcgs_table(G, pcgs.elements)
    refined = refine_with_primes(G, pcgs, primes)
    chain = get_chain(G, refined.elements)
    # The refined tower's steps are the table's, so it shares the table
    # index for index.
    steps = [h for h, m in zip(refined.elements, refined.quotient_orders) if m > 1]
    assert steps == list(source.elements)
    assert chain._codes is source._codes and chain._index is source._index
    assert chain.level_elements(len(chain)) == source.level_elements(len(source))
    _assert_same_chain(chain, SubgroupChain(G, refined.elements))
    _assert_same_chain(source.view(refined.elements), chain)


def test_a_split_refined_view_holds_no_table():
    # The refined view of cyclic:32768 keeps a reference to the pcgs table
    # and one radix per step: no code list, no dict, no query.
    G = make_group(parse_group_spec("cyclic:32768@seed=7"))
    pcgs = compute_pcgs(G)
    source = _pcgs_table(G, pcgs.elements)
    elements = refine_with_primes(G, pcgs, (2,)).elements
    queries = G.query_counts()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        chain = source.view(elements)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert G.query_counts() == queries
    assert chain._codes is source._codes and chain.group_order() == 32768
    assert retained < 64 * 1024


def test_pure_refinement_makes_only_its_power_queries():
    # Each block is computed backwards from k by squarings, one product per
    # square of an element other than the identity; the table costs none.
    G = make_group(parse_group_spec("cyclic:32768@seed=7"))
    pcgs = compute_pcgs(G)
    group_order(G)
    before = G.query_counts()
    refined = refine_with_primes(G, pcgs, (2,))
    n = G.encoding_length
    blocks = [refined.elements[i:i + n] for i in range(0, len(refined), n)]
    squarings = sum(h != G.identity for block in blocks for h in block[1:])
    assert G.query_counts() - before == QueryCounts(product=squarings)
    assert squarings == 28


#: Refined towers that are not pure: a power with lower digits, or one
#: whose exponent does not divide the step before it.  S4 wr C2 carries
#: the benchmark's relabeling; without it, its refined tower is pure.
IMPURE_REFINED_CASES = [
    ("cyclic:32768@seed=7", (2, 3)),
    ("perm:8:(1 2),(1 2 3 4),(1 5)(2 6)(3 7)(4 8)@seed=10819181988376914608", (2, 3)),
]


@pytest.mark.parametrize("spec,primes", IMPURE_REFINED_CASES)
def test_impure_refined_tower_gets_its_own_table(spec, primes):
    G = make_group(parse_group_spec(spec))
    pcgs = compute_pcgs(G)
    source = _pcgs_table(G, pcgs.elements)
    refined = refine_with_primes(G, pcgs, primes)
    assert source.view(refined.elements) is None
    chain = get_chain(G, refined.elements)
    assert chain._codes is not source._codes
    assert chain.quotient_orders == refined.quotient_orders


def _pure_tower(source, rng):
    """A random tower ``source.view`` must accept: a prefix of its steps, in order.

    Elements of the level so far are put anywhere between the steps.
    """
    tower, size = [], 1
    steps = [(source.elements[position], m) for position, m in source._radices]
    for h, m in steps[: rng.randint(1, len(steps))]:
        while rng.random() < 0.3:
            tower.append(source.level_element(len(source), rng.randrange(size)))
        tower.append(h)
        size *= m
    return tuple(tower)


@pytest.mark.parametrize("spec", [
    "perm:4:(1 2),(1 2 3 4)@seed=5",
    "cyclic:72@seed=3",
    "direct:cyclic:8,cyclic:9@seed=4",
    "direct:cyclic:3,cyclic:9",
])
def test_views_of_random_towers_match_chains_built_from_scratch(spec):
    G = make_group(parse_group_spec(spec))
    source = _pcgs_table(G, compute_pcgs(G).elements)
    # The pcgs table holds each block in prime steps.
    assert all(is_prime(m) for _, m in source._radices)
    everything = source.level_elements(len(source))
    rng = Random(11)
    for _ in range(60):
        tower = _pure_tower(source, rng)
        chain = source.view(tower)
        assert chain is not None
        _assert_same_chain(chain, SubgroupChain(G, tower))
        assert chain._codes is source._codes
        # Any other element in any place: a view, when there is one, must
        # still be the chain built from scratch.
        spoiled = list(tower)
        spoiled[rng.randrange(len(spoiled))] = rng.choice(everything)
        chain = source.view(spoiled)
        if chain is not None:
            _assert_same_chain(chain, SubgroupChain(G, spoiled))


# -- pcgs candidate order -------------------------------------------------------------

def _sorted_scan_pcgs(G):
    """The pcgs selection by a sorted scan of each layer, the reference for the heap."""
    series = _derived_series(G)
    chain = SubgroupChain(G, ())
    for layer in reversed(series):
        for candidate in sorted(layer):
            if chain.group_order() == len(layer):
                break
            if not chain.is_member(len(chain), candidate):
                chain._append(candidate)
    return chain.elements, chain.quotient_orders


HEAP_SPECS = [
    *(get_fixture(name).spec for name in PROTOCOL_FIXTURES),
    "perm:8:(1 2),(1 2 3 4),(1 5)(2 6)(3 7)(4 8)",
    C2_WREATH_4.split("@")[0],
    "cyclic:32768",
]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("spec", HEAP_SPECS)
def test_heap_selection_matches_the_sorted_scan(spec, seed):
    G = make_group(parse_group_spec(f"{spec}@seed={seed}"))
    pcgs = compute_pcgs(G)
    assert (pcgs.elements, pcgs.quotient_orders) == _sorted_scan_pcgs(G)
