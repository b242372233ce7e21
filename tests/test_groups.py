import gc
import hashlib
import sys
import threading
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderproof import (
    ClosureOverflowError,
    CyclicSpec,
    DirectProductSpec,
    GroupSpecError,
    InvalidCodeError,
    PermutationSpec,
    QueryCounts,
    QueryMeter,
    enumerate_closure,
    eval_word,
    extend_closure,
    format_group_spec,
    make_group,
    parse_group_spec,
)
from orderproof.fixtures import PROTOCOL_FIXTURES, get_fixture
from orderproof.groups import _Relabeling, memoized

BACKEND_SPECS = [
    "cyclic:12",
    "direct:cyclic:4,cyclic:3",
    "perm:4:(1 2),(1 2 3 4)",
    "perm:4:(1 2 3 4),(1 3)@seed=77",
]


def test_trivial_group():
    G = make_group(CyclicSpec(1))
    assert G.encoding_length >= 1
    assert enumerate_closure(G, G.generators) == [G.identity]


def test_cyclic12_order(group_for):
    G = group_for("cyclic:12")
    assert len(enumerate_closure(G, G.generators)) == 12


def test_s3_order(group_for):
    G = group_for("perm:3:(1 2),(1 2 3)")
    assert len(enumerate_closure(G, G.generators)) == 6


def test_product_identity_law(group_for):
    G = group_for("cyclic:12")
    g = G.generators[0]
    assert G.product(G.identity, g) == g
    assert G.product(g, G.identity) == g


def test_cyclic_product_is_addition_mod_12(group_for):
    G = group_for("cyclic:12")
    g = G.generators[0]
    c5, c9, c2 = G.power(g, 5), G.power(g, 9), G.power(g, 2)
    assert G.product(c5, c9) == c2


def test_permutation_composition_convention():
    # product(a, b) applies b first: (1 2) after (2 3) is the 3-cycle (1 2 3).
    G = make_group(parse_group_spec("perm:3:(1 2),(2 3),(1 2 3)"))
    swap12, swap23, cycle = G.generators
    assert G.product(swap12, swap23) == cycle


def test_inverse(group_for):
    G = group_for("cyclic:12")
    g = G.generators[0]
    assert G.inverse(G.identity) == G.identity
    assert G.inverse(G.power(g, 5)) == G.power(g, 7)
    S3 = group_for("perm:3:(1 2),(1 2 3)")
    cycle = S3.generators[1]
    assert S3.inverse(cycle) == S3.product(cycle, cycle)


def test_power(group_for):
    G = group_for("cyclic:12")
    g = G.generators[0]
    assert G.power(g, 0) == G.identity
    iterated = G.identity
    for _ in range(6):
        iterated = G.product(iterated, g)
    assert G.power(g, 6) == iterated
    S3 = group_for("perm:3:(1 2),(1 2 3)")
    assert S3.power(S3.generators[1], 3) == S3.identity
    with pytest.raises(ValueError):
        G.power(g, -1)


@pytest.mark.parametrize("spec", BACKEND_SPECS)
def test_power_matches_iterated_product(group_for, spec):
    G = group_for(spec)
    rng = Random(5)
    elements = enumerate_closure(G, G.generators)
    for _ in range(20):
        g = rng.choice(elements)
        acc = G.identity
        for k in range(65):
            assert G.power(g, k) == acc
            acc = G.product(acc, g)


def test_eval_word(group_for):
    G = group_for("cyclic:12")
    g = G.generators[0]
    assert eval_word(G, [], []) == G.identity
    bases = (G.power(g, 6), G.power(g, 3), g)
    assert eval_word(G, bases, (1, 1, 0)) == G.power(g, 9)
    assert eval_word(G, bases, (0, 0, 0)) == G.identity
    with pytest.raises(ValueError):
        eval_word(G, bases, (1, 2))


@settings(max_examples=30, deadline=None)
@given(exps=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=5))
def test_eval_word_matches_naive_product(exps):
    G = make_group(CyclicSpec(30))
    g = G.generators[0]
    bases = [G.power(g, k + 1) for k in range(len(exps))]
    naive = G.identity
    for base, e in zip(bases, exps):
        for _ in range(e):
            naive = G.product(naive, base)
    assert eval_word(G, bases, exps) == naive


def test_enumerate_closure_cases(group_for):
    G = group_for("cyclic:12")
    assert enumerate_closure(G, []) == [G.identity]
    S4 = group_for("perm:4:(1 2),(1 2 3 4)")
    assert len(enumerate_closure(S4, S4.generators)) == 24
    with pytest.raises(ClosureOverflowError):
        enumerate_closure(G, G.generators, cap=5)


def _bfs_closure(G, gens):
    """Breadth-first closure under product and inverse: the reference set."""
    multipliers = list(gens) + [G.inverse(g) for g in gens]
    seen = {G.identity}
    frontier = [G.identity]
    while frontier:
        next_frontier = []
        for u in frontier:
            for m in multipliers:
                v = G.product(u, m)
                if v not in seen:
                    seen.add(v)
                    next_frontier.append(v)
        frontier = next_frontier
    return seen


CLOSURE_SPECS = BACKEND_SPECS + [get_fixture(name).spec for name in PROTOCOL_FIXTURES]


@pytest.mark.parametrize("spec", CLOSURE_SPECS)
def test_closure_matches_breadth_first_reference(spec):
    G = make_group(parse_group_spec(spec))
    elements = enumerate_closure(G, G.generators)
    reference = _bfs_closure(G, G.generators)
    assert elements[0] == G.identity
    assert len(elements) == len(set(elements))
    assert set(elements) == reference
    # Subgroups from a few random generating lists, repeats and the
    # identity included, most of them not normal.
    rng = Random(3)
    for _ in range(10):
        gens = [rng.choice(elements) for _ in range(rng.randint(1, 3))]
        assert set(enumerate_closure(G, gens)) == _bfs_closure(G, gens)


def test_closure_of_cyclic12_costs_one_product_per_new_element():
    # The powers g^2 .. g^12 of the generator: g^12 is the identity, which
    # closes the list; g itself costs nothing.
    G = make_group(CyclicSpec(12))
    meter = QueryMeter(G)
    with meter.measuring():
        assert len(enumerate_closure(G, G.generators)) == 12
    assert meter.snapshot() == QueryCounts(product=11, inverse=0)


@pytest.mark.parametrize("spec,order", [("cyclic:12", 12), ("perm:4:(1 2),(1 2 3 4)", 24)])
def test_closure_cap_is_exact(spec, order):
    # On S4 the closure grows by cosets of <(1 2)>, so the cap falls
    # inside the last coset.
    G = make_group(parse_group_spec(spec))
    assert len(enumerate_closure(G, G.generators, cap=order)) == order
    with pytest.raises(ClosureOverflowError):
        enumerate_closure(G, G.generators, cap=order - 1)


def test_extend_closure_grows_by_whole_cosets():
    G = make_group(parse_group_spec("perm:3:(1 2),(1 2 3)"))
    swap, cycle = G.generators
    elements, members, gens = [G.identity], {G.identity}, []
    assert extend_closure(G, elements, members, gens, swap)
    assert elements == [G.identity, swap] and gens == [swap]
    # <(1 2)> is not normal in S3; the three cosets H·r still list S3.
    assert extend_closure(G, elements, members, gens, cycle)
    assert len(elements) == 6 and members == set(elements) and gens == [swap, cycle]
    for k in range(0, 6, 2):
        r = elements[k]
        assert elements[k + 1] == G.product(swap, r)
    assert not extend_closure(G, elements, members, gens, G.product(swap, cycle))
    assert len(elements) == 6 and len(gens) == 2


@pytest.mark.parametrize("spec", BACKEND_SPECS)
def test_group_laws_on_random_triples(group_for, spec):
    G = group_for(spec)
    elements = enumerate_closure(G, G.generators)
    rng = Random(1)
    for _ in range(1000):
        g, h, k = (rng.choice(elements) for _ in range(3))
        assert G.product(G.product(g, h), k) == G.product(g, G.product(h, k))
        assert G.product(G.identity, g) == g
        assert G.product(g, G.identity) == g
        assert G.product(g, G.inverse(g)) == G.identity


@pytest.mark.parametrize("spec", BACKEND_SPECS)
def test_generator_count_logarithmic(group_for, spec):
    G = group_for(spec)
    order = len(enumerate_closure(G, G.generators))
    assert len(G.generators) <= max(1, order.bit_length())


def test_relabeled_instance_is_isomorphic(group_for):
    plain = group_for("perm:4:(1 2),(1 2 3 4)")
    relabeled = group_for("perm:4:(1 2),(1 2 3 4)@seed=9")
    plain_codes = enumerate_closure(plain, plain.generators)
    relabeled_codes = enumerate_closure(relabeled, relabeled.generators)
    assert len(plain_codes) == len(relabeled_codes)
    assert plain.encoding_length == relabeled.encoding_length
    assert set(plain_codes) != set(relabeled_codes)


def test_codes_have_fixed_length(group_for):
    G = group_for("perm:4:(1 2),(1 2 3 4)@seed=77")
    width = (G.encoding_length + 7) // 8
    for code in enumerate_closure(G, G.generators):
        assert isinstance(code, bytes) and len(code) == width


#: Feistel outputs pinned when every round hash was keyed afresh: keying
#: once and copying the keyed state per round must give the same bijection.
RELABELING_KNOWN_ANSWERS = [
    (7, 16, (0, 1, 12345, 65535), (14662, 51932, 56023, 59802), (46760, 47792, 38887, 38870)),
    (2**64 - 1, 5, (0, 31), (24, 27), (28, 11)),
]


@pytest.mark.parametrize("seed,n_bits,xs,forward,backward", RELABELING_KNOWN_ANSWERS)
def test_relabeling_known_answers(seed, n_bits, xs, forward, backward):
    relabel = _Relabeling(seed, n_bits)
    assert tuple(map(relabel.forward, xs)) == forward
    assert tuple(map(relabel.backward, xs)) == backward
    assert tuple(map(relabel.backward, forward)) == xs


def test_relabeling_known_answer_past_one_hash_block():
    # 550-bit halves need 69 bytes per round, more than one 64-byte digest,
    # so every round hashes two blocks.
    relabel = _Relabeling(3, 1100)
    xs = (0, 1, 2**1099 + 12345)
    outputs = [relabel.forward(x) for x in xs] + [relabel.backward(x) for x in xs]
    digest = hashlib.sha256(b"".join(v.to_bytes(138, "big") for v in outputs)).hexdigest()
    assert digest == "2ee429fbc154e8885f094f4637e6c7b553f3a825f4c99ecaf7952a91e010d2bf"
    assert relabel.forward(1) % 2**64 == 8696247750287048700
    assert [relabel.backward(y) for y in outputs[:3]] == list(xs)


def _memo_entries(G):
    return sum(map(len, G._relabel._memo))


def test_relabeling_memo_holds_one_entry_per_round_and_half_value():
    # 15-bit codes: 8-bit and 7-bit halves, so 2 * (2^8 + 2^7) = 768 round
    # hashes cover every element, against 4 * 32768 without the memo.
    G = make_group(parse_group_spec("cyclic:32768@seed=7"))
    assert len(enumerate_closure(G, G.generators)) == 32768
    assert _memo_entries(G) <= 4 * 2 ** ((G.encoding_length + 1) // 2)
    assert _memo_entries(G) == 768


def test_decoding_junk_codes_does_not_grow_the_relabeling_memo():
    # S4 wr C2 has 24-bit codes, so almost every code is no element.
    G = make_group(parse_group_spec("perm:8:(1 2),(1 2 3 4),(1 5)(2 6)(3 7)(4 8)@seed=5"))
    members = set(enumerate_closure(G, G.generators))
    entries = _memo_entries(G)
    width = (G.encoding_length + 7) // 8
    rng = Random(1)
    junk = set()
    while len(junk) < 1000:
        code = rng.getrandbits(G.encoding_length).to_bytes(width, "big")
        if code not in members:
            junk.add(code)
    for code in junk:
        try:
            G._decode(code)
        except InvalidCodeError:
            pass
    assert _memo_entries(G) == entries
    relabel = G._relabel
    for x in range(1000):
        relabel.backward(x)
    assert _memo_entries(G) == entries


def test_scripted_query_accounting():
    G = make_group(CyclicSpec(12))
    g = G.generators[0]
    before = G.query_counts()
    G.product(g, g)       # 1 product
    G.inverse(g)          # 1 inverse
    G.power(g, 5)         # 2 squarings + 1 multiply = 3 products
    G.power(g, 8)         # 3 squarings = 3 products
    eval_word(G, (g, g, g), (2, 0, 3))  # 1 + 2 + 1 combining = 4 products
    delta = G.query_counts() - before
    assert delta.product == 11
    assert delta.inverse == 1
    assert delta.total == 12


def test_counters_concurrent_increment():
    G = make_group(CyclicSpec(7))
    g = G.generators[0]
    before = G.query_counts()

    def worker(n):
        for _ in range(n):
            G.product(g, g)

    threads = [threading.Thread(target=worker, args=(2000,)) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert (G.query_counts() - before).product == 8000


def test_counts_stay_exact_under_fast_thread_switches():
    # Four threads mix products and inverses while the interpreter switches
    # threads every microsecond; each thread's tally is its own, so the sum
    # loses no call.
    G = make_group(CyclicSpec(7))
    g = G.generators[0]
    before = G.query_counts()
    start = threading.Barrier(4)

    def worker(n):
        start.wait(timeout=60)
        for i in range(n):
            if i % 3:
                G.product(g, g)
            else:
                G.inverse(g)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(15000,)) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert G.query_counts() - before == QueryCounts(product=40000, inverse=20000)


def test_counts_of_exited_threads_remain():
    G = make_group(CyclicSpec(7))
    g = G.generators[0]
    before = G.query_counts()

    def worker():
        for _ in range(100):
            G.product(g, g)
        for _ in range(7):
            G.inverse(g)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    del thread
    gc.collect()
    assert G.query_counts() - before == QueryCounts(product=100, inverse=7)
    G.product(g, g)
    assert G.query_counts() - before == QueryCounts(product=101, inverse=7)


def _coset_loop(G, elements, members, gens, g, cap):
    """Dimino's coset loop for any subgroup H, the reference for the trivial-H path."""
    if g in members:
        return False
    gens.append(g)
    size = len(elements)
    subgroup = elements[1:]

    def add_coset(r):
        if len(elements) + size > cap:
            raise ClosureOverflowError(f"subgroup closure exceeded cap of {cap} elements")
        coset = [r] + [G.product(h, r) for h in subgroup]
        elements.extend(coset)
        members.update(coset)

    add_coset(g)
    rep = size
    while rep < len(elements):
        r = elements[rep]
        for s in gens:
            t = G.product(r, s)
            if t not in members:
                add_coset(t)
        rep += size
    return True


@pytest.mark.parametrize("spec", ["cyclic:12@seed=3", "perm:4:(1 2),(1 2 3 4)@seed=5"])
def test_powers_of_one_element_match_the_coset_loop(spec):
    # From the trivial subgroup, extend_closure lists g, g^2, ... with one
    # product each; the list, the queries and the overflow point are the
    # coset loop's.
    G = make_group(parse_group_spec(spec))
    for g in enumerate_closure(G, G.generators):
        powers = [G.identity]
        _coset_loop(G, powers, {G.identity}, [], g, 10**6)
        order = len(powers)
        expected = g != G.identity
        for cap in (order, order - 1, 2, 1):
            runs = []
            for grow in (extend_closure, _coset_loop):
                elements, members, gens = [G.identity], {G.identity}, []
                before = G.query_counts()
                try:
                    result = grow(G, elements, members, gens, g, cap)
                except ClosureOverflowError:
                    result = "overflow"
                runs.append((result, elements, members, gens, G.query_counts() - before))
            assert runs[0] == runs[1]
            assert runs[0][0] == ("overflow" if expected and cap < order else expected)


def test_decoding_foreign_codes_keeps_nothing():
    # S_8 under the same relabel seed names every permutation of 8 points by
    # the code G would give it, so its elements outside G are codes that
    # decode but that G never produced.  Decoding them stores nothing.
    wreath = "perm:8:(1 2),(1 2 3 4),(1 5)(2 6)(3 7)(4 8)@seed=5"
    G = make_group(parse_group_spec(wreath))
    members = set(enumerate_closure(G, G.generators))
    assert len(members) == len(G._code_to_rep) == len(G._rep_to_code) == 1152
    S8 = make_group(parse_group_spec("perm:8:(1 2),(1 2 3 4 5 6 7 8)@seed=5"))
    rng = Random(3)
    foreign, code = set(), S8.identity
    while len(foreign) < 1000:
        code = S8.product(code, rng.choice(S8.generators))
        if code not in members:
            foreign.add(code)
    for code in sorted(foreign):
        assert sorted(G._decode(code)) == list(range(8))
    assert len(G._code_to_rep) == len(G._rep_to_code) == 1152
    # Products and inverses of S4's codes in D4, under the same relabel
    # seed: the codes are S4's, and D4 keeps none of them, nor their
    # round hashes, so the round memo stays within 4 per element of D4.
    D4 = make_group(parse_group_spec("perm:4:(1 2 3 4),(1 3)@seed=5"))
    d4 = set(enumerate_closure(D4, D4.generators))
    S4 = make_group(parse_group_spec("perm:4:(1 2),(1 2 3 4)@seed=5"))
    s4 = enumerate_closure(S4, S4.generators)
    assert len(d4) == 8 and d4 < set(s4)

    def stores():
        return len(D4._rep_to_code), len(D4._code_to_rep), _memo_entries(D4)

    stored = stores()
    for x in s4:
        assert D4.inverse(x) == S4.inverse(x)
        for y in s4:
            assert D4.product(x, y) == S4.product(x, y)
    assert stores() == stored
    assert stored[0] == 8 and stored[2] <= 4 * 8


def test_query_meter_is_thread_local():
    # Each thread also runs a memoized build of 7 products: amortized in its
    # own tally, so no meter counts it, while query_counts() does.
    G = make_group(CyclicSpec(7))
    g = G.generators[0]
    results = {}

    def worker(name, n):
        meter = QueryMeter(G)
        with meter.measuring():
            for _ in range(n):
                G.product(g, g)
            memoized(G, (name,), lambda: [G.product(g, g) for _ in range(7)])
        results[name] = meter.snapshot().product

    before = G.query_counts()
    a = threading.Thread(target=worker, args=("a", 300))
    b = threading.Thread(target=worker, args=("b", 500))
    a.start(), b.start(), a.join(10), b.join(10)
    assert not a.is_alive() and not b.is_alive()
    assert results == {"a": 300, "b": 500}
    assert G.query_counts() - before == QueryCounts(product=814)


# -- amortized set-up ---------------------------------------------------------

def test_memoized_build_is_counted_but_not_metered():
    # One product and one inverse outside any build; the outer build makes
    # two products around a nested build of one product and one inverse.
    G = make_group(CyclicSpec(12))
    g = G.generators[0]

    def inner():
        G.product(g, g)
        G.inverse(g)
        return "inner"

    def outer():
        G.product(g, g)
        memoized(G, ("inner",), inner)
        G.product(g, g)
        return "outer"

    meter = QueryMeter(G)
    before = G.query_counts()
    with meter.measuring():
        G.product(g, g)
        assert memoized(G, ("outer",), outer) == "outer"
        G.inverse(g)
    assert meter.snapshot() == QueryCounts(product=1, inverse=1)
    assert G.query_counts() - before == QueryCounts(product=4, inverse=2)
    # A hit builds nothing and costs nothing.
    with meter.measuring():
        assert memoized(G, ("inner",), inner) == "inner"
    assert G.query_counts() - before == QueryCounts(product=4, inverse=2)
    assert meter.snapshot() == QueryCounts(product=1, inverse=1)


def test_raising_build_is_not_metered_and_not_kept():
    G = make_group(CyclicSpec(12))
    g = G.generators[0]

    def failing():
        G.product(g, g)
        G.inverse(g)
        raise ClosureOverflowError("too big")

    def catching():
        # A build that survives a failing nested build: every query of
        # both is amortized once.
        with pytest.raises(ClosureOverflowError):
            memoized(G, ("failing",), failing)
        G.product(g, g)
        return "caught"

    meter = QueryMeter(G)
    before = G.query_counts()
    with meter.measuring():
        with pytest.raises(ClosureOverflowError):
            memoized(G, ("failing",), failing)
        assert memoized(G, ("catching",), catching) == "caught"
        G.product(g, g)
    assert ("failing",) not in G.precomputed
    assert meter.snapshot() == QueryCounts(product=1)
    assert G.query_counts() - before == QueryCounts(product=4, inverse=2)


# -- spec string grammar ----------------------------------------------------

def test_parse_round_trips():
    for text in [
        "cyclic:12",
        "direct:cyclic:4,cyclic:3",
        "perm:4:(1 2),(1 2 3 4)",
        "cyclic:12@seed=42",
        "direct:perm:3:(1 2),(1 2 3),cyclic:2",
    ]:
        spec = parse_group_spec(text)
        assert parse_group_spec(format_group_spec(spec)) == spec


def test_parse_direct_product():
    spec = parse_group_spec("direct:cyclic:3,cyclic:9")
    assert isinstance(spec, DirectProductSpec)
    assert [p.modulus for p in spec.parts] == [3, 9]
    G = make_group(spec)
    assert len(enumerate_closure(G, G.generators)) == 27


def test_parse_seed_suffix():
    spec = parse_group_spec("perm:4:(1 2),(1 2 3 4)@seed=123")
    assert isinstance(spec, PermutationSpec)
    assert spec.relabel_seed == 123


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "cyclic:0",
        "cyclic:x",
        "ring:5",
        "perm:3:(1 1)",
        "perm:3:(1 4)",
        "perm:3",
        "cyclic:5@seed=abc",
        "direct:direct:cyclic:2,cyclic:2,cyclic:3",
        "perm:3:(1 2",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(GroupSpecError):
        parse_group_spec(bad)


def test_invalid_permutation_generator_rejected():
    with pytest.raises(GroupSpecError):
        PermutationSpec(3, ((0, 0, 1),)).validate()
