import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import math
import operator
import sys
import time
import tracemalloc
import weakref
from collections import Counter
from enum import IntEnum
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orderproof.protocol as protocol_mod
from orderproof import (
    HonestProver,
    Outcome,
    Response,
    WireError,
    build_commitment,
    challenge_code_distribution,
    compute_pcgs,
    enumerate_closure,
    get_chain,
    group_order,
    honest_commitment,
    make_group,
    make_prover,
    parse_group_spec,
    refine_with_primes,
    run_protocol_2msg,
    run_protocol_3msg,
    run_repeated,
    unanimous_outcome,
    verifier_check_commitment,
    verifier_finalize,
    verifier_setup_2msg,
)
from orderproof.fixtures import PROTOCOL_FIXTURES, get_fixture
from orderproof.groups import QueryCounts, QueryMeter
from orderproof.polycyclic import MILLER_RABIN_EXACT_BELOW, RefinementError
from orderproof.protocol import (
    VerifierState,
    challenge_from_wire,
    challenge_to_wire,
    commitment_from_wire,
    commitment_to_wire,
    response_from_wire,
    response_to_wire,
)
from orderproof.prover import PROVERS, Commitment, relation_targets


S4 = "perm:4:(1 2),(1 2 3 4)"
WREATH = "perm:8:(1 2),(1 2 3 4),(1 5)(2 6)(3 7)(4 8)"


def _factory(name):
    return lambda G, rng: make_prover(name, G, rng)


# -- 2-message setup ----------------------------------------------------------

def test_setup_trivial_group_yields_order_one(group_for):
    G = group_for("cyclic:1")
    state, challenge = verifier_setup_2msg(G, (), 0)
    assert challenge.masked == ()
    assert verifier_finalize(state, Response((), ())) == Outcome.of(1)


def _visibly_trivial(G, elements):
    """Per round, whether its element is the identity or an earlier round's element."""
    seen = {G.identity}
    trivial = []
    for h in elements:
        trivial.append(h in seen)
        seen.add(h)
    return trivial


def _masks(state, challenge):
    """Each round's mask: masked_i on a visibly trivial round, else (h_i^{s_i})^-1 * masked_i."""
    G = state.G
    return [
        masked if trivial else G.product(G.inverse(G.power(h, s)), masked)
        for h, s, masked, trivial in zip(
            state.elements, state.secret_bits, challenge.masked,
            _visibly_trivial(G, state.elements))
    ]


def test_setup_masked_elements_lie_in_their_levels(group_for):
    G = group_for("cyclic:12")
    state, challenge = verifier_setup_2msg(G, (2, 3), 4)
    chain = get_chain(G, state.elements)
    masks = _masks(state, challenge)
    for i, masked in enumerate(challenge.masked, start=1):
        assert chain.is_member(i, masked)
        if state.secret_bits[i - 1] == 0:
            assert chain.is_member(i - 1, masked)
        assert masks[i - 1] in chain.level_elements(i - 1)


def test_challenge_carries_tower_in_2msg_only(group_for):
    G = group_for("cyclic:12")
    _, challenge = verifier_setup_2msg(G, (2, 3), 1)
    assert challenge.elements is not None
    _, transcript = run_protocol_3msg(G, _factory("honest"), 1)
    body = next(m.body for m in transcript.messages if m.kind == "challenge")
    assert "elements" not in body


def _shortcuts(state, challenge):
    """How each round whose secret bit is 1 is masked, counted by rule.

    "identity" and "repeat" rounds send the mask, "x=1" rounds send h_i,
    and "paid" rounds, a new element under a mask other than the identity,
    send the product h_i·x.
    """
    G = state.G
    kinds = Counter()
    for h, s, x, trivial in zip(state.elements, state.secret_bits, _masks(state, challenge),
                                _visibly_trivial(G, state.elements)):
        if s:
            kinds["identity" if h == G.identity else "repeat" if trivial
                  else "x=1" if x == G.identity else "paid"] += 1
    return kinds


def _paid_rounds(state, challenge):
    """Rounds whose element is new, whose secret bit is 1 and whose mask is not the identity."""
    return _shortcuts(state, challenge)["paid"]


@pytest.mark.parametrize("spec", [S4, WREATH])
def test_challenge_pays_one_product_per_masked_round(group_for, spec):
    # h^s * x costs a product only when s = 1, h is neither the identity
    # nor an earlier round's element, and x is not the identity.  On each
    # seed every shortcut fires and at least one round pays.
    G = group_for(spec)
    primes = (2, 3)
    get_chain(G, refine_with_primes(G, compute_pcgs(G), primes).elements)
    for seed in (1, 2, 5):
        meter = QueryMeter(G)
        with meter.measuring():
            state, challenge = verifier_setup_2msg(G, primes, seed)
        kinds = _shortcuts(state, challenge)
        assert set(kinds) == {"identity", "repeat", "x=1", "paid"}
        assert meter.snapshot() == QueryCounts(product=_paid_rounds(state, challenge), inverse=0)


def test_3msg_challenge_pays_one_product_per_masked_round(group_for):
    # S4's compacted tower forged with one more element, the identity or
    # h_1 again: the forged round sends its mask for either bit.
    G = group_for(S4)
    c = honest_commitment(G)
    for extra, shortcut in ((G.identity, "identity"), (c.elements[0], "repeat")):
        elements = c.elements + (extra,)
        chain = get_chain(G, elements)
        for seed in (2, 5, 13):
            meter = QueryMeter(G)
            with meter.measuring():
                state, masked = protocol_mod._issue_challenge(
                    G, chain, elements, c.primes + (2,), Random(seed))
            challenge = protocol_mod.Challenge(masked=masked)
            assert set(_shortcuts(state, challenge)) == {shortcut, "x=1", "paid"}
            assert meter.snapshot() == QueryCounts(product=_paid_rounds(state, challenge), inverse=0)


#: blake2b-128 of each honest run's challenge body, in canonical bytes, and
#: the run's ``message_bytes()``.  A round whose element is the identity
#: sends the code the product would have returned, its mask; a round whose
#: element repeats an earlier round's sends its mask for either bit, so its
#: masked code and the digest move with that rule but the bytes do not.
PINNED_CHALLENGES = {
    (WREATH, "2msg", 1): ("b039186130761705184fcee89df4bf99", 195783),
    (WREATH, "2msg", 2): ("3bfaf927bed7ece05673f2b36fb25325", 195783),
    (WREATH, "2msg", 3): ("d7547c4b7c6624f43580ccc25d03fa8b", 195783),
    (WREATH, "2msg", 4): ("0ef10486e8864a7ccb4b6e4de90a450c", 195783),
    (WREATH, "2msg", 5): ("16e3af2482e682610a04f4ae37af06b4", 195783),
    (S4, "3msg", 1): ("002bec3663bc9bc82f5ab882a907a337", 282),
    (S4, "3msg", 2): ("a6b5a2070971511a02f3ea4157c3a5f3", 282),
    (S4, "3msg", 3): ("396653b1ae6d9777c6abeca569443eb9", 282),
    (S4, "3msg", 4): ("ff78e6d7796ad12d964dcb4c58a786f1", 282),
    (S4, "3msg", 5): ("3b3297ed11b31efb8ab1ab08416bc01b", 282),
}


@pytest.mark.parametrize("spec,protocol,seed", sorted(PINNED_CHALLENGES))
def test_challenge_bytes_are_pinned(group_for, spec, protocol, seed):
    G = group_for(spec)
    _, transcript = _run(G, protocol, "honest", seed)
    (challenge,) = [m for m in transcript.messages if m.kind == "challenge"]
    body = protocol_mod.canonical_json_bytes(challenge_to_wire(challenge_from_wire(challenge.body)))
    digest = hashlib.blake2b(body, digest_size=16).hexdigest()
    assert (digest, transcript.message_bytes()) == PINNED_CHALLENGES[(spec, protocol, seed)]


# -- commitment checking --------------------------------------------------------

def _hand_commitment(G):
    g = G.generators[0]
    return build_commitment(G, (G.power(g, 6), G.power(g, 3), g), (2, 2, 3))


def test_hand_built_commitment_passes(group_for):
    G = group_for("cyclic:12")
    assert verifier_check_commitment(G, G.generators, _hand_commitment(G)) is None


def test_tampered_generator_row_aborts(group_for):
    G = group_for("cyclic:12")
    c = _hand_commitment(G)
    rows = list(c.rows)  # cyclic:12 has one generator: rows[0] is its row
    rows[0] = (rows[0][0] + 1,) + rows[0][1:]
    tampered = Commitment(c.elements, c.primes, tuple(rows))
    assert "generator" in verifier_check_commitment(G, G.generators, tampered)


def test_wrong_first_prime_aborts(group_for):
    # The first element has order 2; claiming prime 3 breaks h_1^r_1 = e.
    G = group_for("cyclic:12")
    c = _hand_commitment(G)
    tampered = Commitment(c.elements, (3,) + c.primes[1:], c.rows)
    reason = verifier_check_commitment(G, G.generators, tampered)
    assert reason is not None and "first element" in reason


def test_non_prime_entry_aborts(group_for):
    G = group_for("cyclic:12")
    c = _hand_commitment(G)
    tampered = Commitment(c.elements, (4,) + c.primes[1:], c.rows)
    assert "not a prime" in verifier_check_commitment(G, G.generators, tampered)


@pytest.mark.parametrize("prime", [2**61 - 1, True])
def test_hostile_prime_aborts_before_trial_division(group_for, prime):
    # Trial division on 2^61 - 1 would run for minutes; quotient orders
    # divide |G| <= 2^n, so the bound rejects it first.  A bool is no
    # prime's value: the gate refuses it before the check.
    G = group_for("perm:4:(1 2),(1 2 3 4)")
    fields = dict(elements=(G.generators[0],), primes=(prime,), rows=((1,),) * len(G.generators))
    started = time.perf_counter()
    outcome, transcript = run_protocol_3msg(G, lambda g, rng: _ReplacingProver(g, rng, **fields), 0)
    assert time.perf_counter() - started < 1.0
    if prime is True:
        assert outcome.reason == "commitment cannot be encoded: primes must hold integers"
        assert transcript.messages == []
    else:
        assert outcome.reason == f"commitment check failed: committed value {prime} is not a prime up to 2^n"
        assert verifier_check_commitment(G, G.generators, Commitment(**fields)) in outcome.reason
    assert transcript.queries.total == 0


def test_prime_past_the_primality_bound_aborts_without_queries():
    # perm:18 has 90-bit codes, so 2^89 - 1 passes the 2^n bound, but the
    # primality test is exact only below MILLER_RABIN_EXACT_BELOW: the check
    # refuses the value before testing it, at no query.
    G = make_group(parse_group_spec("perm:18:(1 2)"))
    prime = 2**89 - 1
    assert prime < 1 << G.encoding_length and prime >= MILLER_RABIN_EXACT_BELOW
    hostile = Commitment((G.generators[0],), (prime,), ((1,),))
    meter = QueryMeter(G)
    started = time.perf_counter()
    with meter.measuring():
        reason = verifier_check_commitment(G, G.generators, hostile)
    assert time.perf_counter() - started < 1.0
    assert reason == f"committed value {prime} is at or above the primality bound"
    assert meter.snapshot().total == 0


def test_length_guardrail(group_for):
    G = group_for("cyclic:12")
    too_long = Commitment(elements=(G.identity,) * 100_000, primes=(2,) * 100_000, rows=())
    assert "guardrail" in verifier_check_commitment(G, G.generators, too_long)


class _PaddedHex(bytes):
    """A code whose ``hex()`` ends in a newline, which ``bytes.fromhex`` skips."""

    def hex(self):
        return super().hex() + "\n"


def test_non_bytes_element_code_aborts(group_for):
    # A code is refused at the gate unless it encodes to the canonical hex
    # of a byte string; a bytearray does, and is judged as its bytes.
    G = group_for("cyclic:12")
    c = honest_commitment(G)
    for code, reason in (("junk", "'str' object has no attribute 'hex'"),
                         (_PaddedHex(c.elements[0]), "elements must hold lowercase hex strings"),
                         (bytearray(c.elements[0]), None)):
        elements = (code,) + c.elements[1:]
        outcome, transcript = run_protocol_3msg(
            G, lambda g, rng: _ReplacingProver(g, rng, elements=elements), 0)
        if reason is None:
            assert outcome == Outcome.of(12)
        else:
            assert outcome.reason == f"commitment cannot be encoded: {reason}"
            assert transcript.messages == [] and transcript.queries.total == 0


def _replace_row(c, k, row):
    return dataclasses.replace(c, rows=c.rows[:k] + (row,) + c.rows[k + 1:])


def _non_sequence_commitment(c, shape):
    """The hand commitment with one field or row that is not a sequence.

    The hand tower has t = 3 elements and cyclic:12 one generator, so row 0
    is the generator row, rows 1-2 the power rows and rows 3-5 the
    conjugate rows.
    """
    return {
        "int-generator-row": _replace_row(c, 0, 0),
        "none-power-row": _replace_row(c, 1, None),
        "int-conjugate-row": _replace_row(c, 3, 0),
        "none-primes": dataclasses.replace(c, primes=None),
        "none-rows": dataclasses.replace(c, rows=None),
        "int-elements": dataclasses.replace(c, elements=3),
    }[shape]


@pytest.mark.parametrize("shape,fault", [
    ("int-generator-row", "malformed generator decomposition row: not a sequence"),
    ("none-power-row", "malformed power decomposition row: not a sequence"),
    ("int-conjugate-row", "malformed conjugate decomposition row: not a sequence"),
    ("none-primes", "commitment fields must be sequences"),
    ("none-rows", "commitment fields must be sequences"),
    ("int-elements", "commitment fields must be sequences"),
])
def test_non_sequence_commitment_aborts(group_for, shape, fault):
    # ``fault`` names what is wrong; the gate refuses it before any check
    # or query, and logs nothing.
    G = group_for("cyclic:12")
    tampered = _non_sequence_commitment(_hand_commitment(G), shape)
    outcome, transcript = run_protocol_3msg(
        G, lambda g, rng: _ReplacingProver(g, rng, **dataclasses.asdict(tampered)), 0)
    assert outcome.reason.startswith("commitment cannot be encoded: "), fault
    assert transcript.messages == [] and transcript.queries.total == 0
    if shape.endswith("-row"):
        assert outcome.reason == "commitment cannot be encoded: rows must be a list"


def test_commitment_entry_at_its_prime_aborts_without_queries(group_for):
    # The last generator row's last entry sits at position t, whose attached
    # prime is r_t: an entry equal to it is refused before any oracle query.
    G = group_for(S4)
    c = honest_commitment(G)
    s = len(G.generators)
    rows = _replace_row(c, s - 1, c.rows[s - 1][:-1] + (c.primes[-1],)).rows
    tampered = dataclasses.replace(c, rows=rows)
    meter = QueryMeter(G)
    with meter.measuring():
        reason = verifier_check_commitment(G, G.generators, tampered)
    assert reason == "malformed generator decomposition row: entry outside [0, r_j)"
    assert meter.snapshot().total == 0
    outcome, transcript = run_protocol_3msg(
        G, lambda g, rng: _ReplacingProver(g, rng, rows=rows), 0)
    assert outcome.reason == f"commitment check failed: {reason}"
    assert transcript.queries.total == 0


def test_shape_mismatch_aborts(group_for):
    # s + (t - 1) + t(t - 1)/2 = 1 + 2 + 3 rows on the hand tower; one row
    # fewer or more is refused by arithmetic, before any row or query.
    G = group_for("cyclic:12")
    c = _hand_commitment(G)
    assert len(c.rows) == 6
    for rows in (c.rows[:-1], c.rows[1:], c.rows + ((0, 0),), ()):
        meter = QueryMeter(G)
        with meter.measuring():
            reason = verifier_check_commitment(G, G.generators, Commitment(c.elements, c.primes, rows))
        assert reason == "commitment has the wrong number of relation rows"
        assert meter.snapshot().total == 0


def test_hostile_row_count_is_refused_lazily():
    # t = 2000 commits to t(t - 1)/2 ~ 2 * 10^6 conjugate relations; the
    # count is refused by arithmetic, with no list of t^2 prefix lengths
    # (about 70 MB) built first.
    G = make_group(parse_group_spec("perm:18:(1 2)"))
    t = 2000
    hostile = Commitment((G.identity,) * t, (2,) * t, ())
    tracemalloc.start()
    started = time.perf_counter()
    try:
        reason = verifier_check_commitment(G, G.generators, hostile)
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reason == "commitment has the wrong number of relation rows"
    assert elapsed < 1.0
    assert peak < 1 << 20


def _padded_commitment(G, t):
    """G's honest commitment padded with identities to t elements.

    Each pad carries the prime 13, and every row holds 12, the largest
    exponent in range there, at each pad position; the other entries are
    the honest decomposition of the row's target, so every relation holds.
    """
    honest = honest_commitment(G)
    k = len(honest.elements)
    elements = honest.elements + (G.identity,) * (t - k)
    primes = honest.primes + (13,) * (t - k)
    chain = get_chain(G, honest.elements)
    rows = tuple(
        chain.decompose(min(prefix, k), target) + (12,) * max(0, prefix - k)
        for (_, _, _, prefix), target in relation_targets(G, G.generators, elements, primes))
    return Commitment(elements, primes, rows)


@pytest.mark.parametrize("t", [84, 164])
def test_identity_padded_commitment_costs_the_honest_queries(t):
    # cyclic:12's honest commitment (g^6, g^9, g^3, g) padded with
    # identities passes every check.  An identity base adds nothing to a
    # word, a target with an identity operand is read off by code equality,
    # and a pad's row repeats a word already evaluated, so the check makes
    # the honest commitment's 22 queries.  Paying for the powers of the pads
    # and a product per pad entry costs about t^3 (921,104 queries at t = 84).
    G = make_group(parse_group_spec("cyclic:12"))
    padded = _padded_commitment(G, t)
    costs = []
    for commitment in (honest_commitment(G), padded):
        meter = QueryMeter(G)
        started = time.perf_counter()
        with meter.measuring():
            assert verifier_check_commitment(G, G.generators, commitment) is None
        assert time.perf_counter() - started < 1.0
        costs.append(meter.snapshot())
    assert costs == [QueryCounts(product=19, inverse=3)] * 2


# -- finalize trichotomy ----------------------------------------------------------

def _hand_state(G):
    """2-message verifier state over the hand tower (6, 3, 1) of cyclic:12."""
    g = G.generators[0]
    elements = (G.power(g, 6), G.power(g, 3), g)
    return VerifierState(
        G=G, elements=elements, primes=(2, 2, 3), secret_bits=(1, 0, 1),
    )


def _judged(state, response):
    """The runner's judgment of a response: the gate's abort, or finalize on the decoded one."""
    transcript = protocol_mod.Transcript("2msg", 0)
    received = protocol_mod._receive(transcript, "response", response,
                                     response_to_wire, response_from_wire)
    _assert_logged_bodies_decode(transcript)
    return received if isinstance(received, Outcome) else verifier_finalize(state, received)


def test_finalize_all_matching_rows_gives_one(group_for):
    # Identity tower: every round element decomposes over its prefix, so all
    # per-round factors are 1 whatever the bits say.
    G = group_for("cyclic:12")
    elements = (G.identity, G.identity)
    state = VerifierState(
        G=G, elements=elements, primes=(2, 2), secret_bits=(0, 1),
    )
    response = Response(bits=(1, 0), exponents=((), (0,)))
    assert verifier_finalize(state, response) == Outcome.of(1)


def test_finalize_honest_rows_give_full_order(group_for):
    G = group_for("cyclic:12")
    state = _hand_state(G)
    # No round element decomposes over its prefix; bits echo the secrets.
    response = Response(bits=(1, 0, 1), exponents=((), (0,), (0, 0)))
    assert verifier_finalize(state, response) == Outcome.of(12)


def test_finalize_wrong_bit_aborts(group_for):
    G = group_for("cyclic:12")
    state = _hand_state(G)
    response = Response(bits=(0, 0, 1), exponents=((), (0,), (0, 0)))
    outcome = verifier_finalize(state, response)
    assert outcome.aborted and "round 1" in outcome.reason


def test_finalize_rejects_malformed_shapes(group_for):
    # Shapes and values are the verifier's to refuse; types are the gate's.
    G = group_for("cyclic:12")
    state = _hand_state(G)
    for response, reason in (
        (Response(bits=(1, 0), exponents=((), (0,), (0, 0))),
         "response shape does not match the round count"),
        (Response(bits=(1, 0, 2), exponents=((), (0,), (0, 0))), "round 3: bit is not 0 or 1"),
        (Response(bits=(1, 0, 1), exponents=((), (0, 0), (0, 0))),
         "round 2: malformed exponent row: wrong length"),
        (Response(bits=(1, 0, 1), exponents=((), (0,), (0, -1))),
         "round 3: malformed exponent row: entry outside [0, r_j)"),
        (Response(bits=(1, 0, 1), exponents=((), (0,), (-10, 0))),
         "round 3: malformed exponent row: entry outside [0, r_j)"),
        (Response(bits=(1, 0, 1), exponents=((), (0,), (0, 0, 0))),
         "round 3: malformed exponent row: wrong length"),
        (Response(bits=(1, 0, 1), exponents=((), (0,), (0, "x"))),
         "response cannot be encoded: exponents must hold integers"),
        (Response(bits=(True, 0, 1), exponents=((), (0,), (0, 0))),
         "response cannot be encoded: bits must hold integers"),
    ):
        assert _judged(state, response) == Outcome.abort(reason)


def test_finalize_refuses_non_int_bits(group_for):
    # 1.0 == 1 and 0.0 == 0, so only the gate's type rule keeps float bits
    # out; IntEnum members are ints and stay accepted, as in the rows.
    G = group_for("cyclic:12")
    state = _hand_state(G)
    for bits in ((1.0, 0.0, 1), (1, 0, 1.0), (1, 0, 1 + 0j)):
        outcome = _judged(state, Response(bits=bits, exponents=((), (0,), (0, 0))))
        assert outcome == Outcome.abort("response cannot be encoded: bits must hold integers")

    class _Bit(IntEnum):
        ZERO = 0
        ONE = 1

    response = Response(bits=(_Bit.ONE, _Bit.ZERO, 1), exponents=((), (_Bit.ZERO,), (0, 0)))
    assert _judged(state, response) == Outcome.of(12)


class _Liar(int):
    """An int that equals everything and is false: judged by its value all the same."""

    def __eq__(self, other):
        return True

    def __bool__(self):
        return False

    __hash__ = int.__hash__


def test_int_subclasses_are_judged_by_their_value(group_for):
    # JSON logs a _Liar as its value, and the verifier judges that value.
    # The hand state's secret bits are (1, 0, 1), so a bit 0 on round 1 is
    # wrong however it compares; an entry 2 at a position of prime 2 is out
    # of range however it tests false.  Over (g^6, g^6), round 2's row (1,)
    # is g^6, a match, though a row that tests false is skipped by compress.
    G = group_for("cyclic:12")
    state = _hand_state(G)
    for response, outcome in (
        (Response(bits=(_Liar(0), 0, 1), exponents=((), (0,), (0, 0))),
         Outcome.abort("round 1: no decomposition and the bit is wrong")),
        (Response(bits=(1, 0, 1), exponents=((), (0,), (_Liar(2), 0))),
         Outcome.abort("round 3: malformed exponent row: entry outside [0, r_j)")),
    ):
        assert _judged(state, response) == outcome
    h = G.power(G.generators[0], 6)
    state = VerifierState(G, (h, h), primes=(2, 2), secret_bits=(0, 0))
    assert _judged(state, Response(bits=(0, 1), exponents=((), (_Liar(1),)))) == Outcome.of(2)


def _malformed_response(shape, t):
    """A response whose first malformed field is a non-sequence."""
    bits, rows = (0,) * t, tuple((0,) * i for i in range(t))
    return {
        "int-row": Response(bits, (0,) + rows[1:]),
        "none-row": Response(bits, (None,) + rows[1:]),
        "int-exponents": Response(bits, t),
        "none-exponents": Response(bits, None),
        "int-bits": Response(t, rows),
        "none-bits": Response(None, rows),
    }[shape]


@pytest.mark.parametrize(
    "shape", ["int-row", "none-row", "int-exponents", "none-exponents", "int-bits", "none-bits"]
)
def test_finalize_aborts_on_non_sequence_fields(group_for, shape):
    # The gate refuses a non-sequence and logs nothing after the challenge.
    G = group_for("perm:4:(1 2),(1 2 3 4)")

    class Malformed(HonestProver):
        def respond(self, elements, masked):
            return _malformed_response(shape, len(elements))

    outcome, transcript = run_protocol_2msg(G, (2, 3), Malformed, 0)
    assert outcome.reason.startswith("response cannot be encoded: ")
    assert [m.kind for m in transcript.messages] == ["challenge"]


def test_finalize_2msg_reduces_exponents(group_for):
    # 2-message rows are held to [0, r_j) with the primes (2, 2, 3), not
    # reduced modulo the quotient orders (2, 2): round 3's row (3, 2) is
    # refused although it reduces to the accepted (1, 0).  The in-range row
    # (1, 1) evaluates as sent, to g^9, not g.
    G = group_for("cyclic:12")
    state = _hand_state(G)
    response = Response(bits=(1, 0, 1), exponents=((), (0,), (3, 2)))
    reduced = Response(bits=(1, 0, 1), exponents=((), (0,), (1, 0)))
    in_range = Response(bits=(1, 0, 1), exponents=((), (1,), (1, 1)))
    outcome = verifier_finalize(state, response)
    assert outcome.aborted and "[0, r_j)" in outcome.reason
    assert verifier_finalize(state, reduced) == Outcome.of(12)
    assert verifier_finalize(state, in_range) == Outcome.of(12)


def test_finalize_3msg_exponent_cap(group_for):
    # The bound at position j is r_j, which is below 2^n: an entry above 2^n,
    # a negative entry and r_j itself are all refused by the same rule.
    G = group_for("cyclic:12")
    state = _hand_state(G)
    cap = 1 << G.encoding_length
    for rows in (((), (0,), (cap + 1, 0)), ((), (-1,), (0, 0)),
                 ((), (2,), (0, 0)), ((), (0,), (0, 2))):
        outcome = verifier_finalize(state, Response(bits=(1, 0, 1), exponents=rows))
        assert outcome.aborted and "[0, r_j)" in outcome.reason


def _reference_eval_word(G, bases, exps):
    acc = None
    for base, exp in zip(bases, exps):
        if exp == 0:
            continue
        p = G.power(base, exp)
        acc = p if acc is None else G.product(acc, p)
    return G.identity if acc is None else acc


def _priced_word(G, bases, exps, powers, words):
    """The word of ``exps`` over ``bases`` at the verifier's price.

    An identity base, or a power that comes out the identity, costs no
    query, nor does a product with the identity so far; ``powers`` and
    ``words`` hold what one call has already computed.
    """
    terms = tuple((j, e) for j, e in enumerate(exps) if e != 0 and bases[j] != G.identity)
    if terms not in words:
        acc = G.identity
        for term in terms:
            if term not in powers:
                powers[term] = G.power(bases[term[0]], term[1])
            if powers[term] != G.identity:
                acc = powers[term] if acc == G.identity else G.product(acc, powers[term])
        words[terms] = acc
    return words[terms]


def _reference_finalize(state, response, priced=True):
    """``verifier_finalize`` as a plain loop over every bit and exponent.

    ``priced`` evaluates words at the verifier's price (``_priced_word``);
    otherwise every nonzero term pays for its power and its product.
    """
    G = state.G
    powers, words = {}, {}
    t = len(state.elements)
    bits, exponents = response.bits, response.exponents
    if not isinstance(bits, (tuple, list)) or not isinstance(exponents, (tuple, list)):
        return Outcome.abort("response bits and exponents must be sequences")
    if len(bits) != t or len(exponents) != t:
        return Outcome.abort("response shape does not match the round count")
    factors = []
    for i in range(1, t + 1):
        bit = bits[i - 1]
        row = exponents[i - 1]
        if not isinstance(bit, int) or isinstance(bit, bool) or bit not in (0, 1):
            return Outcome.abort(f"round {i}: bit is not 0 or 1")
        if not isinstance(row, (tuple, list)):
            return Outcome.abort(f"round {i}: malformed exponent row: not a sequence")
        if len(row) != i - 1:
            return Outcome.abort(f"round {i}: malformed exponent row: wrong length")
        if any(not isinstance(a, int) or isinstance(a, bool) for a in row):
            return Outcome.abort(f"round {i}: malformed exponent row: non-integer entry")
        if any(a < 0 or a >= state.primes[j] for j, a in enumerate(row)):
            return Outcome.abort(f"round {i}: malformed exponent row: entry outside [0, r_j)")
        if priced:
            word = _priced_word(G, state.elements, row, powers, words)
        else:
            word = _reference_eval_word(G, state.elements[: i - 1], row)
        if word == state.elements[i - 1]:
            factors.append(1)
        elif bit == state.secret_bits[i - 1]:
            factors.append(state.primes[i - 1])
        else:
            return Outcome.abort(f"round {i}: no decomposition and the bit is wrong")
    return Outcome.of(math.prod(factors))


class _Small(IntEnum):
    ONE = 1
    TWO = 2


@functools.cache
def _finalize_cases():
    """(state, honest response) on the cyclic:12 hand tower and S4's 2- and 3-message towers."""
    G = make_group(parse_group_spec("cyclic:12"))
    cases = [(_hand_state(G), Response(bits=(1, 0, 1), exponents=((), (0,), (0, 0))))]
    G = make_group(parse_group_spec(S4))
    state_2msg, challenge = verifier_setup_2msg(G, (2, 3), 0)
    c = honest_commitment(G)
    state_3msg, masked = protocol_mod._issue_challenge(
        G, get_chain(G, c.elements), c.elements, c.primes, Random(0))
    for state, masked in ((state_2msg, challenge.masked), (state_3msg, masked)):
        response = make_prover("honest", G, Random(0)).respond(state.elements, masked)
        cases.append((state, response))
    return tuple(cases)


@st.composite
def _edited_response(draw, state, honest):
    """An honest response with a few exponents, bits or row lengths changed."""
    cap = 1 << state.G.encoding_length

    def exponent(r):
        return st.one_of(
            st.integers(0, 3),
            st.sampled_from([r - 1, r]),
            st.integers(max_value=-1),
            st.sampled_from([cap, cap + 1]),
            st.integers(min_value=cap + 1),
            st.sampled_from([2**200, -(2**200)]),
            st.sampled_from(_Small),
            st.booleans(),
            st.floats(allow_nan=False),
            st.none(),
            st.text(max_size=2),
        )

    bits, rows = list(honest.bits), [list(row) for row in honest.exponents]
    # Positions whose element is the identity: a nonzero entry there
    # leaves the row's word as it was, at no query.
    blank = [j for j, h in enumerate(state.elements) if h == state.G.identity]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["exponent", "exponent", "bit", "length", "identity"]))
        if edit == "exponent" and rows[i]:
            j = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = draw(exponent(state.primes[j]))
        elif edit == "identity":
            reach = [k for k, row in enumerate(rows) if blank and len(row) > blank[0]]
            if reach:
                i = draw(st.sampled_from(reach))
                j = draw(st.sampled_from([j for j in blank if j < len(rows[i])]))
                rows[i][j] = draw(st.integers(1, state.primes[j] - 1))
        elif edit == "bit":
            bits[i] = draw(st.sampled_from([0, 1, 2, True, 1.0, None]))
        elif edit == "length":
            rows[i] = rows[i][:-1] if rows[i] and draw(st.booleans()) else rows[i] + [0]
    as_tuples = draw(st.booleans())
    return Response(tuple(bits), tuple(tuple(r) if as_tuples else r for r in rows))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), case=st.integers(0, 2))
def test_finalize_matches_per_element_reference(data, case):
    # On a response that passes the gate: the same Outcome, reason string
    # included, and the same oracle queries, on the hand tower and on S4's
    # 2-message and 3-message towers, including rows with a nonzero entry
    # at an identity position of the 2-message tower; a reference that
    # pays for every nonzero term gives the same Outcome.  A response the
    # gate refuses is one the reference refuses too.
    state, honest = _finalize_cases()[case]
    response = data.draw(_edited_response(state, honest))
    try:
        response = response_from_wire(response_to_wire(response))
    except WireError:
        assert _reference_finalize(state, response).aborted
        return
    outcomes = []
    for finalize in (verifier_finalize, _reference_finalize):
        meter = QueryMeter(state.G)
        with meter.measuring():
            outcome = finalize(state, response)
        outcomes.append((outcome, meter.snapshot()))
    assert outcomes[0] == outcomes[1]
    assert _reference_finalize(state, response, priced=False) == outcomes[0][0]


def test_finalize_pays_nothing_for_identity_bases_or_repeated_words(group_for):
    # Over (1, g^4, g^8, g^8) in cyclic:12, round 3's row (1, 2) pays one
    # squaring for g^8 and nothing for its identity base, and round 4's row
    # (0, 2, 0) has the same word, so it pays nothing.  A reference paying
    # for every nonzero term makes three products, for the same Outcome.
    G = group_for("cyclic:12")
    g = G.generators[0]
    elements = (G.identity, G.power(g, 4), G.power(g, 8), G.power(g, 8))
    state = VerifierState(G, elements, primes=(2, 3, 3, 3), secret_bits=(0, 0, 0, 0))
    response = Response(bits=(0, 0, 0, 0), exponents=((), (1,), (1, 2), (0, 2, 0)))
    costs = []
    for finalize in (verifier_finalize, functools.partial(_reference_finalize, priced=False)):
        meter = QueryMeter(G)
        with meter.measuring():
            assert finalize(state, response) == Outcome.of(3)
        costs.append(meter.snapshot())
    assert costs == [QueryCounts(product=1), QueryCounts(product=3)]


#: cyclic:32768 and S4×S3 as the benchmark relabels them.
C32768 = "cyclic:32768@seed=14532532462565509960"
S4xS3 = "direct:perm:4:(1 2),(1 2 3 4),perm:3:(1 2),(1 2 3)@seed=12941607889395588414"


def test_finalize_pays_once_per_distinct_product(group_for):
    # The honest rows over cyclic:32768's 45-round tower share prefixes:
    # each distinct (word so far, power) product is made once, so finalize
    # costs 58 products, where a memo of whole words (the priced
    # reference) pays 78.
    G = group_for(C32768)
    state, challenge = verifier_setup_2msg(G, (2,), 1)
    response = make_prover("honest", G, Random(1)).respond(state.elements, challenge.masked)
    costs = []
    for finalize in (verifier_finalize, _reference_finalize):
        meter = QueryMeter(G)
        with meter.measuring():
            assert finalize(state, response) == Outcome.of(32768)
        costs.append(meter.snapshot())
    assert len(state.elements) == 45
    assert costs == [QueryCounts(product=58), QueryCounts(product=78)]


def test_commitment_check_pays_once_per_distinct_product(group_for):
    # S4×S3's honest check shares products between rows, at 130 products
    # and 9 inverses where a memo of whole words paid 139 and 9.
    G = group_for(S4xS3)
    commitment = honest_commitment(G)
    meter = QueryMeter(G)
    with meter.measuring():
        assert verifier_check_commitment(G, G.generators, commitment) is None
    assert meter.snapshot() == QueryCounts(product=130, inverse=9)


# -- full runs ----------------------------------------------------------------

def test_run_2msg_honest_on_fixtures(group_for, protocol_fixtures):
    for _, spec, primes in protocol_fixtures:
        G = group_for(spec)
        outcome, transcript = run_protocol_2msg(G, primes, _factory("honest"), 17)
        assert outcome == Outcome.of(group_order(G))
        assert [m.kind for m in transcript.messages] == ["challenge", "response"]
        assert [m.direction for m in transcript.messages] == ["V->P", "P->V"]


@pytest.mark.parametrize("protocol", ["2msg", "3msg"])
@pytest.mark.parametrize("spec,primes", [(S4, (2, 3)), ("cyclic:32768@seed=7", (2,))])
def test_cold_oracle_transcript_matches_a_warm_one(spec, primes, protocol):
    # Set-up is memoized, hence amortized: the first run on a fresh oracle
    # pays for it in query_counts() but not in its transcript.
    G = make_group(parse_group_spec(spec))

    def run():
        before = G.query_counts()
        if protocol == "2msg":
            _, transcript = run_protocol_2msg(G, primes, _factory("honest"), 5)
        else:
            _, transcript = run_protocol_3msg(G, _factory("honest"), 5)
        return transcript, (G.query_counts() - before).total

    cold, cold_spent = run()
    warm, warm_spent = run()
    assert cold.canonical_bytes() == warm.canonical_bytes()
    assert cold.queries.total > 0
    assert cold_spent > warm_spent

@pytest.mark.parametrize("protocol", ["2msg", "3msg"])
def test_in_repo_provers_obey_the_exponent_rule(group_for, protocol_fixtures, protocol):
    # Every row an in-repo prover sends holds normal-form digits, below the
    # attached prime.  The one exception is the garbage commitment's bumped
    # entry, which the commitment check refuses, by range or by equality.
    for _, spec, primes in protocol_fixtures:
        G = group_for(spec)
        for name in PROVERS:
            for seed in range(3):
                if protocol == "2msg":
                    outcome, _ = run_protocol_2msg(G, primes, _factory(name), seed)
                else:
                    outcome, _ = run_protocol_3msg(G, _factory(name), seed)
                reason = outcome.reason or ""
                if name == "garbage_commitment" and protocol == "3msg" and group_order(G) > 1:
                    assert reason.startswith("commitment check failed"), (spec, seed, reason)
                else:
                    assert "[0, r_j)" not in reason, (spec, name, seed, reason)


def test_run_3msg_honest_s4(group_for):
    G = group_for("perm:4:(1 2),(1 2 3 4)")
    outcome, transcript = run_protocol_3msg(G, _factory("honest"), 2)
    assert outcome == Outcome.of(24)
    assert [m.kind for m in transcript.messages] == ["commitment", "challenge", "response"]


def test_run_3msg_trivial_group(group_for):
    G = group_for("cyclic:1")
    outcome, _ = run_protocol_3msg(G, _factory("honest"), 0)
    assert outcome == Outcome.of(1)


def test_runner_aborts_when_the_tower_cannot_be_built(group_for):
    a5 = group_for("perm:5:(1 2 3),(3 4 5)")
    outcome, _ = run_protocol_2msg(a5, (2, 3, 5), _factory("honest"), 0)
    assert outcome.reason.startswith("verifier tower construction failed")
    outcome, _ = run_protocol_3msg(a5, _factory("honest"), 0)
    assert outcome.reason.startswith("prover gave up")
    # S4's order 24 has the factor 3, which the prime set (2,) misses.
    outcome, transcript = run_protocol_2msg(group_for(S4), (2,), _factory("honest"), 0)
    assert outcome.reason.startswith("verifier tower construction failed")
    assert "prime set" in outcome.reason
    assert transcript.messages == [] and transcript.queries.total == 0


@pytest.mark.parametrize("primes,reason", [
    ((2, 4), "4 is not prime"),
    ((2, 2**89 - 1), "the bound of exact primality tests"),
])
def test_runner_aborts_on_a_verifier_prime_it_cannot_certify(group_for, primes, reason):
    # A non-prime, or a prime past the exact primality test, is refused by
    # the refinement as RefinementError, which the runner turns into an
    # abort before anything is sent.
    G = group_for("cyclic:12")
    with pytest.raises(RefinementError, match=reason):
        refine_with_primes(G, compute_pcgs(G), primes)
    outcome, transcript = run_protocol_2msg(G, primes, _factory("honest"), 0)
    assert outcome.reason.startswith("verifier tower construction failed")
    assert reason in outcome.reason
    assert transcript.messages == [] and transcript.queries.total == 0


@pytest.mark.parametrize("primes,reason", [
    ((4,), "4 is not prime"),
    ((2**89 - 1,), "the bound of exact primality tests"),
])
def test_trivial_group_refuses_a_verifier_prime_it_cannot_certify(group_for, primes, reason):
    # The trivial group's tower is empty whatever the primes, but a bad
    # prime is refused before that, as on any other group.
    G = group_for("cyclic:1")
    with pytest.raises(RefinementError, match=reason):
        refine_with_primes(G, compute_pcgs(G), primes)
    outcome, transcript = run_protocol_2msg(G, primes, _factory("honest"), 0)
    assert outcome.reason.startswith("verifier tower construction failed")
    assert reason in outcome.reason
    assert transcript.messages == [] and transcript.queries.total == 0


class _ReplacingProver(HonestProver):
    """Commits to the honest commitment with the given fields replaced."""

    def __init__(self, G, rng, **fields):
        super().__init__(G, rng)
        self.fields = fields

    def commit(self):
        return dataclasses.replace(honest_commitment(self.G), **self.fields)


@pytest.mark.parametrize("fields", [
    {"elements": ("zz",)},
    {"rows": 5},
], ids=["str-element-code", "int-rows"])
def test_unencodable_commitment_aborts_before_logging(group_for, fields):
    G = group_for(S4)
    outcome, transcript = run_protocol_3msg(
        G, lambda g, rng: _ReplacingProver(g, rng, **fields), 0
    )
    assert outcome.reason.startswith("commitment cannot be encoded")
    assert transcript.messages == [] and transcript.queries.total == 0


class _RowKeeper(HonestProver):
    """Commits to the honest rows as lists it keeps, and edits one after the check."""

    def commit(self):
        c = honest_commitment(self.G)
        self.rows = [list(row) for row in c.rows]
        return Commitment(c.elements, c.primes, tuple(self.rows))

    def respond(self, elements, masked):
        self.rows[0][0] = 7
        return super().respond(elements, masked)


def test_a_prover_cannot_edit_the_logged_commitment(group_for):
    # The log holds the judged message's own body, not the prover's rows.
    G = group_for(S4)
    outcome, transcript = run_protocol_3msg(G, _RowKeeper, 1)
    assert outcome == Outcome.of(24)
    logged = commitment_from_wire(json.loads(protocol_mod.canonical_json(transcript.messages[0].body)))
    assert logged == honest_commitment(G)
    _assert_logged_bodies_decode(transcript)


_leaf = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=2)
         | st.sampled_from(_Small) | st.builds(object) | st.frozensets(st.integers(), max_size=2))
_anything = st.recursive(
    _leaf,
    lambda children: st.lists(children, max_size=3) | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=2) | st.integers(), children, max_size=2),
    max_leaves=8,
)


@st.composite
def _any_response(draw, honest):
    """Any Response-shaped value: free fields, or an honest one with one part replaced."""
    bits, rows = list(honest.bits), [list(row) for row in honest.exponents]
    part = draw(st.sampled_from(["fields", "bit", "row", "entry"]))
    if part == "fields":
        return Response(draw(_anything), draw(_anything))
    i = draw(st.integers(0, len(rows) - 1))
    if part == "bit":
        bits[i] = draw(_anything)
    elif part == "row" or not rows[i]:
        rows[i] = draw(_anything)
    else:
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(_anything)
    return Response(tuple(bits), tuple(rows))


@functools.cache
def _cyclic12():
    return make_group(parse_group_spec("cyclic:12"))


def _assert_logged_bodies_decode(transcript):
    """Each logged body's size is its text's length, and that text decodes to a
    message that re-encodes to it, in both directions."""
    for m in transcript.messages:
        text = protocol_mod.canonical_json(m.body)
        assert len(text) == m.size_bytes
        decoded = DECODERS[m.kind](json.loads(text))
        assert protocol_mod.canonical_json(ENCODERS[m.kind](decoded)) == text


@settings(max_examples=200, deadline=None)
@given(data=st.data(), protocol=st.sampled_from(["2msg", "3msg"]))
def test_runners_return_an_outcome_for_any_response(data, protocol):
    # A response the gate refuses aborts before it is logged or evaluated,
    # and a logged one is the text of what was judged.
    class Stub(HonestProver):
        def respond(self, elements, masked):
            return data.draw(_any_response(super().respond(elements, masked)))

    G = _cyclic12()
    if protocol == "2msg":
        outcome, transcript = run_protocol_2msg(G, (2, 3), Stub, 0)
    else:
        outcome, transcript = run_protocol_3msg(G, Stub, 0)
    assert isinstance(outcome, Outcome)
    if outcome.aborted and outcome.reason.startswith("response cannot be encoded"):
        assert transcript.messages[-1].kind == "challenge"
    else:
        assert transcript.messages[-1].kind == "response"
    _assert_logged_bodies_decode(transcript)


@st.composite
def _any_commitment(draw, honest):
    """Commitment fields: free, or honest ones with one part replaced."""
    fields = {"elements": list(honest.elements), "primes": list(honest.primes),
              "rows": [list(row) for row in honest.rows]}
    part = draw(st.sampled_from(["field", "element", "prime", "row", "entry"]))
    if part == "field":
        fields[draw(st.sampled_from(sorted(fields)))] = draw(_anything)
    elif part == "element":
        code = st.binary(max_size=3) | st.sampled_from(fields["elements"]).map(_PaddedHex)
        fields["elements"][draw(st.integers(0, len(honest.elements) - 1))] = draw(code | _anything)
    elif part == "prime":
        prime = st.integers() | st.sampled_from([2, 3, 5])
        fields["primes"][draw(st.integers(0, len(honest.primes) - 1))] = draw(prime | _anything)
    else:
        rows = fields["rows"]
        k = draw(st.integers(0, len(rows) - 1))
        if part == "row" or not rows[k]:
            rows[k] = draw(_anything)
        else:
            rows[k][draw(st.integers(0, len(rows[k]) - 1))] = draw(_anything)
    return fields


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_runners_return_an_outcome_for_any_commitment(data):
    # The commitment twin of the response property, on cyclic:12.
    G = _cyclic12()
    fields = data.draw(_any_commitment(honest_commitment(G)))
    outcome, transcript = run_protocol_3msg(
        G, lambda g, rng: _ReplacingProver(g, rng, **fields), 0)
    assert isinstance(outcome, Outcome)
    if outcome.aborted and outcome.reason.startswith("commitment cannot be encoded"):
        assert transcript.messages == []
    else:
        assert transcript.messages[0].kind == "commitment"
    _assert_logged_bodies_decode(transcript)


def test_transcript_sizes_match_canonical_bodies(group_for):
    # The runner sizes each message by arithmetic; every prover, protocol
    # and fixture must log the length of the message's canonical bytes.
    for name in PROTOCOL_FIXTURES:
        fixture = get_fixture(name)
        G = group_for(fixture.spec)
        for prover in PROVERS:
            for transcript in (
                run_protocol_2msg(G, fixture.primes, _factory(prover), 3)[1],
                run_protocol_3msg(G, _factory(prover), 3)[1],
            ):
                assert transcript.messages, (name, prover, transcript.protocol)
                for message in transcript.messages:
                    assert message.size_bytes == len(
                        protocol_mod.canonical_json_bytes(message.body)
                    ), (name, prover, transcript.protocol, message.kind)
                assert transcript.message_bytes() == sum(m.size_bytes for m in transcript.messages)


_entries = (st.sampled_from([0] * 6 + [1, 2, 9, 10, -1, -10, 99, 100])
            | st.integers(-10**40, 10**40))
#: Rows of exact ints as the gate leaves them (or lists, as the verifier
#: builds them): short ones, empty and all-zero ones, and long mostly-zero
#: ones with a few entries set.
_sized_rows = (
    st.lists(_entries, max_size=8)
    | st.integers(0, 300).map(lambda n: [0] * n)
    | st.tuples(st.integers(1, 300), st.dictionaries(st.integers(0, 299), _entries, max_size=3))
    .map(lambda a: [a[1].get(j, 0) for j in range(a[0])])
).flatmap(lambda row: st.sampled_from([row, tuple(row)]))
_codes = st.lists(st.binary(max_size=6).map(bytes.hex), max_size=4)


@settings(max_examples=300, deadline=None)
@given(body=st.fixed_dictionaries(
    {"kind": st.sampled_from(["challenge", "commitment", "response"])},
    optional={"masked": _codes, "elements": _codes, "bits": _sized_rows, "primes": _sized_rows,
              "exponents": st.lists(_sized_rows, max_size=40),
              "rows": st.lists(_sized_rows, max_size=6)},
))
def test_logged_size_is_the_canonical_length(body):
    # Over the bodies the runners log (codes, rows of exact ints, lists of
    # rows), the size ``_log`` computes is the canonical text's length.
    transcript = protocol_mod.Transcript("2msg", 0)
    protocol_mod._log(transcript, "P->V", body["kind"], body)
    assert transcript.messages[0].size_bytes == len(protocol_mod.canonical_json(body))


def test_runners_size_messages_without_encoding(group_for, monkeypatch):
    # No runner encodes a message to learn its size: with the encoder
    # refusing every call, honest runs give the pinned message_bytes().
    def refuse(obj):
        raise AssertionError("a runner encoded a message")

    monkeypatch.setattr(protocol_mod, "canonical_json", refuse)
    for spec, protocol, seed, order in ((WREATH, "2msg", 1, 1152), (S4, "3msg", 1, 24)):
        outcome, transcript = _run(group_for(spec), protocol, "honest", seed)
        assert outcome == Outcome.of(order)
        assert transcript.message_bytes() == PINNED_CHALLENGES[(spec, protocol, seed)][1]


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no limit on int string conversion")
@pytest.mark.parametrize("part", ["bits", "rows"])
def test_an_int_too_long_for_str_aborts_at_the_gate(group_for, part):
    # Sizing the body raises what encoding it raised: the gate aborts with
    # the conversion's own error and logs nothing after the challenge.
    huge = -(10 ** sys.get_int_max_str_digits())
    with pytest.raises(ValueError) as conversion:
        str(huge)

    class Long(HonestProver):
        def respond(self, elements, masked):
            response = super().respond(elements, masked)
            bits, rows = list(response.bits), list(response.exponents)
            if part == "bits":
                bits[1] = huge
            else:
                rows[2] = (huge, 0)
            return Response(tuple(bits), tuple(rows))

    G = group_for("cyclic:12")  # both protocols' towers have at least 3 rounds
    for outcome, transcript in (run_protocol_2msg(G, (2, 3), Long, 0), run_protocol_3msg(G, Long, 0)):
        assert outcome == Outcome.abort(f"response cannot be encoded: {conversion.value}")
        assert transcript.messages[-1].kind == "challenge"


def test_transcript_determinism_same_seed(group_for):
    G = group_for("perm:4:(1 2 3 4),(1 3)")
    for runner in (
        lambda s: run_protocol_2msg(G, (2,), _factory("honest"), s)[1],
        lambda s: run_protocol_3msg(G, _factory("honest"), s)[1],
        lambda s: run_protocol_3msg(G, _factory("order_forger"), s)[1],
    ):
        assert runner(21).canonical_bytes() == runner(21).canonical_bytes()
        assert runner(21).canonical_bytes() != runner(22).canonical_bytes()


def test_queries_exclude_amortized_precomputation(group_for):
    G = group_for("cyclic:12")
    _, first = run_protocol_2msg(G, (2, 3), _factory("honest"), 8)
    _, second = run_protocol_2msg(G, (2, 3), _factory("honest"), 8)
    assert first.queries == second.queries


def test_parallel_runs_share_oracle_with_independent_counts(group_for):
    import threading

    G = group_for("cyclic:12")
    reference = {
        seed: run_protocol_2msg(G, (2, 3), _factory("honest"), seed)[1]
        for seed in (31, 32, 33, 34)
    }
    results = {}

    def worker(seed):
        results[seed] = run_protocol_2msg(G, (2, 3), _factory("honest"), seed)[1]

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in reference]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for seed, transcript in results.items():
        assert transcript.canonical_bytes() == reference[seed].canonical_bytes()


def test_large_levels_draw_masks_from_the_table(group_for):
    # The top level of cyclic:32768's 15-round tower holds 16384 elements.
    # Its mask comes from the normal-form table like every other level's, so
    # a round costs at most its two masking products and no sampler queries.
    G = group_for("cyclic:32768")
    state, challenge = verifier_setup_2msg(G, (2,), 5)
    rounds = len(challenge.masked)
    chain = get_chain(G, state.elements)
    assert max(chain.level_order(i - 1) for i in range(1, rounds + 1)) > 10_000
    for i, mask in enumerate(_masks(state, challenge), start=1):
        assert chain.is_member(i - 1, mask)
    outcome, transcript = run_protocol_2msg(G, (2,), _factory("honest"), 5)
    assert outcome == Outcome.of(32768)
    assert transcript.queries.total <= 2 * rounds


#: blake2b-128 of ``canonical_bytes()`` for seeded S4 runs, pinned so that a
#: change to table layout or sampling order cannot silently alter transcripts.
#: The honest 3-message commitment is the compacted S4 tower: four rounds,
#: none an adversary can inflate, so guess_inflate plays honestly there and
#: shares the honest 3-message digests.  The deflate and order_forger runs pin
#: the order in which each cheating round draws its random numbers; the
#: seed-2 3-message order_forger run is accepted with the forged order 48.
PINNED_S4_DIGESTS = {
    ("2msg", "honest", 1): "85a0db599191ae22c85e048067ba59ef",
    ("2msg", "honest", 2): "2e697667cb007ffd2490eb4d4ac3f24a",
    ("2msg", "guess_inflate", 1): "5f04326a12c2f14b172acd427e176c69",
    ("2msg", "guess_inflate", 2): "5220913052edc339a81dfecc171596b5",
    ("3msg", "honest", 1): "372d3e58de0b1d85e1b4c663dbd81078",
    ("3msg", "honest", 2): "bd31e8f4a2a670f4b244faa491595f5b",
    ("3msg", "guess_inflate", 1): "372d3e58de0b1d85e1b4c663dbd81078",
    ("3msg", "guess_inflate", 2): "bd31e8f4a2a670f4b244faa491595f5b",
    ("2msg", "deflate", 1): "756ca0de06f40fd79cfa902fadd3a480",
    ("2msg", "order_forger", 1): "5994f41c7dd03270bea953fa3a014ef8",
    ("3msg", "order_forger", 1): "cb5cc5a16fcb3f91eae6e47edc53751c",
    ("3msg", "order_forger", 2): "41a873d8ae136a9c0f10eaac9795c719",
}


def _run(G, protocol, prover, seed):
    if protocol == "2msg":
        return run_protocol_2msg(G, (2, 3), _factory(prover), seed)
    return run_protocol_3msg(G, _factory(prover), seed)


@pytest.mark.parametrize("protocol,prover,seed", sorted(PINNED_S4_DIGESTS))
def test_transcript_digests_are_pinned(protocol, prover, seed):
    G = make_group(parse_group_spec(S4))
    _, transcript = _run(G, protocol, prover, seed)
    digest = hashlib.blake2b(transcript.canonical_bytes(), digest_size=16).hexdigest()
    assert digest == PINNED_S4_DIGESTS[(protocol, prover, seed)]


#: blake2b-128 of 3-message guess_inflate runs on unrelabeled cyclic:12,
#: whose compacted commitment (6, 9, 3, 1) keeps inflatable round 3, so the
#: prover plays an inflated round: seed 1 aborts there on a wrong bit, seed 2
#: is accepted with the inflated order 36.
PINNED_C12_INFLATE_DIGESTS = {
    1: "829e1a7930d813ecb9ae9acf15cd66e0",
    2: "24bf21bacd5768a781f2befb1e7e82a0",
}


@pytest.mark.parametrize("seed", sorted(PINNED_C12_INFLATE_DIGESTS))
def test_inflated_3msg_digests_are_pinned(seed):
    G = make_group(parse_group_spec("cyclic:12"))
    _, transcript = _run(G, "3msg", "guess_inflate", seed)
    digest = hashlib.blake2b(transcript.canonical_bytes(), digest_size=16).hexdigest()
    assert digest == PINNED_C12_INFLATE_DIGESTS[seed]


@pytest.mark.parametrize("protocol", ["2msg", "3msg"])
def test_oracle_is_freed_after_runs(protocol):
    G = make_group(parse_group_spec(S4))
    for prover in ("honest", "guess_inflate", "order_forger"):
        _run(G, protocol, prover, 3)
    assert G.precomputed
    ref = weakref.ref(G)
    del G
    gc.collect()
    assert ref() is None


# -- repetition -----------------------------------------------------------------

def test_repeated_k1_matches_single_run(group_for):
    G = group_for("cyclic:12")
    single, _ = run_protocol_2msg(
        G, (2, 3), _factory("honest"), protocol_mod.derive_seed(9, "copy-0")
    )
    combined, transcripts = run_repeated(G, "2msg", _factory("honest"), 1, 9, primes=(2, 3))
    assert combined == single and len(transcripts) == 1


def test_repeated_honest_agrees(group_for):
    G = group_for("perm:3:(1 2),(1 2 3)")
    outcome, transcripts = run_repeated(G, "3msg", _factory("honest"), 3, 4)
    assert outcome == Outcome.of(6) and len(transcripts) == 3


def test_repeated_amplifies_soundness(group_for):
    G = group_for("cyclic:12")
    wrong = 0
    for seed in range(600):
        outcome, _ = run_repeated(G, "2msg", _factory("guess_inflate"), 3, seed, primes=(2, 3))
        if not outcome.aborted and outcome.order != 12:
            wrong += 1
    assert wrong / 600 <= 0.18


def test_unanimous_combiner():
    assert unanimous_outcome([Outcome.of(6), Outcome.of(6)]) == Outcome.of(6)
    assert unanimous_outcome([Outcome.of(6), Outcome.of(12)]).aborted
    assert unanimous_outcome([Outcome.of(6), Outcome.abort("x")]).aborted


def test_repeated_validates_arguments(group_for):
    G = group_for("cyclic:12")
    with pytest.raises(ValueError):
        run_repeated(G, "2msg", _factory("honest"), 0, 1, primes=(2, 3))
    with pytest.raises(ValueError):
        run_repeated(G, "2msg", _factory("honest"), 1, 1)
    with pytest.raises(ValueError):
        run_repeated(G, "4msg", _factory("honest"), 1, 1)


# -- challenge hiding --------------------------------------------------------------

def test_trivial_round_challenge_distributions_identical(group_for):
    G = group_for("cyclic:12")
    refined = refine_with_primes(G, compute_pcgs(G), (2, 3))
    chain = get_chain(G, refined.elements)
    checked = 0
    for i, m in enumerate(chain.quotient_orders, start=1):
        if m == 1:
            d0 = challenge_code_distribution(G, chain, i, 0)
            d1 = challenge_code_distribution(G, chain, i, 1)
            assert d0 == d1
            checked += 1
    assert checked > 0


def test_nontrivial_round_distributions_disjoint(group_for):
    # Sanity inverse: when the quotient is nontrivial the two distributions
    # have disjoint support, which is exactly what the prover exploits.
    G = group_for("cyclic:12")
    refined = refine_with_primes(G, compute_pcgs(G), (2, 3))
    chain = get_chain(G, refined.elements)
    i = next(i for i, m in enumerate(chain.quotient_orders, start=1) if m > 1)
    d0 = challenge_code_distribution(G, chain, i, 0)
    d1 = challenge_code_distribution(G, chain, i, 1)
    assert not (set(d0) & set(d1))


class _ReplayRng:
    """An rng whose draws follow ``path``, extended by a first choice past its end."""

    def __init__(self, path):
        self.path, self.sizes = path, []

    def _draw(self, n):
        if len(self.sizes) == len(self.path):
            self.path.append(0)
        self.sizes.append(n)
        return self.path[len(self.sizes) - 1]

    def getrandbits(self, k):
        return self._draw(1 << k)

    def randrange(self, n):
        return self._draw(n)


def _challenge_paths(G, chain, elements, primes):
    """(probability, state, masked) for every path of ``_issue_challenge``'s draws."""
    path = []
    while True:
        rng = _ReplayRng(path)
        state, masked = protocol_mod._issue_challenge(G, chain, elements, primes, rng)
        yield Fraction(1, math.prod(rng.sizes)), state, masked
        # The next path advances the last draw that has a choice left.
        while path and path[-1] == rng.sizes[len(path) - 1] - 1:
            path.pop()
        if not path:
            return
        path[-1] += 1


def _tower(G, name):
    """(chain, elements, primes) of a 2-message tower, or of S4's forged 3-message tower."""
    if name.startswith("forged-"):
        c = honest_commitment(G)
        extra = G.identity if name == "forged-identity" else c.elements[0]
        elements, primes = c.elements + (extra,), c.primes + (2,)
    else:
        refined = refine_with_primes(G, compute_pcgs(G), (2, 3))
        elements, primes = refined.elements, refined.primes
    return get_chain(G, elements), elements, primes


@pytest.mark.parametrize("spec", [S4, "cyclic:12", WREATH])
def test_challenge_mean_cost_is_exact(group_for, spec):
    # A round costs a product when its element is new (not the identity
    # nor an earlier round's), s = 1 and x is not the identity: with
    # probability 1/2 * (1 - 1/|L_{i-1}|).  Every level divides the last,
    # |L_{t-1}| = N, so over the 2N draw paths that give every round the
    # bit s and the mask index k mod |L_{i-1}|, for s in {0, 1} and k < N,
    # each round meets each of its (s, mask) pairs equally often, and the
    # mean cost of a path is the exact expected cost of a challenge.
    G = group_for(spec)
    chain, elements, primes = _tower(G, spec)
    orders = [chain.level_order(i) for i in range(len(elements))]
    n = orders[-1]
    assert all(n % order == 0 for order in orders)
    meter = QueryMeter(G)
    with meter.measuring():
        for s in (0, 1):
            for k in range(n):
                path = [draw for order in orders for draw in (s, k % order)]
                protocol_mod._issue_challenge(G, chain, elements, primes, _ReplayRng(path))
    expected = sum(Fraction(1, 2) * (1 - Fraction(1, order))
                   for order, trivial in zip(orders, _visibly_trivial(G, elements)) if not trivial)
    assert meter.snapshot().inverse == 0
    assert Fraction(meter.snapshot().product, 2 * n) == expected


@pytest.mark.parametrize("tower", [S4, "cyclic:12", WREATH, "forged-identity", "forged-repeat"])
def test_visibly_trivial_rounds_hide_the_bit_exactly(group_for, tower):
    # A round whose element is the identity or an earlier round's lies in
    # L_{i-1}, so it sends its mask x for either bit: over every mask index
    # of L_{i-1}, the codes it sends for s are exactly h_i^s·x's.  The
    # forged towers are S4's compacted tower with the identity or h_1
    # appended.  Each draw path gives every round the same bit s and mask
    # index k, or 0 past its level's end.
    G = group_for(S4 if tower.startswith("forged-") else tower)
    chain, elements, primes = _tower(G, tower)
    orders = [chain.level_order(i) for i in range(len(elements))]
    rounds = [i for i, trivial in enumerate(_visibly_trivial(G, elements), start=1) if trivial]
    assert rounds
    sent = {(i, s): Counter() for i in rounds for s in (0, 1)}
    for s in (0, 1):
        for k in range(max(orders)):
            path = [draw for order in orders for draw in (s, k if k < order else 0)]
            _, masked = protocol_mod._issue_challenge(G, chain, elements, primes, _ReplayRng(path))
            for i in rounds:
                if k < orders[i - 1]:
                    sent[i, s][masked[i - 1]] += 1
    for (i, s), codes in sent.items():
        assert codes == challenge_code_distribution(G, chain, i, s), (i, s)


@pytest.mark.parametrize("name", PROTOCOL_FIXTURES)
def test_optimal_cheating_probability_is_exactly_one_half(group_for, name):
    # A cheating prover must name one trivial round i and guess its secret
    # bit from the masked tuple mu it sees; its best chance is the sum over
    # mu of max over (i, b) of P(mu, s_i = b).  Every draw path of the
    # code that issues the challenge is enumerated, so this is exact.
    G = group_for(get_fixture(name).spec)
    c = honest_commitment(G)
    elements, primes = c.elements + (c.elements[0],), c.primes + (2,)
    chain = get_chain(G, elements)
    trivial = [i for i, m in enumerate(chain.quotient_orders) if m == 1]
    assert trivial[-1] == len(elements) - 1
    joint = {}
    total = Fraction(0)
    for p, state, masked in _challenge_paths(G, chain, elements, primes):
        guesses = joint.setdefault(masked, Counter())
        for i in trivial:
            guesses[i, state.secret_bits[i]] += p
        total += p
    assert total == 1
    assert sum(max(guesses.values()) for guesses in joint.values()) == Fraction(1, 2)


def _words(G, elements, primes):
    """word -> its first row, over every row of exponents below ``primes``."""
    pairs = [((), G.identity)]
    for h, r in zip(elements, primes):
        powers = [G.power(h, a) for a in range(r)]
        pairs = [(row + (a,), G.product(word, p))
                 for row, word in pairs for a, p in enumerate(powers)]
    words = {}
    for row, word in pairs:
        words.setdefault(word, row)
    return words


def _accepted_commitments(G, t_max, prime_set):
    """Every commitment with t <= t_max that the check accepts, rows by brute force.

    The ambient group is G itself, so every element code is a member.
    """
    codes = enumerate_closure(G, G.generators)
    words = {}
    for t in range(t_max + 1):
        for elements in itertools.product(codes, repeat=t):
            for primes in itertools.product(prime_set, repeat=t):
                rows = []
                for (_, _, _, prefix), target in relation_targets(G, G.generators, elements, primes):
                    key = (elements[:prefix], primes[:prefix])
                    if key not in words:
                        words[key] = _words(G, *key)
                    row = words[key].get(target)
                    if row is None:
                        break
                    rows.append(row)
                else:
                    c = Commitment(elements, primes, tuple(rows))
                    if verifier_check_commitment(G, G.generators, c) is None:
                        yield c


def test_every_accepted_commitment_on_s3_is_sound():
    # Every commitment over S3, as its own ambient group, with t <= 3 and
    # primes from {2, 3, 5}.  Per masked tuple mu, a cheating prover picks
    # a plan: decompose some trivial rounds (factor 1) and guess the bit of
    # every other round (factor r_i).  The plan wins when its bits are
    # right and its order is not |G|; its best chance, summed over mu, is
    # the commitment's exact soundness error.  Each committed tower's chain
    # is built from scratch.
    G = make_group(parse_group_spec("perm:3:(1 2),(1 2 3)"))
    order = group_order(G)
    errors = []
    for c in _accepted_commitments(G, 3, (2, 3, 5)):
        chain = get_chain(G, c.elements)
        assert math.prod(chain.quotient_orders) == order
        joint = {}
        for p, state, masked in _challenge_paths(G, chain, c.elements, c.primes):
            joint.setdefault(masked, Counter())[state.secret_bits] += p
        trivial = [i for i, m in enumerate(chain.quotient_orders) if m == 1]
        plans = []
        for n in range(len(trivial) + 1):
            for decomposed in itertools.combinations(trivial, n):
                guessed = [i for i in range(len(c.elements)) if i not in decomposed]
                if math.prod(c.primes[i] for i in guessed) != order:
                    plans.append(guessed)
        error = Fraction(0)
        for bits in joint.values():
            best = Fraction(0)
            for guessed in plans:
                marginal = Counter()
                for s, p in bits.items():
                    marginal[tuple(s[i] for i in guessed)] += p
                best = max(best, *marginal.values())
            error += best
        errors.append(error)
    assert len(errors) == 186
    assert max(errors) == Fraction(1, 2)


# -- wire codec -----------------------------------------------------------------

def test_codec_round_trips(group_for):
    G = group_for("perm:3:(1 2),(1 2 3)")
    c = honest_commitment(G)
    body = commitment_to_wire(c)
    assert sorted(body) == ["elements", "kind", "primes", "rows"]
    # The body holds the commitment's own rows, and decoding copies none.
    assert all(a is b for a, b in zip(body["rows"], c.rows, strict=True))
    assert all(a is b for a, b in zip(commitment_from_wire(body).rows, c.rows, strict=True))
    assert json.loads(protocol_mod.canonical_json(body))["rows"] == [list(row) for row in c.rows]
    assert commitment_from_wire(body) == c
    assert commitment_from_wire(json.loads(protocol_mod.canonical_json(body))) == c
    state, challenge = verifier_setup_2msg(G, (2, 3), 6)
    assert challenge_from_wire(challenge_to_wire(challenge)) == challenge
    prover = make_prover("honest", G, Random(1))
    response = prover.respond(challenge.elements, challenge.masked)
    assert response_from_wire(response_to_wire(response)) == response


DECODERS = {
    "challenge": challenge_from_wire,
    "response": response_from_wire,
    "commitment": commitment_from_wire,
}
ENCODERS = {
    "challenge": challenge_to_wire,
    "response": response_to_wire,
    "commitment": commitment_to_wire,
}


@pytest.mark.parametrize("text", ["0A", " 0a", "0a\n", "0a 0b", "0a0B", "\t"])
def test_decoders_accept_only_canonical_hex(text):
    # bytes.fromhex reads each text, but one code has one text, its hex():
    # otherwise one message would have several bodies.
    canonical = bytes.fromhex(text).hex()
    bodies = {
        challenge_from_wire: {"kind": "challenge", "masked": [], "elements": []},
        commitment_from_wire: {"kind": "commitment", "elements": [], "primes": [], "rows": []},
    }
    for decode, body in bodies.items():
        for field in ("masked", "elements") if "masked" in body else ("elements",):
            assert decode({**body, field: [canonical]}) is not None
            with pytest.raises(WireError, match="lowercase hex"):
                decode({**body, field: [text]})


@pytest.mark.parametrize(
    "kind,body",
    [
        ("response", {}),
        ("response", {"kind": "response", "bits": 1, "exponents": []}),
        ("response", {"kind": "response", "bits": [0, 1.5], "exponents": [[], [0]]}),
        ("response", {"kind": "challenge", "bits": [], "exponents": []}),
        ("challenge", {"kind": "challenge", "masked": ["zz"]}),
        ("challenge", {"kind": "challenge", "masked": [], "elements": "00"}),
        ("commitment", {"kind": "commitment", "elements": ["0"], "primes": [], "rows": []}),
        ("commitment", {"kind": "commitment", "elements": [], "primes": [True], "rows": []}),
        ("commitment", {"kind": "commitment", "elements": [], "primes": [], "rows": 5}),
        ("commitment", {"kind": "commitment", "elements": [], "primes": [], "rows": {}}),
        ("commitment", {"kind": "commitment", "elements": [], "primes": [], "rows": [5]}),
        ("commitment", {"kind": "commitment", "elements": [], "primes": [], "rows": [[1, None]]}),
        ("commitment", {"kind": "commitment", "elements": [], "primes": [], "rows": [[1.0]]}),
        ("commitment", {"kind": "commitment", "elements": [], "primes": [], "rows": [[True]]}),
        ("commitment", {"kind": "commitment", "elements": [], "primes": []}),
        ("commitment", {"kind": "commitment", "elements": [], "primes": [],
                        "generator_exponents": [], "power_exponents": [],
                        "conjugate_exponents": []}),
        ("commitment", []),
    ],
)
def test_decoders_reject_junk_with_wire_error(kind, body):
    with pytest.raises(WireError):
        DECODERS[kind](body)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=20,
)
_hex = st.binary(max_size=3).map(bytes.hex)
_ints = st.lists(st.integers(-2, 2**70) | st.booleans(), max_size=3)
_fields = {
    "masked": st.lists(_hex | st.text(max_size=4), max_size=3),
    "elements": st.lists(_hex | st.text(max_size=4), max_size=3),
    "bits": _ints,
    "primes": _ints,
    "exponents": st.lists(_ints, max_size=3),
    "rows": st.lists(_ints, max_size=3),
}
#: Bodies near the real shapes: the right kind, each field either of its own
#: shape or any JSON value, and any field possibly missing.
_near_bodies = st.builds(
    lambda kind, values, drop: {"kind": kind, **{k: v for k, v in values.items() if k not in drop}},
    st.sampled_from(sorted(DECODERS)),
    st.fixed_dictionaries({k: v | _json for k, v in _fields.items()}),
    st.sets(st.sampled_from(sorted(_fields)), max_size=2),
)


_int_entries = st.sampled_from([0] * 6 + [1, 2, -1]) | st.integers() | st.integers(min_value=2**64)
_odd_entries = st.booleans() | st.sampled_from(_Small) | st.floats()
_rows = st.lists(_int_entries, max_size=60) | st.lists(_int_entries | _odd_entries, max_size=6)
#: Lists of rows of either kind, long ones made by repeating a few rows past
#: 32 rows, plus short lists that may hold a non-row.
_row_lists = (
    st.lists(_rows, min_size=1, max_size=5).map(lambda rs: rs * (32 // len(rs) + 1))
    | st.lists(_rows | st.integers(), max_size=3)
)
_nested_rows = st.recursive(
    _row_lists,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=4,
)


@settings(max_examples=300, deadline=None)
@given(value=_json | _near_bodies | st.sampled_from([
    {"kind": "response", "bits": [0] * 300, "exponents": [[i % 3] * (i % 5) for i in range(300)]},
    {"b": [[0]] + list(range(32)), "a": [[[1], {"y": 2, "x": [True, None]}]] * 300},
]))
def test_canonical_bytes_are_the_compact_sorted_json(value):
    # Encoding long lists of rows one row at a time must not change a byte.
    expected = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    assert protocol_mod.canonical_json_bytes(value) == expected
    # The text is ASCII, so the logged message size can be its length.
    assert len(protocol_mod.canonical_json(value)) == len(expected)


@settings(max_examples=200, deadline=None)
@given(value=_nested_rows)
def test_zero_run_rows_encode_as_json_dumps(value):
    # Giving the C encoder one row at a time must not change a byte, for
    # rows of exact ints with runs of zeros, bools, floats, IntEnum members
    # or big ints.
    expected = json.dumps(value, sort_keys=True, separators=(",", ":"))
    assert protocol_mod.canonical_json(value) == expected
    assert protocol_mod.canonical_json_bytes(value) == expected.encode()


def test_transcript_bytes_group_nested_rows(group_for, monkeypatch):
    # This relabeling of cyclic:32768 has a 45-round 2-message tower, so the
    # response nested in the transcript is a list of 45 rows.
    G = group_for("cyclic:32768@seed=13")
    outcome, transcript = run_protocol_2msg(G, (2,), _factory("honest"), 1)
    assert outcome == Outcome.of(32768)
    assert len(transcript.messages[-1].body["exponents"]) == 45
    calls = []
    encode = protocol_mod._encode
    monkeypatch.setattr(protocol_mod, "_encode", lambda obj: calls.append(obj) or encode(obj))
    expected = json.dumps(transcript.to_wire(), sort_keys=True, separators=(",", ":")).encode()
    assert transcript.canonical_bytes() == expected
    # Each C call gets one row at most, so it never holds a string for every
    # number of a long response at once.
    assert calls and not any(map(_holds_rows, calls))


def _holds_rows(obj) -> bool:
    """Whether ``obj`` is, or holds anywhere inside, a list with a list or tuple item."""
    values = obj.values() if type(obj) is dict else obj if type(obj) in (list, tuple) else ()
    own = type(obj) is list and any(type(item) in (list, tuple) for item in obj)
    return own or any(map(_holds_rows, values))


def test_canonical_bytes_of_deep_and_cyclic_values():
    # Past the depth the descent reaches, the C encoder answers.
    deep = inner = []
    for _ in range(400):
        inner.append({"k": []})
        inner = inner[0]["k"]
    assert protocol_mod.canonical_json_bytes(deep) == json.dumps(
        deep, sort_keys=True, separators=(",", ":")).encode()
    cyclic = {"rows": [[0]] * 33}
    cyclic["self"] = [cyclic]
    with pytest.raises(ValueError, match="Circular reference"):
        protocol_mod.canonical_json_bytes(cyclic)


def _parent_row_fault(row, length=None, primes=()):
    """The row check as it was before it skipped zeros: every entry compared."""
    if not isinstance(row, (tuple, list)):
        return "not a sequence"
    if length is not None and len(row) != length:
        return "wrong length"
    if set(map(type, row)) - {int} and any(not isinstance(a, int) or isinstance(a, bool) for a in row):
        return "non-integer entry"
    if primes and row and (min(row) < 0 or not all(map(operator.lt, row, primes))):
        return "entry outside [0, r_j)"
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_row_fault_matches_the_full_comparison(data):
    # The gate hands the verifier rows of exact ints, on which comparing
    # only the nonzero entries gives the full comparison's answer.
    primes = data.draw(st.lists(st.sampled_from([2, 3, 5, 7]), max_size=8))
    entry = st.sampled_from([0] * 4 + [1, -1, 2, 3, 7]) | st.integers()
    if primes and data.draw(st.booleans()):
        # Mostly in-range rows, some entry possibly equal to its r_j.
        entry = st.integers(0, len(primes) - 1).flatmap(
            lambda j: st.sampled_from([0, 0, primes[j] - 1, primes[j]]))
    # The verifier's rows are prefixes: length <= len(primes).
    length = data.draw(st.integers(0, len(primes)))
    size = data.draw(st.sampled_from([length, length, length + 1, max(0, length - 1)]))
    row = data.draw(st.lists(entry, min_size=size, max_size=size).map(tuple)
                    | st.lists(entry, min_size=size, max_size=size))
    assert protocol_mod._row_fault(row, length, primes) == _parent_row_fault(row, length, primes)


@settings(max_examples=300, deadline=None)
@given(body=_json | _near_bodies)
def test_decoders_return_a_message_or_raise_wire_error(body):
    for decode in DECODERS.values():
        try:
            decode(body)
        except WireError:
            pass
