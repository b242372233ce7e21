"""Verifier state machines and orchestration for both protocols.

Two interactive protocols compute the order of a solvable black-box group.
In the 2-message variant the verifier, knowing the prime factors of the
order, builds the refined polycyclic tower itself (the paper's l*n*t'
positions), sends the tower along with one masked element per round, and
turns the prover's reply into a product of per-round factors.  In the
3-message variant the prover commits to a tower first, with one exponent
row per relation of ``prover.relation_schedule`` certifying it; the honest
prover commits to the compacted tower (``polycyclic.compact_tower``: no
identity and no repeated element).  The verifier checks the commitment
with deterministic equality tests and runs one round per committed
element, compacting nothing it receives; the remaining rounds proceed as
in the 2-message variant.

Every prover message crosses one gate (``_receive``): the runner builds
its body, decodes that with the wire decoder, the only type rule, and logs
the decoded message's body; the verifier checks that message, by value
only, so every logged prover body decodes to the message judged.  Both
variants share one value rule: every exponent a prover sends for position
j must lie in [0, r_j), with r_j the prime attached there (``_row_fault``).

A trial pays for what its messages carry, not for their length, and the
verifier never asks the oracle what it can already see: an answer that
code equality or an earlier answer in the same call decides costs no
query.  A challenge round costs a product only when its secret bit is 1
and neither its element nor its mask is the identity.  A relation target
with an identity operand is read off by code equality
(``prover.relation_targets``).  One word evaluator per check or finalize
call (``_word_evaluator``) skips identity bases and computes each distinct
power and each distinct word of the message once.  Response rows over a
long tower are mostly zeros: the message's sizing, the row check and the
word evaluation step over the nonzero entries only, and their zeros are
scanned by builtins in C.  The runner sizes each message it logs by
arithmetic on the body (``_text_length``) and never encodes it:
``canonical_json`` only serializes (digests, ``--transcripts`` logs, the
CLI).

Every execution is seeded and reproducible: transcripts carry the full
message log in a canonical JSON form, so identical seeds yield
byte-identical transcripts.  A run's ``QueryMeter`` covers the
verifier's interactive work (commitment checking, challenge masking,
response evaluation); deterministic precomputation shared across runs
(pcgs, refinement, tables, the honest commitment) is ``memoized``, so
amortized and excluded, whichever run builds it.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain as _chain, compress
from random import Random
from typing import Callable, Sequence

from .groups import (
    DEFAULT_CLOSURE_CAP,
    ClosureOverflowError,
    ElementCode,
    GroupOracle,
    InvalidCodeError,
    QueryCounts,
    QueryMeter,
)
from .polycyclic import (
    MILLER_RABIN_EXACT_BELOW,
    ChainError,
    NotSolvableError,
    RefinementError,
    SubgroupChain,
    compute_pcgs,
    get_chain,
    is_prime,
    refine_with_primes,
)
from .prover import Commitment, HonestProver, Response, relation_schedule, relation_targets
from .sampling import as_rng, derive_seed

#: Guardrail on prover-committed tower length:
#: t <= FACTOR * n * s * log2(DEFAULT_CLOSURE_CAP), with n the encoding length
#: and s the number of group generators.
COMMITMENT_LENGTH_FACTOR = 4

ProverFactory = Callable[[GroupOracle, Random], HonestProver]


# ---------------------------------------------------------------------------
# Message and outcome types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Challenge:
    """Masked round elements; the 2-message variant also carries the tower.

    The verifier's per-round secret bits and mask elements never appear in
    any message.
    """

    masked: tuple[ElementCode, ...]
    elements: tuple[ElementCode, ...] | None = None


@dataclass(frozen=True)
class Outcome:
    """Final verifier result: a claimed order, or an abort with a reason."""

    order: int | None
    reason: str | None = None

    @classmethod
    def of(cls, order: int) -> "Outcome":
        return cls(order=order)

    @classmethod
    def abort(cls, reason: str) -> "Outcome":
        return cls(order=None, reason=reason)

    @property
    def aborted(self) -> bool:
        return self.order is None


@dataclass(frozen=True)
class TranscriptMessage:
    direction: str  # "V->P" or "P->V"
    kind: str
    body: dict
    size_bytes: int


@dataclass
class Transcript:
    """Ordered message log of one execution plus accounting metadata."""

    protocol: str
    seed: int
    messages: list[TranscriptMessage] = field(default_factory=list)
    queries: QueryCounts = QueryCounts()
    outcome: Outcome = Outcome.abort("incomplete")

    def message_bytes(self) -> int:
        return sum(m.size_bytes for m in self.messages)

    def to_wire(self) -> dict:
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "messages": [
                {
                    "direction": m.direction,
                    "kind": m.kind,
                    "bytes": m.size_bytes,
                    "body": m.body,
                }
                for m in self.messages
            ],
            "queries": {"product": self.queries.product, "inverse": self.queries.inverse},
            "outcome": outcome_to_wire(self.outcome),
        }

    def canonical_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_wire())


# ---------------------------------------------------------------------------
# Canonical wire encoding (self-describing JSON, hex codes, decimal ints)
# ---------------------------------------------------------------------------

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _pieces(obj):
    """The pieces of ``_encode(obj)``: a str-keyed dict by key, a list of containers by item."""
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        opening, closing, items = "{", "}", ((_encode(k) + ":", obj[k]) for k in sorted(obj))
    elif type(obj) is list and obj and type(obj[0]) in (dict, list, tuple):
        opening, closing, items = "[", "]", (("", item) for item in obj)
    else:
        yield _encode(obj)
        return
    for key, value in items:
        yield opening + key
        yield from _pieces(value)
        opening = ","
    yield closing


def canonical_json(obj) -> str:
    """Compact JSON with sorted keys: the text ``json.dumps`` gives.

    The text is ASCII, so its length is that of its bytes.  CPython 3.11's
    C encoder holds a string for every number it writes within one call,
    so ``_pieces`` gives it a long response one row at a time, wherever
    the rows sit, and the pieces are joined once.  A value nested too deep
    for that descent, or holding a cycle, gets the C encoder's own answer.
    """
    try:
        return "".join(_pieces(obj))
    except RecursionError:
        return _encode(obj)


def canonical_json_bytes(obj) -> bytes:
    """``canonical_json(obj)`` as bytes: compact JSON with sorted keys."""
    return canonical_json(obj).encode()


#: ``row.count(0)``, mapped over rows in C.
_count_zeros = operator.methodcaller("count", 0)


def _rows_length(rows: Sequence[Sequence[int]]) -> int:
    """The summed ``len(canonical_json(row))`` of rows of exact ints, by arithmetic.

    A non-empty row of L entries, z of them zero, is two brackets, L - 1
    commas, one digit per zero and each nonzero entry's ``str``: 1 + L + z
    plus those lengths.  An empty row is 2.  An all-zero row is settled by
    its ``count(0)``; only the other rows are scanned again, for their
    nonzero entries.  Every scan is a builtin's, in C, not a Python step
    per row.
    """
    lengths = list(map(len, rows))
    zeros = list(map(_count_zeros, rows))
    mixed = compress(rows, map(operator.ne, zeros, lengths))
    digits = sum(map(len, map(str, filter(None, _chain.from_iterable(mixed)))))
    return len(rows) + sum(lengths) + sum(zeros) + digits + lengths.count(0)


def _text_length(value) -> int:
    """``len(canonical_json(value))`` for a logged body or one of its values, with no text.

    Every body the runners log is verifier-built or gate-decoded: a dict
    with str keys whose values are strings that need no escape (kinds and
    lowercase hex codes), lists of codes, rows of exact ints, and lists of
    such rows, so its length is arithmetic (a row's as in
    ``_rows_length``).  Keys are walked in the text's order, so an int too
    long for ``str`` raises the ValueError the encoder would raise first.
    """
    if type(value) is str:
        return len(value) + 2
    if not value:
        return 2
    if type(value) is dict:
        size = 1 + len(value)
        for key in sorted(value):
            size += len(key) + 3 + _text_length(value[key])
        return size
    first = type(value[0])
    if first is str:
        return 1 + 3 * len(value) + sum(map(len, value))
    if first is int:
        return 1 + len(value) + value.count(0) + sum(map(len, map(str, filter(None, value))))
    return 1 + len(value) + _rows_length(value)


def outcome_to_wire(outcome: Outcome) -> dict:
    return {"order": outcome.order, "reason": outcome.reason}


def challenge_to_wire(challenge: Challenge) -> dict:
    body = {"kind": "challenge", "masked": [c.hex() for c in challenge.masked]}
    if challenge.elements is not None:
        body["elements"] = [c.hex() for c in challenge.elements]
    return body


class WireError(ValueError):
    """A message body that does not decode to the expected protocol message."""


def _wire_body(body, kind: str, keys: tuple[str, ...]) -> dict:
    if not isinstance(body, dict) or body.get("kind") != kind:
        raise WireError(f"not a {kind} message")
    missing = [key for key in keys if key not in body]
    if missing:
        raise WireError(f"{kind} message lacks {', '.join(missing)}")
    return body


def _wire_list(value, what: str) -> list | tuple:
    # Not a subclass: JSON writes one from its storage, whatever it iterates.
    if type(value) is not list and type(value) is not tuple:
        raise WireError(f"{what} must be a list")
    return value


def _wire_codes(value, what: str) -> tuple[ElementCode, ...]:
    # Each text must be its code's hex(), so one message has one body.
    texts = _wire_list(value, what)
    try:
        if set(map(type, texts)) <= {str}:
            codes = tuple(map(bytes.fromhex, texts))
            if tuple(map(bytes.hex, codes)) == tuple(texts):
                return codes
    except ValueError:
        pass
    raise WireError(f"{what} must hold lowercase hex strings")


#: ``set(map(type, row))`` of a non-empty row of exact ints.
_INT = {int}


def _wire_ints(value, what: str) -> tuple[int, ...]:
    # Bools are refused; an int subclass (an IntEnum member) is read by
    # ``int.__index__`` as the value JSON writes, whatever it overrides.
    row = tuple(_wire_list(value, what))
    if set(map(type, row)) - _INT:
        if any(not isinstance(a, int) or isinstance(a, bool) for a in row):
            raise WireError(f"{what} must hold integers")
        row = tuple(map(int.__index__, row))
    return row


def _wire_rows(value, what: str) -> tuple[tuple[int, ...], ...]:
    rows = tuple(_wire_list(value, what))
    # An encoded message's rows, tuples of exact ints, pass in one C scan.
    if set(map(type, rows)) <= {tuple} and set(map(type, _chain.from_iterable(rows))) <= _INT:
        return rows
    return tuple(_wire_ints(row, what) for row in rows)


def challenge_from_wire(body: dict) -> Challenge:
    """Decode a challenge body; raises WireError on anything else."""
    body = _wire_body(body, "challenge", ("masked",))
    elements = body.get("elements")
    return Challenge(
        masked=_wire_codes(body["masked"], "masked"),
        elements=None if elements is None else _wire_codes(elements, "elements"),
    )


def response_to_wire(response: Response) -> dict:
    return {"kind": "response", "bits": list(response.bits), "exponents": list(response.exponents)}


def response_from_wire(body: dict) -> Response:
    """Decode a response body; raises WireError on anything else."""
    body = _wire_body(body, "response", ("bits", "exponents"))
    return Response(_wire_ints(body["bits"], "bits"), _wire_rows(body["exponents"], "exponents"))


def commitment_to_wire(commitment: Commitment) -> dict:
    return {
        "kind": "commitment",
        "elements": [c.hex() for c in commitment.elements],
        "primes": list(commitment.primes),
        "rows": list(commitment.rows),
    }


def commitment_from_wire(body: dict) -> Commitment:
    """Decode a commitment body; raises WireError on anything else."""
    body = _wire_body(body, "commitment", ("elements", "primes", "rows"))
    return Commitment(_wire_codes(body["elements"], "elements"),
                      _wire_ints(body["primes"], "primes"), _wire_rows(body["rows"], "rows"))


# ---------------------------------------------------------------------------
# Verifier internals
# ---------------------------------------------------------------------------

@dataclass
class VerifierState:
    """Private verifier state retained between challenge and response."""

    G: GroupOracle
    elements: tuple[ElementCode, ...]
    primes: tuple[int, ...]  # r_j, attached to position j: the exponent bound there
    secret_bits: tuple[int, ...]


def _issue_challenge(
    G: GroupOracle,
    chain: SubgroupChain,
    elements: Sequence[ElementCode],
    primes: Sequence[int],
    rng: Random,
) -> tuple[VerifierState, tuple[ElementCode, ...]]:
    """Draw per-round secret bits and masks; return the state and the masked elements.

    Round i's mask x is a uniform element of level i-1 from the tower's
    normal-form table, built once per tower and amortized, so a draw makes
    no oracle query: the simulator's stand-in for the paper's sampler.  The
    masked element h_i^s·x costs one product only when s = 1 and neither
    h_i nor x is the identity; otherwise it is x (s = 0 or h_i the
    identity) or h_i (x the identity).  Both are codes the oracle accepts
    (a table element; the tower's own h_i, or a committed one the
    commitment check raised to its prime), and a code it accepts is the
    one it gives that element, so each shortcut sends the code the product
    would return.  Every round makes the same two draws, shortcut or not.
    """
    bits, masked = [], []
    identity = G.identity
    for i, h in enumerate(elements):
        s = rng.getrandbits(1)
        x = chain.level_element(i, rng.randrange(chain.level_order(i)))
        bits.append(s)
        masked.append(x if not s or h == identity else h if x == identity
                      else G.product(h, x))
    return VerifierState(G, tuple(elements), tuple(primes), tuple(bits)), tuple(masked)


def verifier_setup_2msg(
    G: GroupOracle,
    primes: Sequence[int],
    seed_or_rng,
) -> tuple[VerifierState, Challenge]:
    """Build the refined tower and issue the 2-message challenge.

    Raises NotSolvableError, RefinementError or ClosureOverflowError when
    the tower cannot be built; runners convert that into an abort before
    anything is sent.
    """
    refined = refine_with_primes(G, compute_pcgs(G), primes)
    chain = get_chain(G, refined.elements)
    state, masked = _issue_challenge(
        G, chain, refined.elements, refined.primes or (), as_rng(seed_or_rng))
    return state, Challenge(masked=masked, elements=refined.elements)


def _word_evaluator(
    G: GroupOracle, elements: Sequence[ElementCode]
) -> Callable[[Sequence[int]], ElementCode]:
    """The word of an exponent row over a prefix of ``elements``, with a memo.

    A row's word is the product, left to right, of elements[j]^row[j] over
    its terms: the positions j whose entry is nonzero, picked out in C, and
    whose element is not the identity.  An identity base contributes
    nothing, at no query; so does a power that comes out the identity, and
    a product with the identity so far is its other operand.  Each distinct
    (position, exponent) power and each distinct word, keyed by its terms,
    is computed once.  One evaluator serves one verifier call, so its memo
    lives for that call and holds at most one power per nonzero entry and
    one word per row of the message.
    """
    identity = G.identity
    powers: dict[tuple[int, int], ElementCode] = {}
    words: dict[tuple, ElementCode] = {}

    def word(row: Sequence[int]) -> ElementCode:
        nonzero = list(compress(range(len(row)), row))
        if not nonzero:
            return identity
        terms = tuple([(j, row[j]) for j in nonzero if elements[j] != identity])
        value = words.get(terms)
        if value is None:
            value = identity
            for term in terms:
                p = powers.get(term)
                if p is None:
                    p = powers[term] = G.power(elements[term[0]], term[1])
                if p != identity:
                    value = p if value == identity else G.product(value, p)
            words[terms] = value
        return value

    return word


def _row_fault(row: Sequence[int], length: int, primes: Sequence[int]) -> str | None:
    """What is wrong with a decoded exponent row, or None: the one row check.

    The row has the expected ``length`` and holds 0 <= row[j] < primes[j],
    the prime attached to position j.  Every r_j is a prime, so a zero entry
    is always in range: only the nonzero entries, picked out by
    ``compress`` in C, are compared with their bounds.
    """
    if len(row) != length:
        return "wrong length"
    entries = list(compress(row, row))
    if entries and (min(entries) < 0 or not all(map(operator.lt, entries, compress(primes, row)))):
        return "entry outside [0, r_j)"
    return None


#: The check's reason when a row's word misses its relation target.
_UNMET = {
    "generator": "a group generator does not decompose over the committed tower",
    "power": "prime power of element {i} does not match its decomposition",
    "conjugate": "conjugate of element {l} by element {i} fails its decomposition",
}


def verifier_check_commitment(
    G: GroupOracle,
    generators: Sequence[ElementCode],
    commitment: Commitment,
) -> str | None:
    """Check a decoded commitment's values; return an abort reason or None.

    Shape validation first, before any query: the tower length guardrail,
    lengths, primes bounded by 2^n before primality, the row count
    s + (t-1) + t(t-1)/2, then each row's length from ``relation_schedule``
    and every entry at position j in [0, r_j) by ``_row_fault``.  Then each
    row's word must equal its relation target, in schedule order, and last
    h_1^{r_1} the identity, the one relation with no row.  Words come from
    one ``_word_evaluator``, and a target or an h_1^{r_1} with an identity
    operand costs no query.  Passing certifies the committed sequence is a
    polycyclic tower for the whole group with quotient orders in {1, r_i}.
    A decoded commitment of any shape returns a reason; it never raises.
    """
    c = commitment
    t = len(commitment.elements)
    n = G.encoding_length
    max_length = COMMITMENT_LENGTH_FACTOR * n * max(1, len(generators)) * max(
        1, math.ceil(math.log2(DEFAULT_CLOSURE_CAP)))
    if t > max_length:
        return f"committed sequence length {t} exceeds guardrail {max_length}"
    if len(commitment.primes) != t:
        return "primes list length does not match the committed sequence"
    # Quotient orders divide |G| <= 2^n, and the primality test is exact
    # only below about 2^81, so a larger "prime" is rejected before it.
    for r in commitment.primes:
        if r > 1 << n:
            return f"committed value {r!r} is not a prime up to 2^n"
        if r >= MILLER_RABIN_EXACT_BELOW:
            return f"committed value {r!r} is at or above the primality bound"
        if not is_prime(r):
            return f"committed value {r!r} is not a prime"

    s = len(generators)
    if len(c.rows) != s + max(0, t - 1) + t * (t - 1) // 2:
        return "commitment has the wrong number of relation rows"
    for (family, _, _, prefix), row in zip(relation_schedule(s, t), c.rows):
        fault = _row_fault(row, prefix, c.primes)
        if fault is not None:
            return f"malformed {family} decomposition row: {fault}"

    # ``_row_fault`` checked each row's length, so a word stops at its prefix.
    h = commitment.elements
    word = _word_evaluator(G, h)
    try:
        for ((family, i, l, _), target), row in zip(
                relation_targets(G, generators, h, c.primes), c.rows):
            if word(row) != target:
                return _UNMET[family].format(i=i, l=l)
        if t >= 1 and h[0] != G.identity and G.power(h[0], c.primes[0]) != G.identity:
            return "first element's prime power is not the identity"
    except InvalidCodeError as exc:
        return f"committed element code is invalid: {exc}"
    return None


def verifier_finalize(state: VerifierState, response: Response) -> Outcome:
    """Apply the per-round trichotomy to a decoded response.

    Per round: a matching decomposition of the round element fixes the
    factor 1; otherwise a bit agreeing with the verifier's secret fixes the
    factor r_i; otherwise the protocol aborts.  A wrong shape, a bit other
    than 0 or 1, or an exponent at position j outside [0, r_j) aborts as
    well, in both protocols alike: ``_row_fault`` checks each row against
    the primes the verifier holds, so no exponent is reduced.  Words come
    from one ``_word_evaluator``, so a row repeating an earlier row's word
    costs no query.
    """
    G, elements = state.G, state.elements
    bits, exponents = response.bits, response.exponents
    if not len(bits) == len(exponents) == len(elements):
        return Outcome.abort("response shape does not match the round count")
    word = _word_evaluator(G, elements)
    factors = []
    for i, (bit, row) in enumerate(zip(bits, exponents), start=1):
        if bit not in (0, 1):
            return Outcome.abort(f"round {i}: bit is not 0 or 1")
        fault = _row_fault(row, i - 1, state.primes)
        if fault is not None:
            return Outcome.abort(f"round {i}: malformed exponent row: {fault}")
        if word(row) == elements[i - 1]:
            factors.append(1)
        elif bit == state.secret_bits[i - 1]:
            factors.append(state.primes[i - 1])
        else:
            return Outcome.abort(f"round {i}: no decomposition and the bit is wrong")
    return Outcome.of(math.prod(factors))


# ---------------------------------------------------------------------------
# Execution runners
# ---------------------------------------------------------------------------

_UNENCODABLE = (AttributeError, TypeError, ValueError, RecursionError)


def _log(transcript: Transcript, direction: str, kind: str, body: dict) -> None:
    """Log a body with its canonical length, sized by ``_text_length``, not encoded."""
    transcript.messages.append(TranscriptMessage(direction, kind, body, _text_length(body)))


def _receive(transcript: Transcript, kind: str, message, to_wire, from_wire):
    """The one gate for a prover message: build its body, decode that, log it.

    Returns the decoded message, or an abort with nothing logged: a body
    the decoder refuses, or one holding an int too long for ``str``, which
    sizing it raises as encoding it would.  The log holds the decoded
    message's body, of tuples and ints, so a prover that kept its own rows
    cannot change the log after the verifier has judged.
    """
    try:
        decoded = from_wire(to_wire(message))
        _log(transcript, "P->V", kind, to_wire(decoded))
    except _UNENCODABLE as exc:
        return Outcome.abort(f"{kind} cannot be encoded: {exc}")
    return decoded


def _finish(
    transcript: Transcript, meter: QueryMeter, outcome: Outcome
) -> tuple[Outcome, Transcript]:
    """Record the outcome and the metered queries; the runners return this."""
    transcript.outcome = outcome
    transcript.queries = meter.snapshot()
    return outcome, transcript


def _rounds(
    transcript: Transcript, meter: QueryMeter, state: VerifierState, challenge: Challenge,
    prover: HonestProver,
) -> tuple[Outcome, Transcript]:
    """Log the challenge, receive the response through the gate, finalize."""
    _log(transcript, "V->P", "challenge", challenge_to_wire(challenge))
    response = _receive(transcript, "response", prover.respond(state.elements, challenge.masked),
                        response_to_wire, response_from_wire)
    if isinstance(response, Outcome):
        return _finish(transcript, meter, response)
    with meter.measuring():
        outcome = verifier_finalize(state, response)
    return _finish(transcript, meter, outcome)


def run_protocol_2msg(
    G: GroupOracle,
    primes: Sequence[int],
    prover_factory: ProverFactory,
    seed: int,
) -> tuple[Outcome, Transcript]:
    """One seeded execution of the 2-message protocol."""
    transcript = Transcript(protocol="2msg", seed=seed)
    rng_verifier = Random(derive_seed(seed, "verifier"))
    rng_prover = Random(derive_seed(seed, "prover"))
    meter = QueryMeter(G)

    try:
        with meter.measuring():
            state, challenge = verifier_setup_2msg(G, primes, rng_verifier)
    except (NotSolvableError, RefinementError, ClosureOverflowError) as exc:
        reason = f"verifier tower construction failed: {exc}"
        return _finish(transcript, meter, Outcome.abort(reason))
    return _rounds(transcript, meter, state, challenge, prover_factory(G, rng_prover))


def run_protocol_3msg(
    G: GroupOracle,
    prover_factory: ProverFactory,
    seed: int,
) -> tuple[Outcome, Transcript]:
    """One seeded execution of the 3-message protocol.

    A commitment that does not pass the gate (a field or a code of the
    wrong type) aborts before anything is logged or checked.
    """
    transcript = Transcript(protocol="3msg", seed=seed)
    rng_verifier = Random(derive_seed(seed, "verifier"))
    rng_prover = Random(derive_seed(seed, "prover"))
    meter = QueryMeter(G)

    prover = prover_factory(G, rng_prover)
    try:
        commitment = prover.commit()
    except NotSolvableError as exc:
        return _finish(transcript, meter, Outcome.abort(f"prover gave up: {exc}"))
    commitment = _receive(transcript, "commitment", commitment,
                          commitment_to_wire, commitment_from_wire)
    if isinstance(commitment, Outcome):
        return _finish(transcript, meter, commitment)

    with meter.measuring():
        reason = verifier_check_commitment(G, G.generators, commitment)
    if reason is not None:
        return _finish(transcript, meter, Outcome.abort(f"commitment check failed: {reason}"))

    try:
        chain = get_chain(G, commitment.elements)
    except (ClosureOverflowError, ChainError) as exc:
        return _finish(transcript, meter, Outcome.abort(f"committed tower is intractable: {exc}"))

    with meter.measuring():
        state, masked = _issue_challenge(
            G, chain, commitment.elements, commitment.primes, rng_verifier)
    return _rounds(transcript, meter, state, Challenge(masked=masked), prover)


def unanimous_outcome(outcomes: Sequence[Outcome]) -> Outcome:
    """Combine repeated executions: all must agree on an order, else abort."""
    if any(o.aborted for o in outcomes):
        return Outcome.abort("a repetition aborted")
    orders = {o.order for o in outcomes}
    if len(orders) != 1:
        return Outcome.abort("repetitions disagree on the order")
    return Outcome.of(orders.pop())


def run_repeated(
    G: GroupOracle,
    protocol: str,
    prover_factory: ProverFactory,
    repetitions: int,
    seed: int,
    primes: Sequence[int] | None = None,
) -> tuple[Outcome, list[Transcript]]:
    """Run k independent seeded executions and combine them with ``unanimous_outcome``."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    outcomes, transcripts = [], []
    for copy in range(repetitions):
        copy_seed = derive_seed(seed, f"copy-{copy}")
        if protocol == "2msg":
            if primes is None:
                raise ValueError("the 2-message protocol needs the prime factors")
            outcome, transcript = run_protocol_2msg(G, primes, prover_factory, copy_seed)
        elif protocol == "3msg":
            outcome, transcript = run_protocol_3msg(G, prover_factory, copy_seed)
        else:
            raise ValueError(f"unknown protocol {protocol!r}")
        outcomes.append(outcome)
        transcripts.append(transcript)
    return unanimous_outcome(outcomes), transcripts


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def challenge_code_distribution(
    G: GroupOracle, chain: SubgroupChain, round_index: int, secret_bit: int
) -> Counter:
    """Exact distribution of the masked element for one round and bit value.

    Counts, over every mask choice in the prefix subgroup, which code the
    masked element takes; with an exact sampler the mask is uniform, so
    equal counters for both bit values mean the challenge reveals nothing.
    """
    h = chain.elements[round_index - 1]
    shifted = G.power(h, secret_bit)
    return Counter(
        G.product(shifted, x) for x in chain.level_elements(round_index - 1)
    )
