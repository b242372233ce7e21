"""Honest and adversarial provers for the order-verification protocols.

The honest prover simulates a computationally stronger party with exact
classical stand-ins: group order by closure enumeration, prime factors by
trial division, and decomposition/membership answers from normal-form
tables.  The adversaries implement the cheating strategies the soundness
experiments measure: inflating a trivial quotient by guessing the hidden
bit, trying to deflate a nontrivial quotient, tampering with a committed
sequence, answering with random bits, and committing to a deliberately
wrong subgroup tower.

All strategies are deterministic given their random stream, so experiment
campaigns are reproducible seed by seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Collection, Iterator, Sequence

from .groups import ElementCode, GroupOracle, memoized
from .polycyclic import (
    SubgroupChain,
    compact_tower,
    compute_pcgs,
    get_chain,
    group_order,
    prime_factors,
    refine_with_primes,
)


class ProverError(RuntimeError):
    """The prover cannot produce the requested message."""


@dataclass(frozen=True)
class Commitment:
    """First message of the 3-message protocol: a tower and one row per relation.

    ``rows[k]`` decomposes the k-th target of ``relation_schedule(s, t)``
    (s group generators, t elements) over its prefix: each generator over
    the whole tower, then each h_i^{r_i} (i >= 2), then each conjugate
    h_i·h_l·h_i^-1 (l < i), the last two over h_1..h_{i-1}.
    """

    elements: tuple[ElementCode, ...]
    primes: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Response:
    """Final prover message: one bit and one exponent row per round."""

    bits: tuple[int, ...]
    exponents: tuple[tuple[int, ...], ...]


def relation_schedule(s: int, t: int) -> Iterator[tuple[str, int, int, int]]:
    """The relation of each commitment row, in check order, at no query.

    A relation is (family, i, l, prefix): the family "generator", "power"
    or "conjugate"; the generator's or element's 1-based index i; the
    conjugated element's index l (0 outside the conjugate family); and the
    row's length.  Lazy, so a hostile t builds no list of t^2 relations.
    """
    for k in range(1, s + 1):
        yield "generator", k, 0, t
    for i in range(2, t + 1):
        yield "power", i, 0, i - 1
    for i in range(2, t + 1):
        for l in range(1, i):
            yield "conjugate", i, l, i - 1


def relation_targets(
    G: GroupOracle,
    generators: Sequence[ElementCode],
    elements: Sequence[ElementCode],
    primes: Sequence[int],
) -> Iterator[tuple[tuple[str, int, int, int], ElementCode]]:
    """Each relation of the schedule with its target, computed when reached.

    A target with an identity operand is decided by code equality, at no
    query: h_i^{r_i} is h_i when h_i is the identity, and h_i·h_l·h_i^-1 is
    h_l when h_i or h_l is.  Otherwise a generator costs nothing, a power
    h_i^{r_i} about log2 r_i products, and the conjugates by h_i one inverse
    of h_i, made at the first that needs it, plus two products each.
    """
    identity = G.identity
    for relation in relation_schedule(len(generators), len(elements)):
        family, i, l, _ = relation
        if family == "generator":
            yield relation, generators[i - 1]
        elif family == "power":
            h = elements[i - 1]
            yield relation, h if h == identity else G.power(h, primes[i - 1])
        else:
            h, k = elements[i - 1], elements[l - 1]
            if l == 1:
                h_inv = None
            if h == identity or k == identity:
                yield relation, k
                continue
            if h_inv is None:
                h_inv = G.inverse(h)
            yield relation, G.product(G.product(h, k), h_inv)


#: ``build_commitment``'s error when a relation target leaves its prefix.
_ESCAPES = {
    "generator": "committed sequence does not generate the group",
    "power": "power of element {i} does not fall into its prefix",
    "conjugate": "conjugate of element {l} by element {i} escapes the prefix",
}


def build_commitment(
    G: GroupOracle,
    elements: Sequence[ElementCode],
    primes: Sequence[int],
) -> Commitment:
    """Decompose each relation target of a polycyclic tower over its prefix."""
    elements = tuple(elements)
    primes = tuple(primes)
    if len(elements) != len(primes):
        raise ProverError("need one prime per committed element")
    chain = get_chain(G, elements)
    rows = []
    for (family, i, l, prefix), target in relation_targets(G, G.generators, elements, primes):
        row = chain.decompose(prefix, target)
        if row is None:
            raise ProverError(_ESCAPES[family].format(i=i, l=l))
        rows.append(row)
    return Commitment(elements, primes, tuple(rows))


def honest_commitment(G: GroupOracle) -> Commitment:
    """The commitment an honest prover sends (memoized: it is deterministic).

    Computes the group order, factors it, refines a polycyclic sequence so
    every quotient order is 1 or a known prime, compacts the refined tower
    (no identity and no repeated element), and decomposes everything the
    commitment must certify.  Raises NotSolvableError for groups with no
    polycyclic sequence (the honest prover gives up).
    """

    def build() -> Commitment:
        factors = prime_factors(group_order(G))
        refined = refine_with_primes(G, compute_pcgs(G), factors)
        tower = compact_tower(G, refined)
        return build_commitment(G, tower.elements, tower.primes or ())

    return memoized(G, ("honest_commitment",), build)


# ---------------------------------------------------------------------------
# Prover strategies
# ---------------------------------------------------------------------------

class HonestProver:
    """Responds exactly as the completeness analysis prescribes.

    Per round: test whether the masked challenge element lies in the prefix
    subgroup; answer bit 0 and the decomposition of the round element when
    it does (all-zero exponents when no decomposition exists), else bit 1
    with all-zero exponents.

    ``respond`` is the one response loop of every strategy: a subclass
    cheats on the rounds ``_targets`` names, with the bit and row
    ``_cheat_row`` returns, and answers every other round honestly.
    """

    name = "honest"

    def __init__(self, G: GroupOracle, rng: Random):
        self.G = G
        self.rng = rng

    def commit(self) -> Commitment:
        return honest_commitment(self.G)

    def _targets(
        self, chain: SubgroupChain, elements: Sequence[ElementCode]
    ) -> Collection[int]:
        """1-based rounds on which this strategy cheats."""
        return ()

    def _cheat_row(
        self, chain: SubgroupChain, elements: Sequence[ElementCode], i: int
    ) -> tuple[int, tuple[int, ...]]:
        """The bit and exponent row sent on targeted round i."""
        raise NotImplementedError

    def _honest_row(
        self, chain: SubgroupChain, elements: Sequence[ElementCode], i: int,
        masked: ElementCode,
    ) -> tuple[int, tuple[int, ...]]:
        member = chain.is_member(i - 1, masked)
        if member:
            row = chain.decompose(i - 1, elements[i - 1])
            return 0, row if row is not None else (0,) * (i - 1)
        return 1, (0,) * (i - 1)

    def respond(
        self, elements: Sequence[ElementCode], masked: Sequence[ElementCode]
    ) -> Response:
        chain = get_chain(self.G, elements)
        targets = self._targets(chain, elements)
        bits, rows = [], []
        for i in range(1, len(elements) + 1):
            if i in targets:
                bit, row = self._cheat_row(chain, elements, i)
            else:
                bit, row = self._honest_row(chain, elements, i, masked[i - 1])
            bits.append(bit)
            rows.append(row)
        return Response(tuple(bits), tuple(rows))


def inflatable_rounds(chain: SubgroupChain) -> list[int]:
    """1-based trivial-quotient rounds where a wrong non-matching word exists."""
    return [
        i
        for i in range(1, len(chain) + 1)
        if chain.quotient_orders[i - 1] == 1 and chain.level_order(i - 1) >= 2
    ]


def _pick_other_element(
    chain: SubgroupChain, level: int, avoid: ElementCode, rng: Random
) -> ElementCode:
    """An element of the level other than ``avoid``, a member, picked by ``rng``.

    Draws an index of the level other than ``avoid``'s and looks it up in
    the chain, so the level is never copied.
    """
    avoid_index = chain.level_index(level, avoid)
    index = rng.randrange(chain.level_order(level) - 1)
    if index >= avoid_index:
        index += 1
    return chain.level_element(level, index)


class GuessInflateProver(HonestProver):
    """Claims a nontrivial quotient on a trivial round by guessing the bit.

    On the first inflatable round it sends exponents decomposing a
    different element of the prefix subgroup (so the equality test cannot
    pass) and a uniformly random bit; everywhere else it plays honestly.
    With an exact challenge sampler the guess succeeds with probability
    exactly 1/2.
    """

    name = "guess_inflate"

    def _targets(self, chain, elements):
        return inflatable_rounds(chain)[:1]

    def _cheat_row(self, chain, elements, i):
        wrong = _pick_other_element(chain, i - 1, elements[i - 1], self.rng)
        row = chain.decompose(i - 1, wrong)
        return self.rng.getrandbits(1), row


class DeflateProver(HonestProver):
    """Claims trivial quotients on nontrivial rounds with random exponents.

    No exponent row can make the equality test pass on a nontrivial round
    (the round element lies outside the prefix subgroup), so this strategy
    can only yield the true order or an abort, never a deflated order.
    """

    name = "deflate"

    def _targets(self, chain, elements):
        return {i for i in range(1, len(chain) + 1) if chain.quotient_orders[i - 1] > 1}

    def _cheat_row(self, chain, elements, i):
        row = tuple(self.rng.randrange(chain.quotient_orders[j]) for j in range(i - 1))
        return self.rng.getrandbits(1), row


class RandomBitsProver(HonestProver):
    """Honest exponent rows with uniformly random bits (a chaos control)."""

    name = "random_bits"

    def respond(self, elements, masked):
        honest = super().respond(elements, masked)
        bits = tuple(self.rng.getrandbits(1) for _ in honest.bits)
        return Response(bits, honest.exponents)


class GarbageCommitmentProver(HonestProver):
    """Honest play except one committed exponent entry is bumped by one.

    The entry is drawn uniformly over the honest rows' entries in row order.
    A bump onto the attached prime r_j fails the range check [0, r_j) with
    no oracle query.  Any other bump changes the evaluated word, since the
    honest (compacted) tower holds no identity, so an equality check fails.
    Either way the commitment is refused before any challenge is issued.
    Degenerates to honest play when the commitment has no exponent entries
    (the trivial group).
    """

    name = "garbage_commitment"

    def commit(self) -> Commitment:
        c = honest_commitment(self.G)
        entries = [(r, j) for r, row in enumerate(c.rows) for j in range(len(row))]
        if not entries:
            return c
        r, j = entries[self.rng.randrange(len(entries))]
        row = c.rows[r]
        bumped = row[:j] + (row[j] + 1,) + row[j + 1:]
        return Commitment(c.elements, c.primes, c.rows[:r] + (bumped,) + c.rows[r + 1:])


class OrderForgerProver(GuessInflateProver):
    """Commits to a tower misrepresenting the subgroup structure.

    In the 3-message protocol it appends one extra element of the full
    group to an otherwise honest commitment, claiming a further prime-order
    quotient.  Every commitment check still passes (the extra quotient is
    genuinely trivial, and triviality is exactly what the challenge rounds
    are there to detect), so forging the inflated order comes down to
    winning the guessing game on the appended round.  In the 2-message
    protocol, where the verifier owns the tower, it falls back to inflating
    every inflatable trivial round, which keeps its claimed wrong order
    consistent across repeated runs.  Each inflated round is answered as
    ``GuessInflateProver`` answers its one.  The forged tower is the honest
    tower's steps in order plus one element of their top level, so
    ``get_chain`` makes its chain a view that reads the honest chain's
    table index for index: each forged tower costs O(t) memory and no
    query for its table.
    """

    name = "order_forger"

    def __init__(self, G, rng):
        super().__init__(G, rng)
        self._forged_elements: tuple[ElementCode, ...] | None = None

    def commit(self) -> Commitment:
        honest = honest_commitment(self.G)
        order = group_order(self.G)
        if order < 2:
            return honest
        chain = get_chain(self.G, honest.elements)
        extra = chain.level_element(len(chain), self.rng.randrange(order))
        claimed_prime = prime_factors(order)[0]
        elements = honest.elements + (extra,)
        primes = honest.primes + (claimed_prime,)
        self._forged_elements = elements
        # extra lies in G, so its quotient order is 1 and the forged tower
        # shares the honest table.
        get_chain(self.G, elements, chain)
        return build_commitment(self.G, elements, primes)

    def _targets(self, chain, elements):
        # The appended round's prefix is the whole group, of order >= 2, so
        # it always holds a wrong element to decompose.
        if self._forged_elements == tuple(elements):
            return {len(elements)}
        return set(inflatable_rounds(chain))


PROVERS = {
    cls.name: cls
    for cls in (
        HonestProver,
        GuessInflateProver,
        DeflateProver,
        RandomBitsProver,
        GarbageCommitmentProver,
        OrderForgerProver,
    )
}


def list_adversaries() -> list[str]:
    """Names of the adversarial strategies (everything but honest)."""
    return [name for name in PROVERS if name != "honest"]


def make_prover(name: str, G: GroupOracle, rng: Random) -> HonestProver:
    """Instantiate a prover strategy by registry name."""
    try:
        cls = PROVERS[name]
    except KeyError:
        known = ", ".join(sorted(PROVERS))
        raise ValueError(f"unknown prover {name!r}; known: {known}") from None
    return cls(G, rng)
