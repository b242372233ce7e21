"""Polycyclic generating sequences, prime refinement, and normal forms.

A polycyclic generating sequence for a finite solvable group is a list of
elements whose prefix subgroups form a normal tower with cyclic quotients.
This module computes such sequences from the derived series, enumerated by
coset steps (Dimino's closure, with one enumeration of the whole group per
oracle), refines them with a descending prime-power exponent schedule so
that every quotient order is 1 or a known prime, and builds one normal-form
table per tower: the codes in insertion order, every prefix subgroup a
prefix of them, and a dict from each code to its index, whose mixed-radix
digits are the element's exponent tuple (one int per element, however long
the tower).  The table doubles as the classical stand-in for the
decomposition and membership queries that a computationally stronger party
would answer.  ``compact_tower`` drops the identity and repeated positions
of a refined tower by code equality alone; the honest 3-message prover
commits to that tower.  Every result is memoized on the oracle (see
``groups.memoized``), so it is freed with the oracle.  Every enumeration is
bounded by the one closure bound ``groups.DEFAULT_CLOSURE_CAP``, so a memo
key names only what the result depends on: the tower or the primes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .groups import (
    DEFAULT_CLOSURE_CAP,
    ClosureOverflowError,
    ElementCode,
    GroupOracle,
    enumerate_closure,
    extend_closure,
    memoized,
)


class NotSolvableError(RuntimeError):
    """The group has no polycyclic generating sequence."""


class ChainError(RuntimeError):
    """A claimed polycyclic sequence fails normal-form uniqueness."""


class RefinementError(ValueError):
    """Prime refinement produced quotient orders outside {1, r_i}."""


@dataclass
class PolycyclicSequence:
    """Elements of a polycyclic generating sequence with optional annotations.

    ``primes[i]`` is the prime such that the i-th quotient order lies in
    {1, primes[i]}; ``quotient_orders[i]`` is that order when known.
    """

    elements: tuple[ElementCode, ...]
    primes: tuple[int, ...] | None = None
    quotient_orders: tuple[int, ...] | None = None

    def __len__(self) -> int:
        return len(self.elements)


# ---------------------------------------------------------------------------
# Small number-theory helpers
# ---------------------------------------------------------------------------

#: Miller-Rabin with the first thirteen primes as bases is exact below this
#: bound (the smallest strong pseudoprime to all of them).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality test in bounded time below 2^81.

    Deterministic Miller-Rabin below ``MILLER_RABIN_EXACT_BELOW``, so a
    committed prime of up to 81 bits costs thirteen modular exponentiations;
    trial division remains only at or above that bound.
    """
    if n < 2:
        return False
    for p in MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    if n >= MILLER_RABIN_EXACT_BELOW:
        d = MILLER_RABIN_BASES[-1] + 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n in ascending order (trial division)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return tuple(factors)


# ---------------------------------------------------------------------------
# The normal-form table of a subgroup tower
# ---------------------------------------------------------------------------

class SubgroupChain:
    """One normal-form table for every prefix subgroup of a polycyclic sequence.

    A list keeps the codes in insertion order and a dict maps each code to
    its index.  Level j, generated by the first j sequence elements, is the
    first ``level_order(j)`` codes.  Element i is appended by the coset
    step: u·h_i^a, for u in level i-1 and a below the quotient order m_i,
    lands at index a·|level_{i-1}| + index(u).  So an index is the
    mixed-radix number whose digits are the normal-form exponents, 0 at
    each position of quotient order 1, and ``decompose`` recomputes them.
    The cosets form the subgroup only when each level is normal in the
    next; a collision raises ChainError, but untrusted sequences need a
    separate normality check (the 3-message commitment check).  A quotient
    order search or a level past ``DEFAULT_CLOSURE_CAP`` raises
    ClosureOverflowError.
    """

    def __init__(self, G: GroupOracle, elements: Sequence[ElementCode]):
        self.G = G
        self.elements: tuple[ElementCode, ...] = ()
        self.quotient_orders: tuple[int, ...] = ()
        self._index: dict[ElementCode, int] = {G.identity: 0}
        self._codes = [G.identity]
        self._sizes = [1]
        # The radices of an index: (position, m) where m > 1, lowest first.
        self._radices: list[tuple[int, int]] = []
        for h in elements:
            self._append(h)

    def _append(self, h: ElementCode) -> None:
        """Grow the tower by h: the next level is the union of level·h^a."""
        G = self.G
        index, codes = self._index, self._codes
        size = len(codes)
        # powers[a - 1] = h^a for every a below the quotient order m.
        powers, cur = [], h
        while cur not in index:
            powers.append(cur)
            cur = G.product(cur, h)
            if len(powers) >= DEFAULT_CLOSURE_CAP:
                raise ClosureOverflowError(
                    f"quotient order search exceeded cap of {DEFAULT_CLOSURE_CAP}"
                )
        m = len(powers) + 1
        if size * m > DEFAULT_CLOSURE_CAP:
            raise ClosureOverflowError(
                f"subgroup level exceeded cap of {DEFAULT_CLOSURE_CAP} elements"
            )
        if m > 1:
            # codes[0] is the identity, whose coset element is h^a itself.
            members = codes[1:size]
            for power in powers:
                codes.append(power)
                codes.extend([G.product(u, power) for u in members])
            index.update(zip(codes[size:], range(size, len(codes))))
            if len(index) != len(codes):
                raise ChainError("normal-form collision: sequence is not polycyclic")
            self._radices.append((len(self.elements), m))
        self.elements += (h,)
        self.quotient_orders += (m,)
        self._sizes.append(len(codes))

    def __len__(self) -> int:
        return len(self.elements)

    def _check_level(self, j: int) -> None:
        if not 0 <= j <= len(self.elements):
            raise ValueError(f"level {j} out of range 0..{len(self.elements)}")

    def level_order(self, j: int) -> int:
        """Size of the j-th prefix subgroup (level 0 is the trivial group)."""
        return self._sizes[j]

    def level_element(self, j: int, k: int) -> ElementCode:
        """The k-th element of the j-th prefix subgroup, 0 <= k < level_order(j)."""
        if not 0 <= k < self._sizes[j]:
            raise IndexError(f"index {k} out of range for level {j}")
        return self._codes[k]

    def level_elements(self, j: int) -> list[ElementCode]:
        """A copy of the j-th prefix subgroup's elements, in insertion order."""
        return self._codes[: self._sizes[j]]

    def group_order(self) -> int:
        return len(self._codes)

    def is_member(self, j: int, h: ElementCode) -> bool:
        """Whether h lies in the j-th prefix subgroup."""
        self._check_level(j)
        return self._index.get(h, math.inf) < self._sizes[j]

    def decompose(self, j: int, h: ElementCode) -> tuple[int, ...] | None:
        """Normal-form exponents (a_1..a_j) of h over level j, or None if not a member."""
        self._check_level(j)
        k = self._index.get(h, math.inf)
        if k >= self._sizes[j]:
            return None
        if not k:
            return (0,) * j
        # A member of level j has no digit past position j: k reaches 0 first.
        row = [0] * j
        for position, m in self._radices:
            if not k:
                break
            k, row[position] = divmod(k, m)
        return tuple(row)


def get_chain(G: GroupOracle, elements: Sequence[ElementCode]) -> SubgroupChain:
    """Memoized SubgroupChain lookup (chains are never changed once built)."""
    elements = tuple(elements)
    return memoized(G, ("chain", elements), lambda: SubgroupChain(G, elements))


def _group_elements(G: GroupOracle) -> list[ElementCode]:
    """Every element of G, enumerated once per oracle (memoized)."""
    return memoized(G, ("closure",), lambda: enumerate_closure(G, G.generators))


def group_order(G: GroupOracle) -> int:
    """Order of the full group, from the one memoized enumeration of G.

    ``compute_pcgs`` reads the same enumeration, so whichever of the two
    runs first pays for it and the other makes no query.
    """
    return len(_group_elements(G))


# ---------------------------------------------------------------------------
# Computing a polycyclic generating sequence by brute force
# ---------------------------------------------------------------------------

def _conjugation_closure(
    G: GroupOracle,
    seed_gens: list[ElementCode],
    conjugators: list[ElementCode],
) -> tuple[list[ElementCode], list[ElementCode]]:
    """Smallest subgroup containing ``seed_gens`` closed under conjugation.

    Returns (generators, elements).  Used to take normal closures inside the
    subgroup generated by ``conjugators``.  The closure grows by
    ``extend_closure``, one new generator at a time, and only the generators
    it keeps are conjugated: a subgroup is normal in the group the
    conjugators generate once the conjugate of each of its generators by
    each conjugator lies in it, because conjugation by an element of a
    finite group maps the subgroup onto itself when it maps it into itself.
    """
    elements, members, gens = [G.identity], {G.identity}, []
    for g in seed_gens:
        extend_closure(G, elements, members, gens, g)
    conj_inverses = [G.inverse(c) for c in conjugators]
    conjugated = 0
    while conjugated < len(gens):
        x = gens[conjugated]
        conjugated += 1
        for c, c_inv in zip(conjugators, conj_inverses):
            y = G.product(G.product(c, x), c_inv)
            extend_closure(G, elements, members, gens, y)
    return gens, elements


def _derived_series(G: GroupOracle) -> list[list[ElementCode]]:
    """Element lists of the derived series, ending with the trivial group."""
    level_gens = list(G.generators)
    elements = _group_elements(G)
    series = [elements]
    while len(elements) > 1:
        commutators = []
        inverses = {g: G.inverse(g) for g in level_gens}
        for a in level_gens:
            for b in level_gens:
                c = G.product(G.product(a, b), G.product(inverses[a], inverses[b]))
                commutators.append(c)
        next_gens, next_elements = _conjugation_closure(G, commutators, level_gens)
        if len(next_elements) >= len(elements):
            raise NotSolvableError(
                "derived series stabilized above the trivial group"
            )
        series.append(next_elements)
        level_gens, elements = next_gens, next_elements
    return series


def compute_pcgs(G: GroupOracle) -> PolycyclicSequence:
    """Polycyclic generating sequence via the derived series (memoized).

    The top of the series is the one memoized enumeration of G that
    ``group_order`` also reads; each lower term is a normal closure grown
    by coset steps.  Walks the derived series from the bottom up; inside
    each abelian layer any greedy choice of new generators keeps every
    prefix subgroup normal in the next, and each addition at least doubles
    the prefix subgroup, so the sequence length is at most log2 of the
    group order per layer.  Candidates are taken in sorted code order, so
    the sequence depends only on the layers as sets, not on the order an
    enumeration lists them in.  The normality lets the sequence's chain
    grow by the coset step, and that chain is kept for ``get_chain``.
    Raises NotSolvableError when the derived series does not reach the
    trivial group.
    """
    return memoized(G, ("pcgs",), lambda: _build_pcgs(G))


def _build_pcgs(G: GroupOracle) -> PolycyclicSequence:
    series = _derived_series(G)
    chain = SubgroupChain(G, ())
    for layer in reversed(series):
        for candidate in sorted(layer):
            if chain.group_order() == len(layer):
                break
            if not chain.is_member(len(chain), candidate):
                chain._append(candidate)
    memoized(G, ("chain", chain.elements), lambda: chain)
    return PolycyclicSequence(chain.elements, None, chain.quotient_orders)


# ---------------------------------------------------------------------------
# Prime refinement
# ---------------------------------------------------------------------------

def refinement_exponents(primes: Iterable[int], n: int) -> tuple[int, ...]:
    """Strictly decreasing exponent schedule used to refine a sequence.

    For ascending primes p_1 < ... < p_l, the schedule lists, for each i and
    each a in 1..n, the value p_i^(n-a) times the product of p_j^n over all
    j > i.  The last entry is 1 and every ratio of consecutive entries is
    one of the primes, so replacing a generator k by its schedule powers
    k^e splits each cyclic quotient into prime-order steps.
    """
    listed = list(primes)
    ordered = sorted(set(listed))
    if not ordered:
        raise ValueError("prime set must be nonempty")
    if len(ordered) != len(listed):
        raise ValueError("prime set contains repeated entries")
    for p in ordered:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("n must be >= 1")
    schedule = []
    for i, p in enumerate(ordered):
        tail = math.prod(q**n for q in ordered[i + 1:])
        for a in range(1, n + 1):
            schedule.append(p ** (n - a) * tail)
    return tuple(schedule)


def refine_with_primes(
    G: GroupOracle,
    pcgs: PolycyclicSequence,
    primes: Iterable[int],
) -> PolycyclicSequence:
    """Refine a polycyclic sequence so each quotient order is 1 or a prime.

    This is the paper's refinement: each sequence element k is replaced by
    its powers k^e over the full exponent schedule, giving l*n entries per
    original element (n is the encoding length), all of which are returned; the 2-message verifier
    runs on this tower.  Most positions are the identity or repeat an
    earlier element, and ``compact_tower`` drops them for the honest
    3-message commitment.  The prime attached to a refined position is the
    schedule ratio at that position; the first position of every block gets
    the smallest prime, which is the ratio the schedule would have
    continued with.  Each block is computed backwards from k^1 = k, as
    k^{e_j} = (k^{e_{j+1}})^{r_{j+1}} with r_{j+1} the schedule ratio, so a
    position costs a power by one prime (1 product for 2, 2 for 3) rather
    than a power by the whole schedule exponent, and a power of the
    identity costs nothing; the elements, and so the codes, are the same.
    Requires ``primes`` to cover every prime factor of the group order: the
    result is validated, through the memoized normal-form table of the
    whole tower, against the quotient-order invariant and the enumerated
    group order, and a violation raises RefinementError.  Memoized per
    oracle (the computation is deterministic).
    """
    ordered = tuple(sorted(set(primes)))
    if not pcgs.elements:
        return PolycyclicSequence((), (), ())
    if not ordered:
        raise RefinementError("prime set must cover the group order; got an empty set")

    def build() -> PolycyclicSequence:
        schedule = refinement_exponents(ordered, G.encoding_length)
        ratios = [a // b for a, b in zip(schedule, schedule[1:])]
        elements: list[ElementCode] = []
        for k in pcgs.elements:
            # k^{e_j} = (k^{e_{j+1}})^{r_{j+1}}, backwards from k^1 = k; a
            # power of the identity is the identity and costs no query.
            block = [k]
            for r in reversed(ratios):
                x = block[-1]
                block.append(x if x == G.identity else G.power(x, r))
            elements.extend(reversed(block))
        attached = [ordered[0], *ratios] * len(pcgs.elements)

        chain = get_chain(G, elements)
        orders = chain.quotient_orders
        for i, (m, r) in enumerate(zip(orders, attached)):
            if m not in (1, r):
                raise RefinementError(
                    f"quotient order {m} at position {i + 1} is not in {{1, {r}}}; "
                    f"the prime set {list(ordered)} may be missing a factor of the order"
                )
        expected = group_order(G)
        if chain.group_order() != expected:
            raise RefinementError(
                f"refined sequence generates {chain.group_order()} of {expected} elements"
            )
        return PolycyclicSequence(tuple(elements), tuple(attached), orders)

    return memoized(G, ("refine", pcgs.elements, ordered), build)


# ---------------------------------------------------------------------------
# Tower compaction
# ---------------------------------------------------------------------------

def compact_tower(G: GroupOracle, seq: PolycyclicSequence) -> PolycyclicSequence:
    """Drop every position whose element is the identity or repeats an earlier one.

    Uses code equality only, so it makes no oracle query.  A dropped
    element already lies in its prefix subgroup, so its quotient order is
    1; every kept position sees the same prefix subgroup as before, so the
    kept elements, attached primes and quotient orders keep their values
    and order, and the product of the quotient orders is unchanged.  Only
    rounds an adversary could try to inflate are dropped, never one that
    carries a factor of the order.
    """
    seen = {G.identity}
    kept = []
    for i, h in enumerate(seq.elements):
        if h not in seen:
            seen.add(h)
            kept.append(i)

    def pick(values):
        return None if values is None else tuple(values[i] for i in kept)

    return PolycyclicSequence(pick(seq.elements), pick(seq.primes), pick(seq.quotient_orders))
