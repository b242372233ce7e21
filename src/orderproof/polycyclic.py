"""Polycyclic generating sequences, prime refinement, and normal forms.

A polycyclic generating sequence for a finite solvable group is a list of
elements whose prefix subgroups form a normal tower with cyclic quotients.
This module computes such sequences from the derived series, enumerated by
coset steps (Dimino's closure, with one enumeration of the whole group per
oracle), refines them with a descending prime-power exponent schedule so
that every quotient order is 1 or a known prime, and builds normal-form
tables: the codes in insertion order, every prefix subgroup a prefix of
them, and a dict from each code to its index, whose mixed-radix digits are
the element's exponent tuple (one int per element, however long the
tower).  A table doubles as the classical stand-in for the decomposition
and membership queries that a computationally stronger party would
answer.  ``compact_tower`` drops the identity and repeated positions of a
refined tower by code equality alone; the honest 3-message prover commits
to that tower.

``compute_pcgs`` builds its table with each element k of quotient order
m = p_1⋯p_k (primes ascending, with multiplicity) appended as its prime
steps k^(m/p_1), k^(m/(p_1 p_2)), …, k, the steps prime refinement splits
it into, filled from k's one power list at the cost of the single step.
A tower that gives a table's steps of quotient order > 1 in order, each
as its own element, with elements of the level so far anywhere between
them, is a view of that table (``SubgroupChain.view``): it reads the table
index for index, with no oracle query, no copied code and O(t) memory,
and a view of a view reads the same table.  So a pure tower has one
table, the pcgs table: the whole group is enumerated twice per oracle, by
the closure and by the pcgs table, and prime refinement, compaction and
a forged tower add no table (cyclic:32768 with the prime 2).  An impure
refined tower still gets a table of its own, built by coset steps.  Every
result is memoized on the oracle (see ``groups.memoized``), so it is freed
with the oracle.  Every enumeration is bounded by the one closure bound
``groups.DEFAULT_CLOSURE_CAP``, so a memo key names only what the result
depends on: the tower or the primes.
"""

from __future__ import annotations

import heapq
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
    """Exact primality test in bounded time, below ``MILLER_RABIN_EXACT_BELOW``.

    Deterministic Miller-Rabin, so a number of up to 81 bits costs thirteen
    modular exponentiations.  Raises ValueError at or above the bound,
    where the test is no longer exact: no caller may then wait on trial
    division, whatever number a prover or a user sends.
    """
    if n >= MILLER_RABIN_EXACT_BELOW:
        raise ValueError(
            f"{n} is at or above {MILLER_RABIN_EXACT_BELOW}, the bound of exact primality tests"
        )
    if n < 2:
        return False
    for p in MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
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


def prime_fault(p: int) -> str | None:
    """Why ``p`` is not a prime ``is_prime`` can certify, or None."""
    try:
        return None if is_prime(p) else f"{p} is not prime"
    except ValueError as exc:
        return str(exc)


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

    def _append(self, h: ElementCode, split: bool = False) -> None:
        """Grow the tower by h: the next level is the union of level·h^a.

        With ``split``, an h of quotient order m = p_1⋯p_k (its prime
        factors ascending, with multiplicity) goes in as the k prime steps
        h^(m/p_1), h^(m/(p_1 p_2)), …, h, as prime refinement splits it.
        Those steps are powers of h, so the coset steps of all k of them
        list u·h^e at the index whose digits (a_1, …, a_k) have
        e = Σ a_i·m/(p_1⋯p_i): the block is filled from h's one power list
        at one product per code, as the single step h fills it.
        """
        G = self.G
        index, codes = self._index, self._codes
        size = len(codes)
        # powers[e] = h^e for every e below the quotient order m.
        powers, cur = [G.identity], h
        while cur not in index:
            powers.append(cur)
            cur = G.product(cur, h)
            if len(powers) > DEFAULT_CLOSURE_CAP:
                raise ClosureOverflowError(
                    f"quotient order search exceeded cap of {DEFAULT_CLOSURE_CAP}"
                )
        m = len(powers)
        if size * m > DEFAULT_CLOSURE_CAP:
            raise ClosureOverflowError(
                f"subgroup level exceeded cap of {DEFAULT_CLOSURE_CAP} elements"
            )
        steps = [m]
        if split and m > 1:
            steps, rest = [], m
            for p in prime_factors(m):
                while rest % p == 0:
                    steps.append(p)
                    rest //= p
        # exponents[d] = e for the block digit d; each step's digit is the
        # next higher one.
        exponents, unit = [0], m
        for p in steps:
            unit //= p
            exponents = [e + a * unit for a in range(p) for e in exponents]
            if p > 1:
                self._radices.append((len(self.elements), p))
            self.elements += (h if unit == 1 else powers[unit],)
            self.quotient_orders += (p,)
            self._sizes.append(self._sizes[-1] * p)
        # codes[0] is the identity, whose coset element is h^e itself.
        members = codes[1:size]
        for e in exponents[1:]:
            power = powers[e]
            codes.append(power)
            codes.extend([G.product(u, power) for u in members])
        index.update(zip(codes[size:], range(size, len(codes))))
        if len(index) != len(codes):
            raise ChainError("normal-form collision: sequence is not polycyclic")

    def view(self, elements: Sequence[ElementCode]) -> SubgroupChain | None:
        """The chain of ``elements`` as a view of this chain's table, or None.

        A view accepts one shape: this chain's steps of quotient order
        m > 1, in order, each given by its own element, with elements of
        the level so far (quotient order 1) anywhere between them.  Then
        each step meets the level it met here, so the coset step lists
        the same codes in the same order: the view's level j is a prefix
        of this table and its indices are the table's.  The view keeps a
        reference to the table and one (position, m) radix per step,
        O(t) memory, and makes no query.  A view of a view reads the same
        table.  Anything else returns None.  A view is never grown.
        """
        steps = [(self.elements[position], m) for position, m in self._radices]
        orders: list[int] = []
        radices: list[tuple[int, int]] = []
        sizes = [1]
        for h in elements:
            if self._index.get(h, sizes[-1]) < sizes[-1]:
                m = 1
            elif len(radices) < len(steps) and h == steps[len(radices)][0]:
                m = steps[len(radices)][1]
                radices.append((len(orders), m))
            else:
                return None
            orders.append(m)
            sizes.append(sizes[-1] * m)
        chain = SubgroupChain(self.G, ())
        chain._codes, chain._index = self._codes, self._index
        chain._radices, chain._sizes = radices, sizes
        chain.elements, chain.quotient_orders = tuple(elements), tuple(orders)
        return chain

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
        return [self.level_element(j, k) for k in range(self._sizes[j])]

    def level_index(self, j: int, h: ElementCode) -> int | None:
        """The k with ``level_element(j, k) == h``, or None if h is not in level j."""
        self._check_level(j)
        k = self._index.get(h)
        return k if k is not None and k < self._sizes[j] else None

    def group_order(self) -> int:
        return self._sizes[-1]

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


def get_chain(
    G: GroupOracle, elements: Sequence[ElementCode], source: SubgroupChain | None = None
) -> SubgroupChain:
    """The memoized SubgroupChain of ``elements`` (never changed once built).

    The one accessor of a tower's table.  On a miss the chain is
    ``source.view(elements)`` when ``SubgroupChain.view`` accepts the
    tower: it reads ``source``'s table index for index, at no query and
    with no code copied.  Any other tower, or any tower when ``source`` is
    None, gets a table of its own built by coset steps.  So does
    ``compute_pcgs(G).elements`` when a pcgs element has a composite
    quotient order: the pcgs table holds its prime steps instead.
    """
    elements = tuple(elements)

    def build() -> SubgroupChain:
        view = None if source is None else source.view(elements)
        return view or SubgroupChain(G, elements)

    return memoized(G, ("chain", elements), build)


def table_entries(G: GroupOracle) -> int:
    """Entries in the distinct normal-form tables of the chains memoized on G.

    A view reads the table of the chain it was taken from, so it adds none.
    """
    tables = {
        id(chain._codes): len(chain._codes)
        for chain in G.precomputed.values()
        if isinstance(chain, SubgroupChain)
    }
    return sum(tables.values())


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
    enumeration lists them in; they are popped from a heap, so a layer
    costs O(|layer|) plus O(log |layer|) per candidate popped, not a sort
    of the whole layer.  The normality lets the sequence's chain grow by
    the coset step, each element in its prime steps, and that chain is
    kept as the pcgs table that ``refine_with_primes`` views.
    Raises NotSolvableError when the derived series does not reach the
    trivial group.
    """
    return memoized(G, ("pcgs",), lambda: _build_pcgs(G))


def _build_pcgs(G: GroupOracle) -> PolycyclicSequence:
    series = _derived_series(G)
    chain = SubgroupChain(G, ())
    elements, orders = [], []
    for layer in reversed(series):
        # The smallest code first; a popped member stays a member, so the
        # pops meet the non-members in sorted order.
        candidates = list(layer)
        heapq.heapify(candidates)
        while candidates and chain.group_order() != len(layer):
            candidate = heapq.heappop(candidates)
            if not chain.is_member(len(chain), candidate):
                size = chain.group_order()
                chain._append(candidate, split=True)
                elements.append(candidate)
                orders.append(chain.group_order() // size)
    memoized(G, ("chain", chain.elements), lambda: chain)
    memoized(G, ("pcgs table", tuple(elements)), lambda: chain)
    return PolycyclicSequence(tuple(elements), None, tuple(orders))


def _pcgs_table(G: GroupOracle, elements: tuple[ElementCode, ...]) -> SubgroupChain:
    """The table of a pcgs with each element appended in prime steps (memoized).

    ``compute_pcgs`` stores its own; any other sequence gets one built here.
    """

    def build() -> SubgroupChain:
        chain = SubgroupChain(G, ())
        for k in elements:
            chain._append(k, split=True)
        return chain

    return memoized(G, ("pcgs table", elements), build)


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
        if fault := prime_fault(p):
            raise RefinementError(fault)
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
    its powers k^e over the full exponent schedule (``refinement_exponents``),
    giving l*n entries per original element (n is the encoding length), all
    of which are returned; the 2-message verifier runs on this tower.  Most
    positions are the identity or repeat an earlier element, and
    ``compact_tower`` drops them for the honest 3-message commitment.  The
    prime attached to a refined position is the schedule ratio at that
    position, so the attached primes of a block are the ascending primes,
    each repeated n times, and its ratios are those after the first; the
    first position of every block gets the smallest prime, which is the
    ratio the schedule would have continued with.  Each block is computed
    backwards from k^1 = k, as k^{e_j} = (k^{e_{j+1}})^{r_{j+1}} with
    r_{j+1} the ratio, so a position costs a power by one prime (1 product
    for 2, 2 for 3) rather than a power by the whole schedule exponent, and
    a power of the identity costs nothing; the elements, and so the codes,
    are the same.  Requires ``primes`` to be primes below
    ``MILLER_RABIN_EXACT_BELOW``, checked first, so the trivial group
    refuses a bad prime as any group does, and to cover every prime factor
    of the group order: the result is validated, through the memoized
    normal-form chain of the whole tower, against the quotient-order
    invariant and the enumerated group order, and a violation raises
    RefinementError.

    ``get_chain`` makes that chain a view of the pcgs table, which holds
    each pcgs element k of quotient order m = p_1⋯p_k as its prime steps
    k^(m/p_1), …, k (``SubgroupChain.view``), when the refined tower is
    pure: its positions of quotient order > 1 are exactly those steps, in
    order, and every other position lies in the level before it.  Then the
    chain costs no query and holds no table of its own, and the refinement
    costs only its power queries (40 on the benchmark's cyclic:32768,
    against 32,807 with a table built by coset steps).  Under one prime p,
    on a p-group as the check requires, every refined tower is pure: k^(p^j)
    lies in the level before k or is a prime step.  Under several primes an
    exponent 3^j of an element k of quotient order 2 leaves lower digits
    unless k² is the identity, and such a tower gets a table of its own.
    Memoized per oracle (the computation is deterministic).
    """
    ordered = tuple(sorted(set(primes)))
    for p in ordered:
        if fault := prime_fault(p):
            raise RefinementError(fault)
    if not pcgs.elements:
        return PolycyclicSequence((), (), ())
    if not ordered:
        raise RefinementError("prime set must cover the group order; got an empty set")

    def build() -> PolycyclicSequence:
        attached = [p for p in ordered for _ in range(G.encoding_length)]
        elements: list[ElementCode] = []
        for k in pcgs.elements:
            # k^{e_j} = (k^{e_{j+1}})^{r_{j+1}}, backwards from k^1 = k; a
            # power of the identity is the identity and costs no query.
            block = [k]
            for r in reversed(attached[1:]):
                x = block[-1]
                block.append(x if x == G.identity else G.power(x, r))
            elements.extend(reversed(block))
        attached *= len(pcgs.elements)

        chain = get_chain(G, elements, _pcgs_table(G, pcgs.elements))
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

    Keeps positions by code equality alone.  A dropped
    element already lies in its prefix subgroup, so its quotient order is
    1; every kept position sees the same prefix subgroup as before, so the
    kept elements, attached primes and quotient orders keep their values
    and order, and the product of the quotient orders is unchanged.  Only
    rounds an adversary could try to inflate are dropped, never one that
    carries a factor of the order.

    A dropped position lies in the level before it and every kept one is
    ``seq``'s own element, so ``get_chain`` memoizes the compacted tower's
    chain as a view of ``seq``'s, at no query once ``seq``'s is built
    (``refine_with_primes`` builds it): the two towers share one
    normal-form table.
    """
    seen = {G.identity}
    kept = []
    for i, h in enumerate(seq.elements):
        if h not in seen:
            seen.add(h)
            kept.append(i)

    def pick(values):
        return None if values is None else tuple(values[i] for i in kept)

    tower = PolycyclicSequence(pick(seq.elements), pick(seq.primes), pick(seq.quotient_orders))
    get_chain(G, tower.elements, get_chain(G, seq.elements))
    return tower
