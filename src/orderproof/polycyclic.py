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

A tower built block by block from *pure powers* k^B of another tower's
elements k (powers with no lower normal-form digit), each step dividing
the last, and whose other positions lie in the level before them, is a
view of the other's table (``SubgroupChain.view``): no oracle query, no
copied code, O(t) memory.  A view that takes each block whole reads the
table index for index; one that splits a block into prime steps, as prime
refinement does, maps each of its indices onto the table's by one unit per
step (``_MappedView``), and a view of a view maps onto the same table.  So
a pure tower has one table, the pcgs chain's: the whole group is
enumerated twice per oracle, by the closure and by the pcgs chain, and
prime refinement, compaction and a forged tower add no table
(cyclic:32768 with the prime 2).  An impure refined tower still gets a
table of its own, built by coset steps.  Every result is memoized on the
oracle (see ``groups.memoized``), so it is freed with the oracle.  Every
enumeration is bounded by the one closure bound
``groups.DEFAULT_CLOSURE_CAP``, so a memo key names only what the result
depends on: the tower or the primes.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
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

    Each radix is (position, m, unit): a digit d at that position stands
    for table index d·unit.  In a table built here, and in a view that
    shares it index for index, the unit is the level size before the
    position; a view whose units differ is a ``_MappedView``.
    """

    def __init__(self, G: GroupOracle, elements: Sequence[ElementCode]):
        self.G = G
        self.elements: tuple[ElementCode, ...] = ()
        self.quotient_orders: tuple[int, ...] = ()
        self._index: dict[ElementCode, int] = {G.identity: 0}
        self._codes = [G.identity]
        self._sizes = [1]
        # The radices of an index: (position, m, unit) where m > 1, lowest first.
        self._radices: list[tuple[int, int, int]] = []
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
            self._radices.append((len(self.elements), m, size))
        self.elements += (h,)
        self.quotient_orders += (m,)
        self._sizes.append(len(codes))

    def view(self, elements: Sequence[ElementCode]) -> SubgroupChain | None:
        """The chain of ``elements`` as a view of this chain's table, or None.

        Number this chain's positions of quotient order > 1 as blocks
        q = 0, 1, …: block q's element k_q has order m_q over the level
        L_{q−1} before it, and |L_{q−1}| is the product of the earlier
        m's.  The coset step puts u·k_q^b at index b·|L_{q−1}| + index(u),
        so k_q^B, for B < m_q, sits at index B·|L_{q−1}| with no lower
        digit: a *pure power* of block q.  The view walks ``elements``
        with a state (q, s), under which its level is L_{q−1}·⟨k_q^s⟩, of
        size |L_{q−1}|·m_q/s: the indices whose block-q digit is a
        multiple of s, over every lower digit.  It starts at (0, m_0), the
        trivial level.  An element h of this chain's top level is
        - *trivial* (quotient order 1) when it lies in that level: its
          index is below |L_{q−1}|, or below |L_q| with a block-q digit
          that s divides;
        - a *new block* when it lies in a later block q′ and the level is
          exactly L_{q′−1} (its size is |L_{q′−1}|); the state becomes
          (q′, m_q′), and h must then be a pure step;
        - a *pure step* when h = k_q^B is a pure power of the current
          block with B | s: its quotient order is r = s/B, and the state
          becomes (q, B).
        Anything else returns None.  At a pure step the coset step would
        list, for a in 1..r−1, u·h^a over the level's codes u in order.
        A level code u at index p has block-q digit b, a multiple of s at
        most m_q − s, and a·B ≤ s − B, so b + a·B < m_q: adding a·B to
        that digit carries into no higher block, and u·h^a is the code at
        index p + a·B·|L_{q−1}|.  So the view lists the same codes in the
        same order as a chain built from scratch, with no oracle query.

        Those indices are this chain's.  Its block-q digit b stands for
        table index b·unit_q, so the view's digit d at a pure step k_q^B
        stands for d·B·unit_q: the view keeps a reference to the table and
        one (position, r, B·unit_q) radix per step, O(t) memory, and never
        copies a code.  A view of a view maps onto the same table.  When
        every unit is the level size before its position (each step takes
        a whole block of a chain indexed as its table) the view's indices
        are the table's and it reads the table directly; otherwise it is a
        ``_MappedView``.  A view is never grown.
        """
        radix = [m for _, m, _ in self._radices]
        bases = [1]  # bases[q] = |L_{q−1}|
        for m in radix:
            bases.append(bases[-1] * m)
        q, s, size = 0, radix[0] if radix else 1, 1
        orders: list[int] = []
        radices: list[tuple[int, int, int]] = []
        sizes = [1]
        for h in elements:
            k = self.level_index(len(self), h)
            if k is None:
                return None
            block = bisect_right(bases, k) - 1
            if block < q or (block == q and k // bases[q] % s == 0):
                m = 1
            else:
                if block > q:
                    if size != bases[block]:
                        return None
                    q, s = block, radix[block]
                power, lower = divmod(k, bases[q])
                if lower or s % power:
                    return None
                m = s // power
                radices.append((len(orders), m, power * self._radices[q][2]))
                s = power
            orders.append(m)
            size *= m
            sizes.append(size)
        mapped = any(unit != sizes[position] for position, _, unit in radices)
        chain = (_MappedView if mapped else SubgroupChain)(self.G, ())
        chain._codes, chain._index = self._codes, self._index
        chain._radices, chain._sizes = radices, sizes
        chain.elements, chain.quotient_orders = tuple(elements), tuple(orders)
        if mapped:
            chain._prepare()
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
        for position, m, _ in self._radices:
            if not k:
                break
            k, row[position] = divmod(k, m)
        return tuple(row)


class _MappedView(SubgroupChain):
    """A view whose indices are not its table's (see ``SubgroupChain.view``).

    Its index with digits d at its radices (position, m, unit) is the
    table index Σ d·unit.  The radices of one table block come in a run
    whose units descend from the block's top (m·unit at its first radix,
    the size of the table's level that ends the block), each m the ratio
    of the unit before to its own, so a table index k reads back the
    digit d = k // unit % m at each radix.  Runs come in table order, and
    each but the last run of a level covers its block.  So level j holds
    exactly the table indices k below the top of its last run whose digit
    in that block is a multiple of the run's last unit: k < top and
    k % unit < base, base being the top of the run before (1 for the
    first).  ``_bounds[j]`` is (top, unit, base), so membership costs no
    pass over the radices; ``decompose`` and ``level_index`` make one and
    stop as soon as the remaining index is 0.
    ``level_element``, the verifier's mask draw, reads the digits a chunk
    at a time: consecutive radices whose m's multiply to at most
    ``_CHUNK`` share one list of the table offsets of their digit
    combinations, so cyclic:32768's 15 binary radices take two steps.
    """

    _CHUNK = 256

    def _prepare(self) -> None:
        """Set ``_chunks`` and ``_bounds`` from the radices: O(t) memory."""
        chunks: list[tuple[int, Sequence[int]]] = []
        for _, m, unit in self._radices:
            if chunks and chunks[-1][0] * m <= self._CHUNK:
                size, offsets = chunks[-1]
                chunks[-1] = (size * m, [o + d * unit for d in range(m) for o in offsets])
            else:
                chunks.append((m, range(0, m * unit, unit)))
        self._chunks = chunks
        # Level j's bound is the one after the last radix before position j.
        bounds, top, base = [(1, 1, 1)], 1, 1
        for position, m, unit in self._radices:
            bounds += [bounds[-1]] * (position + 1 - len(bounds))
            if m * unit > top:  # the first radix of the next block
                base, top = top, m * unit
            bounds.append((top, unit, base))
        bounds += [bounds[-1]] * (len(self.elements) + 1 - len(bounds))
        self._bounds = bounds

    def level_element(self, j: int, k: int) -> ElementCode:
        if not 0 <= k < self._sizes[j]:
            raise IndexError(f"index {k} out of range for level {j}")
        table = 0
        for size, offsets in self._chunks:
            if not k:
                break
            table += offsets[k % size]
            k //= size
        return self._codes[table]

    def _table_index(self, j: int, h: ElementCode) -> int | None:
        """h's table index when h lies in level j, else None."""
        self._check_level(j)
        top, unit, base = self._bounds[j]
        k = self._index.get(h, top)
        return k if k < top and k % unit < base else None

    def level_index(self, j: int, h: ElementCode) -> int | None:
        # A pass of its own, not decompose's row: a lookup builds no list.
        k = self._table_index(j, h)
        if k is None:
            return None
        local, sizes = 0, self._sizes
        for position, m, unit in self._radices:
            if not k:
                break
            digit = k // unit % m
            k -= digit * unit
            local += digit * sizes[position]
        return local

    def is_member(self, j: int, h: ElementCode) -> bool:
        return self._table_index(j, h) is not None

    def decompose(self, j: int, h: ElementCode) -> tuple[int, ...] | None:
        k = self._table_index(j, h)
        if k is None:
            return None
        row = [0] * j
        for position, m, unit in self._radices:
            if not k:
                break
            digit = k // unit % m
            k -= digit * unit
            row[position] = digit
        return tuple(row)


def get_chain(
    G: GroupOracle, elements: Sequence[ElementCode], source: SubgroupChain | None = None
) -> SubgroupChain:
    """The memoized SubgroupChain of ``elements`` (never changed once built).

    The one accessor of a tower's table.  On a miss the chain is
    ``source.view(elements)`` when ``SubgroupChain.view`` accepts the
    tower: it reads ``source``'s table, index for index when each of its
    steps takes a whole block of ``source`` and through one unit per step
    otherwise, at no query and with no code copied.  Any other tower, or
    any tower when ``source`` is None, gets a table of its own built by
    coset steps.
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
    of the whole layer.  The normality lets the sequence's chain
    grow by the coset step, and that chain is kept for ``get_chain``.
    Raises NotSolvableError when the derived series does not reach the
    trivial group.
    """
    return memoized(G, ("pcgs",), lambda: _build_pcgs(G))


def _build_pcgs(G: GroupOracle) -> PolycyclicSequence:
    series = _derived_series(G)
    chain = SubgroupChain(G, ())
    for layer in reversed(series):
        # The smallest code first; a popped member stays a member, so the
        # pops meet the non-members in sorted order.
        candidates = list(layer)
        heapq.heapify(candidates)
        while candidates and chain.group_order() != len(layer):
            candidate = heapq.heappop(candidates)
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
    Requires ``primes`` to be primes below ``MILLER_RABIN_EXACT_BELOW``,
    checked first, so the trivial group refuses a bad prime as any group
    does, and to cover every prime factor of the group order: the
    result is validated, through the memoized normal-form chain of the
    whole tower, against the quotient-order invariant and the enumerated
    group order, and a violation raises RefinementError.  ``get_chain``
    makes that chain a view of the pcgs chain (``SubgroupChain.view``)
    when the refined tower is pure: each refined element k^e lies in the
    level before it, or is a power k^B with no lower digit whose B divides
    the step before it.  Then the chain costs no query and holds no table
    of its own, and the refinement costs only its power queries (40 on
    the benchmark's cyclic:32768, against 32,807 with a table built by
    coset steps).  Under one prime p, on a p-group as the
    check requires, every refined tower is pure: k^(p^j) lies in the level
    before k or is a pure power.  Under several primes an exponent 3^j of
    an element k of quotient order 2 leaves lower digits unless k² is the
    identity, and such a tower gets a table of its own.  Memoized per
    oracle (the computation is deterministic).
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

        chain = get_chain(G, elements, get_chain(G, pcgs.elements))
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

    The coset step adds no code at a dropped position, so ``get_chain``
    memoizes the compacted tower's chain as a view of ``seq``'s, at no
    query once ``seq``'s is built (``refine_with_primes`` builds it): the
    two towers share one normal-form table.
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
