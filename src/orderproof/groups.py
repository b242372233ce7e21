"""Black-box group oracles over opaque element codes.

A group instance is exposed only through an oracle interface: elements are
fixed-length bitstrings (``bytes`` of a known bit width), and the only
permitted operations are the product and inverse oracles, which count every
invocation.  Concrete backends (cyclic groups, direct products, permutation
groups) sit behind the oracle and are never visible to callers; an optional
seeded relabeling scrambles the code space so that callers cannot exploit
structure in the canonical encoding.

Derived helpers (powers, product-of-powers words, closure enumeration) are
built on top of the two oracles and inherit their query accounting.  A
closure is listed by Dimino's algorithm (G. Butler, *Fundamental Algorithms
for Permutation Groups*, LNCS 559, 1991): the subgroup grows by one
generator at a time, by whole cosets of the subgroup so far, at about one
product per element and no inverse.  The oracle's per-thread tally is
the one query counter; ``QueryMeter`` reads it, less the set-up that
``memoized`` amortizes.
"""

from __future__ import annotations

import hashlib
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Callable, Sequence, TypeVar, Union

ElementCode = bytes

#: The one closure bound: no enumeration lists a subgroup of more elements.
#: ``enumerate_closure`` and ``extend_closure`` take it as their ``cap``
#: default (tests pass smaller caps to pin the exact rule); ``SubgroupChain``
#: applies it to its quotient order search and levels, and the 3-message
#: commitment check derives its tower length guardrail from it.
DEFAULT_CLOSURE_CAP = 10**6


class GroupSpecError(ValueError):
    """A concrete group specification is malformed."""


class InvalidCodeError(ValueError):
    """A bitstring does not decode to an element of the group."""


class ClosureOverflowError(RuntimeError):
    """Closure enumeration exceeded its element cap."""


# ---------------------------------------------------------------------------
# Concrete group specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CyclicSpec:
    """Additive group of integers modulo ``modulus``."""

    modulus: int
    relabel_seed: int | None = field(default=None, kw_only=True)

    def validate(self) -> None:
        if self.modulus < 1:
            raise GroupSpecError(f"cyclic modulus must be >= 1, got {self.modulus}")


@dataclass(frozen=True)
class PermutationSpec:
    """Subgroup of the symmetric group on ``degree`` points.

    Generators are image tuples on 0-based points: ``g[i]`` is the image
    of point ``i``.
    """

    degree: int
    generators: tuple[tuple[int, ...], ...]
    relabel_seed: int | None = field(default=None, kw_only=True)

    def validate(self) -> None:
        if self.degree < 1:
            raise GroupSpecError(f"permutation degree must be >= 1, got {self.degree}")
        for g in self.generators:
            if len(g) != self.degree or sorted(g) != list(range(self.degree)):
                raise GroupSpecError(
                    f"not a permutation of {self.degree} points: {g!r}"
                )


@dataclass(frozen=True)
class DirectProductSpec:
    """Direct product of component groups (componentwise operation)."""

    parts: tuple[Union["CyclicSpec", "PermutationSpec"], ...]
    relabel_seed: int | None = field(default=None, kw_only=True)

    def validate(self) -> None:
        if not self.parts:
            raise GroupSpecError("direct product needs at least one component")
        for part in self.parts:
            if isinstance(part, DirectProductSpec):
                raise GroupSpecError("nested direct products are not supported")
            if part.relabel_seed is not None:
                raise GroupSpecError("relabel seed is only allowed on the outermost spec")
            part.validate()


ConcreteGroupSpec = Union[CyclicSpec, PermutationSpec, DirectProductSpec]


# ---------------------------------------------------------------------------
# Backends (hidden behind the oracle)
# ---------------------------------------------------------------------------

class _CyclicBackend:
    def __init__(self, modulus: int):
        self.modulus = modulus
        self.n_bits = max(1, (modulus - 1).bit_length())

    def identity_rep(self):
        return 0

    def generator_reps(self):
        return [1 % self.modulus]

    def multiply(self, a, b):
        return (a + b) % self.modulus

    def invert(self, a):
        return (-a) % self.modulus

    def rep_to_int(self, a):
        return a

    def int_to_rep(self, x):
        if x >= self.modulus:
            raise InvalidCodeError(f"residue {x} out of range for modulus {self.modulus}")
        return x


class _PermutationBackend:
    def __init__(self, degree: int, generators: Sequence[tuple[int, ...]]):
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
        self.image_bits = max(1, (degree - 1).bit_length())
        self.n_bits = degree * self.image_bits

    def identity_rep(self):
        return tuple(range(self.degree))

    def generator_reps(self):
        return list(self.generators)

    def multiply(self, a, b):
        # Composition convention: (a*b)(x) = a(b(x)), i.e. apply b first.
        return tuple(a[b[i]] for i in range(self.degree))

    def invert(self, a):
        inv = [0] * self.degree
        for i, j in enumerate(a):
            inv[j] = i
        return tuple(inv)

    def rep_to_int(self, a):
        x = 0
        for image in a:
            x = (x << self.image_bits) | image
        return x

    def int_to_rep(self, x):
        mask = (1 << self.image_bits) - 1
        images = [0] * self.degree
        for i in range(self.degree - 1, -1, -1):
            images[i] = x & mask
            x >>= self.image_bits
        if x or sorted(images) != list(range(self.degree)):
            raise InvalidCodeError("code does not decode to a permutation")
        return tuple(images)


class _DirectProductBackend:
    def __init__(self, parts):
        self.parts = parts
        self.n_bits = sum(p.n_bits for p in parts)

    def identity_rep(self):
        return tuple(p.identity_rep() for p in self.parts)

    def generator_reps(self):
        identity = self.identity_rep()
        reps = []
        for i, part in enumerate(self.parts):
            for g in part.generator_reps():
                rep = list(identity)
                rep[i] = g
                reps.append(tuple(rep))
        return reps

    def multiply(self, a, b):
        return tuple(p.multiply(x, y) for p, x, y in zip(self.parts, a, b))

    def invert(self, a):
        return tuple(p.invert(x) for p, x in zip(self.parts, a))

    def rep_to_int(self, a):
        x = 0
        for part, component in zip(self.parts, a):
            x = (x << part.n_bits) | part.rep_to_int(component)
        return x

    def int_to_rep(self, x):
        components = []
        for part in reversed(self.parts):
            mask = (1 << part.n_bits) - 1
            components.append(part.int_to_rep(x & mask))
            x >>= part.n_bits
        if x:
            raise InvalidCodeError("code exceeds the encoding width")
        return tuple(reversed(components))


# ---------------------------------------------------------------------------
# Seeded injective relabeling of the code space
# ---------------------------------------------------------------------------

class _Relabeling:
    """Keyed bijection on n-bit strings (4-round unbalanced Feistel).

    Each round XORs one half with a keyed hash of the other half; every
    round is an involution on its target half, so the composition is a
    bijection for any n >= 1 and is invertible by replaying rounds in
    reverse.  Even rounds XOR the low half with a hash of the high half,
    odd rounds the high half with a hash of the low half; ``forward`` and
    ``backward`` spell the four rounds out, in order and in reverse.

    Each round's hash is memoized per input half, one int-keyed dict per
    round.  Only ``forward(x, keep=True)`` fills the memo, and the oracle
    asks for that only when it encodes an element it produced from codes
    it produced, that is an element of G, once per element.  So the memo
    holds at most four entries per element of G and at most
    4·min(|G|, 2^⌈n/2⌉) in all.  ``backward``, and ``forward`` with
    ``keep=False``, read it but never add, so decoding a code, or encoding
    a product of a code the oracle did not produce, costs no memo entry.
    The memo pays on dense encodings, where |G| is far above 2^(n/2) and
    halves repeat: the 15-bit codes of cyclic:32768 need 768 round hashes,
    not 4·32768.
    """

    ROUNDS = 4

    def __init__(self, seed: int, n_bits: int):
        self.n_bits = n_bits
        self.low_bits = (n_bits + 1) // 2
        self.high_bits = n_bits - self.low_bits
        key = hashlib.blake2b(seed.to_bytes(16, "big", signed=False), digest_size=32).digest()
        # Keyed once; each round hash starts from a copy of this state.
        self._keyed = hashlib.blake2b(key=key, digest_size=64)
        self._half_bytes = (max(self.low_bits, self.high_bits) + 7) // 8 or 1
        self._memo: list[dict[int, int]] = [{} for _ in range(self.ROUNDS)]

    def _round_value(self, value: int, round_index: int, width: int) -> int:
        need = (width + 7) // 8 or 1
        data = value.to_bytes(self._half_bytes, "big")
        out = b""
        block = 0
        while len(out) < need:
            digest = self._keyed.copy()
            digest.update(data + bytes([round_index, block]))
            out += digest.digest()
            block += 1
        return int.from_bytes(out[:need], "big") & ((1 << width) - 1)

    def forward(self, x: int, keep: bool = True) -> int:
        """Rounds 0..3; ``keep`` stores each missing round hash in the memo."""
        lb, hb = self.low_bits, self.high_bits
        m0, m1, m2, m3 = self._memo
        high, low = x >> lb, x & ((1 << lb) - 1)
        f = m0.get(high)
        if f is None:
            f = self._round_value(high, 0, lb)
            if keep:
                m0[high] = f
        low ^= f
        f = m1.get(low)
        if f is None:
            f = self._round_value(low, 1, hb)
            if keep:
                m1[low] = f
        high ^= f
        f = m2.get(high)
        if f is None:
            f = self._round_value(high, 2, lb)
            if keep:
                m2[high] = f
        low ^= f
        f = m3.get(low)
        if f is None:
            f = self._round_value(low, 3, hb)
            if keep:
                m3[low] = f
        high ^= f
        return (high << lb) | low

    def backward(self, x: int) -> int:
        """Rounds 3..0, reading the memo and never adding to it."""
        lb, hb = self.low_bits, self.high_bits
        m0, m1, m2, m3 = self._memo
        high, low = x >> lb, x & ((1 << lb) - 1)
        f = m3.get(low)
        high ^= self._round_value(low, 3, hb) if f is None else f
        f = m2.get(high)
        low ^= self._round_value(high, 2, lb) if f is None else f
        f = m1.get(low)
        high ^= self._round_value(low, 1, hb) if f is None else f
        f = m0.get(high)
        low ^= self._round_value(high, 0, lb) if f is None else f
        return (high << lb) | low


# ---------------------------------------------------------------------------
# Query accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QueryCounts:
    """Snapshot of oracle invocation counts."""

    product: int = 0
    inverse: int = 0

    @property
    def total(self) -> int:
        return self.product + self.inverse

    def __sub__(self, other: "QueryCounts") -> "QueryCounts":
        return QueryCounts(self.product - other.product, self.inverse - other.inverse)


class QueryMeter:
    """Per-execution query counts, read from the oracle's one counter.

    Over each ``measuring()`` block the meter adds the calling thread's
    tally delta less its amortized delta (see ``memoized``), so parallel
    executions sharing one oracle keep independent per-execution counts.
    ``snapshot()`` reads the blocks that have ended.
    """

    def __init__(self, G: GroupOracle):
        self.G = G
        self.counts = [0, 0]

    @contextmanager
    def measuring(self):
        tally = self.G._tally()
        start = tally[:]
        try:
            yield self
        finally:
            counts = self.counts
            counts[0] += tally[0] - start[0] - (tally[2] - start[2])
            counts[1] += tally[1] - start[1] - (tally[3] - start[3])

    def snapshot(self) -> QueryCounts:
        return QueryCounts(*self.counts)


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

class GroupOracle:
    """Black-box handle to a finite group.

    Exposes the encoding length (bits), the generator codes, the identity
    code, and the two counting oracles.  Each thread that calls an oracle
    counts its calls in a tally of its own, registered once under a lock,
    so a call bumps one list entry and takes no lock.  A tally holds
    [products, inverses, amortized products, amortized inverses];
    ``query_counts()`` sums the first two over every thread, exited ones
    included.  A code the oracle produced maps to its element and back through two dicts, which
    ``product`` and ``inverse`` read inline; a code it did not produce is
    validated and decoded on every use and never stored.  Nor is a product
    or inverse with such an operand: its code is computed as for any
    element, and returned, but neither dict nor the relabeling's round memo
    keeps it.  So everything stored lies in G: the identity, the
    generators, and products and inverses of stored codes.  The oracle also
    owns ``precomputed``: the store where ``memoized`` keeps the
    deterministic precomputation of this group (order, pcgs, refinements,
    normal-form tables, the honest commitment).  It lives and dies with the
    oracle.
    """

    def __init__(self, backend, relabel_seed: int | None = None):
        self._backend = backend
        self.encoding_length = backend.n_bits
        self.relabel_seed = relabel_seed
        self._relabel = None if relabel_seed is None else _Relabeling(relabel_seed, backend.n_bits)
        self._code_width = (backend.n_bits + 7) // 8
        self._rep_to_code: dict = {}
        self._code_to_rep: dict = {}
        self._lock = threading.Lock()
        self._tallies: list[list[int]] = []  # one tally per thread, see the class docstring
        self._local = threading.local()
        self.precomputed: dict[tuple, Any] = {}
        self.identity = self._encode(backend.identity_rep())
        self.generators = tuple(self._encode(rep) for rep in backend.generator_reps())

    # -- encoding ----------------------------------------------------------

    def _encode(self, rep, keep: bool = True) -> ElementCode:
        """The code of ``rep``; ``keep`` stores a new one, with its round hashes."""
        code = self._rep_to_code.get(rep)
        if code is None:
            x = self._backend.rep_to_int(rep)
            if self._relabel is not None:
                x = self._relabel.forward(x, keep)
            code = x.to_bytes(self._code_width, "big")
            if keep:
                self._rep_to_code[rep] = code
                self._code_to_rep[code] = rep
        return code

    def _decode(self, code: ElementCode):
        """The element ``code`` names; a code the oracle did not produce is not kept."""
        rep = self._code_to_rep.get(code)
        if rep is None:
            if not isinstance(code, bytes) or len(code) != self._code_width:
                raise InvalidCodeError(
                    f"element codes are {self._code_width} bytes, got {code!r}"
                )
            x = int.from_bytes(code, "big")
            if x >> self.encoding_length:
                raise InvalidCodeError("code exceeds the encoding width")
            if self._relabel is not None:
                x = self._relabel.backward(x)
            rep = self._backend.int_to_rep(x)
        return rep

    # -- counting ----------------------------------------------------------

    def _tally(self) -> list[int]:
        """This thread's tally, registered on first use."""
        try:
            return self._local.tally
        except AttributeError:
            tally = self._local.tally = [0, 0, 0, 0]
            with self._lock:
                self._tallies.append(tally)
            return tally

    def query_counts(self) -> QueryCounts:
        with self._lock:
            tallies = list(self._tallies)
        return QueryCounts(sum(t[0] for t in tallies), sum(t[1] for t in tallies))

    # -- oracles -----------------------------------------------------------

    def product(self, g: ElementCode, h: ElementCode) -> ElementCode:
        """Product oracle: code of g*h."""
        try:
            self._local.tally[0] += 1
        except AttributeError:
            self._tally()[0] += 1
        reps = self._code_to_rep
        a = reps.get(g)
        b = reps.get(h)
        if a is None or b is None:
            # An operand the oracle did not produce: its product is not kept.
            a = self._decode(g) if a is None else a
            b = self._decode(h) if b is None else b
            return self._encode(self._backend.multiply(a, b), False)
        rep = self._backend.multiply(a, b)
        code = self._rep_to_code.get(rep)
        return self._encode(rep) if code is None else code

    def inverse(self, g: ElementCode) -> ElementCode:
        """Inverse oracle: code of g^-1."""
        try:
            self._local.tally[1] += 1
        except AttributeError:
            self._tally()[1] += 1
        a = self._code_to_rep.get(g)
        if a is None:
            return self._encode(self._backend.invert(self._decode(g)), False)
        rep = self._backend.invert(a)
        code = self._rep_to_code.get(rep)
        return self._encode(rep) if code is None else code

    def power(self, g: ElementCode, k: int) -> ElementCode:
        """g^k by left-to-right square and multiply.

        Query cost: 0 products for k in {0, 1}, otherwise
        (bit_length(k) - 1) squarings plus (popcount(k) - 1) multiplies.
        """
        if k < 0:
            raise ValueError("exponent must be non-negative")
        if k == 0:
            return self.identity
        acc = g
        for i in range(k.bit_length() - 2, -1, -1):
            acc = self.product(acc, acc)
            if (k >> i) & 1:
                acc = self.product(acc, g)
        return acc


# ---------------------------------------------------------------------------
# Operations on top of the oracle
# ---------------------------------------------------------------------------

T = TypeVar("T")


def memoized(G: GroupOracle, key: tuple, build: Callable[[], T]) -> T:
    """``build()`` computed once per oracle and key, kept in ``G.precomputed``.

    Only deterministic results belong here; a raised exception is not kept.
    Set-up is amortized: every query a build makes, whether it returns or
    raises, nested builds' included and counted once, goes to the
    amortized slots of this thread's tally, which no ``QueryMeter`` counts.
    """
    try:
        return G.precomputed[key]
    except KeyError:
        pass
    tally = G._tally()
    start = tally[:]
    try:
        value = G.precomputed[key] = build()
    finally:
        tally[2] = start[2] + tally[0] - start[0]
        tally[3] = start[3] + tally[1] - start[1]
    return value


def make_group(spec: ConcreteGroupSpec) -> GroupOracle:
    """Instantiate the black-box oracle for a concrete group specification."""
    spec.validate()
    if isinstance(spec, CyclicSpec):
        backend = _CyclicBackend(spec.modulus)
    elif isinstance(spec, PermutationSpec):
        backend = _PermutationBackend(spec.degree, spec.generators)
    elif isinstance(spec, DirectProductSpec):
        backend = _DirectProductBackend(
            [
                _CyclicBackend(p.modulus)
                if isinstance(p, CyclicSpec)
                else _PermutationBackend(p.degree, p.generators)
                for p in spec.parts
            ]
        )
    else:
        raise GroupSpecError(f"unknown group spec: {spec!r}")
    return GroupOracle(backend, relabel_seed=spec.relabel_seed)


def eval_word(G: GroupOracle, bases: Sequence[ElementCode], exps: Sequence[int]) -> ElementCode:
    """Evaluate bases[0]^exps[0] * ... * bases[k-1]^exps[k-1] left to right.

    Zero exponents are skipped entirely, so an all-zero word costs no
    oracle queries and evaluates to the identity.  The skip is a single
    ``itertools.compress`` over the word, so the zeros of a long, sparse
    row cost no Python-level step each.
    """
    if len(bases) != len(exps):
        raise ValueError(f"word length mismatch: {len(bases)} bases, {len(exps)} exponents")
    acc = None
    for base, exp in compress(zip(bases, exps), exps):
        p = G.power(base, exp)
        acc = p if acc is None else G.product(acc, p)
    return G.identity if acc is None else acc


def extend_closure(
    G: GroupOracle,
    elements: list[ElementCode],
    members: set[ElementCode],
    gens: list[ElementCode],
    g: ElementCode,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> bool:
    """Grow the subgroup H = <gens> to <gens, g> in place (Dimino's coset step).

    ``elements`` lists H with the identity first, ``members`` is its set,
    and both are extended in place; g is appended to ``gens`` when it is
    new.  The new subgroup is the union of the right cosets H·r, each listed
    whole as h·r over h in H, with r itself in the identity row, so a coset
    costs |H| - 1 products.  The cosets are found as r·s for a coset
    representative r and a generator s, one product per generator per
    coset; H need not be normal.  When H is trivial the cosets are the
    single powers g, g², …, so the loop lists them directly, g^(a+1) as
    g^a·g: one product and two appends per element, the same products in
    the same order as the coset loop, and the last product the identity
    that closes the list.  Returns whether g was new.  Raises
    ClosureOverflowError before a coset would take the list past ``cap``
    elements, that is exactly when the new subgroup has more than ``cap``.
    """
    if g in members:
        return False
    gens.append(g)
    size = len(elements)
    if size == 1:
        append, add, x = elements.append, members.add, g
        while x not in members:
            if len(elements) >= cap:
                raise ClosureOverflowError(f"subgroup closure exceeded cap of {cap} elements")
            append(x)
            add(x)
            x = G.product(x, g)
        return True
    subgroup = elements[1:]

    def add_coset(r: ElementCode) -> None:
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


def enumerate_closure(
    G: GroupOracle,
    gens: Sequence[ElementCode],
    cap: int = DEFAULT_CLOSURE_CAP,
) -> list[ElementCode]:
    """The subgroup generated by ``gens``, listed by Dimino's algorithm.

    Adds the generators one at a time with ``extend_closure``, so the list
    starts with the identity, then the powers of the first generator, and
    then whole cosets of each earlier subgroup; the order is deterministic.
    The cost is one product per element plus one per generator per coset,
    and no inverse.  Raises ClosureOverflowError once more than ``cap``
    elements would appear.
    """
    if cap < 1:
        raise ValueError("closure cap must be >= 1")
    elements, members, grown = [G.identity], {G.identity}, []
    for g in gens:
        extend_closure(G, elements, members, grown, g, cap)
    return elements


# ---------------------------------------------------------------------------
# Group spec string grammar
# ---------------------------------------------------------------------------
#
#   cyclic:12
#   direct:cyclic:4,cyclic:3
#   perm:4:(1 2),(1 2 3 4)
#
# with an optional @seed=<u64> suffix requesting a relabeled encoding.
# Direct products take cyclic and perm components (no nesting).

_CYCLE_RE = re.compile(r"\(([\d\s,]*)\)")
_SEED_RE = re.compile(r"@seed=(\d+)$")


def _split_top_level(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise GroupSpecError(f"unbalanced parentheses in {text!r}")
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth:
        raise GroupSpecError(f"unbalanced parentheses in {text!r}")
    parts.append(text[start:])
    return [p.strip() for p in parts]


def _parse_permutation(token: str, degree: int) -> tuple[int, ...]:
    body = token.strip()
    if not body or _CYCLE_RE.sub("", body).strip():
        raise GroupSpecError(f"cannot parse permutation {token!r}")
    images = list(range(degree))
    for match in _CYCLE_RE.finditer(body):
        cycle_text = match.group(1).strip()
        if not cycle_text:
            continue
        points = [int(p) - 1 for p in re.split(r"[\s,]+", cycle_text)]
        if any(p < 0 or p >= degree for p in points):
            raise GroupSpecError(f"point out of range 1..{degree} in {token!r}")
        if len(set(points)) != len(points):
            raise GroupSpecError(f"repeated point in cycle {token!r}")
        cycle_map = list(range(degree))
        for a, b in zip(points, points[1:]):
            cycle_map[a] = b
        cycle_map[points[-1]] = points[0]
        # Cycles compose left to right: apply the new cycle first.
        images = [images[cycle_map[i]] for i in range(degree)]
    return tuple(images)


def _parse_leaf(tokens: list[str], relabel_seed: int | None) -> ConcreteGroupSpec:
    head = tokens[0]
    if head.startswith("cyclic:"):
        if len(tokens) != 1:
            raise GroupSpecError(f"unexpected trailing tokens after {head!r}")
        try:
            modulus = int(head.split(":", 1)[1])
        except ValueError:
            raise GroupSpecError(f"bad cyclic modulus in {head!r}") from None
        spec = CyclicSpec(modulus, relabel_seed=relabel_seed)
    elif head.startswith("perm:"):
        fields = head.split(":", 2)
        if len(fields) != 3:
            raise GroupSpecError(f"perm spec needs 'perm:<degree>:<gens>', got {head!r}")
        try:
            degree = int(fields[1])
        except ValueError:
            raise GroupSpecError(f"bad permutation degree in {head!r}") from None
        if degree < 1:
            raise GroupSpecError(f"permutation degree must be >= 1, got {degree}")
        gen_tokens = [fields[2]] + tokens[1:]
        gens = tuple(_parse_permutation(t, degree) for t in gen_tokens)
        spec = PermutationSpec(degree, gens, relabel_seed=relabel_seed)
    else:
        raise GroupSpecError(f"unknown group kind in {head!r}")
    spec.validate()
    return spec


def parse_group_spec(text: str) -> ConcreteGroupSpec:
    """Parse the CLI group grammar into a concrete group specification."""
    text = text.strip()
    relabel_seed = None
    seed_match = _SEED_RE.search(text)
    if seed_match:
        relabel_seed = int(seed_match.group(1))
        text = text[: seed_match.start()].strip()
    if "@" in text:
        raise GroupSpecError(f"bad suffix in {text!r}; expected @seed=<u64> at the end")
    if not text:
        raise GroupSpecError("empty group spec")

    tokens = _split_top_level(text)
    if tokens[0].startswith("direct:"):
        tokens[0] = tokens[0][len("direct:"):]
        # Regroup tokens into components: permutation generator tokens
        # start with '(' and attach to the preceding component.
        components: list[list[str]] = []
        for token in tokens:
            if token.startswith("("):
                if not components:
                    raise GroupSpecError(f"dangling permutation token {token!r}")
                components[-1].append(token)
            else:
                components.append([token])
        parts = tuple(_parse_leaf(component, None) for component in components)
        spec = DirectProductSpec(parts, relabel_seed=relabel_seed)
        spec.validate()
        return spec
    return _parse_leaf(tokens, relabel_seed)


def format_group_spec(spec: ConcreteGroupSpec) -> str:
    """Render a concrete group specification back into the CLI grammar."""

    def fmt_perm(images: tuple[int, ...]) -> str:
        seen, cycles = set(), []
        for start in range(len(images)):
            if start in seen or images[start] == start:
                continue
            cycle, point = [start], images[start]
            while point != start:
                seen.add(point)
                cycle.append(point)
                point = images[point]
            cycles.append("(" + " ".join(str(p + 1) for p in cycle) + ")")
        return "".join(cycles) if cycles else "()"

    def fmt_leaf(s) -> str:
        if isinstance(s, CyclicSpec):
            return f"cyclic:{s.modulus}"
        gens = ",".join(fmt_perm(g) for g in s.generators)
        return f"perm:{s.degree}:{gens}"

    if isinstance(spec, DirectProductSpec):
        body = "direct:" + ",".join(fmt_leaf(p) for p in spec.parts)
    else:
        body = fmt_leaf(spec)
    if spec.relabel_seed is not None:
        body += f"@seed={spec.relabel_seed}"
    return body
