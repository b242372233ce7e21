"""Random element generation in black-box subgroups.

Two samplers are provided.  The exact sampler enumerates the subgroup once
and draws uniformly from the element table, so its per-element deviation
from uniform is exactly zero; it is the normative reference at desk scale.
The subproduct sampler never enumerates: it extends the generator list with
randomly chosen subset products (a random cube), then emits one more random
subproduct per draw.  Its closeness to uniform is validated statistically
rather than proven.
"""

from __future__ import annotations

import hashlib
import math
from random import Random
from typing import Collection, Mapping, Sequence

from .groups import ElementCode, GroupOracle, enumerate_closure


class SamplerEscapeError(ValueError):
    """An observed element lies outside the claimed subgroup."""


def derive_seed(seed: int, label: str) -> int:
    """Derive a stable child seed from a parent seed and a role label."""
    digest = hashlib.blake2b(f"{seed}/{label}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def as_rng(seed_or_rng) -> Random:
    """Accept either an integer seed or a ready random.Random instance."""
    if isinstance(seed_or_rng, Random):
        return seed_or_rng
    return Random(seed_or_rng)


class ExactSampler:
    """Exactly uniform draws over an enumerated subgroup (epsilon = 0)."""

    def __init__(self, G: GroupOracle, gens: Sequence[ElementCode], seed_or_rng=0):
        self.G = G
        self.elements = enumerate_closure(G, gens)
        self._rng = as_rng(seed_or_rng)

    def draw(self) -> ElementCode:
        return self._rng.choice(self.elements)


class SubproductSampler:
    """Near-uniform draws via random subset products of a seeded cube.

    Construction appends ``2 * (encoding_length + ceil(log2(1/epsilon)))``
    random subproducts to the generator list; the encoding length
    upper-bounds the log of the group order, and the doubled count buys
    margin against the quenched bias of reusing one fixed cube for every
    draw.  Each draw is one more random subproduct of the extended list, so
    the marginal query cost per draw grows linearly in log(1/epsilon).
    Outputs always lie in the generated subgroup.
    """

    def __init__(
        self,
        G: GroupOracle,
        gens: Sequence[ElementCode],
        epsilon: float,
        seed_or_rng=0,
    ):
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
        self.G = G
        self.epsilon = epsilon
        self._rng = as_rng(seed_or_rng)
        rounds = 2 * (G.encoding_length + math.ceil(math.log2(1.0 / epsilon)))
        self._cube = list(gens)
        for _ in range(rounds):
            self._cube.append(self._subproduct())

    def _subproduct(self) -> ElementCode:
        acc = None
        for element in self._cube:
            if self._rng.getrandbits(1):
                acc = element if acc is None else self.G.product(acc, element)
        return self.G.identity if acc is None else acc

    def draw(self) -> ElementCode:
        return self._subproduct()


def tv_distance_empirical(
    counts: Mapping[ElementCode, int],
    subgroup: Collection[ElementCode],
) -> float:
    """Total-variation distance between an empirical histogram and uniform.

    Computes (1/2) * sum over the subgroup of |freq(h) - 1/|H||.  Any
    histogram key outside the subgroup is an error: it means the sampler
    escaped the subgroup it was asked to sample from.  ``math.fsum`` is
    exactly rounded, so the set's hash-dependent order cannot change it.
    """
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("histogram is empty")
    members = set(subgroup)
    escaped = [code for code in counts if code not in members]
    if escaped:
        raise SamplerEscapeError(
            f"{len(escaped)} histogram keys lie outside the subgroup"
        )
    uniform = 1.0 / len(members)
    return 0.5 * math.fsum(abs(counts.get(code, 0) / total - uniform) for code in members)
