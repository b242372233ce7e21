import math
from collections import Counter

import pytest

from orderproof import (
    ExactSampler,
    SamplerEscapeError,
    SubproductSampler,
    derive_seed,
    enumerate_closure,
    tv_distance_empirical,
)


def test_exact_empty_generators_always_identity(group_for):
    G = group_for("cyclic:12")
    sampler = ExactSampler(G, [], 0)
    assert all(sampler.draw() == G.identity for _ in range(50))


def test_subproduct_empty_generators_always_identity(group_for):
    G = group_for("cyclic:12")
    sampler = SubproductSampler(G, [], 2.0**-8, 0)
    assert all(sampler.draw() == G.identity for _ in range(50))


def test_exact_cyclic2_frequencies(group_for):
    G = group_for("cyclic:2")
    sampler = ExactSampler(G, G.generators, 3)
    counts = Counter(sampler.draw() for _ in range(10_000))
    for code in enumerate_closure(G, G.generators):
        assert 0.47 <= counts[code] / 10_000 <= 0.53


@pytest.mark.parametrize("spec", ["cyclic:12", "perm:3:(1 2),(1 2 3)", "perm:4:(1 2 3 4),(1 3)"])
def test_exact_frequencies_within_four_sd(group_for, spec):
    G = group_for(spec)
    members = enumerate_closure(G, G.generators)
    draws = 100_000
    sampler = ExactSampler(G, G.generators, 11)
    counts = Counter(sampler.draw() for _ in range(draws))
    p = 1.0 / len(members)
    sd = math.sqrt(p * (1 - p) / draws)
    for code in members:
        assert abs(counts[code] / draws - p) <= 4 * sd


def test_subproduct_stays_inside_subgroup(group_for):
    G = group_for("cyclic:12")
    g = G.generators[0]
    sub_gens = [G.power(g, 3)]
    members = set(enumerate_closure(G, sub_gens))
    assert len(members) == 4
    sampler = SubproductSampler(G, sub_gens, 2.0**-8, 7)
    for _ in range(2000):
        assert sampler.draw() in members


def test_subproduct_tv_small_on_s3(group_for):
    G = group_for("perm:3:(1 2),(1 2 3)")
    sampler = SubproductSampler(G, G.generators, 2.0**-8, 2)
    counts = Counter(sampler.draw() for _ in range(20_000))
    members = enumerate_closure(G, G.generators)
    assert tv_distance_empirical(counts, members) <= 0.05


def test_one_shot_draws(group_for):
    G = group_for("cyclic:12")
    members = set(enumerate_closure(G, G.generators))
    assert ExactSampler(G, G.generators, 1).draw() in members
    assert SubproductSampler(G, G.generators, 2.0**-6, 1).draw() in members


def test_tv_distance_exact_uniform_is_zero(group_for):
    G = group_for("cyclic:12")
    members = enumerate_closure(G, G.generators)
    counts = {code: 5 for code in members}
    assert tv_distance_empirical(counts, members) == 0.0


def test_tv_distance_point_mass_on_two_element_group(group_for):
    G = group_for("cyclic:2")
    members = enumerate_closure(G, G.generators)
    counts = {G.identity: 100}
    assert tv_distance_empirical(counts, members) == pytest.approx(0.5)


def test_tv_distance_exact_sampler_concentrates(group_for):
    G = group_for("cyclic:12")
    members = enumerate_closure(G, G.generators)
    sampler = ExactSampler(G, G.generators, 9)
    counts = Counter(sampler.draw() for _ in range(100_000))
    assert tv_distance_empirical(counts, members) <= 0.02


def test_tv_distance_rejects_escaped_elements(group_for):
    G = group_for("cyclic:12")
    g = G.generators[0]
    sub = enumerate_closure(G, [G.power(g, 6)])
    with pytest.raises(SamplerEscapeError):
        tv_distance_empirical({g: 3}, sub)


def test_tv_distance_rejects_empty_histogram(group_for):
    G = group_for("cyclic:12")
    with pytest.raises(ValueError):
        tv_distance_empirical({}, enumerate_closure(G, G.generators))


def test_epsilon_validation(group_for):
    G = group_for("cyclic:12")
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            SubproductSampler(G, G.generators, bad, 0)


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(1, "verifier") == derive_seed(1, "verifier")
    assert derive_seed(1, "verifier") != derive_seed(1, "prover")
    assert derive_seed(1, "verifier") != derive_seed(2, "verifier")


def test_samplers_are_deterministic_per_seed(group_for):
    G = group_for("perm:3:(1 2),(1 2 3)")
    a = SubproductSampler(G, G.generators, 2.0**-6, 42)
    b = SubproductSampler(G, G.generators, 2.0**-6, 42)
    assert [a.draw() for _ in range(30)] == [b.draw() for _ in range(30)]
