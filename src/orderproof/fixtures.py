"""Built-in group fixtures for experiments and tests."""

from __future__ import annotations

from dataclasses import dataclass

from .groups import make_group, parse_group_spec
from .polycyclic import NotSolvableError, compute_pcgs, group_order


@dataclass(frozen=True)
class Fixture:
    name: str
    spec: str
    primes: tuple[int, ...]
    note: str = ""


CATALOG: tuple[Fixture, ...] = (
    Fixture("cyclic12", "cyclic:12", (2, 3)),
    Fixture("c3xc9", "direct:cyclic:3,cyclic:9", (3,), note="a 3-group"),
    Fixture("s3", "perm:3:(1 2),(1 2 3)", (2, 3)),
    Fixture("s4", "perm:4:(1 2),(1 2 3 4)", (2, 3)),
    Fixture("d4", "perm:4:(1 2 3 4),(1 3)", (2,), note="dihedral of order 8"),
    Fixture("a4", "perm:4:(1 2 3),(2 3 4)", (2, 3)),
    Fixture("a5", "perm:5:(1 2 3),(3 4 5)", (2, 3, 5), note="not solvable"),
)

#: The fixtures every protocol-level experiment and acceptance check covers.
PROTOCOL_FIXTURES = ("cyclic12", "c3xc9", "s3", "s4", "d4")


def get_fixture(name: str) -> Fixture:
    for fixture in CATALOG:
        if fixture.name == name:
            return fixture
    known = ", ".join(f.name for f in CATALOG)
    raise KeyError(f"unknown fixture {name!r}; known: {known}")


def fixture_report() -> list[dict]:
    """Catalog with live-computed orders and solvability flags."""
    rows = []
    for fixture in CATALOG:
        G = make_group(parse_group_spec(fixture.spec))
        order = group_order(G)
        try:
            compute_pcgs(G)
            solvable = True
        except NotSolvableError:
            solvable = False
        rows.append(
            {
                "name": fixture.name,
                "spec": fixture.spec,
                "order": order,
                "primes": list(fixture.primes),
                "solvable": solvable,
                "note": fixture.note,
            }
        )
    return rows
