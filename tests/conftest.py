import os
from pathlib import Path

import pytest

import orderproof
from orderproof import make_group, parse_group_spec
from orderproof.fixtures import PROTOCOL_FIXTURES, get_fixture


@pytest.fixture(scope="session")
def group_for():
    """Session-wide oracle cache so normal-form tables warm up once."""
    cache = {}

    def get(spec: str):
        if spec not in cache:
            cache[spec] = make_group(parse_group_spec(spec))
        return cache[spec]

    return get


@pytest.fixture(scope="session")
def protocol_fixtures():
    """(name, spec, primes) for every solvable protocol fixture."""
    return [
        (name, get_fixture(name).spec, get_fixture(name).primes)
        for name in PROTOCOL_FIXTURES
    ]


@pytest.fixture(scope="session")
def child_env():
    """Environment for a child Python process that imports this orderproof."""
    src = str(Path(orderproof.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
