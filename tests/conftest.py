import os
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from lattower.group_spec import parse_spec
from lattower.lattice_core import Lattice, enumerate_lattice
from test_acceptance import _bottom_index, _top_index

settings.register_profile(
    "lattower",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("lattower")

# seeds the sampling order of randomized spot checks; exhaustive tests ignore it
SEED = int(os.environ.get("LATTOWER_SEED", "20260819"))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(SEED)


@pytest.fixture
def src_env() -> dict[str, str]:
    """The environment for a child Python that imports lattower from this checkout.

    The ``pythonpath`` setting of pytest reaches this process only, so
    ``src`` goes first on the child's PYTHONPATH.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class LatticeCache:
    """Session-wide store so repeated tests share one enumeration per spec."""

    def __init__(self):
        self._store: dict[str, Lattice] = {}

    def get(self, text: str) -> Lattice:
        if text not in self._store:
            self._store[text] = enumerate_lattice(parse_spec(text))
        return self._store[text]


@pytest.fixture(scope="session")
def lattices() -> LatticeCache:
    return LatticeCache()


def _corrupt_lattice(lat: Lattice, check: str) -> Lattice:
    """Make the lattice's join, meet or leq ("leq": its down sets) wrong.

    The join of two distinct elements becomes the top, which still contains
    both, so only the order of the product can tell; the meet becomes the
    bottom; the top joins the down set of the bottom.
    """
    if check == "join":
        real_join = lat.join_idx
        lat.join_idx = lambda i, j: _top_index(lat) if i != j else real_join(i, j)
    elif check == "meet":
        real_meet = lat.meet_idx
        lat.meet_idx = lambda i, j: _bottom_index(lat) if i != j else real_meet(i, j)
    else:
        down = list(lat.down_masks)
        down[_bottom_index(lat)] |= 1 << _top_index(lat)
        lat.down_masks = tuple(down)
    return lat


@pytest.fixture
def corrupt_lattice():
    return _corrupt_lattice
