import os
import random
import signal
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


# the wall-clock bound of one test's call, far above the 9-20 s of the slowest test
TEST_BOUND_S = 300


class _BoundExceeded(BaseException):
    """Raised in a test's call when it outlives ``TEST_BOUND_S``: a
    BaseException, so that no ``except Exception`` in the code under test
    swallows it and hypothesis passes it on at once instead of shrinking."""


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Fail a test whose call runs past ``TEST_BOUND_S`` (a search gone wrong
    can backtrack without end), and go on with the next test.

    The timeout is reported by message alone: a frame that the signal
    interrupts can have no line number, which pytest cannot print.
    """

    def expire(signum, frame):
        raise _BoundExceeded

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_BOUND_S)
    try:
        return (yield)
    except _BoundExceeded:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    pytest.fail(f"the test ran past its {TEST_BOUND_S} s bound", pytrace=False)


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
    """Make the join, meet or leq ("leq": the down sets) of the lattice's
    bare ``context``, which the oracle reads, wrong.

    The join of two distinct elements becomes the top, which still contains
    both, so only the order of the product can tell; the meet becomes the
    bottom; the top joins the down set of the bottom.
    """
    ctx = lat.context
    bottom, top = _bottom_index(lat), _top_index(lat)
    if check == "join":
        real_join = ctx.join
        ctx.join = lambda i, j: top if i != j else real_join(i, j)
    elif check == "meet":
        real_meet = ctx.meet
        ctx.meet = lambda i, j: bottom if i != j else real_meet(i, j)
    else:
        down = list(ctx.down)
        down[bottom] |= 1 << top
        ctx.down = tuple(down)
    return lat


@pytest.fixture
def corrupt_lattice():
    return _corrupt_lattice
