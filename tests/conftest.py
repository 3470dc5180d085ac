import random
import signal
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

pytest_plugins = ["pytester"]

from maxplus import MaxPlusMatrix, max_cycle_mean, negate, scalar_times


def rand_weight(rng: random.Random, lo: int = -5, hi: int = 5) -> Fraction:
    den = rng.choice((1, 1, 2, 3, 4))
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_matrix(rng: random.Random, n: int, density: float = 0.6) -> MaxPlusMatrix:
    rows = []
    for _ in range(n):
        rows.append(
            [rand_weight(rng) if rng.random() < density else None for _ in range(n)]
        )
    return MaxPlusMatrix(rows)


def random_cyclic_matrix(rng: random.Random, n: int, density: float = 0.6) -> MaxPlusMatrix:
    """A random matrix whose digraph has at least one cycle."""
    while True:
        a = random_matrix(rng, n, density)
        if not max_cycle_mean(a).is_bottom:
            return a


def random_irreducible(rng: random.Random, n: int, density: float = 0.4) -> MaxPlusMatrix:
    """Random strongly connected matrix: a random Hamiltonian cycle plus noise."""
    order = list(range(n))
    rng.shuffle(order)
    rows = [[None] * n for _ in range(n)]
    for k in range(n):
        rows[order[k]][order[(k + 1) % n]] = rand_weight(rng)
    for i in range(n):
        for j in range(n):
            if rows[i][j] is None and rng.random() < density:
                rows[i][j] = rand_weight(rng)
    return MaxPlusMatrix(rows)


def random_reducible(rng: random.Random, n: int, density: float = 0.6) -> MaxPlusMatrix:
    """Random matrix on two blocks of nodes, 0..cut-1 and cut..n-1, with
    arcs within each block and from the first into the second only."""
    cut = rng.randint(0, n)
    return MaxPlusMatrix([
        [x if (i < cut) == (j < cut) or i < cut <= j else None for j, x in enumerate(row)]
        for i, row in enumerate(random_matrix(rng, n, density).raw())
    ])


def normalized(a: MaxPlusMatrix) -> MaxPlusMatrix:
    """Subtract the maximum cycle mean, so the result has cycle mean 0."""
    lam = max_cycle_mean(a)
    return scalar_times(negate(lam), a)


def random_strictly_below(rng: random.Random, bound: MaxPlusMatrix, prob: float = 0.5) -> MaxPlusMatrix:
    """A random matrix strictly dominated by `bound` (entrywise, exactly)."""
    raw = bound.raw()
    rows = []
    for i in range(bound.n):
        row = []
        for j in range(bound.n):
            ceiling = raw[i][j]
            if ceiling is not None and rng.random() < prob:
                row.append(ceiling - Fraction(rng.randint(1, 8), rng.choice((1, 2, 4))))
            else:
                row.append(None)
        rows.append(row)
    return MaxPlusMatrix(rows)


@pytest.fixture
def rng():
    return random.Random(20240611)


PER_TEST_SECONDS = 120  # the slowest test takes about 7 s on a 2-vCPU machine


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the code under test once it runs past seconds,
    so a loop that never ends fails its test instead of hanging the run.
    An enclosing deadline is re-armed with what is left of it; without
    interval timers (Windows) nothing is armed."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    handler = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        if outer:
            signal.setitimer(signal.ITIMER_REAL, max(outer - (time.monotonic() - start), 1e-3))


@pytest.fixture(autouse=True)
def _per_test_deadline():
    with deadline(PER_TEST_SECONDS):
        yield


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """An expired deadline fails its test alone, reported by its message.
    The failure is raised outside the handler, with no link to the
    TimeoutError, so the report walks none of the frames the alarm
    interrupted: an entry there may have no line number, and pytest's
    report of one ends the whole session with an INTERNALERROR."""
    try:
        return (yield)
    except TimeoutError as exc:
        expired = str(exc)
    pytest.fail(expired, pytrace=False)
