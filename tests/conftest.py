import random

import pytest

from floerrank.seifert import SeifertTuple, make_tuple


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true", default=False,
                     help="also run the tests marked slow (minutes each)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow: pass --run-slow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


SMALL_PRIMESISH = [2, 3, 5, 7, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31,
                   37, 41, 43, 47, 49]


def random_tuple(rng: random.Random, lengths=(3, 4, 5), max_entry=50,
                 max_product=10**6, allow_degenerate=False) -> SeifertTuple:
    """A random canonical pairwise-coprime tuple within the given budget."""
    from math import gcd
    while True:
        length = rng.choice(lengths)
        chosen = []
        product = 1
        pool = list(range(2, max_entry + 1))
        rng.shuffle(pool)
        for p in pool:
            if all(gcd(p, q) == 1 for q in chosen) and product * p <= max_product:
                chosen.append(p)
                product *= p
                if len(chosen) == length:
                    break
        if len(chosen) < length:
            continue
        t = make_tuple(chosen)
        if t.is_degenerate and not allow_degenerate:
            continue
        return t


def random_delta_values(rng: random.Random, max_len=12, max_abs=5) -> list:
    """Values of a random abstract delta sequence (first positive)."""
    k = rng.randint(1, max_len)
    vals = [rng.randint(1, max_abs)]
    vals += [rng.choice([-1, 1]) * rng.randint(1, max_abs) for _ in range(k - 1)]
    return vals


@pytest.fixture
def rng():
    return random.Random(20230815)
