"""The --cache-bound option: a run with every cache in tarl.formulas.CACHES
bounded at that weight, 0 for caches that keep only their newest entry.
Tests of one cache's own behaviour are marked cache_behaviour, and such a
run deselects them (-m "not cache_behaviour")."""

from tarl.formulas import CACHES


def pytest_addoption(parser):
    parser.addoption("--cache-bound", type=int, default=None,
                     help="bound every cache in tarl.formulas.CACHES at this weight")


def pytest_configure(config):
    bound = config.getoption("--cache-bound")
    if bound is not None:
        for cache in CACHES.values():
            cache.bound = bound
            cache.clear()
