"""Test isolation for the whole repository (tests/ and perfbench/).

gkzmono memoizes A-side work in module-level lru_caches, and equal matrices
share one normalized Configuration across calls.  Clearing every such cache
before each test keeps results, call counts and traced spans independent of
which tests ran before, so any collection order gives the same outcome.
"""

import sys

import pytest


def _package_caches():
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "gkzmono" or name.startswith("gkzmono.")):
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name:
                yield value


@pytest.fixture(autouse=True)
def fresh_gkzmono_caches():
    for cache in _package_caches():
        cache.cache_clear()
