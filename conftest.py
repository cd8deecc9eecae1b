"""Test isolation for the whole repository (tests/ and perfbench/).

gkzmono keeps every A-side result in the memo of the Configuration it
belongs to, and equal matrices share one Configuration through the one
module-level lru_cache, cones._normalize_matrix.  Clearing every package
lru_cache before each test (tests/test_classify.py checks that this is that
one cache) drops the shared configurations and their memos, so results,
call counts and traced spans do not depend on which tests ran before, and
any collection order gives the same outcome.
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
