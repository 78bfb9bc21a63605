import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "semiinv",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("semiinv")


@pytest.fixture
def cold_builds():
    """Clear every lru_cache builder of the package (generator_table, the
    correction solves, derive_st, trace_generators, ...), so the test runs
    each build again, as a fresh interpreter would."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("semiinv."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
