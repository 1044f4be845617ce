import importlib.util
import os
import sys
import types

import pytest

from entroflux import linalg, selftest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="session")
def bench():
    """``bench/workloads.py`` and ``bench/outputs.py``, loaded from their files."""
    modules = {}
    for name in ("workloads", "outputs"):
        spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                      os.path.join(BENCH, f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
        modules[name] = module
    return types.SimpleNamespace(**modules)


@pytest.fixture
def corrupt_validation_states(monkeypatch):
    """Scale to trace 1.1 every state the selftest's density-validation suite draws.

    Only that suite's calls of ``linalg.random_density`` are changed; every
    other suite draws the states it always did.
    """
    real = linalg.random_density
    suite = selftest.suite_density_validation.__code__

    def random_density(*args, **kwargs):
        rho = real(*args, **kwargs)
        return rho * 1.1 if sys._getframe(1).f_code is suite else rho

    monkeypatch.setattr(linalg, "random_density", random_density)
