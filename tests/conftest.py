"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import ProtocolParams
from repro.crypto.identity import IdentityManager, Role
from repro.network.topology import Topology


def pytest_collection_modifyitems(config, items):
    """Run ``soak``-marked tests only when the marker expression names them."""
    if "soak" in (config.getoption("markexpr") or ""):
        return
    skip = pytest.mark.skip(reason="long soak variant; select with -m soak")
    for item in items:
        if "soak" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh, seeded RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def im() -> IdentityManager:
    """An Identity Manager with a small enrolled population."""
    manager = IdentityManager(seed=1)
    for k in range(3):
        manager.enroll(f"p{k}", Role.PROVIDER)
    for i in range(4):
        manager.enroll(f"c{i}", Role.COLLECTOR)
    for j in range(4):
        manager.enroll(f"g{j}", Role.GOVERNOR)
    for i in range(4):
        for k in range(3):
            manager.register_link(f"c{i}", f"p{k}")
    return manager


@pytest.fixture
def small_topology() -> Topology:
    """The default small hierarchy: 8 providers, 4 collectors, 4 governors."""
    return Topology.regular(l=8, n=4, m=4, r=2)


@pytest.fixture
def params() -> ProtocolParams:
    """Default protocol parameters."""
    return ProtocolParams(f=0.5, beta=0.9)
