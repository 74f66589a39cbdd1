"""Bit-identity pins for the vectorized engine on the 1k-flow fabric legs.

The 1024-flow, 10,100-link leaf-spine leg is the benchmark's largest
workload.  Rewriting its hot loops (one packed sort for admission, the
array form of eq. 13, the row-wise admission fold) must not move a single
bit of the trajectory, so this test hashes 250 iterations — utility,
rates, populations, node and link prices and node step sizes after every
step — and compares the digest with the one the engine produced before
those rewrites.  The same leg with 64 classes per leaf and flow (262,144
classes, ~2.6k per node) is pinned the same way over 20 iterations, with
the digest recorded before admission became row-wise.

The digest depends on numpy's float64 ``log`` and ``pow``, whose SIMD
kernels vary with the numpy build and the CPU's AVX-512 support, so it is
keyed by both; on an unrecorded combination the test skips rather than
compare digests of different arithmetic.
"""

from __future__ import annotations

import hashlib
import struct
from array import array

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

from repro.core.lrgp import LRGP, LRGPConfig
from repro.workloads.registry import workload_from_spec

FABRIC_SPEC = "leafspine:flows=1024,leaves=100,leaves_per_flow=4,spines=100"
ITERATIONS = 250

#: ``(numpy version, AVX512_SKX available)`` -> sha256 of the trajectory.
PINNED_DIGESTS = {
    ("2.4.6", True): "f57f27ec9a3c1ff96f1c33abcdc099f1a9f7f63450e100bdb8bfdd9679791088",
}

#: The 262k-class leg: ~4 s to build and bind, ~25-50 ms per step.
FABRIC_262K_SPEC = FABRIC_SPEC + ",classes_per_leaf=64"
ITERATIONS_262K = 20
PINNED_262K_DIGESTS = {
    ("2.4.6", True): "48f473614448240047c5810846f9588ef061399e031a86df4152146b86eb3409",
}


def trajectory_digest(optimizer: LRGP, iterations: int) -> str:
    digest = hashlib.sha256()
    for _ in range(iterations):
        record = optimizer.step()
        allocation = optimizer.allocation()
        digest.update(struct.pack("<d", record.utility))
        rates, populations = allocation.rates, allocation.populations
        digest.update(array("d", [rates[k] for k in sorted(rates)]).tobytes())
        digest.update(
            array("q", [populations[k] for k in sorted(populations)]).tobytes()
        )
        for prices in (
            optimizer.node_prices(),
            optimizer.link_prices(),
            optimizer.node_gammas(),
        ):
            digest.update(array("d", [prices[k] for k in sorted(prices)]).tobytes())
    return digest.hexdigest()


def assert_pinned(spec: str, iterations: int, digests: dict) -> None:
    key = (np.__version__, bool(__cpu_features__.get("AVX512_SKX")))
    expected = digests.get(key)
    if expected is None:
        pytest.skip(f"no trajectory digest recorded for numpy/AVX-512 {key}")
    optimizer = LRGP(workload_from_spec(spec), LRGPConfig(engine="vectorized"))
    assert trajectory_digest(optimizer, iterations) == expected


def test_fabric_1k_trajectory_is_bit_identical():
    assert_pinned(FABRIC_SPEC, ITERATIONS, PINNED_DIGESTS)


def test_fabric_262k_trajectory_is_bit_identical():
    assert_pinned(FABRIC_262K_SPEC, ITERATIONS_262K, PINNED_262K_DIGESTS)
