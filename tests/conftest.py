"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.qpu import QPUDevice, Topology, nominal_calibration


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "fuzz: differential cross-engine fuzz tests (short budget by "
        "default; deep budget with --fuzz-deep)",
    )


def pytest_addoption(parser):
    parser.addoption(
        "--fuzz-deep",
        action="store_true",
        default=False,
        help="run the equivalence fuzzer at its deep budget "
        "(hundreds of circuits instead of the tier-1 sample)",
    )


@pytest.fixture
def fuzz_deep(request) -> bool:
    return bool(request.config.getoption("--fuzz-deep"))


def assert_close_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-8) -> None:
    """Assert two matrices/vectors are equal up to a global phase."""
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape, f"shape mismatch {a.shape} vs {b.shape}"
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    ref = b[idx]
    assert abs(ref) > 1e-12, "reference matrix is (numerically) zero"
    phase = a[idx] / ref
    assert abs(abs(phase) - 1.0) < 1e-6, f"amplitude mismatch, |phase| = {abs(phase)}"
    np.testing.assert_allclose(a, phase * b, atol=atol)


def random_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random single-qubit unitary."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def grid20() -> Topology:
    return Topology.iqm_garnet_like()


@pytest.fixture
def device() -> QPUDevice:
    return QPUDevice(seed=42)


@pytest.fixture
def snapshot(grid20):
    return nominal_calibration(grid20, rng=7)
