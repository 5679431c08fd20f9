"""Pins the benchmark's exact references.

Run with ``python3 -m pytest perfbench/test_reference.py``.
"""

import math

import numpy as np
import pytest

import reference


def test_cbc_moments_match_frozen_exact_values():
    # the exact Gaussian-phase moments frozen in the package's own tests
    # for N=2, n=100, Var(psi)=0.05
    mean_x, var_x, var_p, _, _ = reference.cbc_moments(2, 100.0, 0.05)
    assert mean_x == pytest.approx(13.792965051073782, rel=1e-12)
    assert var_x == pytest.approx(0.3689284517265743, rel=1e-12)
    assert var_p == pytest.approx(5.008129098202025, rel=1e-12)


@pytest.mark.parametrize("phase_var", [1e-4, 0.05, 0.3])
def test_cbc_fourth_cumulants_match_quadrature(phase_var):
    # Gauss-Hermite quadrature over psi ~ N(0, v) is exact to rounding for
    # the smooth integrands here
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    psi = nodes * math.sqrt(phase_var)
    weights = weights / weights.sum()

    def kappa4(values):
        centred = values - weights @ values
        return weights @ centred ** 4 - 3.0 * (weights @ centred ** 2) ** 2

    n_beams, photons = 4, 1000.0
    _, _, _, k4x, k4p = reference.cbc_moments(n_beams, photons, phase_var)
    assert k4x == pytest.approx(photons ** 2 * kappa4(np.cos(psi)) / n_beams,
                                rel=1e-6, abs=1e-9)
    assert k4p == pytest.approx(photons ** 2 * kappa4(np.sin(psi)) / n_beams,
                                rel=1e-6, abs=1e-9)


def test_amplifier_laws():
    ref = reference.stats_reference("amp", {"G": 4, "kind": "quantum_limited"}, 100)
    assert ref["var_x"][0] == 7 * 0.25 and ref["mean_x"][0] == 2.0
    ref = reference.stats_reference("amp", {"G": 4, "kind": "measure_prepare"}, 100)
    assert ref["var_p"][0] == 9 * 0.25
    ref = reference.stats_reference("amp", {"G": 4, "kind": "phase_sensitive"}, 100)
    assert ref["var_x"][0] == 1.0 and ref["var_p"][0] == 0.0625
    ref = reference.stats_reference("cascade", {"G": 16, "stages": 4}, 100)
    assert ref["var_x"][0] == 31 * 0.25 and ref["mean_x"][0] == 4.0


def test_gamma_moments():
    ref = reference.gamma_reference(8, 0.01, 100)
    assert ref["mean"][0] == pytest.approx(0.08)
    assert ref["variance"][0] == pytest.approx(0.0016)


def test_lock_gate():
    assert reference.lock_gate(2, 1000.0, 1e-3, 1.5, 0.0)
    assert not reference.lock_gate(2, 1000.0, 1e-3, 0.5, 0.0)
    assert reference.lock_gate(2, 1000.0, 0.0, 0.0, 5e-3)
    assert not reference.lock_gate(2, 1000.0, 0.0, 0.0, 2e-2)
