"""Exact references for every output the benchmark checks.

Written independently of the package, so a speed-up that changes the
physics fails here rather than passing as a gain.  Monte Carlo outputs are
compared at K_SE standard errors, where the standard error of each sample
variance comes from the exact fourth cumulant of the sampled distribution,
not from a Gaussian assumption.  Closed forms are compared at a relative
tolerance of 1e-12.
"""

from __future__ import annotations

import math

VAR_COH = 0.25
K_SE = 5.0
REL_TOL = 1e-12


def cbc_moments(n_beams, photons, phase_var):
    """Exact combined-port moments for iid Gaussian phase errors.

    Returns (mean_x, var_x, var_p, kappa4_x, kappa4_p): the mean amplitude
    sqrt(N n) e^(-v/2), the quadrature variances 1/4 + n(1-e^(-v))^2/2 and
    1/4 + n(1-e^(-2v))/2, and the fourth cumulant of each quadrature, which
    sets the standard error of the variance estimates.
    """
    v = phase_var
    n = photons
    a = math.exp(-v / 2.0)  # E cos(k psi) = a**(k*k)
    mean_x = math.sqrt(n_beams * n) * a
    var_x = VAR_COH + n * (1.0 - math.exp(-v)) ** 2 / 2.0
    var_p = VAR_COH + n * (1.0 - math.exp(-2.0 * v)) / 2.0
    # central moments of cos(psi) and sin(psi) from their Fourier moments
    c2 = (1.0 + a ** 4) / 2.0
    c3 = (3.0 * a + a ** 9) / 4.0
    c4 = (3.0 + 4.0 * a ** 4 + a ** 16) / 8.0
    mu2_c = c2 - a * a
    mu4_c = c4 - 4.0 * a * c3 + 6.0 * a * a * c2 - 3.0 * a ** 4
    s2 = (1.0 - a ** 4) / 2.0
    s4 = (3.0 - 4.0 * a ** 4 + a ** 16) / 8.0
    # a sum of N iid beams scaled by 1/sqrt(N) divides the fourth cumulant by N;
    # the Gaussian vacuum adds none
    kappa4_x = n * n * (mu4_c - 3.0 * mu2_c * mu2_c) / n_beams
    kappa4_p = n * n * (s4 - 3.0 * s2 * s2) / n_beams
    return mean_x, var_x, var_p, kappa4_x, kappa4_p


def se_variance(var, kappa4, trials):
    """Standard error of an unbiased sample variance: sqrt((2 var^2 + kappa4) / T)."""
    return math.sqrt((2.0 * var * var + kappa4) / trials)


def cbc_phase_var(record):
    n_beams = int(record["N"])
    if record.get("phase_var") not in (None, ""):
        return float(record["phase_var"])
    return float(record["xi"]) / ((n_beams - 1) * float(record["n"]))


def _gaussian(mean_x, var_x, var_p, trials):
    """Reference for a Gaussian output field: (value, se) by measured name."""
    return {
        "mean_x": (mean_x, math.sqrt(var_x / trials)),
        "mean_p": (0.0, math.sqrt(var_p / trials)),
        "var_x": (var_x, se_variance(var_x, 0.0, trials)),
        "var_p": (var_p, se_variance(var_p, 0.0, trials)),
    }


def stats_reference(experiment, record, trials):
    """Exact (value, se) for every measured moment of a stats experiment."""
    if experiment == "cbc":
        n_beams = int(record["N"])
        mean_x, var_x, var_p, k4x, k4p = cbc_moments(
            n_beams, float(record["n"]), cbc_phase_var(record))
        return {
            "mean_x": (mean_x, math.sqrt(var_x / trials)),
            "mean_p": (0.0, math.sqrt(var_p / trials)),
            "var_x": (var_x, se_variance(var_x, k4x, trials)),
            "var_p": (var_p, se_variance(var_p, k4p, trials)),
        }
    big_g = float(record["G"])
    g = math.sqrt(big_g)
    if experiment == "cascade":
        # stages of one quantum-limited law compose to the total gain
        var = (2.0 * big_g - 1.0) * VAR_COH
        return _gaussian(g, var, var, trials)
    kind = str(record.get("kind", "quantum_limited"))
    if kind == "phase_sensitive":
        return _gaussian(g, big_g * VAR_COH, VAR_COH / big_g, trials)
    units = 2.0 * big_g - 1.0 if kind == "quantum_limited" else 2.0 * big_g + 1.0
    return _gaussian(g, units * VAR_COH, units * VAR_COH, trials)


def gamma_reference(n_terms, phase_var, trials):
    """sum(psi_k^2) is gamma(N/2, 2v): mean N v, variance 2 N v^2, excess kurtosis 12/N."""
    mean = n_terms * phase_var
    var = 2.0 * n_terms * phase_var ** 2
    return {
        "mean": (mean, math.sqrt(var / trials)),
        "variance": (var, var * math.sqrt((2.0 + 12.0 / n_terms) / trials)),
    }


def worst_z(reference, measured):
    """Largest |measured - value| / se over the reference's quantities."""
    return max(abs(float(measured[name]) - value) / se
               for name, (value, se) in reference.items())


def lock_gate(n_beams, photons, drift_var, steady_ratio, final_var):
    """A drifting loop cannot hold below the single-interval quantum limit;
    a loop without drift must settle within 10x of it."""
    if drift_var > 0:
        return math.isfinite(steady_ratio) and steady_ratio >= 1.0
    sql = 1.0 / ((n_beams - 1) * photons)
    return final_var <= 10.0 * sql


def close(a, b):
    return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=0.0)


def predict_records_ok(records, n_beams, photons, xi):
    """The predict command's closed forms: quadratic CBC predictors, the
    single-amplifier law at G = N, and the break-even factor (N-1)^2/2."""
    v = xi / ((n_beams - 1) * photons)
    expected = {
        "cbc": {
            "phase_var": v,
            "mean_amplitude": math.sqrt(n_beams * photons) * (1.0 - v / 2.0),
            "var_x": VAR_COH + photons * v * v / 2.0,
            "var_p": VAR_COH + photons * v,
        },
        "amp": {"var_units": 2.0 * n_beams - 1.0},
        "threshold": {"xi_star": (n_beams - 1) ** 2 / 2.0},
    }
    by_kind = {rec["kind"]: rec for rec in records}
    if set(by_kind) != set(expected):
        return False
    return all(close(by_kind[kind][name], value)
               for kind, values in expected.items() for name, value in values.items())


def compare_records_ok(records, n_min, n_max, photons, xi):
    """The compare command's table: 1 + 4 xi/(N-1) against 2N - 1 per N."""
    if [int(r["N"]) for r in records] != list(range(n_min, n_max + 1)):
        return False
    for rec in records:
        n_beams = int(rec["N"])
        cbc_units = 1.0 + 4.0 * xi / (n_beams - 1)
        amp_units = 2.0 * n_beams - 1.0
        ok = (close(rec["cbc_var_p_units"], cbc_units)
              and close(rec["amp_var_units"], amp_units)
              and close(rec["xi_star"], (n_beams - 1) ** 2 / 2.0)
              and close(rec["phase_var"], xi / ((n_beams - 1) * photons))
              and bool(int(rec["cbc_worse"])) == (cbc_units > amp_units))
        if not ok:
            return False
    return True
