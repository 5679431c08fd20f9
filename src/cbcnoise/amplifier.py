"""Linear amplifier models and their quantum noise bookkeeping.

A phase-insensitive amplifier of intensity gain G = g^2 cannot avoid coupling
to an idler mode: the output field is g*a + sqrt(g^2-1)*conj(b) with b a
vacuum ancilla.  Each output quadrature then carries (2G-1) vacuum units of
noise, which approaches the familiar factor-of-two (3 dB) penalty at high
gain.  A measure-and-prepare chain pays twice, once for the simultaneous
two-quadrature measurement and once for re-preparation, giving (2G+1) units.
A phase-sensitive amplifier rescales the two quadratures by G and 1/G and
adds nothing but its classical excess n_cl.

Noise budgets here split a variance into a quantum floor, which is exactly
one vacuum unit for any field built on coherent states, and classical excess
in the same units.  Amplification keeps the floor at one unit and moves
everything it adds, plus G times all input noise above the floor, quantum or
classical, into the classical part: 1 unit in, (1 + 2*(G-1)) out.  Folding
stages of a cascade therefore reproduces the single-amplifier law for the
total gain, so splitting a gain into stages buys nothing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .coherent import (VAR_COH, QuadratureStats, RngStream, _finite, _fits, _scalar, _whole,
                       as_generator, gaussian_field, run_chunks)

KINDS = ("quantum_limited", "measure_prepare", "phase_sensitive")


@dataclass(frozen=True)
class AmplifierSpec:
    """Amplifier description: amplitude gain g, model kind, classical excess.

    ``gain`` is the intensity gain G = g^2.  ``n_cl`` adds classical noise of
    2*G*n_cl vacuum units at the output (zero for an ideal device).
    """

    g: float
    kind: str = "quantum_limited"
    n_cl: float = 0.0

    def __post_init__(self):
        _finite(self, "g", "n_cl")
        if self.kind not in KINDS:
            raise ValueError(f"unknown amplifier kind {self.kind!r}")
        if self.kind == "phase_sensitive":
            if self.g <= 0:
                raise ValueError("phase-sensitive gain must be positive")
        elif self.g < 1.0:
            raise ValueError("phase-insensitive amplifiers need G = g^2 >= 1")
        if self.n_cl < 0:
            raise ValueError("classical excess must be nonnegative")

    @property
    def gain(self) -> float:
        return self.g * self.g


def _gain_spec(big_g: float, kind: str = "quantum_limited", n_cl: float = 0.0) -> AmplifierSpec:
    """AmplifierSpec of intensity gain G = big_g, which must be positive and a finite float."""
    if not 0 < big_g <= sys.float_info.max:
        raise ValueError(f"G must be positive and finite, got {big_g!r}")
    return AmplifierSpec(math.sqrt(big_g), kind, n_cl)


@dataclass(frozen=True)
class NoiseBudget:
    """Per-quadrature variance split into vacuum units.

    ``quantum_units`` is the Heisenberg floor (1 for any coherent-state
    field), ``classical_units`` everything above it.
    """

    quantum_units: float
    classical_units: float = 0.0

    def __post_init__(self):
        _finite(self, "quantum_units", "classical_units")
        if self.quantum_units <= 0:
            raise ValueError("quantum part must be positive")
        if self.classical_units < 0:
            raise ValueError("classical part must be nonnegative")

    @property
    def total_units(self) -> float:
        return self.quantum_units + self.classical_units

    @property
    def total_variance(self) -> float:
        return self.total_units * VAR_COH


def amplify_sample(field, spec: AmplifierSpec, rng, size=None):
    """Push field samples through one amplifier stage.

    quantum_limited: g*a + sqrt(g^2-1)*conj(v) with a fresh vacuum sample v.
    measure_prepare: simultaneous two-quadrature measurement (one extra
    vacuum unit), classical gain g on the record, re-preparation (one more
    unit).  phase_sensitive: x scaled by g, p by 1/g.  Every kind adds its n_cl excess.
    Vacuum and excess terms are ``gaussian_field`` draws in a fixed order, one Philox
    word per sample each, even at zero weight, so the stream position does not depend
    on the gain.
    """
    gen = as_generator(rng)
    a = np.asarray(field, dtype=complex)
    a = a if size is None else np.broadcast_to(a, size)
    g = spec.g
    if spec.kind == "phase_sensitive":
        # x*g and p*(1/g), the bits of g*x + 1j*p/g (numpy's complex division by g multiplies
        # by 1/g) up to the sign of an exact zero, written into the two parts of one array
        out = np.empty(a.shape, complex)
        np.multiply(a.real, g, out=out.real)
        np.multiply(a.imag, 1.0 / g, out=out.imag)
    elif spec.kind == "quantum_limited":
        # the idler conjugated and scaled in its own memory, then g*a added: float addition
        # commutes, so every bit is as with g*a first
        out = gaussian_field(0.0, gen, shape=a.shape)
        np.conjugate(out, out=out)
        out *= math.sqrt(g * g - 1.0)
        out += g * a
    else:  # measure_prepare: measure with one vacuum, re-prepare with another
        out = gaussian_field(g * gaussian_field(a, gen), gen)
    if spec.n_cl > 0:
        # classical excess worth 2*G*n_cl vacuum units, split over quadratures
        out = gaussian_field(out, gen, math.sqrt(2.0 * spec.gain * spec.n_cl * VAR_COH))
    return _scalar(out, complex)


def predict_variance(spec: AmplifierSpec, budget: NoiseBudget) -> NoiseBudget:
    """Transform a noise budget through one amplifier stage.

    The quantum floor stays at one unit; added noise and G times all input noise above
    the floor, quantum or classical, land in the classical part.  For the phase-sensitive
    case the returned budget describes the amplified quadrature, both parts scaled by G.
    Every kind then adds its 2*G*n_cl units of classical excess.  A budget that overflows
    is an error naming G, or n_cl if only the excess does.
    """
    if budget.quantum_units < 1.0:
        raise ValueError("input below the Heisenberg floor is unphysical here")
    big_g = spec.gain
    quantum = 1.0
    above = budget.classical_units + (budget.quantum_units - 1.0)  # + 0.0 on a unit floor
    if spec.kind == "phase_sensitive":
        quantum, classical = big_g * budget.quantum_units, big_g * budget.classical_units
    elif spec.kind == "quantum_limited":
        classical = big_g * above + 2.0 * (big_g - 1.0)
    else:  # measure_prepare
        classical = big_g * (2.0 + above)
    excess = 2.0 * spec.n_cl * big_g  # 0, not inf * 0, when n_cl = 0 and 2*G overflows
    for name, units in (("G", classical), ("n_cl", classical + excess)):
        if not math.isfinite(units):
            raise ValueError(f"{name} puts the amplifier noise out of float range")
    return NoiseBudget(quantum, classical + excess)


def cascade(specs, budget: NoiseBudget) -> NoiseBudget:
    """Fold ``predict_variance`` over stages of any kind, in order.

    An empty chain returns the input unchanged; after a phase-sensitive stage the budget
    describes the amplified quadrature.  For a pure input through quantum-limited stages the
    result depends only on the total gain: any split of G lands on (1 + 2*(G-1)) total units.
    """
    for spec in specs:
        budget = predict_variance(spec, budget)
    return budget


def equal_stages(total_gain: float, stages: int) -> list:
    """A chain of equal quantum-limited stages with total intensity gain total_gain >= 1."""
    stages = _whole("stages", stages)
    if stages < 1:
        raise ValueError("need at least one stage")
    if not 1.0 <= total_gain < math.inf:
        raise ValueError(f"quantum-limited stages need a finite total G >= 1, got {total_gain!r}")
    return [AmplifierSpec(g=total_gain ** (1.0 / (2.0 * stages)))] * stages


def predict_chain(chain, input_units=1.0) -> dict:
    """Predicted mean_x, var_x and var_p of a (total G, specs) chain on an input of amplitude 1
    and input_units of noise: var_x is ``cascade`` on it; a phase-sensitive stage shrinks p."""
    total_gain, specs = chain
    budget = cascade(specs, NoiseBudget(1.0, input_units - 1.0))
    var_p = budget.total_variance
    if specs[0].kind == "phase_sensitive":  # an amp point's one stage; p shrinks by 1/G
        var_p = (input_units / specs[0].gain + 2.0 * specs[0].n_cl * specs[0].gain) * VAR_COH
    return {"mean_x": math.sqrt(total_gain), "var_x": budget.total_variance, "var_p": var_p}


def chain_kernel(chain, trials, mean=1.0, input_var=VAR_COH):
    """(kernel, width) for ``run_chunks``: a Gaussian input through a (total G, specs) chain.

    Each trial draws a ``gaussian_field`` about ``mean`` of per-quadrature variance
    ``input_var`` (default: a coherent state) and passes it through the specs in order on
    the same generator; the width is the stage count.  Before any draw, the predicted
    variances must fit floats at ``trials``, blaming G, else n_cl, else input_var.
    """
    total_gain, specs = chain
    n_cl = specs[0].n_cl
    for name, value, excess, units in (("G", total_gain, 0.0, 1.0), ("n_cl", n_cl, n_cl, 1.0),
                                       ("input_var", input_var, n_cl, input_var / VAR_COH)):
        var = predict_chain((total_gain, [replace(s, n_cl=excess) for s in specs]), units)
        _fits(name, value, (var["var_x"], var["var_p"]), trials)
    sigma = math.sqrt(input_var)

    def kernel(count, gen):
        fields = gaussian_field(mean, gen, sigma, count)
        for spec in specs:
            fields = amplify_sample(fields, spec, gen)
        return fields
    return kernel, len(specs)


def amplify_classical_input(spec: AmplifierSpec, input_var: float, trials: int,
                            rng: RngStream) -> QuadratureStats:
    """Monte Carlo of one stage driven by a classically noisy input.

    The zero-mean input has per-quadrature variance ``input_var`` (at least
    the coherent floor VAR_COH).  The interesting ratio is measured output
    variance over G*input_var: it tends to one as the input noise swamps
    the amplifier's own contribution, which is why the quantum penalty only
    bites for clean inputs.
    """
    if not VAR_COH <= input_var < math.inf:
        raise ValueError(f"input_var must be finite and at least {VAR_COH}, got {input_var!r}")
    if input_var / VAR_COH == math.inf:  # the chain counts its noise in vacuum units
        raise ValueError(f"input_var {input_var!r} is beyond float range in vacuum units")
    return run_chunks(*chain_kernel((spec.gain, [spec]), trials, 0.0, input_var), trials, rng)


def simulate_amplifier(spec: AmplifierSpec, trials: int, rng: RngStream) -> QuadratureStats:
    """Monte Carlo of one stage driven by an ideal coherent input of amplitude 1."""
    return run_chunks(*chain_kernel((spec.gain, [spec]), trials), trials, rng)


def simulate_cascade(total_gain: float, stages: int, trials: int,
                     rng: RngStream) -> QuadratureStats:
    """Monte Carlo of equal quantum-limited stages on a coherent input of amplitude 1.

    Each stage has intensity gain total_gain**(1/stages); the measured output
    variance should match the single-stage law for the total gain.
    """
    chain = (total_gain, equal_stages(total_gain, stages))
    return run_chunks(*chain_kernel(chain, trials), trials, rng)
