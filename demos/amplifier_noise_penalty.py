"""The price of linear amplification, and when it stops mattering.

A phase-insensitive amplifier of intensity gain G cannot help adding
noise: a pure input leaves with 2G - 1 units of shot noise instead of 1.
Measuring and re-preparing costs two more units.  Splitting the gain
over a cascade of quantum-limited stages changes nothing.  And once the
input itself is classically noisy, the penalty fades: the noise figure
drops from 2 toward 1.
"""

import math

from cbcnoise import (
    AmplifierSpec,
    NoiseBudget,
    RngStream,
    VAR_COH,
    amplify_classical_input,
    cascade,
    predict_variance,
    simulate_amplifier,
)

VACUUM = NoiseBudget(1.0)


def added_noise_table():
    print(f"{'G':>4}  {'quantum limited':>15}  {'measure/prepare':>15}  units of shot noise")
    for big_g in (1.0, 2.0, 4.0, 16.0, 100.0):
        g = math.sqrt(big_g)
        ql = predict_variance(AmplifierSpec(g), VACUUM).total_units
        mp = predict_variance(AmplifierSpec(g, kind="measure_prepare"), VACUUM).total_units
        print(f"{big_g:4.0f}  {ql:15.1f}  {mp:15.1f}")


def cascade_split():
    print("total gain 4 split into equal quantum-limited stages:")
    for stages in (1, 2, 3, 4, 8):
        g_stage = 4.0 ** (1.0 / (2 * stages))
        total = cascade([AmplifierSpec(g_stage)] * stages, VACUUM).total_units
        print(f"  {stages} stage(s): {total:.12f} units")
    print("the split does not matter, only the total gain does")


def monte_carlo_check():
    spec = AmplifierSpec(2.0)
    stats = simulate_amplifier(spec, 200_000, RngStream(81))
    print(f"G = 4 Monte Carlo: var_x = {stats.var_x:.4f} (prediction 1.75), "
          f"var_p = {stats.var_p:.4f}")


def noise_figure_sweep():
    big_g = 100.0
    print(f"{'input var / Var_coh':>20}  {'noise figure':>12}")
    for units in (1.0, 2.0, 5.0, 20.0, 100.0):
        input_var = units * VAR_COH
        if units == 1.0:
            # a pure input: use the closed form, the Monte Carlo needs a mean
            nf = predict_variance(AmplifierSpec(math.sqrt(big_g)), VACUUM).total_units / big_g
        else:
            stats = amplify_classical_input(AmplifierSpec(math.sqrt(big_g)), input_var,
                                            100_000, RngStream(83).substream(int(units)))
            nf = stats.var_x / (big_g * input_var)
        print(f"{units:>20.0f}  {nf:12.4f}")
    print("the 3 dB penalty applies to clean inputs; noisy ones barely notice")


def main():
    added_noise_table()
    print()
    cascade_split()
    print()
    monte_carlo_check()
    print()
    noise_figure_sweep()


if __name__ == "__main__":
    main()
