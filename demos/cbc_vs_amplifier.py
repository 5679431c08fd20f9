"""Combining many weak beams versus amplifying one of them.

Two routes to a bright beam: lock N sources of n photons together, or
push one n-photon source through an amplifier of gain N.  Both roads add
noise.  The combiner adds phase-jitter noise set by the lock quality xi;
the amplifier adds its irreducible 2N - 1 units.  Equating the two gives
a threshold xi* = (N - 1)^2 / 2: the array wins as long as its lock
stays better than that, which gets easier the more beams there are.
"""

import math

from cbcnoise import (AmplifierSpec, CbcConfig, NoiseBudget, predict_output, predict_variance,
                      xi_threshold)

PHOTONS = 1000.0


def main():
    print(f"{'N':>4}  {'cbc var_p':>10}  {'amp var':>8}  {'xi*':>7}   winner at xi = 3")
    print(f"{'':>4}  {'(units)':>10}  {'(units)':>8}")
    xi = 3.0
    for n_beams in (2, 3, 4, 8, 16, 64):
        pred = predict_output(CbcConfig(n_beams=n_beams, photons=PHOTONS, xi=xi))
        cbc_units = pred.var_p_units
        amp = AmplifierSpec(math.sqrt(n_beams))  # quantum limited, gain N
        amp_units = predict_variance(amp, NoiseBudget(1.0)).total_units  # 2N - 1
        threshold = xi_threshold(n_beams)
        winner = "combiner" if xi < threshold else "amplifier"
        print(f"{n_beams:>4}  {cbc_units:>10.3f}  {amp_units:>8.0f}  {threshold:>7.1f}   {winner}")
    print()
    print("with two beams the lock must be nearly quantum limited to pay off;")
    print("with sixty four, a lock thirty times worse than the limit still wins")
    print()
    print("same comparison from the command line:")
    print("  cbcnoise compare --N-min 2 --N-max 64 -n 1000 --xi 3")


if __name__ == "__main__":
    main()
