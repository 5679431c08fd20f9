"""Closing the loop: locking an array on photon clicks alone.

The error ports of the combiner go dark when the beams are in phase, so
the only feedback signal available near lock is the occasional photon
click.  The controller here splits each interval's photon budget into a
probe and a verification, corrects the beams that clicked, and reverts
anything the verification contradicts.  Two runs below: a clean lock
acquisition, then a run with phase drift, where the loop settles just
above the quantum limit instead of at zero.
"""

from cbcnoise import FeedbackConfig, RngStream, run_feedback, sql_phase_variance


def show_track(state, sql, every=10):
    track = state.history
    for index in range(0, len(track), every):
        bar = "#" * max(1, int(round(track[index] / sql)))
        print(f"  interval {index:3d}: Var(psi)/SQL = {track[index] / sql:8.2f}  {bar}")
    print(f"  final: {track[-1] / sql:.2f} SQL after {state.clicks_total} clicks")


def main():
    n_beams, photons = 2, 10_000.0
    sql = sql_phase_variance(n_beams, photons)
    print(f"{n_beams} beams, {photons:.0f} photons per interval, "
          f"quantum limit {sql:.1e} rad^2")
    print()

    print("lock acquisition from a 0.1 rad relative offset:")
    config = FeedbackConfig(n_beams=n_beams, photons=photons, intervals=60)
    state = run_feedback(config, RngStream(90), initial_phases=[0.05, -0.05])
    show_track(state, sql)
    print()

    print("same loop with phase drift at a tenth of the quantum limit per interval:")
    drifting = FeedbackConfig(n_beams=n_beams, photons=photons, drift_var=sql / 10,
                              intervals=300)
    state = run_feedback(drifting, RngStream(91))
    show_track(state, sql, every=50)
    ratio = state.steady_state_ratio(drifting)
    print(f"  steady state sits at {ratio:.2f} times the quantum limit;")
    print("  the loop cannot do better, because a dark error port carries no information")


if __name__ == "__main__":
    main()
