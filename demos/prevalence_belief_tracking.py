#!/usr/bin/env python3
# Bayesian prevalence tracking: is this month's event rate still the rate
# the model was validated against?
#
# A Beta belief is frozen after the first month as the baseline. Each later
# month gets its own fresh belief, and the drift score is the folded
# probability that the two beliefs disagree about the underlying rate:
# ~0.5 means indistinguishable, ~1.0 means the rate has moved.

from riskwatch import (
    BetaPosterior,
    canonical_scenario,
    drift_score,
    generate_arrays,
    update_batch,
)


def main():
    arrays = generate_arrays(canonical_scenario())

    baseline = None
    print(f"{'month':>5} {'events':>7} {'mean':>7} {'drift':>7}")
    for m in sorted(set(arrays["period"].tolist())):
        y = arrays["y"][arrays["period"] == m]
        pos = int(y.sum())
        belief = update_batch(BetaPosterior(), pos, y.size - pos)
        if baseline is None:
            baseline = belief  # frozen: everything after is compared to this

        score = drift_score(baseline, belief)
        flag = " <-- rate has moved" if score > 0.95 and m > 1 else ""
        print(f"{m:>5} {pos:>7} {belief.mean:>7.4f} {score:>7.4f}{flag}")

    # the score is symmetric in direction and needs no tuning constants;
    # two beliefs that overlap heavily simply cannot score high
    a = BetaPosterior(100, 900)
    for other, label in [
        (BetaPosterior(101, 899), "one extra event"),
        (BetaPosterior(130, 870), "3% more events"),
        (BetaPosterior(250, 750), "rate up 2.5x"),
    ]:
        print(f"Beta(100,900) vs Beta({other.a:.0f},{other.b:.0f}) "
              f"({label:>15}): {drift_score(a, other):.4f}")


if __name__ == "__main__":
    main()
