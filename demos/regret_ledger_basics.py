#!/usr/bin/env python3
# Decision regret from first principles, then on a simulated deployment.
#
# A ledger is a list of entries whose sequence numbers strictly rise. Every
# entry stores the loss of every action that was available, so the ledger
# can answer two different questions after the fact:
#   cumulative   - how much worse than the per-step optimum did we do
#   best_fixed   - how much worse than the single best constant policy

from riskwatch import (
    DecisionLedgerEntry,
    TimeIndex,
    best_fixed_action_regret,
    cumulative_regret,
    generate,
    preset,
    safety_exposure,
)

MONITOR, ACT = 0, 1


def tiny_worked_example():
    # (chosen, monitor loss, act loss)
    steps = [
        (MONITOR, 0.00, 0.05),   # right call
        (MONITOR, 0.90, 0.05),   # missed: acting was much cheaper
        (ACT, 0.02, 0.05),       # over-treated a mild case
        (ACT, 1.30, 0.05),       # right call
    ]
    ledger = [
        DecisionLedgerEntry(TimeIndex(1, seq), chosen, (l_mon, l_act))
        for seq, (chosen, l_mon, l_act) in enumerate(steps)
    ]

    report = cumulative_regret(ledger)
    print("four hand-written decisions")
    print(f"  steps              {report.steps}")
    print(f"  cumulative regret  {report.cumulative:.4f}   (0.85 missed + 0.03 overtreat)")
    print(f"  regret rate        {report.rate:.4f}")
    print(f"  vs best fixed      {best_fixed_action_regret(ledger):.4f}")
    print(f"  losses over 0.5    {safety_exposure(ledger, 0.5)}")


def deployment_regret():
    output = generate(preset("oncology_regret"))
    by_period = {}
    for event, outcome in zip(output.events, output.outcomes):
        if event.action_id is None or outcome.alt_losses is None:
            continue
        by_period.setdefault(event.time.period, []).append(
            DecisionLedgerEntry(event.time, event.action_id, outcome.alt_losses)
        )

    print("\nregret per month, counterfactual-loss deployment")
    print(f"{'month':>5} {'rate':>8} {'cumulative':>11}")
    running = []
    for m in sorted(by_period):
        running.extend(by_period[m])
        month = cumulative_regret(by_period[m])
        print(f"{m:>5} {month.rate:>8.4f} {cumulative_regret(running).cumulative:>11.2f}")

    # the fixed-action comparator is weaker than the per-step optimum
    total = cumulative_regret(running)
    print(f"\nyear total: per-step comparator {total.cumulative:.2f}, "
          f"best fixed action {best_fixed_action_regret(running):.2f}")


if __name__ == "__main__":
    tiny_worked_example()
    deployment_regret()
