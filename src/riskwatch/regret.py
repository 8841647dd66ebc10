"""Decision-regret accounting over a ledger of chosen actions.

A ledger is a sequence of DecisionLedgerEntry, each recording which action
the deployed policy took and what every available action would have cost.
An entry's action_losses follow OutcomeRecord's alt_losses rule, and its
chosen_action is an integer that indexes them; else ValueError naming the field.
Every function below refuses an empty ledger (EmptyLedger) and one whose
sequence numbers do not strictly rise (OutOfOrderEntry). step_regret
scores one decision; the streaming engine calls it per resolved pair.
Over a whole ledger:

* cumulative_regret: per-step hindsight, at every step comparing the chosen
  action's loss to that step's best action, summed as the engine sums a
  period's regrets. Nonnegative and nondecreasing by construction; zero
  exactly when the policy picked an argmin every step.
* best_fixed_action_regret: compare the whole run to the single action
  that would have been best held fixed throughout. Signed: an adaptive
  policy can beat every fixed action, and the per-step sum of minima never
  exceeds the best fixed action's total. Needs one action-set size.
* safety_exposure: the steps whose realized loss exceeded a bound, a harm
  that regret alone does not capture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import TimeIndex, check_integer, check_losses, finite_number, fsum
from .errors import EmptyLedger, OutOfOrderEntry, RaggedActionSets


def step_regret(chosen_action: int, action_losses: Sequence[float]) -> float:
    """One decision's hindsight regret: chosen loss minus the step minimum.

    Raises ValueError when chosen_action does not index action_losses; a
    negative id is out of range, not counted from the end.
    """
    if not 0 <= chosen_action < len(action_losses):
        raise ValueError(
            f"chosen_action {chosen_action} outside action set of "
            f"size {len(action_losses)}"
        )
    return action_losses[chosen_action] - min(action_losses)


@dataclass(frozen=True)
class DecisionLedgerEntry:
    """One decision: the action taken and the loss of every alternative."""

    time: TimeIndex
    chosen_action: int
    action_losses: tuple[float, ...]

    def __post_init__(self):
        check_losses(self, "action_losses")  # then step_regret checks the action's range
        step_regret(check_integer("chosen_action", self.chosen_action, 0), self.action_losses)

    @property
    def chosen_loss(self) -> float:
        return self.action_losses[self.chosen_action]


@dataclass(frozen=True)
class RegretReport:
    """Summary of a ledger's hindsight per-step regret, as the engine
    scores a period: cumulative is the total R(T), inf only where its exact
    value passes the float range; rate is its per-step mean R(T) / T,
    finite (both sum by core.fsum)."""

    steps: int
    cumulative: float
    rate: float


def _entries_of(ledger: Sequence[DecisionLedgerEntry]) -> tuple[DecisionLedgerEntry, ...]:
    """The ledger as a tuple, refused if empty (EmptyLedger) or if its
    sequence numbers do not strictly rise (OutOfOrderEntry)."""
    entries = tuple(ledger)
    if not entries:
        raise EmptyLedger("regret requested on an empty ledger")
    for before, after in zip(entries, entries[1:]):
        if after.time.sequence <= before.time.sequence:
            raise OutOfOrderEntry(
                f"sequence {after.time.sequence} does not exceed {before.time.sequence}"
            )
    return entries


def cumulative_regret(ledger: Sequence[DecisionLedgerEntry]) -> RegretReport:
    """Hindsight per-step regret: sum of chosen loss minus step minimum.

    Ties at a step's minimum produce zero regret for any tying choice (the
    comparator is the lowest-loss action, lowest action id on ties, but the
    regret difference is identical across tying actions). Steps may offer
    different numbers of actions.
    """
    entries = _entries_of(ledger)
    per_step = [step_regret(e.chosen_action, e.action_losses) for e in entries]
    return RegretReport(
        steps=len(entries),
        cumulative=fsum(per_step),
        rate=fsum(per_step, len(entries)),
    )


def best_fixed_action_regret(ledger: Sequence[DecisionLedgerEntry]) -> float:
    """Chosen total minus the best single fixed action's total. Signed.

    Every step must offer the same number of actions (else RaggedActionSets).
    """
    entries = _entries_of(ledger)
    width = len(entries[0].action_losses)
    for e in entries:
        if len(e.action_losses) != width:
            raise RaggedActionSets(
                f"action set size changed from {width} to {len(e.action_losses)}"
            )
    chosen = [e.chosen_loss for e in entries]
    fixed = [[e.action_losses[a] for e in entries] for a in range(width)]
    best = fsum(chosen) - min(map(fsum, fixed))
    if math.isfinite(best):
        return best
    # a total passed the float range: the largest exact gap, rounded once
    return max(fsum(chosen + [-loss for loss in losses]) for losses in fixed)


def safety_exposure(ledger: Sequence[DecisionLedgerEntry], bound: float) -> int:
    """Count of steps whose realized (chosen) loss exceeded the finite bound."""
    if not finite_number(bound):
        raise ValueError(f"bound must be a finite number, got {bound!r}")
    entries = _entries_of(ledger)
    return sum(1 for e in entries if e.chosen_loss > bound)
