"""Decision-regret accounting over a ledger of chosen actions.

Each ledger entry records which action the deployed policy took and what
every available action would have cost. step_regret scores one decision
(the streaming engine calls it per resolved pair); two comparators are
exposed over a whole ledger:

* cumulative_regret: per-step hindsight, at every step comparing the chosen
  action's loss to that step's best action. Nonnegative and nondecreasing
  by construction; zero exactly when the policy picked an argmin every step.
* best_fixed_action_regret: compare the whole run to the single action
  that would have been best held fixed throughout. Signed: an adaptive
  policy can beat every fixed action, and the per-step sum of minima never
  exceeds the best fixed action's total.

A safety exposure counter (steps whose realized loss exceeded a bound)
rides along for harm accounting that regret alone does not capture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import TimeIndex, fsum
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
        step_regret(self.chosen_action, self.action_losses)  # range check; () has no action

    @property
    def chosen_loss(self) -> float:
        return self.action_losses[self.chosen_action]


@dataclass(frozen=True)
class RegretReport:
    """Summary of a ledger's regret accounting.

    cumulative is the hindsight per-step regret total R(T), inf only where
    its exact value passes the float range; rate is its per-step mean
    R(T) / T, finite (both sum by core.fsum). exposure_count counts steps
    whose realized loss exceeded the safety bound (None if no bound given).
    """

    steps: int
    cumulative: float
    rate: float
    best_fixed: float
    exposure_count: int | None = None


class DecisionLedger:
    """Append-only, sequence-ordered record of decisions."""

    def __init__(self):
        self._entries: list[DecisionLedgerEntry] = []

    def record(self, entry: DecisionLedgerEntry) -> None:
        """Append one entry; sequence numbers must strictly increase."""
        if self._entries and entry.time.sequence <= self._entries[-1].time.sequence:
            raise OutOfOrderEntry(
                f"sequence {entry.time.sequence} does not exceed "
                f"{self._entries[-1].time.sequence}"
            )
        self._entries.append(entry)

    @property
    def entries(self) -> tuple[DecisionLedgerEntry, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def _entries_of(ledger: DecisionLedger | Sequence[DecisionLedgerEntry]):
    entries = ledger.entries if isinstance(ledger, DecisionLedger) else tuple(ledger)
    if len(entries) == 0:
        raise EmptyLedger("regret requested on an empty ledger")
    return entries


def cumulative_regret(
    ledger: DecisionLedger | Sequence[DecisionLedgerEntry],
    safety_bound: float | None = None,
) -> RegretReport:
    """Hindsight per-step regret: sum of chosen loss minus step minimum.

    Ties at a step's minimum produce zero regret for any tying choice (the
    comparator is the lowest-loss action, lowest action id on ties, but the
    regret difference is identical across tying actions).
    """
    entries = _entries_of(ledger)
    per_step = [step_regret(e.chosen_action, e.action_losses) for e in entries]
    return RegretReport(
        steps=len(entries),
        cumulative=fsum(per_step),
        rate=fsum(per_step, len(entries)),
        best_fixed=best_fixed_action_regret(entries),
        exposure_count=(None if safety_bound is None
                        else safety_exposure(entries, safety_bound)),
    )


def best_fixed_action_regret(
    ledger: DecisionLedger | Sequence[DecisionLedgerEntry],
) -> float:
    """Chosen total minus the best single fixed action's total. Signed."""
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


def safety_exposure(
    ledger: DecisionLedger | Sequence[DecisionLedgerEntry],
    bound: float,
) -> int:
    """Count of steps whose realized (chosen) loss exceeded the bound."""
    entries = _entries_of(ledger)
    return sum(1 for e in entries if e.chosen_loss > bound)
