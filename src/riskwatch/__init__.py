"""riskwatch: streaming risk monitoring for deployed prediction models.

The library watches a live event log of probabilistic predictions and
resolved outcomes and maintains, period by period, the evidence an
oversight process needs: calibration error and discrimination, downside
tail risk (VaR/CVaR), cumulative decision regret against hindsight, and a
posterior belief about outcome prevalence. A threshold alarm state
machine turns those metrics into normal / review / suspended operating
states with hysteresis, and a synthetic-deployment simulator generates
miscalibration-drift scenarios for testing monitoring policies end to end.

Typical use::

    from riskwatch import canonical_scenario, generate, run_monitor

    output = generate(canonical_scenario())
    snapshots, alarm_history = run_monitor(output)
    for snap, alarm in zip(snapshots, alarm_history):
        print(snap.time.period, snap.ece, snap.cvar, alarm.state.value)
"""

from .core import (
    MetricSnapshot,
    OutcomeRecord,
    PredictionEvent,
    TimeIndex,
)
from .calibration import (
    ReliabilityBin,
    auc,
    brier,
    ece,
    reliability_bins,
)
from .tailrisk import (
    QuantileSketch,
    cvar_conditional,
    cvar_tail,
    cvar_variational,
    var,
)
from .regret import (
    DecisionLedgerEntry,
    RegretReport,
    best_fixed_action_regret,
    cumulative_regret,
    safety_exposure,
)
from .belief import BetaPosterior, drift_score, update, update_batch
from .alarms import (
    AlarmRecord,
    AlarmState,
    OperatingState,
    ThresholdPolicy,
    evaluate,
)
from .simulator import (
    ScenarioConfig,
    ScenarioOutput,
    canonical_scenario,
    generate,
    generate_arrays,
    preset,
    preset_names,
    run_monitor,
    stationary_control,
)
from .monitor import MonitorEngine
from .eventlog import (
    default_config,
    emit_report,
    load_config,
    load_snapshot_file,
    read_log,
    read_report,
    save_snapshot_file,
    write_log,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AlarmRecord",
    "AlarmState",
    "BetaPosterior",
    "DecisionLedgerEntry",
    "MetricSnapshot",
    "MonitorEngine",
    "OperatingState",
    "OutcomeRecord",
    "PredictionEvent",
    "QuantileSketch",
    "RegretReport",
    "ReliabilityBin",
    "ScenarioConfig",
    "ScenarioOutput",
    "ThresholdPolicy",
    "TimeIndex",
    "auc",
    "best_fixed_action_regret",
    "brier",
    "canonical_scenario",
    "cumulative_regret",
    "cvar_conditional",
    "cvar_tail",
    "cvar_variational",
    "default_config",
    "drift_score",
    "ece",
    "emit_report",
    "errors",
    "evaluate",
    "generate",
    "generate_arrays",
    "load_config",
    "load_snapshot_file",
    "preset",
    "preset_names",
    "read_log",
    "read_report",
    "reliability_bins",
    "run_monitor",
    "safety_exposure",
    "save_snapshot_file",
    "stationary_control",
    "update",
    "update_batch",
    "var",
    "write_log",
    "__version__",
]
