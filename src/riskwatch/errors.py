"""Exception types raised across the toolkit.

Every error below names the contract it guards; callers that can recover
(lenient log ingestion skipping a bad record) catch the specific type,
everything else is allowed to propagate.
"""


class RiskwatchError(Exception):
    """Base class for all toolkit errors."""


class MissingExtra(RiskwatchError):
    """A call needs an optional dependency that is not installed; names the
    extra that installs it."""

    def __init__(self, extra: str, module: str):
        super().__init__(f"this needs {module}, which is not installed: "
                         f"pip install 'riskwatch[{extra}]'")


class _LineError(RiskwatchError):
    """An error about one record of an event log; names its 1-based line
    number once the reader knows it."""

    line_number: int | None = None

    def __str__(self) -> str:
        base = super().__str__()
        if self.line_number is None:
            return base
        return f"line {self.line_number}: {base}"


# -- stream plumbing ---------------------------------------------------------

class OrphanOutcome(_LineError):
    """An outcome record references an event_id absent from the event stream."""


class DuplicateOutcome(_LineError):
    """A second outcome arrived for an event_id that is already resolved."""


# -- metric inputs -----------------------------------------------------------

class EmptyWindow(RiskwatchError):
    """A calibration window contained no resolved pairs."""


class EmptyLosses(RiskwatchError):
    """A tail-risk estimator was handed an empty loss vector."""


class BadAlpha(RiskwatchError, ValueError):
    """Tail level alpha must be a float strictly inside (0, 1)."""


class EmptySketch(RiskwatchError):
    """Quantile queried on a sketch with no insertions."""


# -- decision ledger ---------------------------------------------------------

class OutOfOrderEntry(RiskwatchError):
    """Ledger entries must arrive with strictly increasing sequence numbers."""


class EmptyLedger(RiskwatchError):
    """Regret requested on a ledger with no entries."""


class RaggedActionSets(RiskwatchError):
    """Fixed-action comparison needs the same action count at every step."""


# -- alarms ------------------------------------------------------------------

class NoMetrics(RiskwatchError):
    """Alarm evaluation needs at least one defined metric in the snapshot."""


# -- simulator ---------------------------------------------------------------

class BadConfig(RiskwatchError, ValueError):
    """Scenario configuration violates a structural constraint."""


class UnknownPreset(RiskwatchError):
    """Requested scenario preset name is not registered."""


# -- event log / persistence -------------------------------------------------

class ParseError(_LineError):
    """Event-log line is not valid JSON. Carries the 1-based line number."""


class SchemaError(_LineError):
    """Event-log record is well-formed JSON but violates the record schema."""


class TruncatedLog(RiskwatchError):
    """The event log holds fewer lines than the snapshot resumed on it consumed."""


class CorruptSnapshot(RiskwatchError):
    """Persisted monitor state failed its checksum or cannot be decoded."""


class VersionMismatch(RiskwatchError):
    """Persisted monitor state was written by an incompatible format version."""


class EmptyReport(RiskwatchError):
    """Report emission requested with no metric snapshots."""
