"""Exception hierarchy for the package.

Two tiers map to CLI exit codes: ValidationError (bad input data or
config, exit 2) and EstimationError (numerical or coverage failures,
exit 4). Exit 3 is for I/O only: the CLI maps OSError to it, and no
exception class here uses it.
"""

from __future__ import annotations

import datetime as dt
from collections import Counter
from typing import Sequence


class CoinFactorsError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(CoinFactorsError):
    """Malformed inputs, schema violations, or inconsistent configuration."""


class EstimationError(CoinFactorsError):
    """A regression, sort, or aggregation that cannot proceed."""


# ingest ---------------------------------------------------------------

class MalformedRow(ValidationError):
    """A row of an input file that does not parse; path names the file."""

    def __init__(self, line: int, message: str, path=None) -> None:
        self.line = line
        self.message = message
        self.path = path
        super().__init__(line, message)

    def __str__(self) -> str:
        where = "" if self.path is None else f"{self.path}: "
        return f"{where}line {self.line}: {self.message}"


class DuplicateDate(ValidationError):
    def __init__(self, date: dt.date, context: str = "") -> None:
        self.date = date
        where = f" ({context})" if context else ""
        super().__init__(f"duplicate date {date.isoformat()}{where}")


class NonPositivePrice(MalformedRow):
    def __init__(self, date: dt.date, line: int) -> None:
        self.date = date
        super().__init__(line, f"non-positive close on {date.isoformat()}")


class NegativeLevel(ValidationError):
    def __init__(self, date: dt.date) -> None:
        self.date = date
        super().__init__(f"negative uncertainty level on {date.isoformat()}")


class EmptyUniverse(ValidationError):
    """No coin satisfies the universe filter."""


# panel ----------------------------------------------------------------

class TooShort(EstimationError):
    """Fewer than two bars; no return can be computed."""


class CoverageGap(ValidationError):
    """A required series went stale beyond the forward-fill limit. The
    build aborts rather than dropping the date, because a stale conditioning
    series hits every coin on that date at once."""

    def __init__(
        self, series: str, date: dt.date, last: dt.date, limit_days: int
    ) -> None:
        self.series = series
        self.date = date
        self.last = last
        self.limit_days = limit_days
        super().__init__(
            f"{series} has no usable value for {date.isoformat()}: its last "
            f"value is dated {last.isoformat()}, {(date - last).days} days "
            f"earlier, beyond ffill_limit_days={limit_days}"
        )


class MissingBitcoin(ValidationError):
    """The Bitcoin series, required for the lagged conditioner, is absent."""


class EmptyPanel(ValidationError):
    """No coin-day survived the panel build. dropped holds every Drop; the
    message names the commonest reason (the earliest seen on a tie), then
    the first drop."""

    def __init__(self, dropped: Sequence) -> None:
        self.dropped = tuple(dropped)
        [(reason, count)] = Counter(d.reason for d in self.dropped).most_common(1)
        first = self.dropped[0]
        on = "" if first.date is None else f" on {first.date.isoformat()}"
        super().__init__(
            f"no coin-day survives the panel build: {len(self.dropped)} drops, "
            f"most often {reason} ({count}); the first {first.coin_id}{on}: "
            f"{first.reason}"
        )


# factors --------------------------------------------------------------

class EmptyDate(EstimationError):
    def __init__(self, date: dt.date) -> None:
        self.date = date
        super().__init__(f"no valid observations on {date.isoformat()}")


class TooFewCoins(EstimationError):
    def __init__(self, date: dt.date, needed: int, available: int) -> None:
        self.date = date
        self.needed = needed
        self.available = available
        super().__init__(
            f"{available} coins sortable on {date.isoformat()}, need {needed}"
        )


class EmptyLeg(EstimationError):
    def __init__(self, date: dt.date, leg: str) -> None:
        self.date = date
        self.leg = leg
        super().__init__(f"leg {leg} empty on {date.isoformat()}")


# econometrics ----------------------------------------------------------

class RankDeficient(EstimationError):
    """Design matrix has a (near-)exact linear dependency. message, when
    given, goes before the dependent columns (say the coin fitted)."""

    def __init__(self, columns: Sequence, message: str = "") -> None:
        self.columns = tuple(columns)
        detail = f"dependent columns {list(self.columns)}"
        if message:
            detail = f"{message}: {detail}"
        super().__init__(f"rank-deficient design: {detail}")


class TooFewObservations(EstimationError):
    def __init__(self, n_obs: int, n_params: int) -> None:
        self.n_obs = n_obs
        self.n_params = n_params
        super().__init__(f"{n_obs} observations cannot identify {n_params} parameters")


class SeriesTooShort(EstimationError):
    def __init__(self, length: int, lags: int) -> None:
        self.length = length
        self.lags = lags
        super().__init__(f"series of length {length} too short for {lags} lags")


class TooFewDates(EstimationError):
    """Fewer than two cross-sectional dates; no time-series aggregation."""


# condbeta ---------------------------------------------------------------

class MissingCharacteristic(ValidationError):
    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"unknown characteristic {name!r}")


class InsufficientObservations(EstimationError):
    def __init__(self, coin_id: str, needed: int, available: int) -> None:
        self.coin_id = coin_id
        self.needed = needed
        self.available = available
        super().__init__(
            f"{coin_id}: {available} usable observations, need {needed}"
        )


# pipeline / synth --------------------------------------------------------

class NoEligibleDates(EstimationError):
    """No date passed the cross-sectional coin floor."""


class StageError(EstimationError):
    """An error from a pipeline stage, annotated with the model label."""

    def __init__(self, label: str, stage: str, cause: Exception) -> None:
        self.label = label
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{label}] {stage}: {cause}")


class InvalidConfig(ValidationError):
    """Configuration value out of range or inconsistent."""


class SpecMismatch(ValidationError):
    """Estimation spec does not match the generating structure."""
