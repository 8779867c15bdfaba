"""Reconstruction metrics, accuracy, and convergence diagnostics.

The round-record CSV schema is part of the package's external surface:

    round,client_id,train_loss,test_acc,grad_sq_norm,hypernet_drift,extractor_drift,seconds

one row per (round, client) plus a ``_mean`` aggregate row per round.  The
``seconds`` column is written empty in every row and no record carries it:
wall-clock time is inherently nondeterministic, and the metrics file must be
byte-identical across reruns of the same seeded experiment.  Timings go to a
separate ``timings.csv`` (schema ``round,seconds``) next to the metrics file.
Both share the table format :mod:`hyperfl.checkpoint` writes and reads.

Fields that were not measured (e.g. step metrics of clients not sampled in a
round) serialize as ``nan``.  :func:`final_accuracy` reads each client's
last-round test accuracy from the records, for ``final_accuracy.json`` and
the report summary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .checkpoint import read_csv, write_csv
from .errors import ConfigError, ConsistencyError, DimensionError
from .network import NetSpec, ParamSet, forward_logits

PSNR_CAP_DB = 100.0

NUMERIC_FIELDS = ("train_loss", "test_acc", "grad_sq_norm", "hypernet_drift", "extractor_drift")
CSV_HEADER = ("round", "client_id", *NUMERIC_FIELDS, "seconds")


# -- image metrics ---------------------------------------------------------------


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10*log10(1 / MSE) for images in [0, 1], capped at 100 dB so the value serializes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"psnr operands differ in shape: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(1.0 / mse), PSNR_CAP_DB)


def accuracy(params: ParamSet, spec: NetSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Argmax-logit classification rate; argmax breaks ties toward class 0."""
    logits = forward_logits(params, spec, x)
    pred = np.argmax(logits, axis=1)
    y = np.asarray(y)
    if y.shape != pred.shape:
        raise DimensionError(f"{pred.size} predictions vs {y.shape} labels")
    return float(np.mean(pred == y))


# -- round records ------------------------------------------------------------------


@dataclass(frozen=True)
class RoundRecord:
    """One client's metrics for one round (client_id ``_mean`` for aggregates)."""

    round: int
    client_id: str
    train_loss: float = math.nan
    test_acc: float = math.nan
    grad_sq_norm: float = math.nan
    hypernet_drift: float = math.nan
    extractor_drift: float = math.nan


def mean_record(records: Sequence[RoundRecord]) -> RoundRecord:
    """Aggregate row: NaN-ignoring mean of every numeric column."""
    if not records:
        raise ConfigError("cannot aggregate an empty record list")
    rounds = {r.round for r in records}
    if len(rounds) != 1:
        raise ConsistencyError(f"aggregate row spans rounds {sorted(rounds)}")
    values = {}
    for name in NUMERIC_FIELDS:
        column = [getattr(r, name) for r in records]
        finite = [v for v in column if not math.isnan(v)]
        values[name] = float(np.mean(finite)) if finite else math.nan
    return RoundRecord(round=records[0].round, client_id="_mean", **values)


def _by_round(records: Sequence[RoundRecord]) -> dict[int, list[RoundRecord]]:
    """Per-client rows grouped by round: rounds ascending, clients by numeric id.

    ``_mean`` rows are left out; they are derived from the groups.
    """
    groups: dict[int, list[RoundRecord]] = {}
    for r in records:
        if r.client_id != "_mean":
            groups.setdefault(r.round, []).append(r)
    return {t: sorted(groups[t], key=lambda r: int(r.client_id)) for t in sorted(groups)}


def final_accuracy(records: Sequence[RoundRecord]) -> dict[str, float]:
    """Client id -> test accuracy in the last round of ``records``."""
    return {r.client_id: r.test_acc for r in list(_by_round(records).values())[-1]}


def write_metrics_csv(path: str | Path, records: Sequence[RoundRecord]) -> None:
    """Per-client rows in (round, client) order plus a _mean row per round.

    Rounds must be strictly increasing groups; within a round, client rows
    are sorted by numeric id.  Output is bytewise deterministic given the
    records.
    """
    if any(r.client_id == "_mean" for r in records):
        raise ConsistencyError("aggregate rows are derived at write time, not passed in")
    rows = (
        [r.round, r.client_id, *(float(getattr(r, name)) for name in NUMERIC_FIELDS), ""]
        for group in _by_round(records).values()
        for r in group + [mean_record(group)]
    )
    write_csv(path, CSV_HEADER, rows)  # the seconds column stays empty


def _parse_record(row: list[str]) -> RoundRecord:
    nums = [math.nan if cell == "" else float(cell) for cell in row[2:]]
    if not (row[1] == "_mean" or row[1].isdecimal()):
        raise ValueError(f"client id {row[1]!r} is neither an integer nor _mean")
    return RoundRecord(int(row[0]), row[1], *nums[: len(NUMERIC_FIELDS)])


def read_metrics_csv(path: str | Path) -> list[RoundRecord]:
    """Read every row back, aggregate rows included; empty cells become NaN, bad cells raise."""
    return read_csv(path, CSV_HEADER, _parse_record)


def write_timings_csv(path: str | Path, seconds_by_round: Sequence[tuple[int, float]]) -> None:
    write_csv(path, ("round", "seconds"), ([t, f"{sec:.6f}"] for t, sec in seconds_by_round))


# -- convergence summary ---------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceSummary:
    """Quartile-averaged training diagnostics over a run.

    Quartiles are four contiguous blocks of rounds (first block = earliest
    training).  The flags state the trend claims downstream checks care
    about; they are plain observations, not fitted rates.
    """

    rounds: int
    loss_quartiles: tuple[float, float, float, float]
    grad_sq_quartiles: tuple[float, float, float, float]
    hypernet_drift_quartiles: tuple[float, float, float, float]
    extractor_drift_quartiles: tuple[float, float, float, float]
    final_mean_test_acc: float
    grad_quartiles_nonincreasing: bool
    grad_last_le_half_first: bool
    extractor_drift_last_below_first: bool


def _quartile_means(series: Sequence[float]) -> tuple[float, float, float, float]:
    chunks = np.array_split(np.asarray(series, dtype=np.float64), 4)
    out = []
    for c in chunks:
        finite = c[np.isfinite(c)]
        out.append(float(np.mean(finite)) if finite.size else math.nan)
    return tuple(out)


def convergence_stats(records: Sequence[RoundRecord]) -> ConvergenceSummary:
    means = [mean_record(group) for group in _by_round(records).values()]
    if len(means) < 2:
        raise ConfigError(f"convergence_stats needs at least 2 rounds, got {len(means)}")

    def quartiles(name: str) -> tuple[float, float, float, float]:
        return _quartile_means([getattr(m, name) for m in means])

    gq = quartiles("grad_sq_norm")
    eq = quartiles("extractor_drift")
    nonincreasing = all(
        b <= a or math.isnan(a) or math.isnan(b) for a, b in zip(gq, gq[1:])
    )
    return ConvergenceSummary(
        rounds=len(means),
        loss_quartiles=quartiles("train_loss"),
        grad_sq_quartiles=gq,
        hypernet_drift_quartiles=quartiles("hypernet_drift"),
        extractor_drift_quartiles=eq,
        final_mean_test_acc=means[-1].test_acc,
        grad_quartiles_nonincreasing=nonincreasing,
        grad_last_le_half_first=bool(gq[-1] <= 0.5 * gq[0]),
        extractor_drift_last_below_first=bool(eq[-1] < eq[0]),
    )
