"""Weighted accuracy metrics and stratified reporting.

Both metrics weight by product price, so errors on expensive products count
more. The MAE variant normalizes by the price-weighted forecast volume (its
printed form). The train/valid/test weeks come from the run config's split
lengths; features.split_rows cuts the forecast rows by them.

evaluate takes one aligned array per quantity (actual, forecast, price,
segment label, life at forecast), one entry per scored row. cli.score
builds them in (product id, week) order, so a report does not depend on
the order its rows arrived in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import SalesPanel
from .ingest import write_csv

LIFE_BUCKETS = (8, 9, 10, 11, 12)
SEGMENT_QUANTILES = (0.1, 0.4)


def weighted_rmse(y: np.ndarray, y_hat: np.ndarray, prices: np.ndarray) -> float:
    """sqrt(mean(p_i^2 (y_i - y_hat_i)^2))."""
    y, y_hat, prices = (np.asarray(a, dtype=float) for a in (y, y_hat, prices))
    if not (y.shape == y_hat.shape == prices.shape):
        raise ValueError("weighted_rmse: length mismatch")
    if y.size == 0:
        raise ValueError("weighted_rmse: empty input")
    return float(np.sqrt(np.mean(prices**2 * (y - y_hat) ** 2)))


def weighted_mae(y: np.ndarray, y_hat: np.ndarray, prices: np.ndarray) -> float:
    """sum(p_i |y_i - y_hat_i|) / sum(p_i y_hat_i); denominator is forecasts."""
    y, y_hat, prices = (np.asarray(a, dtype=float) for a in (y, y_hat, prices))
    if not (y.shape == y_hat.shape == prices.shape):
        raise ValueError("weighted_mae: length mismatch")
    if y.size == 0:
        raise ValueError("weighted_mae: empty input")
    denom = float(np.sum(prices * y_hat))
    if denom <= 0:
        raise ValueError("weighted_mae: non-positive weighted volume in denominator")
    return float(np.sum(prices * np.abs(y - y_hat))) / denom


def segment_products(panel: SalesPanel, prices: np.ndarray, train_end: int) -> np.ndarray:
    """A/B/C label of each panel row by price-weighted volume in weeks 0..train_end-1.

    prices[i] is the price of panel row i. The top SEGMENT_QUANTILES[0]
    share of products go to A, the next slice up to SEGMENT_QUANTILES[1] to
    B, the rest to C. Ties break by product id. A and B each get at least
    one product first, so one product is labelled A and two are A and B.
    """
    n = panel.n_products
    volume = prices * panel.y[:, :train_end].sum(axis=1).astype(float)
    id_rank = np.argsort(np.argsort(np.array(panel.products, dtype=object)))
    ranked = np.lexsort((id_rank, -volume))
    n_a = max(1, int(n * SEGMENT_QUANTILES[0]))
    n_b = max(1, int(n * SEGMENT_QUANTILES[1]) - n_a)
    labels = np.full(n, "C")
    labels[ranked[:n_a]] = "A"
    labels[ranked[n_a : n_a + n_b]] = "B"
    return labels


@dataclass
class MetricCell:
    rmse: float
    mae: float
    rows: int


@dataclass
class EvalReport:
    overall: MetricCell
    segments: dict[str, MetricCell]
    life_buckets: dict[str, MetricCell]


def _cell(y, y_hat, prices) -> MetricCell:
    try:
        mae = weighted_mae(y, y_hat, prices)
    except ValueError:
        mae = math.nan
    return MetricCell(rmse=weighted_rmse(y, y_hat, prices), mae=mae, rows=len(y))


def evaluate(
    y: np.ndarray,
    y_hat: np.ndarray,
    prices: np.ndarray,
    segments: np.ndarray,
    life: np.ndarray,
) -> EvalReport:
    """Weighted metrics overall, per segment, and per life-length bucket.

    The arguments are aligned per row: actual, forecast, product price,
    product segment label and life at forecast. Buckets follow the
    early-product-cycle breakdown: exact life lengths 8..12 plus a 13+
    aggregate; shorter lives only count toward overall and segment rows.
    """
    report = EvalReport(
        overall=_cell(y, y_hat, prices),
        segments={},
        life_buckets={},
    )
    for name in ("A", "B", "C"):
        mask = segments == name
        if mask.any():
            report.segments[name] = _cell(y[mask], y_hat[mask], prices[mask])
    for bucket in LIFE_BUCKETS:
        mask = life == bucket
        if mask.any():
            report.life_buckets[str(bucket)] = _cell(y[mask], y_hat[mask], prices[mask])
    mask = life > LIFE_BUCKETS[-1]
    if mask.any():
        report.life_buckets["13+"] = _cell(y[mask], y_hat[mask], prices[mask])
    return report


def report_rows(report: EvalReport) -> list[tuple[str, str, float, float, int]]:
    rows = [("overall", "all", report.overall.rmse, report.overall.mae, report.overall.rows)]
    for name in sorted(report.segments):
        cell = report.segments[name]
        rows.append(("segment", name, cell.rmse, cell.mae, cell.rows))
    for name, cell in report.life_buckets.items():
        rows.append(("life", name, cell.rmse, cell.mae, cell.rows))
    return rows


def write_report(report: EvalReport, path: str | Path) -> None:
    scopes, groups, rmse, mae, rows = zip(*report_rows(report))
    write_csv(path, ["scope", "group", "rmse", "mae", "rows"], [
        np.array(scopes, dtype=object), np.array(groups, dtype=object),
        np.array(rmse, dtype=np.float64), np.array(mae, dtype=np.float64),
        np.array(rows, dtype=np.int64),
    ])


def format_report(report: EvalReport, title: str = "evaluation") -> str:
    lines = [title, f"{'scope':<10}{'group':<8}{'rmse':>12}{'mae':>10}{'rows':>8}"]
    for scope, group, rmse, mae, rows in report_rows(report):
        lines.append(f"{scope:<10}{group:<8}{rmse:>12.4f}{mae:>10.4f}{rows:>8}")
    return "\n".join(lines)
