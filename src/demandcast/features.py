"""Feature assembly for the global regression.

Each training row pairs what was knowable at week t (smoothed lag values,
trend, the product's seasonal pattern value at the target week, encoded
catalog attributes, covariates) with the repaired sales count at week t+h.
Lags use smoothed values; targets deliberately do not, so the model learns
the gap that promotions and events explain on top of the normal level.

Missing values are carried as NaN and resolved by the trees' per-split
default direction; zero is a meaningful sales value and is never used as a
filler.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import Catalog, SalesPanel, launch_week, weeks_on_sale
from .ingest import CovariateTable, RunConfig
from .preprocess import SmoothedPanel
from .seasonal import SeasonalityModel, trend_features

LAG_DEPTH = 8

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class OrdinalMap:
    """Stable value -> integer ids, lexicographic; unseen values map to n."""

    mapping: dict[str, int]

    def encode(self, value: str) -> int:
        return self.mapping.get(value, len(self.mapping))


def ordinal_encode(values) -> OrdinalMap:
    distinct = sorted(set(values))
    return OrdinalMap({v: i for i, v in enumerate(distinct)})


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _U64
    return h


def hash_encode(value: str, buckets: int) -> int:
    """FNV-1a 64-bit bucket of the UTF-8 bytes; platform-independent."""
    if buckets < 2:
        raise ValueError(f"hash buckets must be >= 2, got {buckets}")
    return fnv1a64(value.encode("utf-8")) % buckets


class CovariateView:
    """Covariate lookups with leakage-safe imputation.

    known_future features pass through their recorded value at the target
    week. Unpredictable temporal features take the mean of values observed
    at the same seasonal position up to the knowledge cutoff (falling back
    to the overall observed mean); unpredictable mixed features take the
    mean of the product's own observed past. NaN when nothing is observed.
    """

    def __init__(self, table: CovariateTable, tau: int):
        self.table = table
        self.tau = tau
        self._temporal: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._temporal_by_pos: dict[str, dict[int, tuple[np.ndarray, np.ndarray]]] = {}
        for key, series in table.temporal.items():
            weeks = np.array(sorted(series), dtype=np.int64)
            values = np.array([series[w] for w in weeks])
            self._temporal[key] = (weeks, np.cumsum(values))
            by_pos: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            for pos in set(weeks % tau):
                sel = weeks % tau == pos
                by_pos[int(pos)] = (weeks[sel], np.cumsum(values[sel]))
            self._temporal_by_pos[key] = by_pos
        self._mixed: dict[str, dict[str, tuple[np.ndarray, np.ndarray]]] = {}
        for key, series in table.mixed.items():
            per_pid: dict[str, list[tuple[int, float]]] = {}
            for (pid, week), value in series.items():
                per_pid.setdefault(pid, []).append((week, value))
            self._mixed[key] = {}
            for pid, pairs in per_pid.items():
                pairs.sort()
                weeks = np.array([w for w, _ in pairs], dtype=np.int64)
                values = np.array([v for _, v in pairs])
                self._mixed[key][pid] = (weeks, np.cumsum(values))

    @staticmethod
    def _mean_upto(weeks: np.ndarray, sums: np.ndarray, cutoff: int) -> float:
        idx = bisect_right(weeks, cutoff)
        if idx == 0:
            return float("nan")
        return float(sums[idx - 1]) / idx

    def value(self, key: str, product_id: str, target_week: int, known_until: int) -> float:
        predictable = self.table.predictable.get(key, True)
        if key in self.table.temporal:
            if predictable:
                return self.table.temporal[key].get(target_week, float("nan"))
            by_pos = self._temporal_by_pos[key].get(target_week % self.tau)
            if by_pos is not None:
                mean = self._mean_upto(by_pos[0], by_pos[1], known_until)
                if not np.isnan(mean):
                    return mean
            weeks, sums = self._temporal[key]
            return self._mean_upto(weeks, sums, known_until)
        if key in self.table.mixed:
            if predictable:
                return self.table.mixed[key].get((product_id, target_week), float("nan"))
            entry = self._mixed[key].get(product_id)
            if entry is None:
                return float("nan")
            return self._mean_upto(entry[0], entry[1], known_until)
        return float("nan")


@dataclass
class FeatureMatrix:
    """Rows keyed by (product_id, target_week); NaN marks missing cells."""

    keys: list[tuple[str, int]]
    columns: list[str]
    X: np.ndarray                 # (n, p) float64
    targets: np.ndarray | None    # (n,) float64, None for prediction rows
    life_at_forecast: np.ndarray  # on-sale weeks up to and including week t

    def __post_init__(self) -> None:
        if len(self.keys) != len(set(self.keys)):
            raise ValueError("duplicate (product, target week) keys")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def select(self, mask: np.ndarray) -> "FeatureMatrix":
        keys = [k for k, keep in zip(self.keys, mask) if keep]
        return FeatureMatrix(
            keys=keys,
            columns=self.columns,
            X=self.X[mask],
            targets=None if self.targets is None else self.targets[mask],
            life_at_forecast=self.life_at_forecast[mask],
        )


def _categorical_columns(catalog: Catalog) -> list[str]:
    return sorted({k for attrs in catalog.attributes.values() for k in attrs})


def build_matrix(
    panel: SalesPanel,
    smoothed: SmoothedPanel,
    catalog: Catalog,
    seasonal_model: SeasonalityModel | None,
    covariates: CovariateTable | None,
    config: RunConfig,
    t_end: int,
    mode: str = "train",
) -> FeatureMatrix:
    """Assemble the global matrix from weeks 0..t_end of the repaired panel.

    Train mode emits a row for every (product, week t) with the product on
    sale at t and t <= t_end, targeting repaired sales at t+h. Predict mode
    emits one target-less row per product live at t_end.
    """
    h = config.horizon
    t_count = panel.n_weeks
    if mode not in ("train", "predict"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "train" and not 0 <= t_end + h < t_count:
        raise ValueError(f"t_end {t_end} leaves target {t_end + h} outside the panel")
    if mode == "predict" and not 0 <= t_end < t_count:
        raise ValueError(f"t_end {t_end} outside the panel")
    catalog.validate_covers(panel)

    attr_cols = _categorical_columns(catalog)
    cov_names = covariates.feature_names() if covariates is not None else []
    columns = [f"lag_{j}" for j in range(LAG_DEPTH)]
    columns += ["trend_annual", "trend_local"]
    if config.with_seasonality:
        columns.append("season")
    columns += ["weeks_since_launch", "price", "category"]
    columns += [f"attr_{name}" for name in attr_cols]
    columns += [f"cov_{name}" for name in cov_names]

    if config.encoding == "ordinal":
        cat_map = ordinal_encode(catalog.category_of.values())
        attr_maps = {
            f"attr_{name}": ordinal_encode(
                catalog.attributes.get(pid, {}).get(name, "") for pid in catalog.price
            )
            for name in attr_cols
        }

        def encode(column: str, value: str) -> float:
            if column == "category":
                return float(cat_map.encode(value))
            return float(attr_maps[column].encode(value))

    else:

        def encode(column: str, value: str) -> float:
            return float(hash_encode(f"{column}={value}", config.hash_buckets))

    view = CovariateView(covariates, config.season_period) if covariates is not None else None

    rows: list[list[float]] = []
    keys: list[tuple[str, int]] = []
    life: list[int] = []
    for i, pid in enumerate(panel.products):
        launch = launch_week(panel, i)
        if launch < 0 or launch > t_end:
            continue
        on_sale = panel.on_sale_mask[i]
        sale_count = weeks_on_sale(on_sale)
        if mode == "train":
            weeks = [t for t in range(launch, t_end + 1) if on_sale[t]]
        else:
            weeks = [t_end] if on_sale[t_end] else []
        cat_value = encode("category", catalog.category_of[pid])
        attr_values = [
            encode(f"attr_{name}", catalog.attributes.get(pid, {}).get(name, ""))
            for name in attr_cols
        ]
        price = catalog.price[pid]
        for t in weeks:
            target_week = t + h
            row = [
                float(smoothed.x[i, t - j]) if t - j >= launch else float("nan")
                for j in range(LAG_DEPTH)
            ]
            row.extend(trend_features(smoothed, panel, pid, t))
            if config.with_seasonality:
                if seasonal_model is None:
                    raise ValueError("seasonality enabled but no model supplied")
                row.append(seasonal_model.value_at(pid, target_week))
            row.append(float(t - launch))
            row.append(price)
            row.append(cat_value)
            row.extend(attr_values)
            if view is not None:
                row.extend(view.value(name, pid, target_week, t) for name in cov_names)
            rows.append(row)
            keys.append((pid, target_week))
            life.append(int(sale_count[t]))

    x = np.array(rows, dtype=float) if rows else np.empty((0, len(columns)))
    targets: np.ndarray | None = None
    if mode == "train":
        targets = np.array([panel.y[panel.row(pid), tw] for pid, tw in keys], dtype=float)
    return FeatureMatrix(
        keys=keys,
        columns=columns,
        X=x,
        targets=targets,
        life_at_forecast=np.array(life, dtype=np.int64),
    )
