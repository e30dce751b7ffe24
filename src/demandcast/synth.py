"""Synthetic weekly e-commerce panel with known ground truth.

Sales are Poisson draws around a multiplicative intensity: product level x
category seasonal curve x mild trend x promotion lift x calendar-event lift.
Stockouts suppress demand to zero with the stock flag cleared, giving the
repair stage a verifiable target; promotions create the legitimate spikes
the smoother should cap. Category curves come from a handful of archetype
shapes so the clustering stage has recoverable structure.

Lifetimes are short by default (median 30 weeks): the panel is built to
exercise cold-start behaviour, not long-history forecasting.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Catalog, SalesPanel
from .ingest import Covariate, CovariateTable, write_csv

BRANDS = ("acme", "blue", "corex", "dune", "ember", "flux")
TAU = 52                       # weeks per seasonal cycle
N_SHAPES = 5                   # archetype seasonal shapes the categories share
LIFETIME_SIGMA = 0.5           # log-normal spread of lifetimes
MIN_LIFETIME = 6               # shortest lifetime in weeks
PROMO_MULTIPLIER = (1.8, 4.0)  # uniform range of a promotion's demand lift
PROMO_DISCOUNT = 0.2           # price cut in a promotion week
STOCKOUT_RUN = (1, 3)          # inclusive range of a stockout's length in weeks

# The least value of each integer SynthSpec field that has a floor; the
# synth command checks its options against the same table.
MINIMUMS = {"n_products": 1, "n_categories": 1, "n_weeks": 10, "seed": 0}


@dataclass
class SynthSpec:
    n_products: int = 500
    n_categories: int = 20
    n_weeks: int = 200
    bump_amplitude: tuple[float, float] = (0.6, 1.2)
    category_strength: tuple[float, float] = (0.7, 1.3)
    level_median: float = 8.0
    level_sigma: float = 0.7
    lifetime_median: float = 30.0
    trend_range: tuple[float, float] = (-0.003, 0.004)
    promo_prob: float = 0.06
    event_rate: float = 0.05
    event_lift: float = 1.5
    stockout_prob: float = 0.02
    seed: int = 0

    def validate(self) -> None:
        for name, low in MINIMUMS.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        probs = (
            ("promo_prob", self.promo_prob),
            ("stockout_prob", self.stockout_prob),
            ("event_rate", self.event_rate),
        )
        for name, prob in probs:
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {prob}")
        if self.level_median <= 0 or self.lifetime_median <= 0:
            raise ValueError("level and lifetime medians must be positive")


@dataclass
class GroundTruth:
    lam: np.ndarray            # (N, T) demand intensity before stockouts
    stockout_mask: np.ndarray  # (N, T) bool
    promo_mask: np.ndarray     # (N, T) bool
    category_curve: dict[str, np.ndarray]  # mean-1 curve per category, by week % TAU
    launch: np.ndarray
    end: np.ndarray            # exclusive end of the live span


def _one_shape(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    positions = np.arange(TAU)
    curve = np.ones(TAU)
    for _ in range(int(rng.integers(1, 4))):
        center = float(rng.uniform(0, TAU))
        width = float(rng.uniform(6.0, 18.0))
        amp = float(rng.uniform(*spec.bump_amplitude))
        dist = np.abs((positions - center + TAU / 2) % TAU - TAU / 2)
        bump = np.where(dist <= width, amp * np.cos(np.pi * dist / (2 * width)) ** 2, 0.0)
        curve = curve + bump
    return curve / curve.mean()


def _archetype_shapes(spec: SynthSpec, rng: np.random.Generator) -> list[np.ndarray]:
    """Mean-1 curves of 1-3 raised-cosine bumps, rejection-sampled so each has
    a visible swing and the shapes stay mutually distinguishable."""
    min_range = 0.6 * spec.bump_amplitude[0]
    shapes: list[np.ndarray] = []
    attempts = 0
    while len(shapes) < N_SHAPES and attempts < 200:
        attempts += 1
        candidate = _one_shape(spec, rng)
        swing = candidate.max() - candidate.min()
        if swing < min_range:
            continue
        if swing > 0 and any(np.corrcoef(candidate, other)[0, 1] > 0.6 for other in shapes):
            continue
        shapes.append(candidate)
    while len(shapes) < N_SHAPES:  # degenerate specs (e.g. zero amplitude)
        shapes.append(_one_shape(spec, rng))
    return shapes


def generate_panel(
    spec: SynthSpec,
) -> tuple[SalesPanel, Catalog, CovariateTable, GroundTruth]:
    """Draw one panel; identical spec (seed included) gives identical output."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n, t_count = spec.n_products, spec.n_weeks

    shapes = _archetype_shapes(spec, rng)
    categories = [f"c{k:02d}" for k in range(spec.n_categories)]
    category_curve: dict[str, np.ndarray] = {}
    for k, cat in enumerate(categories):
        strength = float(rng.uniform(*spec.category_strength))
        base = shapes[k % N_SHAPES]
        category_curve[cat] = 1.0 + strength * (base - 1.0)

    products = tuple(f"p{i:04d}" for i in range(n))
    category_of = {pid: categories[i % spec.n_categories] for i, pid in enumerate(products)}
    price = {pid: float(np.exp(rng.normal(np.log(20.0), 0.5))) for pid in products}
    attributes = {pid: {"brand": str(rng.choice(BRANDS))} for pid in products}
    catalog = Catalog(category_of, price, attributes)

    # events are aperiodic calendar shocks, deliberately orthogonal to the
    # seasonal curves so ground-truth seasonality stays clean
    event_week = rng.random(t_count) < spec.event_rate

    y = np.zeros((n, t_count), dtype=np.int64)
    on_sale = np.zeros((n, t_count), dtype=bool)
    stock = np.ones((n, t_count), dtype=bool)
    lam = np.zeros((n, t_count))
    stockout_mask = np.zeros((n, t_count), dtype=bool)
    promo_mask = np.zeros((n, t_count), dtype=bool)
    level = np.zeros(n)
    launch = np.zeros(n, dtype=np.int64)
    end = np.zeros(n, dtype=np.int64)
    for i, pid in enumerate(products):
        level[i] = float(np.exp(rng.normal(np.log(spec.level_median), spec.level_sigma)))
        launch[i] = int(rng.integers(0, max(1, t_count - 8 + 1)))
        lifetime = max(
            MIN_LIFETIME,
            int(round(np.exp(rng.normal(np.log(spec.lifetime_median), LIFETIME_SIGMA)))),
        )
        end[i] = min(t_count, launch[i] + lifetime)
        trend_rate = float(rng.uniform(*spec.trend_range))
        weeks = np.arange(launch[i], end[i])
        span = weeks.size
        on_sale[i, weeks] = True

        promo = rng.random(span) < spec.promo_prob
        promo_lift = rng.uniform(*PROMO_MULTIPLIER, size=span)
        promo_mask[i, weeks] = promo

        # stockouts hit established products mid-life: never the first two or
        # last two live weeks, so most remain detectable rather than all
        stockout = np.zeros(span, dtype=bool)
        if span > 5:
            s = 2
            while s < span - 3:
                if not stockout[s] and rng.random() < spec.stockout_prob:
                    run = int(rng.integers(STOCKOUT_RUN[0], STOCKOUT_RUN[1] + 1))
                    stockout[s : min(s + run, span - 2)] = True
                    s += run
                else:
                    s += 1
        stockout_mask[i, weeks] = stockout

        season = category_curve[category_of[pid]][weeks % TAU]
        trend = np.maximum(0.2, 1.0 + trend_rate * (weeks - launch[i]))
        lift = np.where(promo, promo_lift, 1.0)
        event = np.where(event_week[weeks], spec.event_lift, 1.0)
        lam_live = level[i] * season * trend * lift * event
        lam[i, weeks] = lam_live

        sales = rng.poisson(lam_live)
        sales[stockout] = 0
        y[i, weeks] = sales
        stock[i, weeks] = ~stockout

    panel = SalesPanel(products, y, on_sale, stock)
    rows, live = np.nonzero(on_sale)  # every live (product, week), in (row, week) order
    promo_live = promo_mask[rows, live]
    week_price = np.array([price[pid] for pid in products])[rows] * np.where(
        promo_live, 1.0 - PROMO_DISCOUNT, 1.0
    )
    covariates = CovariateTable(
        products,
        {
            "event": Covariate(np.arange(t_count), None, event_week.astype(float), True),
            "promo": Covariate(live, rows, promo_live.astype(float), True),
            "price_week": Covariate(live, rows, week_price, False),
        },
    )
    truth = GroundTruth(
        lam=lam,
        stockout_mask=stockout_mask,
        promo_mask=promo_mask,
        category_curve=category_curve,
        launch=launch,
        end=end,
    )
    return panel, catalog, covariates, truth


def write_ground_truth(truth: GroundTruth, panel: SalesPanel, path: str | Path) -> None:
    """One row per week of each product's live span [launch, end), product-major."""
    week = np.arange(truth.lam.shape[1])
    rows, weeks = np.nonzero((truth.launch[:, None] <= week) & (week < truth.end[:, None]))
    write_csv(path, ["product_id", "week", "lam", "promo", "stockout"], [
        (panel.products, rows), weeks, truth.lam[rows, weeks],
        truth.promo_mask[rows, weeks], truth.stockout_mask[rows, weeks],
    ])


def write_ground_truth_curves(truth: GroundTruth, path: str | Path) -> None:
    categories = sorted(truth.category_curve)
    curves = [truth.category_curve[cat] for cat in categories] or [np.zeros(0)]
    write_csv(path, ["category_id", "position", "value"], [
        (categories, np.repeat(np.arange(len(curves)), [len(c) for c in curves])),
        np.concatenate([np.arange(len(c)) for c in curves]),
        np.concatenate(curves),
    ])
