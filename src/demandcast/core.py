"""Core data model: weekly sales panel and product catalog.

Weeks are dense integer offsets 0..T-1 from the panel origin; calendar
alignment is the caller's concern at ingestion time. A SalesPanel's arrays
are read-only after construction. A Catalog is checked once, when it is
built; its dicts stay plain mutable dicts, so code that shares one must not
change it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ProductId = str
CategoryId = str


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SalesPanel:
    """Weekly unit-sales counts for a set of products.

    y holds non-negative integer counts, one row per product over T weeks.
    on_sale_mask marks weeks where the product was listed; stock_flag marks
    weeks where it was in stock. A product can be listed but out of stock,
    which is what fake-zero detection keys on.
    """

    products: tuple[ProductId, ...]
    y: np.ndarray            # (N, T) int64
    on_sale_mask: np.ndarray  # (N, T) bool
    stock_flag: np.ndarray    # (N, T) bool
    index: dict[ProductId, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.products)
        if len(set(self.products)) != n:
            raise ValueError("duplicate product ids in panel")
        y = np.asarray(self.y, dtype=np.int64)
        on_sale = np.asarray(self.on_sale_mask, dtype=bool)
        stock = np.asarray(self.stock_flag, dtype=bool)
        if y.ndim != 2 or y.shape[0] != n:
            raise ValueError(f"y must be ({n}, T), got {y.shape}")
        if on_sale.shape != y.shape or stock.shape != y.shape:
            raise ValueError("mask shapes must match y")
        if (y < 0).any():
            raise ValueError("negative sales count in panel")
        if (y[~on_sale] > 0).any():
            raise ValueError("positive sales on a week not marked on sale")
        object.__setattr__(self, "y", _freeze(y))
        object.__setattr__(self, "on_sale_mask", _freeze(on_sale))
        object.__setattr__(self, "stock_flag", _freeze(stock))
        object.__setattr__(self, "index", {p: i for i, p in enumerate(self.products)})

    @property
    def n_products(self) -> int:
        return len(self.products)

    @property
    def n_weeks(self) -> int:
        return self.y.shape[1]

    def row(self, product_id: ProductId) -> int:
        try:
            return self.index[product_id]
        except KeyError:
            raise KeyError(f"unknown product id: {product_id!r}") from None

    def replace_counts(self, y: np.ndarray) -> "SalesPanel":
        """New panel with the same masks and different counts."""
        return SalesPanel(self.products, y, self.on_sale_mask.copy(), self.stock_flag.copy())


@dataclass(frozen=True)
class Catalog:
    """Product attributes: category, price, and named categorical features.

    Categories partition the product set: every product has exactly one.
    """

    category_of: dict[ProductId, CategoryId]
    price: dict[ProductId, float]
    attributes: dict[ProductId, dict[str, str]]

    def __post_init__(self) -> None:
        for pid, p in self.price.items():
            if not (p > 0 and math.isfinite(p)):
                raise ValueError(f"non-positive or non-finite price for product {pid!r}: {p}")
        missing = set(self.price) - set(self.category_of)
        if missing:
            raise ValueError(f"products without a category: {sorted(missing)[:5]}")

    def validate_covers(self, panel: SalesPanel) -> None:
        """Every panel product must have a catalog entry."""
        missing = [p for p in panel.products if p not in self.category_of]
        if missing:
            raise ValueError(f"panel products missing from catalog: {missing[:5]}")


def weeks_on_sale(on_sale: np.ndarray) -> np.ndarray:
    """On-sale weeks up to and including each week, along the last axis: a
    product's life at a forecast issued that week (features.life_at_issue)."""
    return np.cumsum(on_sale, axis=-1)


def launch_weeks(on_sale: np.ndarray) -> np.ndarray:
    """First on-sale week along the last axis, -1 where never on sale."""
    return np.where(on_sale.any(axis=-1), on_sale.argmax(axis=-1), -1)
