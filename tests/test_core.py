import numpy as np
import pytest

from demandcast.core import Catalog, SalesPanel, launch_weeks, weeks_on_sale


def make_panel(y, on_sale=None, stock=None):
    y = np.asarray(y, dtype=np.int64)
    if on_sale is None:
        on_sale = y > -1
    if stock is None:
        stock = np.ones_like(y, dtype=bool)
    products = tuple(f"p{i}" for i in range(y.shape[0]))
    return SalesPanel(products, y, np.asarray(on_sale, dtype=bool), np.asarray(stock, dtype=bool))


class TestSalesPanel:
    def test_valid_construction(self):
        panel = make_panel([[1, 0, 2], [0, 3, 0]])
        assert panel.n_products == 2
        assert panel.n_weeks == 3

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            make_panel([[1, -1]])

    def test_sales_require_on_sale(self):
        with pytest.raises(ValueError, match="on sale"):
            make_panel([[1, 2]], on_sale=[[True, False]])

    def test_masks_must_match_shape(self):
        with pytest.raises(ValueError):
            SalesPanel(("a",), np.array([[1, 2]]), np.ones((1, 3), bool), np.ones((1, 2), bool))

    def test_unknown_product(self):
        panel = make_panel([[1, 2]])
        with pytest.raises(KeyError, match="unknown product"):
            panel.row("nope")

    def test_immutable(self):
        panel = make_panel([[1, 2]])
        with pytest.raises(ValueError):
            panel.y[0, 0] = 9


class TestLifeLength:
    def test_launch_week(self):
        on_sale = np.array([[False, True, False, True], [False, False, False, False]])
        assert launch_weeks(on_sale).tolist() == [1, -1]
        assert launch_weeks(on_sale[0]) == 1

    def test_weeks_on_sale_counts_listed_weeks_so_far(self):
        on_sale = np.array([[False, True, False, True], [False, False, False, False]])
        assert weeks_on_sale(on_sale).tolist() == [[0, 1, 1, 2], [0, 0, 0, 0]]
        assert weeks_on_sale(on_sale[0]).tolist() == [0, 1, 1, 2]


class TestCatalog:
    def test_nonpositive_price(self):
        with pytest.raises(ValueError, match="price"):
            Catalog({"a": "x"}, {"a": 0.0}, {})

    @pytest.mark.parametrize("price", [float("inf"), float("nan")])
    def test_nonfinite_price(self, price):
        with pytest.raises(ValueError, match="price"):
            Catalog({"a": "x"}, {"a": price}, {})

    def test_missing_category(self):
        with pytest.raises(ValueError, match="category"):
            Catalog({}, {"a": 1.0}, {})

    def test_covers_panel(self):
        catalog = Catalog({"p0": "x"}, {"p0": 1.0}, {})
        panel = make_panel([[1, 2], [0, 1]])
        with pytest.raises(ValueError, match="missing from catalog"):
            catalog.validate_covers(panel)
