"""Global demand forecasting for short, volatile weekly sales series."""

__version__ = "0.1.0"
