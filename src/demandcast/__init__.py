"""Global demand forecasting for short, volatile weekly sales series."""

from .baselines import ESBaseline, es_fit_forecast, es_grid_select
from .core import Catalog, SalesPanel, weeks_on_sale
from .evaluation import (
    EvalReport,
    evaluate,
    segment_products,
    weighted_mae,
    weighted_rmse,
)
from .features import FeatureMatrix, build_matrix, hash_encode, ordinal_encode
from .gbt import (
    BoostedModel,
    best_split,
    grad_hess,
    leaf_weight,
    predict,
    train,
    train_forest,
)
from .ingest import (
    Covariate,
    CovariateTable,
    RunConfig,
    load_catalog,
    load_config,
    load_covariates,
    load_sales,
)
from .preprocess import SmoothedPanel, detect_fake_zeros, preprocess_panel, repair_fake_zeros, smooth_panel
from .seasonal import (
    SeasonalityModel,
    category_seasonality,
    cluster_seasonalities,
    fit_seasonality,
    standardize_year,
    trend_features,
)
from .synth import GroundTruth, SynthSpec, generate_panel

__version__ = "0.1.0"
