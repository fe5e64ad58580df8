"""selreg: selective regression with reject options.

Train the regressor on all the data, learn where to defer afterwards:
a kernel calibrator estimates the model's conditional squared-error risk,
thresholding it at the deferral cost (fixed-cost) or at a split-conformal
order statistic (fixed-budget) yields the rejector.  A verification suite
checks the underlying inequalities exactly on synthetic tasks.
"""

from .backend import BACKEND
from .core import (
    CostConfig,
    CostMode,
    DEFAULT_SIGMA_GRID,
    DataError,
    Dataset,
    KernelSpec,
    RngHandle,
    SelregError,
    SplitSpec,
    split_dataset,
    standardize,
)
from .losses import LossReport, empirical_rwr_loss, oracle_rwr_risk, squared_risk, truncated_loss
from .models import KnnConfig, MlpConfig, fit_knn, fit_knn_auto, fit_mlp
from .rejection import (
    KernelSmootherCalibrator,
    conformal_threshold,
    induce_rejector,
    kernel_calibrate,
    oracle_bayes_pair,
    select_bandwidth,
)
from .tasks import default_discrete_task, default_smooth_task, get_task

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CostConfig",
    "CostMode",
    "DEFAULT_SIGMA_GRID",
    "DataError",
    "Dataset",
    "KernelSmootherCalibrator",
    "KernelSpec",
    "KnnConfig",
    "LossReport",
    "MlpConfig",
    "RngHandle",
    "SelregError",
    "SplitSpec",
    "conformal_threshold",
    "default_discrete_task",
    "default_smooth_task",
    "empirical_rwr_loss",
    "fit_knn",
    "fit_knn_auto",
    "fit_mlp",
    "get_task",
    "induce_rejector",
    "kernel_calibrate",
    "oracle_bayes_pair",
    "oracle_rwr_risk",
    "select_bandwidth",
    "split_dataset",
    "squared_risk",
    "standardize",
    "truncated_loss",
    "__version__",
]
