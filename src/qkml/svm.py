"""Binary SVM trained by SMO with second-order working-set selection.

Labels enter as {0, 1} and are mapped to {-1, +1} internally.  Training
runs on a precomputed kernel matrix; ``linear`` and ``rbf`` kernels are
provided for classical baselines and simply build that matrix from the
feature rows first.  The decision value for a row with kernel entries
k_i against the training set is

    sum_i alpha_i * y_i * k_i + bias

and ties at exactly 0 resolve to class 1.  Only the rows with
alpha_i != 0 add to that sum, so prediction reads only those:
``support_model`` keeps them, ``predict_features`` evaluates linear and
rbf kernels against them alone, and a quantum-kernel caller compares
test rows only with those train rows.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import accel
from .artifacts import cast_fields, from_document, require_fields, to_document
from .dataset import check_xy
from .qkernel import GramMatrix, matrix_sha256

PRECOMPUTED = "precomputed"
LINEAR = "linear"
RBF = "rbf"
_KERNELS = (PRECOMPUTED, LINEAR, RBF)

LABEL_MAP = {0: -1, 1: 1}

# Warn (and proceed) when the training matrix dips below this eigenvalue.
PSD_WARN_TOL = -1e-6
# Eigenvalue check is O(n^3); skip it for matrices past this size.
_PSD_CHECK_MAX_N = 2048


@dataclass(frozen=True)
class SvmConfig:
    """Box constraint, stopping rule and kernel choice.

    The solve stops when the KKT gap falls below ``tolerance``;
    ``max_passes`` is validated and serialized for compatibility but no
    longer affects training.  rbf kernels use exp(-gamma * ||x - x'||^2);
    when ``gamma`` is left unset it defaults to 1/d at training time.
    ``class_weight`` (off by default) scales the per-class box: sample i
    of class k gets C * class_weight[k].
    """

    c: float = 1.0
    tolerance: float = 1e-3
    max_passes: int = 50
    kernel: str = PRECOMPUTED
    gamma: Optional[float] = None
    class_weight: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        cast_fields(self, max_passes=1)
        if not self.c > 0:
            raise ValueError(f"c must be > 0, got {self.c}")
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.kernel not in _KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        cw = self.class_weight
        if cw is not None and (len(cw) != 2 or any(not w > 0 for w in cw)):
            raise ValueError(f"class_weight must be two positive factors, got {cw}")


@dataclass(frozen=True)
class SvmModel:
    """Trained dual model.

    ``signed_labels`` are the {-1, +1} training labels backing the
    decision sum; ``kernel_sha256`` fingerprints the training kernel so a
    deserialized model can be matched to its cached matrix.
    ``train_features`` is retained only for linear/rbf models, which must
    evaluate their own kernel rows at prediction time.  ``support_indices``
    are the rows whose alpha exceeds SUPPORT_EPS.
    """

    config: SvmConfig
    alphas: np.ndarray = field(repr=False)
    bias: float = 0.0
    signed_labels: np.ndarray = field(repr=False, default=None)
    support_indices: np.ndarray = field(repr=False, default=None)
    kernel_sha256: str = ""
    train_features: Optional[np.ndarray] = field(repr=False, default=None)


def linear_kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Plain dot-product kernel, rows of a against rows of b."""
    return np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64).T


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * squared euclidean distance)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sq = (
        (a * a).sum(axis=1)[:, None]
        + (b * b).sum(axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


def _feature_kernel(config: SvmConfig, a, b) -> np.ndarray:
    """The linear or rbf kernel of ``config``, rows of a against rows of b."""
    if config.kernel == LINEAR:
        return linear_kernel(a, b)
    if config.kernel == RBF:
        return rbf_kernel(a, b, config.gamma)
    raise ValueError("train_svm_features needs a linear or rbf kernel config")


def _as_kernel_matrix(gram: Union[GramMatrix, np.ndarray]) -> np.ndarray:
    m = np.asarray(getattr(gram, "entries", gram), dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"kernel matrix must be square, got shape {m.shape}")
    return m


def train_svm(
    gram: Union[GramMatrix, np.ndarray],
    labels: Sequence,
    config: SvmConfig = SvmConfig(),
    seed: int = 0,
) -> SvmModel:
    """Solve the dual on a precomputed kernel matrix.

    Training is deterministic and draws no random numbers: ``seed``, like
    ``SvmConfig.max_passes``, is kept for compatibility and has no effect.
    The solve stops once the KKT gap falls below ``config.tolerance``.  A
    plain array whose smallest eigenvalue falls below PSD_WARN_TOL
    triggers a warning but training proceeds (the check is skipped above
    _PSD_CHECK_MAX_N rows to stay affordable).  A ``GramMatrix`` is not
    checked: its fidelities |<a|b>|^2 are the entrywise product of a PSD
    Gram and its conjugate, so it is PSD by the Schur product theorem.
    A kernel matrix with a NaN or infinite entry raises ValueError.
    """
    kmat = np.ascontiguousarray(_as_kernel_matrix(gram))
    n = kmat.shape[0]
    y01 = check_xy(kmat, labels)[1]
    if config.kernel != PRECOMPUTED:
        raise ValueError(
            f"train_svm takes a precomputed matrix; config says {config.kernel!r}"
            " (use train_svm_features)"
        )
    if not isinstance(gram, GramMatrix) and n <= _PSD_CHECK_MAX_N:
        min_eig = float(np.linalg.eigvalsh((kmat + kmat.T) / 2.0)[0])
        if min_eig < PSD_WARN_TOL:
            warnings.warn(
                f"kernel matrix is not PSD (min eigenvalue {min_eig:.3e}); "
                "training proceeds but the dual may be ill-posed",
                RuntimeWarning,
                stacklevel=2,
            )
    return _fit(kmat, y01, config, train_features=None)


def train_svm_features(
    features: np.ndarray,
    labels: Sequence,
    config: SvmConfig,
    seed: int = 0,
) -> SvmModel:
    """Train a linear/rbf model straight from feature rows; ``seed`` has
    no effect, as in ``train_svm``."""
    x, y01 = check_xy(features, labels)
    if config.kernel == RBF and config.gamma is None:
        config = replace(config, gamma=1.0 / x.shape[1])
    kmat = _feature_kernel(config, x, x)
    return _fit(np.ascontiguousarray(kmat), y01, config, train_features=x)


SUPPORT_EPS = 1e-8


def _fit(kmat, y01, config, train_features) -> SvmModel:
    if np.unique(y01).shape[0] < 2:
        raise ValueError("training needs both classes present")
    # SMO never meets its stopping rule on a NaN gradient.
    if not np.all(np.isfinite(kmat)):
        raise ValueError("kernel matrix contains non-finite values")
    y = (2 * y01 - 1).astype(np.float64)
    weights = config.class_weight or (1.0, 1.0)
    c_arr = float(config.c) * np.where(y01 == 1, weights[1], weights[0])
    alphas, bias, iterations = accel.smo_solve(
        kmat, y, np.ascontiguousarray(c_arr, dtype=np.float64), float(config.tolerance)
    )
    bound = accel.smo_iteration_bound(kmat.shape[0])
    if iterations >= bound:
        warnings.warn(
            f"SMO stopped at its iteration bound ({bound}) before the KKT gap "
            f"fell below {config.tolerance}; model may not satisfy KKT",
            RuntimeWarning,
            stacklevel=3,
        )
    support = np.flatnonzero(alphas > SUPPORT_EPS)
    return SvmModel(
        config=config,
        alphas=alphas,
        bias=float(bias),
        signed_labels=y.astype(np.int64),
        support_indices=support,
        kernel_sha256=matrix_sha256(kmat),
        train_features=train_features,
    )


def decision_function(model: SvmModel, kernel_rows: np.ndarray) -> np.ndarray:
    """Decision values for rows of kernel entries against the train set."""
    k = np.asarray(kernel_rows, dtype=np.float64)
    if k.ndim == 1:
        k = k[None, :]
    n = model.alphas.shape[0]
    if k.shape[1] != n:
        raise ValueError(
            f"kernel rows have {k.shape[1]} columns, model was trained on {n}"
        )
    coef = model.alphas * model.signed_labels
    return k @ coef + model.bias


def support_model(model: SvmModel) -> SvmModel:
    """``model`` restricted to its train rows with alpha != 0 (exactly, not
    SUPPORT_EPS), ``np.flatnonzero(model.alphas)`` in ascending order.
    ``predict`` and ``decision_function`` take its kernel rows, against
    those train rows only, and give the same decisions up to the rounding
    of the shorter sum; with every alpha 0, the bias alone decides."""
    keep = np.flatnonzero(model.alphas)
    alphas = model.alphas[keep]
    feats = model.train_features
    return replace(
        model,
        alphas=alphas,
        signed_labels=model.signed_labels[keep],
        support_indices=np.flatnonzero(alphas > SUPPORT_EPS),
        train_features=None if feats is None else feats[keep],
    )


def predict(model: SvmModel, kernel_rows: np.ndarray) -> np.ndarray:
    """Class labels from kernel rows; decision >= 0 maps to class 1."""
    return (decision_function(model, kernel_rows) >= 0.0).astype(np.int64)


def predict_features(model: SvmModel, features: np.ndarray) -> np.ndarray:
    """Class labels straight from feature rows (linear/rbf models only)."""
    if model.train_features is None:
        raise ValueError(
            "model has no stored training features; pass kernel rows instead"
        )
    support = support_model(model)
    return predict(support, _feature_kernel(support.config, features, support.train_features))


def dual_objective(
    kmat: np.ndarray, labels: Sequence, alphas: np.ndarray
) -> float:
    """Dual value W(alpha) = sum(alpha) - 0.5 * (alpha y)' K (alpha y)."""
    kmat = _as_kernel_matrix(kmat)
    y = 2.0 * np.asarray(labels, dtype=np.float64) - 1.0
    v = alphas * y
    return float(alphas.sum() - 0.5 * v @ kmat @ v)


def model_to_text(model: SvmModel) -> str:
    """Serialize to a JSON document (floats survive exactly via repr)."""
    return to_document(
        "svm",
        config=asdict(model.config),
        alphas=model.alphas.tolist(),
        bias=model.bias,
        signed_labels=model.signed_labels.tolist(),
        support_indices=model.support_indices.tolist(),
        label_map={str(k): v for k, v in LABEL_MAP.items()},
        kernel_sha256=model.kernel_sha256,
        train_features=(
            None
            if model.train_features is None
            else model.train_features.tolist()
        ),
    )


def model_from_text(text: str) -> SvmModel:
    doc = from_document(text, "svm")
    cfg = doc["config"]
    # Documents written before class weights existed lack that key.
    require_fields(SvmConfig, cfg, optional=("class_weight",))
    feats = doc.get("train_features")
    return SvmModel(
        config=SvmConfig(**cfg),
        alphas=np.asarray(doc["alphas"], dtype=np.float64),
        bias=float(doc["bias"]),
        signed_labels=np.asarray(doc["signed_labels"], dtype=np.int64),
        support_indices=np.asarray(doc["support_indices"], dtype=np.int64),
        kernel_sha256=doc.get("kernel_sha256", ""),
        train_features=(
            None if feats is None else np.asarray(feats, dtype=np.float64)
        ),
    )
