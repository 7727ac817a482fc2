"""Binary CART decision tree and bagged random forest.

Splits minimise weighted Gini impurity over midpoint thresholds between
distinct sorted values; rows with value <= threshold route left.  Tied
split scores resolve to the lowest feature index, then the lowest
threshold, so a training run is a pure function of its inputs.  A node
becomes a leaf when it is pure, too small, at max depth, or when no
split strictly decreases impurity.

Training grows each tree depth first.  At every node the candidate
feature columns are sorted as one block and scored in one pass
(``accel.scan_best_split``).

The forest draws one RNG per tree, seeded ``seed + tree_index`` (the
bootstrap sample is drawn first, then per-split feature subsets in node
pre-order), so a forest is a pure function of its inputs too.

Prediction flattens each ``TreeNode`` tree into a node table (parallel
feature, threshold, child and class arrays) and moves all rows down it
together, one array step per level.  The forest is a majority vote;
exact vote ties return class 0, as do count ties inside a leaf.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import accel
from .artifacts import require_fields


def gini_impurity(class_counts) -> float:
    """Gini impurity 1 - sum(p_k^2) from a (zeros, ones) count pair."""
    zeros, ones = (int(c) for c in class_counts)
    if zeros < 0 or ones < 0:
        raise ValueError(f"negative class counts {class_counts}")
    n = zeros + ones
    if n == 0:
        raise ValueError("empty node has no impurity")
    nf = float(n)
    return 1.0 - (zeros * zeros + ones * ones) / (nf * nf)


def gini(labels: Sequence) -> float:
    """Gini impurity of a 0/1 label multiset."""
    y = np.asarray(labels, dtype=np.int64)
    ones = int(y.sum())
    return gini_impurity((y.shape[0] - ones, ones))


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 10
    min_samples_split: int = 2
    min_samples_leaf: int = 1

    def __post_init__(self):
        if int(self.max_depth) < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if int(self.min_samples_split) < 2:
            raise ValueError(
                f"min_samples_split must be >= 2, got {self.min_samples_split}"
            )
        if int(self.min_samples_leaf) < 1:
            raise ValueError(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}"
            )


@dataclass(frozen=True)
class TreeNode:
    """Internal node (feature_index/threshold/children) or leaf.

    Every node carries its training class counts; leaves predict the
    majority class (ties to class 0).
    """

    class_counts: tuple
    predicted_class: int
    feature_index: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 101
    mtry: Optional[int] = None  # None -> ceil(sqrt(d))
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if int(self.n_trees) < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.mtry is not None and int(self.mtry) < 1:
            raise ValueError(f"mtry must be >= 1, got {self.mtry}")


@dataclass(frozen=True)
class ForestModel:
    trees: tuple
    tree_config: TreeConfig
    forest_config: ForestConfig


def _check_xy(features, labels):
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2:
        raise ValueError(f"expected 2-d feature matrix, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise ValueError(
            f"labels shape {y.shape} does not match {x.shape[0]} rows"
        )
    if x.shape[0] == 0:
        raise ValueError("no training rows")
    bad = set(np.unique(y).tolist()) - {0, 1}
    if bad:
        raise ValueError(f"labels must be 0/1, got extra values {sorted(bad)}")
    if not np.all(np.isfinite(x)):
        raise ValueError("features contain non-finite values")
    return x, y


def _leaf(ones: int, zeros: int) -> TreeNode:
    # Count tie -> class 0.
    return TreeNode(
        class_counts=(zeros, ones),
        predicted_class=1 if ones > zeros else 0,
    )


def _node_impurity(zeros: int, ones: int) -> float:
    n = float(zeros + ones)
    return 1.0 - (zeros * zeros + ones * ones) / (n * n)


def _build(cols, y, depth, config, rng, mtry):
    """Grow a subtree from ``cols``, the node's rows as a (features, rows) block."""
    n = y.shape[0]
    ones = int(y.sum())
    zeros = n - ones
    if (
        ones == 0
        or zeros == 0
        or depth >= config.max_depth
        or n < config.min_samples_split
    ):
        return _leaf(ones, zeros)

    d = cols.shape[0]
    if mtry is not None and mtry < d:
        # Sorted so the lowest-index tie rule survives subsetting.
        feats = np.sort(rng.choice(d, size=mtry, replace=False))
    else:
        feats = np.arange(d)

    order = np.argsort(cols[feats], axis=1, kind="stable")
    score, thr, row = accel.scan_best_split(
        cols[feats[:, None], order], y[order], config.min_samples_leaf
    )
    if row < 0 or not score < _node_impurity(zeros, ones):
        return _leaf(ones, zeros)

    feat = int(feats[row])
    mask = cols[feat] <= thr
    left = _build(cols[:, mask], y[mask], depth + 1, config, rng, mtry)
    right = _build(cols[:, ~mask], y[~mask], depth + 1, config, rng, mtry)
    return TreeNode(
        class_counts=(zeros, ones),
        predicted_class=1 if ones > zeros else 0,
        feature_index=feat,
        threshold=thr,
        left=left,
        right=right,
    )


def train_tree(
    features,
    labels,
    config: TreeConfig = TreeConfig(),
    feature_subset_seed: Optional[int] = None,
    mtry: Optional[int] = None,
) -> TreeNode:
    """Grow one tree.  ``mtry``/``feature_subset_seed`` enable per-split
    feature subsampling (used by the forest); left unset, every split
    considers all features."""
    x, y = _check_xy(features, labels)
    rng = None
    if mtry is not None and mtry < x.shape[1]:
        rng = np.random.default_rng(
            0 if feature_subset_seed is None else feature_subset_seed
        )
    return _build(np.ascontiguousarray(x.T), y, 0, config, rng, mtry)


def _node_table(tree: TreeNode):
    """Breadth-first parallel arrays of ``tree``.

    Returns (feature, threshold, left, right, class).  A leaf's children
    are the leaf itself, so rows that reach a leaf early stay there while
    deeper rows finish.
    """
    nodes = [tree]
    feature, threshold, left, right = [], [], [], []
    i = 0
    while i < len(nodes):
        node = nodes[i]
        if node.is_leaf:
            feature.append(0)
            threshold.append(0.0)
            left.append(i)
            right.append(i)
        else:
            feature.append(node.feature_index)
            threshold.append(node.threshold)
            left.append(len(nodes))
            right.append(len(nodes) + 1)
            nodes += (node.left, node.right)
        i += 1
    return (
        np.array(feature, dtype=np.intp),
        np.array(threshold, dtype=np.float64),
        np.array(left, dtype=np.intp),
        np.array(right, dtype=np.intp),
        np.array([node.predicted_class for node in nodes], dtype=np.int64),
    )


def _route(tree: TreeNode, x: np.ndarray) -> np.ndarray:
    """Predicted class of every row of the 2-d matrix ``x``."""
    feature, threshold, left, right, cls = _node_table(tree)
    rows = np.arange(x.shape[0])
    at = np.zeros(x.shape[0], dtype=np.intp)
    for _ in range(tree_depth(tree)):
        at = np.where(x[rows, feature[at]] <= threshold[at], left[at], right[at])
    return cls[at]


def _rows(features) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    # An empty sequence is a matrix of zero rows.
    return x.reshape(0, 0) if x.shape == (0,) else x


def predict_tree_batch(tree: TreeNode, features) -> np.ndarray:
    """Predicted class of every row of ``features`` as int64."""
    return _route(tree, _rows(features))


def predict_tree(tree: TreeNode, row) -> int:
    """Route one row to a leaf."""
    return int(predict_tree_batch(tree, [row])[0])


def tree_depth(tree: TreeNode) -> int:
    if tree.is_leaf:
        return 0
    return 1 + max(tree_depth(tree.left), tree_depth(tree.right))


def train_forest(
    features,
    labels,
    tree_config: TreeConfig = TreeConfig(),
    forest_config: ForestConfig = ForestConfig(),
) -> ForestModel:
    """Bag ``n_trees`` trees over bootstrap samples."""
    x, y = _check_xy(features, labels)
    n, d = x.shape
    mtry = forest_config.mtry
    if mtry is None:
        mtry = int(math.ceil(math.sqrt(d)))
    mtry = min(mtry, d)

    cols = np.ascontiguousarray(x.T)
    trees = []
    for t in range(forest_config.n_trees):
        rng = np.random.default_rng(forest_config.seed + t)
        if forest_config.bootstrap:
            idx = rng.integers(0, n, size=n)
            ct, yt = cols[:, idx], y[idx]
        else:
            ct, yt = cols, y
        trees.append(_build(ct, yt, 0, tree_config, rng, mtry if mtry < d else None))
    return ForestModel(tuple(trees), tree_config, forest_config)


def predict_forest_batch(model: ForestModel, features) -> np.ndarray:
    """Majority vote of the trees for every row of ``features``, as int64."""
    x = _rows(features)
    votes = np.zeros(x.shape[0], dtype=np.int64)
    for tree in model.trees:
        votes += _route(tree, x)
    # Strict majority for class 1; ties fall to class 0.
    return (2 * votes > len(model.trees)).astype(np.int64)


def predict_forest(model: ForestModel, row) -> int:
    return int(predict_forest_batch(model, [row])[0])


# -- serialization ----------------------------------------------------------


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {
            "counts": list(node.class_counts),
            "class": node.predicted_class,
        }
    return {
        "counts": list(node.class_counts),
        "class": node.predicted_class,
        "feature": node.feature_index,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(doc: dict) -> TreeNode:
    counts = tuple(int(c) for c in doc["counts"])
    if "feature" not in doc:
        return TreeNode(class_counts=counts, predicted_class=int(doc["class"]))
    return TreeNode(
        class_counts=counts,
        predicted_class=int(doc["class"]),
        feature_index=int(doc["feature"]),
        threshold=float(doc["threshold"]),
        left=_node_from_dict(doc["left"]),
        right=_node_from_dict(doc["right"]),
    )


def tree_to_text(tree: TreeNode) -> str:
    return json.dumps(
        {"format": "qkml-tree", "version": 1, "root": _node_to_dict(tree)},
        indent=2,
        sort_keys=True,
    )


def tree_from_text(text: str) -> TreeNode:
    doc = json.loads(text)
    if doc.get("format") != "qkml-tree" or doc.get("version") != 1:
        raise ValueError("not a qkml-tree version 1 document")
    return _node_from_dict(doc["root"])


def forest_to_text(model: ForestModel) -> str:
    doc = {
        "format": "qkml-forest",
        "version": 1,
        "tree_config": asdict(model.tree_config),
        "forest_config": asdict(model.forest_config),
        "trees": [_node_to_dict(t) for t in model.trees],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def forest_from_text(text: str) -> ForestModel:
    doc = json.loads(text)
    if doc.get("format") != "qkml-forest" or doc.get("version") != 1:
        raise ValueError("not a qkml-forest version 1 document")
    tc = doc["tree_config"]
    fc = doc["forest_config"]
    require_fields(TreeConfig, tc)
    require_fields(ForestConfig, fc)
    return ForestModel(
        trees=tuple(_node_from_dict(t) for t in doc["trees"]),
        tree_config=TreeConfig(**tc),
        forest_config=ForestConfig(**fc),
    )
