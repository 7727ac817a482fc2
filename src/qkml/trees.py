"""Binary CART decision tree and bagged random forest.

Splits minimise weighted Gini impurity over midpoint thresholds between
distinct sorted values; rows with value <= threshold route left.  Tied
split scores resolve to the lowest feature index, then the lowest
threshold, so a training run is a pure function of its inputs.  A node
becomes a leaf when it is pure, too small, at max depth, or when no
split strictly decreases impurity.

Training grows all of a forest's trees in lockstep (``_grow``), and
``train_tree`` is ``train_forest``'s one-tree case: no bootstrap, so
multiplicity 1 per sample.  A tree keeps its distinct samples (~63% of a
bootstrap draw) with their multiplicities as weights, and a node is a
range of them.  Each step sorts the samples of every (node, feature)
candidate by a key of dense value rank, label and multiplicity, at most
``_CHUNK`` at once, scores every new value's position from weighted
prefix sums, the bootstrap sample's own counts, and partitions the split
nodes' ranges in place.  The grower writes the forest's node table
(``_table``: parallel feature, threshold, child and class arrays,
breadth first) and each node's class counts.  That table is the trained
model: ``ForestModel.trees`` builds the ``TreeNode`` trees from it
(``_build``) on first read, and model text version 2 is its columns.

The forest draws one RNG per tree, seeded ``seed + tree_index`` (the
bootstrap sample is drawn first, then per-split feature subsets in node
pre-order), so a forest is a pure function of its inputs too.  Each
tree's subsets are drawn ``_BLOCK`` nodes ahead (``_subsets``) in one
``integers`` call, or by ``rng.choice`` in numpy's tail-shuffle regime.

Prediction routes every (tree, row) pair down one node table together,
one array step per level: the table a trained or read forest keeps, or
one stacked from hand-built trees (``_node_table``).  The forest is a
majority vote; exact vote ties return class 0, as do count ties inside a
leaf.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .artifacts import cast_fields, from_document, require_fields, to_document
from .dataset import check_xy


def gini_impurity(class_counts) -> float:
    """Gini impurity 1 - sum(p_k^2) from a (zeros, ones) count pair."""
    zeros, ones = (int(c) for c in class_counts)
    if zeros < 0 or ones < 0:
        raise ValueError(f"negative class counts {class_counts}")
    if zeros + ones == 0:
        raise ValueError("empty node has no impurity")
    return _node_impurity(zeros, ones)


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
        cast_fields(self, max_depth=1, min_samples_split=2, min_samples_leaf=1)


@dataclass(frozen=True, slots=True)
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
        cast_fields(self, n_trees=1, mtry=1, seed=0)


class _Trees:
    """``ForestModel.trees`` of a forest made from its node table: built on
    first read and kept in the instance, which then shadows this."""

    def __get__(self, model, owner=None):
        if model is None:
            raise AttributeError("trees")  # so the dataclass field has no default
        model.__dict__["trees"] = trees = tuple(_build(*model.table))
        return trees


@dataclass(frozen=True)
class ForestModel:
    trees: tuple = _Trees()
    tree_config: TreeConfig
    forest_config: ForestConfig
    # The (_table, class counts) pair a trained or read forest is; None, as
    # after dataclasses.replace, stacks it from the trees at predict.
    table: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)


def _table_model(table, tree_config, forest_config) -> ForestModel:
    """The forest of a (``_table``, class counts) pair, its trees unbuilt."""
    model = object.__new__(ForestModel)
    model.__dict__.update(table=table, tree_config=tree_config, forest_config=forest_config)
    return model


def _check_xy(features, labels):
    x, y = check_xy(features, labels)
    if x.shape[0] == 0:
        raise ValueError("no training rows")
    if not np.all(np.isfinite(x)):
        raise ValueError("features contain non-finite values")
    return x, y


def _node_impurity(zeros, ones):
    n = zeros + ones
    return 1.0 - (zeros * zeros + ones * ones) / (n * n)


# Elements handled at once; bounds the grower's scratch memory.
_CHUNK = 1 << 14


def _chunks(lens, at):
    """Runs of consecutive segments, of lengths ``lens`` at positions
    ``at`` of a flat array, with at most ``_CHUNK`` elements together; a
    longer segment runs alone.  Yields the run's segments [lo, hi), the
    segment (from 0) and position of each element, and the segments'
    starts in the run."""
    ends = np.cumsum(lens)
    lo = 0
    while lo < len(ends):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - lens[lo] + _CHUNK, "right")))
        starts = np.cumsum(lens[lo:hi]) - lens[lo:hi]
        seg = np.repeat(np.arange(hi - lo), lens[lo:hi])
        yield lo, hi, seg, np.arange(len(seg)) + (at[lo:hi] - starts)[seg], starts
        lo = hi


def _ranks(cols, y):
    """The distinct values of each of the (d, n) ``cols`` in turn, and the
    (d, n) codes 2 * rank + label, where rank indexes the value in them."""
    uniq, codes = [], np.empty(cols.shape, dtype=np.int64)
    for col, code in zip(cols, codes):
        u, rank = np.unique(col, return_inverse=True)
        code[:] = 2 * (rank + sum(map(len, uniq))) + y
        uniq.append(u)
    return np.concatenate(uniq), codes


def _best_splits(uniq, codes, flat, mult, at, count, size, ones, feats, min_leaf):
    """Best split of each node i, the samples flat[at[i]:at[i] + count[i]]
    of multiplicities ``mult``, size[i] rows in all and ones[i] of class 1,
    over its k features feats[i]: (score, feature, threshold) arrays, with
    score inf where no split is admissible.

    Candidate c is feature feats.flat[c] of node c // k.  Its samples sort
    by ((c - lo) * span + code) * 2^b + multiplicity, lo the chunk's first
    candidate, span = 2 len(uniq), b the bit length of the chunk's largest
    multiplicity.  As c - lo < ``_CHUNK``, that key fits int64 while
    (c - lo) * span * 2^b < 2^63.  A node scores the position before each
    new value; it takes its first strict minimum, feature-major."""
    k, n, span = feats.shape[1], codes.shape[1], 2 * len(uniq)
    codes, feats = codes.ravel(), feats.ravel()
    best = np.full(len(size), np.inf)
    best_feat, best_thr = np.zeros(len(size), dtype=np.intp), np.zeros(len(size))
    for lo, hi, seg, pos, starts in _chunks(np.repeat(count, k), np.repeat(at, k)):
        key = seg * span + codes[(feats[lo:hi] * n)[seg] + flat[pos]]
        w = mult[pos]
        bits = int(w.max()).bit_length()
        key <<= bits
        key |= w
        key.sort()
        w = key & ((1 << bits) - 1)
        key >>= bits
        # Prefix sums of rows + 2^32 class-1 rows: a difference within a
        # node unpacks exactly, since each part is under 2^31.
        cum = ((key & 1) << 32) + 1
        cum *= w
        cum = np.concatenate(([0], np.cumsum(cum)))
        # Adjacent keys differ above the label bit at each new value e; the
        # p rows before e in its segment can go left, if each side keeps
        # min_leaf rows.
        e = np.flatnonzero((key[1:] ^ key[:-1]) > 1) + 1
        seg = seg[e]
        node = (seg + lo) // k
        left = cum[e] - cum[starts[seg]]
        p = left & 0xFFFFFFFF
        keep = (p >= min_leaf) & (p <= size[node] - min_leaf)
        e, seg, node, p, left = e[keep], seg[keep], node[keep], p[keep], left[keep]
        if not len(e):
            continue
        pl, nf = p.astype(np.float64), size[node].astype(np.float64)
        lo_ones = (left >> 32).astype(np.float64)
        hi, hi_ones = nf - pl, ones[node] - lo_ones
        # Each side scores m * Gini, exactly: for integral floats below 2^31, (m - o) + o == m.
        score = (pl * _node_impurity(pl - lo_ones, lo_ones) + hi * _node_impurity(hi - hi_ones, hi_ones)) / nf
        # A later run holds later features, so it must beat the best so far.
        new = np.concatenate(([True], node[1:] != node[:-1]))
        low = np.minimum.reduceat(score, np.flatnonzero(new))[np.cumsum(new) - 1]
        win = np.flatnonzero(score == low)
        win = win[np.concatenate(([True], node[win[1:]] != node[win[:-1]]))]
        win = win[score[win] < best[node[win]]]
        g = node[win]
        best[g] = score[win]
        best_feat[g] = feats[seg[win] + lo]
        edge = (key[np.stack([e[win] - 1, e[win]])] >> 1) % len(uniq)
        best_thr[g] = (uniq[edge[0]] + uniq[edge[1]]) / 2.0
    return best, best_feat, best_thr


# Subsets drawn ahead per generator call; a larger block saves few calls.
_BLOCK = 32


def _subsets(rngs, d, mtry, count):
    """The next ``count`` sorted sets per-node ``choice(d, mtry, replace=False)``
    calls on each generator of ``rngs`` give, as a (len(rngs), count, mtry) array.

    One ``integers`` call per generator makes choice's bounded draws in its
    order: Floyd's algorithm (bounds d - mtry ... d - 1, a repeat replaced
    by its bound), then a shuffle (mtry - 1 ... 1).  Past 10,000 features
    with mtry > d // 50 choice shuffles arange(d)'s tail, and runs per node."""
    if d > 10_000 and mtry > d // 50:
        out = np.array([rng.choice(d, mtry, replace=False) for rng in rngs for _ in range(count)])
    else:
        highs = np.r_[d - mtry:d, mtry - 1:0:-1]
        draws = np.concatenate([rng.integers(0, highs, (count, len(highs)), endpoint=True)
                                for rng in rngs])
        out, step = np.empty((len(draws), mtry), dtype=np.int64), max(1, 2**20 // d)
        for lo in range(0, len(draws), step):
            v, o = draws[lo:lo + step], out[lo:lo + step]
            r = np.arange(len(v))
            taken = np.zeros((len(v), d), dtype=bool)
            for k, j in enumerate(highs[:mtry]):
                o[:, k] = np.where(taken[r, v[:, k]], j, v[:, k])
                taken[r, o[:, k]] = True
    # Sorted so the lowest-index tie rule survives subsetting.
    return np.sort(out, 1).reshape(len(rngs), count, mtry)


def _grow(x, y, rows, mult, config, rngs, mtry):
    """Grow one tree per row of ``rows``, the (trees, n) int32 sample
    indices into the (n, d) ``x`` and ``y``; returns their ``_table`` and
    its rows' (2, nodes) class counts.  ``mult`` is the rows' int32
    multiplicities: a tree's distinct samples are the front of its row,
    those of multiplicity above 0, and a tree without bootstrap has
    multiplicity 1 everywhere.

    ``rngs`` holds each tree's generator for its ``mtry`` feature draws,
    or is None when every split considers all features.  Each step scores
    the next node of every tree that draws, so its subsets, drawn in blocks
    from its own stream (``_subsets``), are those of per-node ``rng.choice``
    in a depth-first build; and all open nodes of a tree that does not.
    A node is a range of its tree's distinct samples, partitioned in place
    (multiplicities alongside) on a split, and an int column (id, tree,
    start, count, size, ones, depth): count samples that weigh size rows,
    ones of class 1.  Open nodes wait in their tree's pre-order stack, a
    row of ``stack`` topped at ``top``.
    """
    (n_trees, n), d, block = rows.shape, x.shape[1], _BLOCK
    uniq, codes = _ranks(x.T, y)
    flat, values = rows.ravel(), x.T.ravel()  # values[f * n + i] = x[i, f]
    weights = mult.ravel()
    stack, top = np.empty((7, n_trees, 8), dtype=np.int64), np.zeros(n_trees, dtype=np.intp)
    drawn, step = np.empty((n_trees, block, mtry if rngs else 0), dtype=np.int64), 0
    t = np.arange(n_trees)
    count, ones = np.count_nonzero(mult, axis=1), np.einsum("tn,tn->t", y[rows], mult)
    new = np.stack([t, t, t * n, count, np.full(n_trees, n), ones, 0 * t])[..., None]
    # Per step, copied out of the step's arrays: (size, ones) of the nodes
    # made, and (id, feature, threshold) of the nodes split.
    made, splits, total = [], [(np.empty(0, dtype=np.intp),) * 3], 0
    while True:
        # Number the new (7, nodes, sides) columns; a node that is pure,
        # too small or at max depth is a leaf, and the others stay open.
        new[0] = np.arange(total, total + new[0].size).reshape(new[0].shape)
        total += new[0].size
        made.append(new[4:6].reshape(2, -1).copy())
        m, o, depth = new[4:]
        open_ = (o > 0) & (o < m) & (m >= config.min_samples_split) & (depth < config.max_depth)
        if rngs is None:
            nodes = new[:, open_]
            feats = np.repeat(np.arange(d)[None], nodes.shape[1], axis=0)
        else:
            if top.max() + 2 > stack.shape[2]:
                stack = np.concatenate([stack, stack], axis=2)
            for side in reversed(range(new.shape[2])):  # the left child pops first
                t = new[1, open_[:, side], side]
                stack[:, t, top[t]] = new[:, open_[:, side], side]
                top[t] += 1
            ts = np.flatnonzero(top)
            top[ts] -= 1
            nodes = stack[:, ts, top[ts]]
            # A tree draws at every step until its stack empties, so the
            # trees still drawing all run out of subsets together.
            if len(ts) and step % block == 0:
                drawn[ts] = _subsets([rngs[t] for t in ts], d, mtry, block)
            feats, step = drawn[ts, step % block], step + 1
        if not nodes.shape[1]:
            break
        at, count, size, ones = nodes[2:6]
        best, feat, thr = _best_splits(uniq, codes, flat, weights, at, count, size, ones, feats,
                                       config.min_samples_leaf)
        grown = best < _node_impurity(size - ones, ones)
        nodes, feat, thr = nodes[:, grown], feat[grown], thr[grown]
        # Samples with value <= threshold move to the front of their range;
        # the children are (7, split nodes, left and right) columns.
        new = np.repeat(nodes[..., None], 2, axis=2)
        for lo, hi, seg, pos, starts in _chunks(nodes[3], nodes[2]):
            sample = flat[pos]
            right = values[(feat[lo:hi] * n)[seg] + sample] > thr[lo:hi][seg]
            order = np.argsort(2 * seg + right, kind="stable")
            flat[pos] = sample[order]
            w = weights[pos]
            weights[pos] = w[order]
            w *= right
            new[3:6, lo:hi, 1] = np.add.reduceat([right, w, w * y[sample]], starts, axis=1)
        new[3:6, :, 0] -= new[3:6, :, 1]
        new[2, :, 1] += new[3, :, 0]
        new[6] += 1
        splits.append((nodes[0].copy(), feat, thr))
    counts = np.concatenate(made, axis=1)  # (size, ones), then (zeros, ones)
    counts[0] -= counts[1]
    table, order = _table(n_trees, (counts[1] > counts[0]).astype(np.int64),
                          *map(np.concatenate, zip(*splits)))
    return table, counts[:, order]


def _table(n_trees, cls, split, feat, thr):
    """The node table of ``n_trees`` trees, and the node in each of its
    rows.  The nodes are numbered roots first, then two by two the
    children of the split nodes in their order: node i predicts ``cls[i]``,
    and node ``split[j]`` splits on ``feat[j]`` at ``thr[j]`` into nodes
    ``n_trees + 2j`` and ``n_trees + 2j + 1``.

    The table is (feature, threshold, left, right, class, roots, depth):
    parallel arrays over the nodes breadth first, roots first, and the
    deepest tree's depth.  A leaf's children are the leaf itself, so rows
    that reach a leaf early stay there while deeper rows finish.
    """
    count, first = len(cls), n_trees + 2 * np.arange(len(split))
    kid = np.arange(count)  # a node's first child, or the leaf itself
    kid[split] = first
    levels = [np.arange(n_trees)]
    while len(levels[-1]):  # level by level; the last one is empty
        level = levels[-1][kid[levels[-1]] != levels[-1]]
        levels.append((kid[level][:, None] + [0, 1]).ravel())
    order = np.concatenate(levels)
    place, left = np.argsort(order), np.arange(count)
    at, feature, threshold = place[split], np.zeros(count, dtype=np.intp), np.zeros(count)
    feature[at], threshold[at], left[at] = feat, thr, place[first]
    right = left.copy()
    right[at] += 1
    return (feature, threshold, left, right, cls[order], place[:n_trees], len(levels) - 2), order


def _build(table, counts):
    """The root ``TreeNode`` of each tree of ``table``, whose rows have the
    (2, nodes) class ``counts``.  Children come after their parent, so one
    backward pass builds them, in steps that bound its lists' memory."""
    nodes, run = [None] * counts.shape[1], max(1, _CHUNK // 8)
    for end in range(len(nodes), 0, -run):
        cols = (col[max(0, end - run):end][::-1].tolist() for col in (*table[:3], table[4], *counts))
        for i, f, th, lo, cls, z, o in zip(range(end - 1, -1, -1), *cols):
            nodes[i] = (TreeNode((z, o), cls) if lo == i
                        else TreeNode((z, o), cls, f, th, nodes[lo], nodes[lo + 1]))
    return [nodes[r] for r in table[5].tolist()]


def train_tree(features, labels, config: TreeConfig = TreeConfig(),
               feature_subset_seed: Optional[int] = None, mtry: Optional[int] = None) -> TreeNode:
    """Grow one tree: the one tree of a forest without bootstrap.  ``mtry``
    and ``feature_subset_seed`` (as ``ForestConfig``'s ``mtry`` and
    ``seed``) enable per-split feature subsampling; left unset, every split
    considers all features.  ``ForestConfig`` refuses an ``mtry`` that is
    not an integer of at least 1 with a ValueError."""
    x, y = _check_xy(features, labels)
    fcfg = ForestConfig(n_trees=1, mtry=x.shape[1] if mtry is None else mtry, bootstrap=False,
                        seed=feature_subset_seed or 0)
    return train_forest(x, y, config, fcfg).trees[0]


def _stack(roots, fields):
    """The ``_table`` of the forest of ``roots`` and its rows' (2, nodes)
    class counts, walked breadth first: ``fields(node)`` gives a node's
    (class counts, class, feature, threshold, left, right), left None at
    a leaf."""
    nodes, rows, split = list(roots), [], []
    for i, node in enumerate(nodes):  # the loop reaches the nodes it appends
        rows.append(fields(node))
        if rows[-1][4] is not None:
            split.append(i)
            nodes += rows[-1][4:]
    counts, cls, feat, thr, _, _ = zip(*rows) if rows else [()] * 6
    table, order = _table(len(roots), np.array(cls, dtype=np.int64), np.array(split, dtype=np.intp),
                          [feat[i] for i in split], [thr[i] for i in split])
    return table, np.array(counts, dtype=np.int64).reshape(-1, 2).T[:, order]


def _node_table(*trees: TreeNode):
    """The ``_table`` of the forest ``trees``, and its rows' class counts."""
    return _stack(trees, lambda n: (n.class_counts, n.predicted_class, n.feature_index,
                                    n.threshold, n.left, n.right))


def _route(table, x: np.ndarray) -> np.ndarray:
    """Votes of every row of the 2-d matrix ``x``: its predicted classes
    summed over the trees of ``table``.  (tree, row) pairs move down the
    table together, at most ``_CHUNK`` at once, one array step per level."""
    feature, threshold, left, right, cls, roots, depth = table
    n, pairs = x.shape[0], len(roots) * x.shape[0]
    child = np.stack([right, left], axis=1).ravel()  # [2 * node + (value <= threshold)]
    votes = np.zeros(n, dtype=np.int64)
    for lo in range(0, pairs, _CHUNK):
        pair = np.arange(lo, min(lo + _CHUNK, pairs))
        row, at = pair % n, roots[pair // n]
        for _ in range(depth):
            at = child[2 * at + (x[row, feature[at]] <= threshold[at])]
        votes += np.bincount(row, cls[at], n).astype(np.int64)
    return votes


def _rows(features) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    # An empty sequence is a matrix of zero rows.
    return x.reshape(0, 0) if x.shape == (0,) else x


def predict_tree_batch(tree: TreeNode, features) -> np.ndarray:
    """Predicted class of every row of ``features`` as int64."""
    return _route(_node_table(tree)[0], _rows(features))


def predict_tree(tree: TreeNode, row) -> int:
    """Route one row to a leaf."""
    return int(predict_tree_batch(tree, [row])[0])


def tree_depth(tree: TreeNode) -> int:
    return _node_table(tree)[0][-1]


def forest_depth(model: ForestModel) -> int:
    """Depth of the deepest tree, read from the forest's node table."""
    return (model.table or _node_table(*model.trees))[0][-1]


def train_forest(features, labels, tree_config: TreeConfig = TreeConfig(),
                 forest_config: ForestConfig = ForestConfig()) -> ForestModel:
    """Bag ``n_trees`` trees over bootstrap samples, or over every row once
    without bootstrap."""
    x, y = _check_xy(features, labels)
    n, d = x.shape
    mtry = min(d, forest_config.mtry or int(math.ceil(math.sqrt(d))))
    rngs = [np.random.default_rng(forest_config.seed + t) for t in range(forest_config.n_trees)]
    rows = np.tile(np.arange(n, dtype=np.int32), (forest_config.n_trees, 1))
    mult = np.ones_like(rows)
    if forest_config.bootstrap:
        for t, rng in enumerate(rngs):
            # The tree's distinct samples first, then the ones not drawn.
            drawn = np.bincount(rng.integers(0, n, size=n), minlength=n)
            rows[t] = np.argsort(drawn == 0, kind="stable")
            mult[t] = drawn[rows[t]]
    return _table_model(_grow(x, y, rows, mult, tree_config, rngs if mtry < d else None, mtry),
                        tree_config, forest_config)


def predict_forest_batch(model: ForestModel, features) -> np.ndarray:
    """Majority vote of the trees for every row of ``features``, as int64."""
    table = (model.table or _node_table(*model.trees))[0]
    votes = _route(table, _rows(features))
    # Strict majority for class 1; ties fall to class 0.
    return (2 * votes > len(table[5])).astype(np.int64)


def predict_forest(model: ForestModel, row) -> int:
    return int(predict_forest_batch(model, [row])[0])


# -- serialization ----------------------------------------------------------


def _columns(table, counts) -> dict:
    feature, threshold, left, _, cls, roots, _ = table
    return {"feature": feature.tolist(), "threshold": threshold.tolist(), "left": left.tolist(),
            "class": cls.tolist(), "counts": counts.tolist(), "roots": roots.tolist()}


def _read_table(doc: dict):
    """The node table and class counts of a model document: version 1
    nests the nodes of its ``trees``, version 2 holds ``_columns``, refused
    unless its nodes are laid out as ``_table`` lays them out."""
    if doc["version"] == 1:
        return _stack(doc["trees"], lambda d: (d["counts"], d["class"], d.get("feature"),
                                               d.get("threshold"), d.get("left"), d.get("right")))
    cols = [np.asarray(doc[key], dtype=kind) for key, kind in
            (("feature", np.intp), ("threshold", np.float64), ("left", np.intp), ("class", np.int64))]
    feature, threshold, left, cls = cols
    counts, n, n_trees = np.asarray(doc["counts"], dtype=np.int64), left.size, len(doc["roots"])
    if counts.shape != (2, n) or any(col.shape != (n,) for col in cols):
        raise ValueError("node table columns differ in length")
    split = np.flatnonzero(left != np.arange(n))
    kids = n_trees + 2 * np.arange(len(split))
    # Roots first, then the split nodes' children two by two, each after its parent.
    if (doc["roots"] != list(range(n_trees)) or n != n_trees + 2 * len(split)
            or not np.array_equal(left[split], kids) or np.any(kids <= split)):
        raise ValueError("node table is not laid out breadth first")
    return _table(n_trees, cls, split, feature[split], threshold[split])[0], counts


def tree_to_text(tree: TreeNode) -> str:
    """Model text of the one-tree forest's table (see ``forest_to_text``)."""
    return to_document("tree", 2, **_columns(*_node_table(tree)))


def tree_from_text(text: str) -> TreeNode:
    doc = from_document(text, "tree", (1, 2))
    if doc["version"] == 1:
        doc["trees"] = [doc["root"]]
    (tree,) = _build(*_read_table(doc))  # one root, or a ValueError
    return tree


def forest_to_text(model: ForestModel) -> str:
    """Version 2 model text: the configs and the node table's columns as
    flat lists over its nodes, breadth first, roots first.  ``feature`` and
    ``threshold`` give each split (0 at a leaf); ``left`` is its left child
    (a leaf is its own child), the right child the node after it; ``class``
    is the predicted class, ``counts`` the class-0 then the class-1 rows of
    each node, and ``roots`` each tree's root."""
    table = model.table or _node_table(*model.trees)
    return to_document("forest", 2, tree_config=asdict(model.tree_config),
                       forest_config=asdict(model.forest_config), **_columns(*table))


def forest_from_text(text: str) -> ForestModel:
    doc = from_document(text, "forest", (1, 2))
    tc, fc = doc["tree_config"], doc["forest_config"]
    require_fields(TreeConfig, tc)
    require_fields(ForestConfig, fc)
    return _table_model(_read_table(doc), TreeConfig(**tc), ForestConfig(**fc))
