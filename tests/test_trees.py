"""Decision tree and random forest baselines."""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qkml import trees
from qkml.trees import (
    ForestConfig,
    ForestModel,
    TreeConfig,
    TreeNode,
    forest_from_text,
    forest_to_text,
    gini_impurity,
    predict_forest,
    predict_forest_batch,
    predict_tree,
    predict_tree_batch,
    train_forest,
    train_tree,
    tree_depth,
    tree_from_text,
    tree_to_text,
)
import helpers
from helpers import best_root_split


def _random_xy(rng, n, d):
    x = rng.uniform(-2.0, 2.0, size=(n, d))
    y = rng.integers(0, 2, size=n)
    return x, y


# -- Gini impurity -----------------------------------------------------------


def test_gini_pure_node_is_zero():
    assert gini_impurity((5, 0)) == 0.0
    assert gini_impurity((0, 5)) == 0.0


def test_gini_balanced_node():
    assert gini_impurity((3, 3)) == pytest.approx(0.5, abs=1e-15)


def test_gini_one_three():
    # 1 - (0.25**2 + 0.75**2)
    assert gini_impurity((1, 3)) == pytest.approx(0.375, abs=1e-15)


def test_gini_empty_node_rejected():
    with pytest.raises(ValueError, match="empty"):
        gini_impurity((0, 0))


def test_gini_negative_counts_rejected():
    with pytest.raises(ValueError, match="negative"):
        gini_impurity((-1, 3))


def test_gini_label_wrapper():
    assert trees.gini([0, 1, 1, 0]) == pytest.approx(0.5)
    assert trees.gini([1, 1, 1]) == 0.0
    assert trees.gini([0, 1, 1, 1]) == pytest.approx(0.375)


# -- single tree -------------------------------------------------------------


def test_pure_labels_single_leaf():
    x = np.arange(8.0).reshape(4, 2)
    tree = train_tree(x, [1, 1, 1, 1])
    assert tree.is_leaf
    assert tree.predicted_class == 1
    assert tree.class_counts == (0, 4)


def test_root_threshold_is_midpoint():
    # Only the 2/3 boundary zeroes the weighted child impurity.
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    tree = train_tree(x, [0, 0, 1, 1])
    assert not tree.is_leaf
    assert tree.feature_index == 0
    assert tree.threshold == 2.5
    assert tree.left.is_leaf and tree.left.predicted_class == 0
    assert tree.right.is_leaf and tree.right.predicted_class == 1


def test_max_depth_one_gives_stump():
    rng = np.random.default_rng(5)
    x, y = _random_xy(rng, 40, 3)
    tree = train_tree(x, y, TreeConfig(max_depth=1))
    assert tree_depth(tree) <= 1


def test_stump_routes_by_threshold():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    stump = train_tree(x, [0, 0, 1, 1], TreeConfig(max_depth=1))
    assert predict_tree(stump, (3.0,)) == 1
    # Boundary value goes left.
    assert predict_tree(stump, (2.5,)) == 0


def test_single_leaf_predicts_everywhere():
    leaf = TreeNode(class_counts=(1, 4), predicted_class=1)
    for v in (-100.0, 0.0, 3.5):
        assert predict_tree(leaf, (v, v)) == 1


def test_leaf_tie_predicts_class_zero():
    x = np.array([[0.0], [0.0]])
    tree = train_tree(x, [0, 1])
    assert tree.is_leaf
    assert tree.predicted_class == 0


def test_predict_batch_matches_scalar():
    rng = np.random.default_rng(11)
    x, y = _random_xy(rng, 50, 2)
    tree = train_tree(x, y)
    probe = rng.uniform(-2, 2, size=(20, 2))
    batch = predict_tree_batch(tree, probe)
    assert batch.tolist() == [helpers.predict_tree_walk(tree, row) for row in probe]


def _walk(node):
    yield node
    if not node.is_leaf:
        yield from _walk(node.left)
        yield from _walk(node.right)


def test_grown_trees_respect_bounds():
    rng = np.random.default_rng(23)
    cfg = TreeConfig(max_depth=3, min_samples_split=6, min_samples_leaf=3)
    for _ in range(10):
        x, y = _random_xy(rng, 60, 3)
        tree = train_tree(x, y, cfg)
        assert tree_depth(tree) <= cfg.max_depth
        for node in _walk(tree):
            n_node = sum(node.class_counts)
            if node.is_leaf:
                assert n_node >= cfg.min_samples_leaf
            else:
                assert n_node >= cfg.min_samples_split
                left_n = sum(node.left.class_counts)
                right_n = sum(node.right.class_counts)
                assert left_n >= cfg.min_samples_leaf
                assert right_n >= cfg.min_samples_leaf
                assert left_n + right_n == n_node


def test_splits_strictly_decrease_impurity():
    rng = np.random.default_rng(31)
    for _ in range(10):
        x, y = _random_xy(rng, 50, 2)
        tree = train_tree(x, y)
        for node in _walk(tree):
            if node.is_leaf:
                continue
            parent = gini_impurity(node.class_counts)
            nl = sum(node.left.class_counts)
            nr = sum(node.right.class_counts)
            child = (
                nl * gini_impurity(node.left.class_counts)
                + nr * gini_impurity(node.right.class_counts)
            ) / (nl + nr)
            assert child < parent


def test_min_samples_split_forces_leaf():
    x = np.array([[0.0], [1.0]])
    tree = train_tree(x, [0, 1], TreeConfig(min_samples_split=3))
    assert tree.is_leaf


def test_root_split_matches_exhaustive_scan():
    rng = np.random.default_rng(47)
    for _ in range(12):
        n = int(rng.integers(4, 13))
        x = rng.uniform(0.0, 1.0, size=(n, 2))
        y = rng.integers(0, 2, size=n)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0]
        tree = train_tree(x, y)
        oracle = best_root_split(x, y)
        ones = int(y.sum())
        node_imp = gini_impurity((n - ones, ones))
        if oracle is None or not oracle[0] < node_imp:
            assert tree.is_leaf
        else:
            assert tree.feature_index == oracle[1]
            assert tree.threshold == oracle[2]


def test_tied_gain_prefers_lowest_feature_then_threshold():
    # Both columns identical: feature 0 must win.
    x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    tree = train_tree(x, [0, 0, 1, 1])
    assert tree.feature_index == 0
    # Symmetric labels: thresholds 0.5 and 2.5 tie, lower one wins.
    x2 = np.array([[0.0], [1.0], [2.0], [3.0]])
    tree2 = train_tree(x2, [0, 1, 1, 0], TreeConfig(max_depth=1))
    assert tree2.threshold == 0.5


def test_no_useful_split_gives_leaf():
    # Constant feature: no admissible candidate exists.
    x = np.zeros((6, 1))
    tree = train_tree(x, [0, 1, 0, 1, 0, 1])
    assert tree.is_leaf


def test_train_tree_rejections():
    with pytest.raises(ValueError, match="2-d"):
        train_tree(np.zeros(3), [0, 1, 0])
    with pytest.raises(ValueError, match="does not match"):
        train_tree(np.zeros((3, 2)), [0, 1])
    with pytest.raises(ValueError, match="no training rows"):
        train_tree(np.zeros((0, 2)), [])
    with pytest.raises(ValueError, match="0/1"):
        train_tree(np.zeros((2, 1)), [0, 2])
    with pytest.raises(ValueError, match="non-finite"):
        train_tree(np.array([[np.nan], [1.0]]), [0, 1])


@pytest.mark.parametrize("mtry", [0, 2.5])
def test_train_tree_refuses_a_bad_mtry(mtry):
    # As ForestConfig does: a tree is the one-tree forest.
    x, y = _random_xy(np.random.default_rng(12), 20, 3)
    with pytest.raises(ValueError, match="mtry"):
        train_tree(x, y, feature_subset_seed=1, mtry=mtry)


def test_a_negative_forest_seed_is_refused_with_its_name():
    # Before, ForestConfig took it and train_forest failed inside numpy.
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        ForestConfig(seed=-1)
    assert ForestConfig(seed=0).seed == 0


def test_tree_config_validation():
    with pytest.raises(ValueError, match="max_depth must be an integer"):
        TreeConfig(max_depth=None)
    with pytest.raises(ValueError):
        TreeConfig(max_depth=0)
    with pytest.raises(ValueError):
        TreeConfig(min_samples_split=1)
    with pytest.raises(ValueError):
        TreeConfig(min_samples_leaf=0)


# -- forest ------------------------------------------------------------------


def test_degenerate_forest_equals_plain_tree():
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, y = _random_xy(rng, 30, 3)
        tree = train_tree(x, y)
        forest = train_forest(
            x, y, forest_config=ForestConfig(n_trees=1, mtry=3, bootstrap=False)
        )
        assert tree_to_text(forest.trees[0]) == tree_to_text(tree)


def test_forest_bootstrap_off_all_trees_identical():
    rng = np.random.default_rng(9)
    x, y = _random_xy(rng, 30, 2)
    forest = train_forest(
        x, y, forest_config=ForestConfig(n_trees=5, mtry=2, bootstrap=False)
    )
    texts = {tree_to_text(t) for t in forest.trees}
    assert len(texts) == 1


def test_forest_seed_determinism():
    rng = np.random.default_rng(13)
    x, y = _random_xy(rng, 40, 3)
    fc = ForestConfig(n_trees=7, seed=42)
    a = train_forest(x, y, forest_config=fc)
    b = train_forest(x, y, forest_config=fc)
    assert forest_to_text(a) == forest_to_text(b)
    c = train_forest(x, y, forest_config=ForestConfig(n_trees=7, seed=43))
    assert forest_to_text(c) != forest_to_text(a)


def test_forest_pure_labels_all_leaves():
    x = np.random.default_rng(19).uniform(size=(12, 2))
    forest = train_forest(x, np.ones(12, dtype=int), forest_config=ForestConfig(n_trees=99))
    assert all(t.is_leaf for t in forest.trees)
    assert predict_forest(forest, (0.5, 0.5)) == 1


def test_default_mtry_is_ceil_sqrt_d():
    rng = np.random.default_rng(29)
    x, y = _random_xy(rng, 40, 5)
    auto = train_forest(x, y, forest_config=ForestConfig(n_trees=5, mtry=None, seed=1))
    explicit = train_forest(x, y, forest_config=ForestConfig(n_trees=5, mtry=3, seed=1))
    assert [tree_to_text(t) for t in auto.trees] == [
        tree_to_text(t) for t in explicit.trees
    ]


def _leaf_tree(cls):
    return TreeNode(class_counts=(1 - cls, cls), predicted_class=cls)


def test_forest_majority_vote():
    model = ForestModel(
        trees=(_leaf_tree(1), _leaf_tree(1), _leaf_tree(0)),
        tree_config=TreeConfig(),
        forest_config=ForestConfig(n_trees=3),
    )
    assert predict_forest(model, (0.0,)) == 1


def test_forest_vote_tie_falls_to_class_zero():
    model = ForestModel(
        trees=(_leaf_tree(1), _leaf_tree(0)),
        tree_config=TreeConfig(),
        forest_config=ForestConfig(n_trees=2),
    )
    assert predict_forest(model, (0.0,)) == 0


def test_forest_unanimous_vote():
    for cls in (0, 1):
        model = ForestModel(
            trees=tuple(_leaf_tree(cls) for _ in range(5)),
            tree_config=TreeConfig(),
            forest_config=ForestConfig(n_trees=5),
        )
        assert predict_forest(model, (0.0,)) == cls


def test_forest_batch_matches_scalar():
    rng = np.random.default_rng(37)
    x, y = _random_xy(rng, 30, 2)
    forest = train_forest(x, y, forest_config=ForestConfig(n_trees=5))
    probe = rng.uniform(-2, 2, size=(15, 2))
    batch = predict_forest_batch(forest, probe)
    assert batch.tolist() == [helpers.predict_forest_walk(forest, row) for row in probe]


def test_forest_config_validation():
    with pytest.raises(ValueError):
        ForestConfig(n_trees=0)
    with pytest.raises(ValueError):
        ForestConfig(mtry=0)


def test_configs_train_integral_floats_and_numeric_strings_as_ints():
    # A config file may spell an int as 3.0 or "3"; the dataclass casts it.
    x, y = _random_xy(np.random.default_rng(12), 60, 4)
    tree_cfg = TreeConfig(max_depth="3")
    assert tree_cfg == TreeConfig(max_depth=3)
    _assert_same_tree(train_tree(x, y, tree_cfg), train_tree(x, y, TreeConfig(max_depth=3)))
    forest_cfg = ForestConfig(n_trees=3.0, mtry=2.0, seed=4.0)
    assert forest_cfg == ForestConfig(n_trees=3, mtry=2, seed=4)
    got = train_forest(x, y, TreeConfig(), forest_cfg)
    want = train_forest(x, y, TreeConfig(), ForestConfig(n_trees=3, mtry=2, seed=4))
    assert len(got.trees) == len(want.trees) == 3
    for a, b in zip(got.trees, want.trees):
        _assert_same_tree(a, b)


# -- array builder and router against the per-feature / per-row oracles -----


def _tied_xy(rng, n, d):
    """Continuous columns interleaved with integer columns full of ties."""
    x = rng.uniform(-2.0, 2.0, size=(n, d))
    x[:, ::2] = rng.integers(0, 4, size=(n, (d + 1) // 2))
    y = (rng.random(n) < 0.2 + 0.15 * x[:, 0]).astype(np.int64)
    return x, y


def _assert_same_tree(a, b):
    assert a.is_leaf == b.is_leaf
    assert a.class_counts == b.class_counts
    assert a.predicted_class == b.predicted_class
    if not a.is_leaf:
        assert a.feature_index == b.feature_index
        assert a.threshold == b.threshold
        _assert_same_tree(a.left, b.left)
        _assert_same_tree(a.right, b.right)


_GRID = [
    (leaf, depth, mtry)
    for leaf in (1, 3)
    for depth in (1, 3, 10)
    for mtry in (None, 1, "d")
]


@pytest.mark.parametrize("min_leaf,max_depth,mtry", _GRID)
def test_train_tree_matches_oracle_node_for_node(min_leaf, max_depth, mtry):
    rng = np.random.default_rng(100 + min_leaf + 7 * max_depth)
    cfg = TreeConfig(max_depth=max_depth, min_samples_leaf=min_leaf)
    for trial in range(4):
        x, y = _tied_xy(rng, int(rng.integers(10, 120)), int(rng.integers(1, 6)))
        m = x.shape[1] if mtry == "d" else mtry
        _assert_same_tree(
            train_tree(x, y, cfg, feature_subset_seed=trial, mtry=m),
            helpers.train_tree_loops(x, y, cfg, feature_subset_seed=trial, mtry=m),
        )


@pytest.mark.parametrize("bootstrap", [True, False])
@pytest.mark.parametrize("min_leaf,max_depth,mtry", _GRID)
def test_train_forest_matches_oracle_node_for_node(min_leaf, max_depth, mtry, bootstrap):
    rng = np.random.default_rng(200 + min_leaf + 7 * max_depth)
    tcfg = TreeConfig(max_depth=max_depth, min_samples_leaf=min_leaf)
    x, y = _tied_xy(rng, 90, 5)
    fcfg = ForestConfig(n_trees=4, mtry=5 if mtry == "d" else mtry,
                        bootstrap=bootstrap, seed=max_depth)
    forest = train_forest(x, y, tcfg, fcfg)
    oracle = helpers.train_forest_loops(x, y, tcfg, fcfg)
    assert len(forest.trees) == len(oracle.trees)
    for a, b in zip(forest.trees, oracle.trees):
        _assert_same_tree(a, b)
    _assert_table_is_trees_table(forest)


def test_forest_predictions_on_thresholds_match_oracle_walk():
    rng = np.random.default_rng(53)
    x, y = _tied_xy(rng, 150, 4)
    forest = train_forest(x, y, TreeConfig(max_depth=6), ForestConfig(n_trees=9, seed=3))
    splits = [(n.feature_index, n.threshold)
              for t in forest.trees for n in _walk(t) if not n.is_leaf]
    assert splits
    probe = rng.uniform(-2.0, 2.0, size=(4 * len(splits), 4))
    for i, (f, thr) in enumerate(splits):
        probe[4 * i: 4 * i + 4, f] = thr  # exactly on a threshold routes left
        probe[4 * i + 1, f] = np.nextafter(thr, np.inf)
    probe = np.vstack([probe, x])
    assert predict_forest_batch(forest, probe).tolist() == [
        helpers.predict_forest_walk(forest, row) for row in probe
    ]
    for tree in forest.trees:
        assert predict_tree_batch(tree, probe).tolist() == [
            helpers.predict_tree_walk(tree, row) for row in probe
        ]


def _walk_models():
    """Trained forests, their text round trips (no stored table), and
    hand-built leaf-only and vote-tie forests, with rows to route."""
    rng = np.random.default_rng(380)
    x, y = _tied_xy(rng, 150, 4)
    trained = [train_forest(x, y, TreeConfig(max_depth=6), ForestConfig(n_trees=9, seed=380)),
               train_forest(x, y, TreeConfig(max_depth=3), ForestConfig(n_trees=4, mtry=4)),
               train_forest(x[:, :1], y, TreeConfig(), ForestConfig(n_trees=3, bootstrap=False))]
    stump = train_tree(np.array([[1.0], [2.0]]), [0, 1])
    built = [ForestModel(tuple(_leaf_tree(c) for c in (1, 0, 1)), TreeConfig(), ForestConfig()),
             ForestModel((_leaf_tree(1), _leaf_tree(0), stump, _leaf_tree(1)),
                         TreeConfig(), ForestConfig())]
    probe = np.vstack([x, rng.uniform(-2.0, 2.0, size=(40, 4)), [[1.5, 0, 0, 0]]])
    models = trained + [forest_from_text(forest_to_text(f)) for f in trained] + built
    return models, probe


def test_batch_predictions_match_the_walks_row_by_row():
    models, probe = _walk_models()
    for model in models:
        assert predict_forest_batch(model, probe).tolist() == [
            helpers.predict_forest_walk(model, row) for row in probe
        ]
        for tree in model.trees:
            assert predict_tree_batch(tree, probe).tolist() == [
                helpers.predict_tree_walk(tree, row) for row in probe
            ]
        for empty in (probe[:0], []):
            for out in (predict_forest_batch(model, empty), predict_tree_batch(model.trees[0], empty)):
                assert out.shape == (0,) and out.dtype == np.int64
    # Trained forests and their text round trips keep a node table; the
    # hand-built ones stack theirs at predict.
    assert [m.table is not None for m in models] == [True] * 6 + [False] * 2


def test_trained_forest_equals_its_text_round_trip():
    models, _ = _walk_models()
    for forest in models[:3]:
        back = forest_from_text(forest_to_text(forest))
        (table, counts), (read, read_counts) = forest.table, back.table
        assert table[-1] == read[-1] and counts.tolist() == read_counts.tolist()
        assert all(a.tolist() == b.tolist() for a, b in zip(table[:-1], read[:-1]))
        assert back == forest
        # A copy with other trees stacks their table rather than keep a stale one.
        assert dataclasses.replace(forest, trees=back.trees[::-1]).table is None


def test_trained_forest_predicts_without_building_its_trees(monkeypatch):
    x, y = _tied_xy(np.random.default_rng(381), 120, 4)
    want = predict_forest_batch(train_forest(x, y, forest_config=ForestConfig(n_trees=7)), x)

    def refuse(*args):
        raise AssertionError("TreeNodes built")

    monkeypatch.setattr(trees, "_build", refuse)
    forest = train_forest(x, y, forest_config=ForestConfig(n_trees=7))
    assert predict_forest_batch(forest, x).tolist() == want.tolist()
    back = forest_from_text(forest_to_text(forest))
    assert predict_forest_batch(back, x).tolist() == want.tolist()
    assert forest_to_text(back) == forest_to_text(forest)


def test_lazy_forest_equals_the_forest_of_its_trees():
    x, y = _tied_xy(np.random.default_rng(382), 120, 4)
    tc, fc = TreeConfig(max_depth=5), ForestConfig(n_trees=5, seed=3)
    lazy = train_forest(x, y, tc, fc)
    built = ForestModel(lazy.trees, tc, fc)
    assert built.table is None and lazy == built and hash(lazy) == hash(built)
    assert lazy.trees is lazy.trees  # built once, then kept
    assert [f.name for f in dataclasses.fields(ForestModel)] == [
        "trees", "tree_config", "forest_config", "table"]
    with pytest.raises(TypeError):
        ForestModel(tree_config=tc, forest_config=fc)  # trees has no default


def test_forest_votes_over_its_own_trees_not_n_trees():
    # Three trees, two voting 1: a majority of the trees, not of n_trees.
    model = ForestModel((_leaf_tree(1), _leaf_tree(0), _leaf_tree(1)), TreeConfig(),
                        ForestConfig(n_trees=101))
    assert predict_forest_batch(model, [[0.0], [5.0]]).tolist() == [1, 1]
    back = forest_from_text(forest_to_text(model))
    assert back.forest_config.n_trees == 101 and len(back.table[0][5]) == 3
    assert predict_forest_batch(back, [[0.0], [5.0]]).tolist() == [1, 1]


def test_replaced_trees_predict_from_the_new_trees():
    x, y = _tied_xy(np.random.default_rng(383), 120, 4)
    forest = train_forest(x, y, forest_config=ForestConfig(n_trees=5, seed=4))
    for cls in (0, 1):
        copy = dataclasses.replace(forest, trees=(_leaf_tree(cls),) * 3)
        assert copy.table is None and len(copy.trees) == 3
        assert predict_forest_batch(copy, x).tolist() == [cls] * len(x)
    assert predict_forest_batch(forest, x).tolist() != [0] * len(x)


def test_forest_prediction_memory_is_bounded():
    # 51 trees route 4,400 rows, 224,400 (tree, row) pairs, in runs of at
    # most _CHUNK pairs: ~1.2 MB.  Routing them all at once would hold
    # several 224,400-long index arrays and peak near 11 MB.
    x, y = _tied_xy(np.random.default_rng(390), 4400, 17)
    forest = train_forest(x, y, forest_config=ForestConfig(n_trees=51, seed=1))
    predict_forest_batch(forest, x)
    tracemalloc.start()
    try:
        predict_forest_batch(forest, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_batch_predict_of_zero_rows_is_empty_int64():
    x, y = _random_xy(np.random.default_rng(59), 30, 2)
    tree = train_tree(x, y)
    forest = train_forest(x, y, forest_config=ForestConfig(n_trees=3))
    for out in (
        predict_tree_batch(tree, np.zeros((0, 2))),
        predict_tree_batch(tree, []),
        predict_forest_batch(forest, np.zeros((0, 2))),
        predict_forest_batch(forest, []),
    ):
        assert out.shape == (0,)
        assert out.dtype == np.int64


def test_batch_predict_of_leaf_trees():
    probe = np.random.default_rng(61).uniform(-5, 5, size=(7, 3))
    for cls in (0, 1):
        assert predict_tree_batch(_leaf_tree(cls), probe).tolist() == [cls] * 7
        model = ForestModel(
            trees=tuple(_leaf_tree(cls) for _ in range(4)),
            tree_config=TreeConfig(),
            forest_config=ForestConfig(n_trees=4),
        )
        assert predict_forest_batch(model, probe).tolist() == [cls] * 7


def test_batch_forest_vote_tie_falls_to_class_zero():
    stump = train_tree(np.array([[1.0], [2.0]]), [0, 1])
    model = ForestModel(
        trees=(_leaf_tree(1), _leaf_tree(0), stump, _leaf_tree(1)),
        tree_config=TreeConfig(),
        forest_config=ForestConfig(n_trees=4),
    )
    # Rows left of the stump's 1.5 threshold tie 2-2; right ones win 3-1.
    out = predict_forest_batch(model, np.array([[0.0], [1.5], [1.6], [9.0]]))
    assert out.tolist() == [0, 0, 1, 1]


# -- the lockstep grower against the depth-first oracle ---------------------


def _assert_same_forest(forest, oracle):
    assert len(forest.trees) == len(oracle.trees)
    for a, b in zip(forest.trees, oracle.trees):
        _assert_same_tree(a, b)


def _assert_table_is_trees_table(forest):
    """The node table and class counts the grower kept are the ones
    stacked from the trees built from them."""
    (got, got_counts), (want, want_counts) = forest.table, trees._node_table(*forest.trees)
    assert len(got) == len(want) == 7 and got[-1] == want[-1]
    for a, b in zip((*got[:-1], got_counts), (*want[:-1], want_counts)):
        assert a.dtype == b.dtype
        assert a.tolist() == b.tolist()


def _forest_and_oracle(x, y, tcfg, fcfg):
    forest = train_forest(x, y, tcfg, fcfg)
    _assert_same_forest(forest, helpers.train_forest_loops(x, y, tcfg, fcfg))
    _assert_table_is_trees_table(forest)
    return forest


def test_trees_that_finish_at_different_steps_match_oracle():
    # Six class-1 rows in 60: a bootstrap sample without them is one leaf
    # while others grow deep, so trees drop out of the steps one by one.
    rng = np.random.default_rng(300)
    x = rng.uniform(-1.0, 1.0, size=(60, 4))
    y = np.zeros(60, dtype=np.int64)
    y[rng.choice(60, 6, replace=False)] = 1
    forest = _forest_and_oracle(x, y, TreeConfig(), ForestConfig(n_trees=40, seed=300))
    counts = [len(list(_walk(t))) for t in forest.trees]
    assert min(counts) == 1 and max(counts) >= 15


@pytest.mark.parametrize("cap", [1, 40])
def test_chunked_steps_match_oracle(monkeypatch, cap):
    monkeypatch.setattr(trees, "_CHUNK", cap)
    runs = []
    chunks = trees._chunks

    def record(lens, at):
        call = list(chunks(lens, at))
        runs.append([(hi - lo, len(seg)) for lo, hi, seg, _, _ in call])
        return iter(call)

    monkeypatch.setattr(trees, "_chunks", record)
    rng = np.random.default_rng(310 + cap)
    x, y = _tied_xy(rng, 120, 5)
    tcfg = TreeConfig(max_depth=6)
    _forest_and_oracle(x, y, tcfg, ForestConfig(n_trees=6, mtry=2, seed=cap))
    _forest_and_oracle(x, y, tcfg, ForestConfig(n_trees=3, mtry=5, seed=cap))
    _assert_same_tree(train_tree(x, y, tcfg), helpers.train_tree_loops(x, y, tcfg))
    # Some step spans several runs, and some segment over the cap runs alone.
    assert any(len(call) > 1 for call in runs)
    assert any(segs == 1 and size > cap for call in runs for segs, size in call)


def test_bootstrap_of_many_duplicate_rows_matches_oracle():
    rng = np.random.default_rng(320)
    distinct, y_distinct = _tied_xy(rng, 12, 4)
    pick = rng.integers(0, 12, size=150)
    x, y = distinct[pick], y_distinct[pick]
    for leaf in (1, 4):
        tcfg = TreeConfig(min_samples_leaf=leaf)
        _forest_and_oracle(x, y, tcfg, ForestConfig(n_trees=8, mtry=2, seed=leaf))


def test_bootstrap_multiplicities_weigh_the_leaf_and_split_bounds():
    # 24 rows drawn 24 times per tree: some sample is drawn 6 or more
    # times, and a root of ~15 distinct samples weighs 24 rows.  The bounds
    # lie between such counts, so a grower that counted distinct samples
    # would leave these roots unsplit and these leaves unmade.
    rng = np.random.default_rng(430)
    x, y = _tied_xy(rng, 24, 3)
    y[:12] = 1 - y[:12]  # both classes in every root
    draws = [np.unique(np.random.default_rng(430 + t).integers(0, 24, size=24), return_counts=True)
             for t in range(40)]
    assert max(drawn.max() for _, drawn in draws) >= 6
    fcfg = ForestConfig(n_trees=40, mtry=2, seed=430)
    for split, leaf in ((20, 1), (2, 5), (18, 6)):
        forest = _forest_and_oracle(x, y, TreeConfig(min_samples_split=split,
                                                     min_samples_leaf=leaf), fcfg)
        fewest = []  # per tree, the fewest distinct samples in a leaf
        for tree, (distinct, _) in zip(forest.trees, draws):
            leaves = [id(_leaf_of(tree, x[i])) for i in distinct]
            fewest.append(min(leaves.count(leaf_id) for leaf_id in set(leaves)))
        assert any(not tree.is_leaf and len(distinct) < split
                   for tree, (distinct, _) in zip(forest.trees, draws)) or min(fewest) < leaf


def _leaf_of(tree, row):
    while not tree.is_leaf:
        tree = tree.left if row[tree.feature_index] <= tree.threshold else tree.right
    return tree


@pytest.mark.parametrize("mtry", [5, 9])
def test_all_feature_bootstrap_forest_grows_open_nodes_together(mtry):
    # mtry >= d draws no subsets, so every step takes all open nodes.
    rng = np.random.default_rng(330 + mtry)
    x, y = _tied_xy(rng, 100, 5)
    fcfg = ForestConfig(n_trees=7, mtry=mtry, bootstrap=True, seed=mtry)
    _forest_and_oracle(x, y, TreeConfig(max_depth=8), fcfg)


@pytest.mark.parametrize("split,leaf", [(5, 1), (12, 2), (30, 3)])
def test_min_samples_split_above_two_matches_oracle(split, leaf):
    rng = np.random.default_rng(340 + split)
    x, y = _tied_xy(rng, 110, 4)
    tcfg = TreeConfig(min_samples_split=split, min_samples_leaf=leaf)
    _forest_and_oracle(x, y, tcfg, ForestConfig(n_trees=5, mtry=2, seed=split))
    for mtry in (None, 2):
        _assert_same_tree(
            train_tree(x, y, tcfg, feature_subset_seed=split, mtry=mtry),
            helpers.train_tree_loops(x, y, tcfg, feature_subset_seed=split, mtry=mtry),
        )


# -- feature subsets drawn in blocks against per-node rng.choice -------------


def _assert_subsets_equal_choice(seeds, d, mtry, count, blocks=3):
    """Blocks of ``trees._subsets`` over one generator per seed equal the
    sorted ``rng.choice`` sets of twin generators, which then make the same
    next draw."""
    rngs = [np.random.default_rng(s) for s in seeds]
    twins = [np.random.default_rng(s) for s in seeds]
    for _ in range(blocks):
        got = trees._subsets(rngs, d, mtry, count)
        assert got.shape == (len(seeds), count, mtry)
        for sets, twin in zip(got, twins):
            want = [sorted(twin.choice(d, size=mtry, replace=False)) for _ in range(count)]
            assert sets.tolist() == want
    for rng, twin in zip(rngs, twins):
        assert rng.integers(2**62) == twin.integers(2**62)


@pytest.mark.parametrize("d", range(2, 41))
def test_block_subsets_equal_per_node_choice(d):
    # Floyd's algorithm and its shuffle: every d here is under 10,000.
    for mtry in range(1, d):
        _assert_subsets_equal_choice([d, 1000 + mtry, 7], d, mtry, count=5)


@pytest.mark.parametrize("d,mtry,count", [
    (10001, 201, 120),   # tail swaps, over several row chunks
    (10001, 5000, 2),
    (10001, 10000, 2),
    (12000, 300, 3),
    (20000, 401, 3),     # just past d // 50: tail swaps
    (20000, 400, 3),     # at d // 50: still Floyd's algorithm
    (10000, 201, 3),     # 10,000 features: still Floyd's algorithm
    (9000, 3, 300),      # Floyd's algorithm over several row chunks
])
def test_block_subsets_equal_per_node_choice_past_10000_features(d, mtry, count):
    _assert_subsets_equal_choice([d + mtry, 5], d, mtry, count, blocks=2)


@pytest.mark.parametrize("block", [1, 3, trees._BLOCK])
def test_subset_blocks_refilled_mid_tree_match_oracle(monkeypatch, block):
    monkeypatch.setattr(trees, "_BLOCK", block)
    calls = []
    subsets = trees._subsets

    def record(rngs, d, mtry, count):
        calls.append(len(rngs))
        return subsets(rngs, d, mtry, count)

    monkeypatch.setattr(trees, "_subsets", record)
    rng = np.random.default_rng(360 + block)
    x, y = _tied_xy(rng, 400, 6)
    tcfg = TreeConfig(max_depth=12)
    for bootstrap in (True, False):
        fcfg = ForestConfig(n_trees=5, mtry=2, bootstrap=bootstrap, seed=block)
        _forest_and_oracle(x, y, tcfg, fcfg)
    tree = train_tree(x, y, tcfg, feature_subset_seed=block, mtry=3)
    _assert_same_tree(tree, helpers.train_tree_loops(x, y, tcfg, feature_subset_seed=block, mtry=3))
    # Every node that is not settled at once draws a subset: each split,
    # and each leaf that found no split.
    assert sum(not n.is_leaf for n in _walk(tree)) > 64
    # Blocks ran out mid-tree, so later steps drew new ones.
    assert len(calls) > 3 and sum(calls) > 2 * 5 + 1


def test_node_table_depth_is_tree_depth():
    rng = np.random.default_rng(370)
    x, y = _tied_xy(rng, 150, 4)
    forest = train_forest(x, y, TreeConfig(max_depth=7), ForestConfig(n_trees=9, seed=370))
    for tree in (*forest.trees, _leaf_tree(1), train_tree(x, y, TreeConfig(max_depth=1))):
        assert trees._node_table(tree)[0][-1] == tree_depth(tree) == helpers.tree_depth_recursive(tree)


def test_tree_depth_of_a_2399_level_chain():
    # Alternating labels on one sorted column: each split cuts off the
    # lowest row, so the tree is a chain one level per row.  A recursive
    # depth would pass Python's recursion limit.
    x, y = np.arange(2400.0)[:, None], np.arange(2400) % 2
    tree = train_tree(x, y, TreeConfig(max_depth=100000))
    assert tree_depth(tree) == 2399
    assert predict_tree_batch(tree, x).tolist() == y.tolist()


def _score_nodes(rng, x, y, n_nodes, k, min_leaf, max_size=40, max_mult=1):
    """Score several nodes of samples drawn from (x, y) in one call, each
    sample weighing 1 to ``max_mult`` rows (all 1 at ``max_mult`` 1, as in
    a tree without bootstrap); returns each node's rows, samples repeated
    by weight, and features, with the (score, feature, threshold)."""
    uniq, codes = trees._ranks(np.ascontiguousarray(x.T), y)
    count = rng.integers(1, max_size, size=n_nodes)
    flat = rng.integers(0, len(y), size=count.sum()).astype(np.int32)
    mult = rng.integers(1, max_mult + 1, size=len(flat)).astype(np.int32)
    at = np.cumsum(count) - count
    size, ones = np.add.reduceat([mult, mult * y[flat]], at, axis=1)
    feats = np.sort([rng.choice(x.shape[1], size=k, replace=False) for _ in range(n_nodes)], 1)
    best = trees._best_splits(uniq, codes, flat, mult, at, count, size, ones, feats, min_leaf)
    nodes = [(np.repeat(flat[a:a + c], mult[a:a + c]), f) for a, c, f in zip(at, count, feats)]
    return nodes, list(zip(*best))


def test_best_splits_of_one_column_nodes_bitwise_equal():
    rng = np.random.default_rng(6)
    for trial in range(90):
        # Multiplicities up to 1 (unit weights), 2 and 7.
        max_mult = (1, 2, 7)[trial % 3]
        x = rng.choice([0.0, 1.0, 2.5, 3.0, 7.5], size=(50, 1))
        y = rng.integers(0, 2, size=50).astype(np.int64)
        min_leaf = int(rng.integers(1, 4 * max_mult))
        nodes, found = _score_nodes(rng, x, y, int(rng.integers(1, 6)), 1, min_leaf,
                                    max_mult=max_mult)
        for (rows, _), (score, feat, thr) in zip(nodes, found):
            best = best_root_split(x[rows], y[rows], min_leaf)
            if best is None:
                assert score == np.inf
            else:
                assert (score, feat, thr) == best


def test_best_splits_of_column_blocks_bitwise_equal_and_ties_go_to_lowest_feature():
    rng = np.random.default_rng(7)
    for trial in range(120):
        max_mult = (1, 6)[trial // 60]
        d = int(rng.integers(1, 7))
        x = rng.choice([0.0, 1.0, 2.5, 3.0, 7.5], size=(60, d))
        if trial % 3 == 0:
            x[:, -1] = x[:, 0]  # a duplicate column ties with feature 0
        elif trial % 3 == 1:
            x[:, 0] = rng.uniform(-1.0, 1.0, size=60)
        y = rng.integers(0, 2, size=60).astype(np.int64)
        min_leaf = int(rng.integers(1, 5 * max_mult))
        k = int(rng.integers(1, d + 1))
        nodes, found = _score_nodes(rng, x, y, int(rng.integers(1, 8)), k, min_leaf,
                                    max_mult=max_mult)
        for (rows, feats), (score, feat, thr) in zip(nodes, found):
            best = best_root_split(x[np.ix_(rows, feats)], y[rows], min_leaf)
            if best is None:
                assert score == np.inf
            else:
                assert (score, feat, thr) == (best[0], feats[best[1]], best[2])


def test_forest_training_memory_is_bounded():
    # 51 trees on 4,400 x 17 rows peak at ~6.5 MB, 0.9 MB of it the int32
    # multiplicities.  An unchunked first step would sort 51 x 5 x ~2,800
    # distinct samples' keys at once and peak near 70 MB.
    x, y = _tied_xy(np.random.default_rng(350), 4400, 17)
    fcfg = ForestConfig(n_trees=51, seed=1)
    train_forest(x, y, forest_config=fcfg)
    tracemalloc.start()
    try:
        train_forest(x, y, forest_config=fcfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


# -- serialization -----------------------------------------------------------


def test_tree_text_round_trip():
    rng = np.random.default_rng(41)
    x, y = _random_xy(rng, 40, 3)
    tree = train_tree(x, y)
    text = tree_to_text(tree)
    back = tree_from_text(text)
    assert tree_to_text(back) == text
    probe = rng.uniform(-2, 2, size=(20, 3))
    assert predict_tree_batch(back, probe).tolist() == predict_tree_batch(
        tree, probe
    ).tolist()


def test_forest_text_round_trip():
    rng = np.random.default_rng(43)
    x, y = _random_xy(rng, 30, 2)
    forest = train_forest(
        x, y, forest_config=ForestConfig(n_trees=5, mtry=1, seed=8)
    )
    text = forest_to_text(forest)
    back = forest_from_text(text)
    assert forest_to_text(back) == text
    assert back.forest_config == forest.forest_config
    probe = rng.uniform(-2, 2, size=(10, 2))
    assert predict_forest_batch(back, probe).tolist() == predict_forest_batch(
        forest, probe
    ).tolist()


def test_forest_text_requires_every_config_key():
    forest = train_forest(
        [[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1],
        TreeConfig(max_depth=3), ForestConfig(n_trees=2, mtry=1, seed=4),
    )
    doc = json.loads(forest_to_text(forest))
    assert doc["tree_config"] == {"max_depth": 3, "min_samples_leaf": 1, "min_samples_split": 2}
    assert doc["forest_config"] == {"bootstrap": True, "mtry": 1, "n_trees": 2, "seed": 4}
    for section in ("tree_config", "forest_config"):
        for key in doc[section]:
            partial = dict(doc, **{section: {k: v for k, v in doc[section].items() if k != key}})
            with pytest.raises(KeyError, match=key):
                forest_from_text(json.dumps(partial))


@pytest.mark.parametrize("section", ["tree_config", "forest_config"])
def test_forest_text_refuses_an_unknown_key_or_a_section_that_is_not_an_object(section):
    forest = train_forest([[0.0], [1.0]], [0, 1], TreeConfig(), ForestConfig(n_trees=1))
    doc = json.loads(forest_to_text(forest))
    cls = "TreeConfig" if section == "tree_config" else "ForestConfig"
    extra = dict(doc, **{section: {**doc[section], "extra": 1}})
    with pytest.raises(ValueError, match=rf"{cls} document has unknown key\(s\) \['extra'\]"):
        forest_from_text(json.dumps(extra))
    with pytest.raises(ValueError, match=rf"{cls} document must be an object, got \[1\]"):
        forest_from_text(json.dumps(dict(doc, **{section: [1]})))


def test_serialization_rejects_foreign_documents():
    with pytest.raises(ValueError, match="qkml-tree"):
        tree_from_text('{"format": "other", "version": 1, "root": {}}')
    with pytest.raises(ValueError, match="qkml-forest"):
        forest_from_text('{"format": "qkml-forest", "version": 3, "trees": []}')


@pytest.mark.parametrize("text", ["[]", "3"])
@pytest.mark.parametrize("read,kind", [(tree_from_text, "tree"), (forest_from_text, "forest")])
def test_serialization_rejects_json_that_is_not_an_object(read, kind, text):
    with pytest.raises(ValueError, match=f"^not a qkml-{kind} version 1 or 2 document$"):
        read(text)


def _chain():
    """The 2,399-level chain tree of one sorted column, its rows and labels."""
    x, y = np.arange(2400.0)[:, None], np.arange(2400) % 2
    return train_tree(x, y, TreeConfig(max_depth=100000)), x, y


def test_a_2399_level_chain_round_trips_through_text():
    # Compared by text and predictions: TreeNode's generated == recurses.
    tree, x, y = _chain()
    text = tree_to_text(tree)
    back = tree_from_text(text)
    assert tree_to_text(back) == text and tree_depth(back) == 2399
    assert predict_tree_batch(back, x).tolist() == y.tolist()
    forest = ForestModel((tree, _leaf_tree(1), tree), TreeConfig(max_depth=100000),
                         ForestConfig(n_trees=3))
    text = forest_to_text(forest)
    back = forest_from_text(text)
    assert forest_to_text(back) == text and back.table[0][-1] == 2399
    assert forest_to_text(ForestModel(back.trees, back.tree_config, back.forest_config)) == text
    assert predict_forest_batch(back, x).tolist() == predict_forest_batch(forest, x).tolist()


DATA = Path(__file__).parent / "data"


def _fixture_xy():
    rng = np.random.default_rng(2026)
    return _random_xy(rng, 40, 3)


def test_version_1_texts_load_to_the_trees_training_grows():
    # Written by the nested version 1 codec this format replaced.
    x, y = _fixture_xy()
    probe = np.vstack([x, np.random.default_rng(2027).uniform(-2.0, 2.0, size=(30, 3))])
    forest = train_forest(x, y, TreeConfig(max_depth=3), ForestConfig(n_trees=4, seed=5))
    old = forest_from_text((DATA / "forest_v1.json").read_text())
    assert json.loads((DATA / "forest_v1.json").read_text())["version"] == 1
    assert old == forest and forest_to_text(old) == forest_to_text(forest)
    assert predict_forest_batch(old, probe).tolist() == predict_forest_batch(forest, probe).tolist()
    tree = train_tree(x, y, TreeConfig(max_depth=4))
    old = tree_from_text((DATA / "tree_v1.json").read_text())
    assert old == tree and tree_to_text(old) == tree_to_text(tree)
    assert predict_tree_batch(old, probe).tolist() == predict_tree_batch(tree, probe).tolist()


def test_version_2_text_is_the_node_table_as_flat_columns():
    forest = train_forest(*_fixture_xy(), TreeConfig(max_depth=3), ForestConfig(n_trees=4, seed=5))
    doc = json.loads(forest_to_text(forest))
    (feature, threshold, left, right, cls, roots, _), counts = forest.table
    assert doc["version"] == 2 and doc["roots"] == roots.tolist() == [0, 1, 2, 3]
    assert doc["feature"] == feature.tolist() and doc["threshold"] == threshold.tolist()
    assert doc["left"] == left.tolist() and doc["class"] == cls.tolist()
    assert doc["counts"] == counts.tolist()
    split = left != np.arange(len(left))
    assert (right == left + split).all()


@pytest.mark.parametrize("edit,match", [
    (lambda d: d["class"].pop(), "differ in length"),
    (lambda d: d["counts"].pop(), "differ in length"),
    (lambda d: d["roots"].append(4), "breadth first"),
    (lambda d: d["roots"].reverse(), "breadth first"),
    (lambda d: d["left"].__setitem__(0, 5), "breadth first"),
    # Node 2 splits into nodes 1 and 2 ahead of it: a cycle no root reaches.
    (lambda d: d.update(feature=[0] * 3, threshold=[0.0] * 3, left=[0, 1, 1], roots=[0],
                        counts=[[1] * 3, [0] * 3], **{"class": [0] * 3}), "breadth first"),
])
def test_version_2_text_refuses_a_malformed_node_table(edit, match):
    forest = train_forest(*_fixture_xy(), TreeConfig(max_depth=3), ForestConfig(n_trees=4, seed=5))
    doc = json.loads(forest_to_text(forest))
    edit(doc)
    with pytest.raises(ValueError, match=match):
        forest_from_text(json.dumps(doc))
    four = forest_to_text(forest).replace('"qkml-forest"', '"qkml-tree"')
    with pytest.raises(ValueError, match="too many values"):  # a tree document holds one tree
        tree_from_text(four)
