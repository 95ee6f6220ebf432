"""Unit tests for model import/export (XGBoost JSON, LightGBM text, sklearn)."""

import json

import numpy as np
import pytest

from repro.errors import ModelParseError
from repro.forest.io_lightgbm import parse_lightgbm_text
from repro.forest.io_sklearn import forest_from_arrays, tree_from_arrays
from repro.forest.io_xgboost import (
    forest_from_xgboost_json,
    forest_to_xgboost_json,
    tree_from_xgboost_dict,
)


XGB_TREE = {
    "nodeid": 0,
    "split": "f2",
    "split_condition": 1.5,
    "yes": 1,
    "no": 2,
    "children": [
        {"nodeid": 1, "leaf": -0.5},
        {
            "nodeid": 2,
            "split": "0",
            "split_condition": -1.0,
            "yes": 3,
            "no": 4,
            "children": [{"nodeid": 3, "leaf": 0.25}, {"nodeid": 4, "leaf": 1.0}],
        },
    ],
}


class TestXGBoost:
    def test_parse_single_tree(self):
        tree = tree_from_xgboost_dict(XGB_TREE)
        assert tree.num_nodes == 5
        # x2 < 1.5 goes to "yes" -> left.
        assert tree.predict_row(np.array([0.0, 0.0, 0.0])) == -0.5
        assert tree.predict_row(np.array([-2.0, 0.0, 2.0])) == 0.25
        assert tree.predict_row(np.array([0.0, 0.0, 2.0])) == 1.0

    def test_forest_from_json_string(self):
        text = json.dumps([XGB_TREE, XGB_TREE])
        forest = forest_from_xgboost_json(text, num_features=3)
        assert forest.num_trees == 2
        pred = forest.raw_predict(np.zeros((1, 3)))
        assert pred[0] == pytest.approx(-1.0)

    def test_forest_from_dump_strings(self):
        dumps = [json.dumps(XGB_TREE)]
        forest = forest_from_xgboost_json(dumps, num_features=3)
        assert forest.num_trees == 1

    def test_roundtrip(self):
        forest = forest_from_xgboost_json([XGB_TREE], num_features=3)
        text = forest_to_xgboost_json(forest)
        clone = forest_from_xgboost_json(text, num_features=3)
        rows = np.random.default_rng(0).normal(size=(20, 3))
        assert np.array_equal(clone.raw_predict(rows), forest.raw_predict(rows))

    def test_multiclass_round_robin(self):
        dumps = [XGB_TREE] * 4
        forest = forest_from_xgboost_json(
            dumps, num_features=3, objective="multiclass", num_classes=2
        )
        assert [t.class_id for t in forest.trees] == [0, 1, 0, 1]

    def test_malformed_node_rejected(self):
        with pytest.raises(ModelParseError):
            tree_from_xgboost_dict({"nodeid": 0, "split": "f0"})

    def test_bad_json_rejected(self):
        with pytest.raises(ModelParseError):
            forest_from_xgboost_json("{not json", num_features=1)

    def test_empty_list_rejected(self):
        with pytest.raises(ModelParseError):
            forest_from_xgboost_json([], num_features=1)

    def test_bad_split_name_rejected(self):
        bad = dict(XGB_TREE, split="feature_two")
        with pytest.raises(ModelParseError):
            tree_from_xgboost_dict(bad)


LGB_TEXT = """tree
version=v3
num_class=1
max_feature_idx=2
objective=regression

Tree=0
num_leaves=3
split_feature=2 0
threshold=1.5 -1.0
left_child=-1 -2
right_child=1 -3
leaf_value=-0.5 0.25 1.0

end of trees
"""


class TestLightGBM:
    def test_parse(self):
        forest = parse_lightgbm_text(LGB_TEXT)
        assert forest.num_trees == 1
        assert forest.num_features == 3
        tree = forest.trees[0]
        assert tree.num_leaves == 3
        # LightGBM x <= 1.5 goes left (converted to strict threshold).
        assert tree.predict_row(np.array([0.0, 0.0, 1.5])) == -0.5
        assert tree.predict_row(np.array([-1.0, 0.0, 2.0])) == 0.25
        assert tree.predict_row(np.array([0.0, 0.0, 2.0])) == 1.0

    def test_single_leaf_tree(self):
        text = LGB_TEXT.replace(
            "num_leaves=3\nsplit_feature=2 0\nthreshold=1.5 -1.0\n"
            "left_child=-1 -2\nright_child=1 -3\nleaf_value=-0.5 0.25 1.0",
            "num_leaves=1\nleaf_value=7.0",
        )
        forest = parse_lightgbm_text(text)
        assert forest.trees[0].num_nodes == 1
        assert forest.raw_predict(np.zeros((1, 3)))[0] == 7.0

    def test_missing_header_feature_count(self):
        with pytest.raises(ModelParseError):
            parse_lightgbm_text("Tree=0\nnum_leaves=1\nleaf_value=1.0")

    def test_no_trees_rejected(self):
        with pytest.raises(ModelParseError):
            parse_lightgbm_text("max_feature_idx=2\n")

    def test_length_mismatch_rejected(self):
        bad = LGB_TEXT.replace("leaf_value=-0.5 0.25 1.0", "leaf_value=-0.5 0.25")
        with pytest.raises(ModelParseError):
            parse_lightgbm_text(bad)

    #: one categorical split: x0 in {3} goes left. ``threshold`` is an index
    #: into ``cat_threshold`` (bitset word 8 = 1 << 3), not a value.
    CATEGORICAL = """tree
version=v3
num_class=1
max_feature_idx=0
objective=regression

Tree=0
num_leaves=2
num_cat=1
split_feature=0
threshold=0
decision_type=1
left_child=-1
right_child=-2
leaf_value=1.0 2.0
cat_boundaries=0 1
cat_threshold=8

end of trees
"""

    def test_categorical_split_rejected(self):
        # Read as a numeric x0 <= 0 split, x0=0 would go left (1.0) where
        # LightGBM sends it right (2.0, since 0 is not in {3}).
        with pytest.raises(ModelParseError, match="tree 0, node 0: categorical"):
            parse_lightgbm_text(self.CATEGORICAL)

    def test_zero_as_missing_rejected(self):
        # Missing type 1 (zero) routes x == 0 by the default direction.
        text = LGB_TEXT.replace("right_child=1 -3\n", "right_child=1 -3\ndecision_type=2 6\n")
        with pytest.raises(ModelParseError, match="tree 0, node 1: zero-as-missing"):
            parse_lightgbm_text(text)

    @pytest.mark.parametrize("kind", [12, 16])
    def test_unknown_decision_type_rejected(self, kind):
        text = LGB_TEXT.replace("right_child=1 -3\n", f"right_child=1 -3\ndecision_type=0 {kind}\n")
        with pytest.raises(ModelParseError, match=f"tree 0, node 1: unknown decision_type {kind}"):
            parse_lightgbm_text(text)

    def test_numeric_decision_types_accepted(self):
        # Default-left (bit 1) and NaN-as-missing (type 2) keep x <= t routing
        # for every finite input; NaN inputs are rejected at predict time.
        text = LGB_TEXT.replace("right_child=1 -3\n", "right_child=1 -3\ndecision_type=2 10\n")
        tree = parse_lightgbm_text(text).trees[0]
        assert tree.predict_row(np.array([0.0, 0.0, 1.5])) == -0.5
        assert tree.predict_row(np.array([0.0, 0.0, 2.0])) == 1.0

    def test_nan_input_error_names_missing_value_routing(self):
        from repro.api import compile_model
        from repro.errors import ExecutionError

        predictor = compile_model(parse_lightgbm_text(LGB_TEXT))
        with pytest.raises(ExecutionError, match="missing-value routing is unsupported"):
            predictor.predict(np.array([[np.nan, 0.0, 0.0]]))


class TestSklearn:
    def _arrays(self):
        # x0 <= 0.5 ? 1 : 2   (sklearn semantics)
        return dict(
            children_left=np.array([1, -1, -1]),
            children_right=np.array([2, -1, -1]),
            feature=np.array([0, -2, -2]),
            threshold=np.array([0.5, 0.0, 0.0]),
            value=np.array([[0.0], [1.0], [2.0]]),
        )

    def test_inclusive_threshold_conversion(self):
        tree = tree_from_arrays(**self._arrays())
        # Equality must go LEFT under sklearn's <= semantics.
        assert tree.predict_row(np.array([0.5])) == 1.0
        assert tree.predict_row(np.array([0.5000001])) == 2.0

    def test_strict_mode(self):
        tree = tree_from_arrays(**self._arrays(), inclusive_threshold=False)
        assert tree.predict_row(np.array([0.5])) == 2.0

    def test_forest_scaling(self):
        forest = forest_from_arrays(
            [self._arrays(), self._arrays()], num_features=1, scale=0.5
        )
        pred = forest.raw_predict(np.array([[0.0]]))
        assert pred[0] == pytest.approx(1.0)  # (1.0 * 0.5) * 2 trees

    def test_length_mismatch_rejected(self):
        arrays = self._arrays()
        arrays["feature"] = arrays["feature"][:2]
        with pytest.raises(ModelParseError):
            tree_from_arrays(**arrays)
