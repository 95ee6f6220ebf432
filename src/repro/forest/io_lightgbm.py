"""Parser for the LightGBM text model format.

LightGBM's ``Booster.save_model`` writes a plain-text file with a header
(``num_class=...``, ``max_feature_idx=...``, ``objective=...``) followed by
one ``Tree=<i>`` section per tree. Each section stores the tree as parallel
arrays over *internal* nodes (``split_feature``, ``threshold``,
``left_child``, ``right_child``, ``decision_type``) and a ``leaf_value``
array; child ids use the LightGBM convention that a non-negative id is an
internal node and ``~id`` (i.e. ``-(id)-1``) is leaf ``id``.

LightGBM's default numerical decision is ``x <= t`` goes left; thresholds are
converted to this library's strict ``x < t`` convention with ``nextafter``.

``decision_type`` is a bit field per internal node: bit 0 marks a
categorical split, bit 1 the default (missing-value) direction, and bits
2-3 the missing type (0 none, 1 zero, 2 NaN). Only numerical splits are
supported: categorical splits, the zero missing type (which sends finite
zeros the default way) and unknown values raise :class:`ModelParseError`.
The NaN missing type routes every finite input like a plain ``x <= t``;
NaN inputs themselves are rejected at predict time.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelParseError
from repro.forest.ensemble import Forest
from repro.forest.tree import LEAF, NO_NODE, DecisionTree


def _parse_section(lines: list[str]) -> dict[str, str]:
    """Parse ``key=value`` lines into a dict (last occurrence wins)."""
    out: dict[str, str] = {}
    for line in lines:
        line = line.strip()
        if not line or "=" not in line:
            continue
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def _floats(text: str) -> np.ndarray:
    if not text.strip():
        return np.empty(0)
    return np.asarray([float(token) for token in text.split()], dtype=np.float64)


def _ints(text: str) -> np.ndarray:
    return _floats(text).astype(np.int64)


def _tree_from_section(fields: dict[str, str], class_id: int, tree_id: int) -> DecisionTree:
    num_leaves = int(fields.get("num_leaves", "0"))
    if num_leaves < 1:
        raise ModelParseError(f"tree {tree_id}: bad num_leaves")
    leaf_value = _floats(fields.get("leaf_value", ""))
    if leaf_value.shape[0] != num_leaves:
        raise ModelParseError(f"tree {tree_id}: leaf_value length mismatch")
    if num_leaves == 1:
        return DecisionTree(
            feature=np.asarray([LEAF]),
            threshold=np.asarray([0.0]),
            left=np.asarray([NO_NODE]),
            right=np.asarray([NO_NODE]),
            value=np.asarray([leaf_value[0]]),
            class_id=class_id,
            tree_id=tree_id,
        )
    num_internal = num_leaves - 1
    split_feature = _ints(fields.get("split_feature", ""))
    threshold = _floats(fields.get("threshold", ""))
    left_child = _ints(fields.get("left_child", ""))
    right_child = _ints(fields.get("right_child", ""))
    for name, arr in (
        ("split_feature", split_feature),
        ("threshold", threshold),
        ("left_child", left_child),
        ("right_child", right_child),
    ):
        if arr.shape[0] != num_internal:
            raise ModelParseError(f"tree {tree_id}: {name} length mismatch")

    decision_type = _ints(fields.get("decision_type", ""))
    if decision_type.shape[0] not in (0, num_internal):
        raise ModelParseError(f"tree {tree_id}: decision_type length mismatch")
    for node, kind in enumerate(decision_type):
        if kind & 1:
            raise ModelParseError(
                f"tree {tree_id}, node {node}: categorical splits are unsupported"
            )
        if (kind >> 2) & 3 == 1:
            raise ModelParseError(
                f"tree {tree_id}, node {node}: zero-as-missing splits are "
                f"unsupported (they route x == 0 by the default direction)"
            )
        if (kind >> 2) & 3 == 3 or kind >> 4:
            raise ModelParseError(f"tree {tree_id}, node {node}: unknown decision_type {kind}")

    # Re-number: internal node i -> i, leaf j -> num_internal + j.
    def remap(child: int) -> int:
        return int(child) if child >= 0 else num_internal + (~int(child))

    n = num_internal + num_leaves
    feature = np.full(n, LEAF, dtype=np.int64)
    thresh = np.zeros(n, dtype=np.float64)
    left = np.full(n, NO_NODE, dtype=np.int64)
    right = np.full(n, NO_NODE, dtype=np.int64)
    value = np.zeros(n, dtype=np.float64)
    feature[:num_internal] = split_feature
    # LightGBM routes x <= t left; convert to strict x < t.
    thresh[:num_internal] = np.nextafter(threshold, np.inf)
    left[:num_internal] = [remap(c) for c in left_child]
    right[:num_internal] = [remap(c) for c in right_child]
    value[num_internal:] = leaf_value
    # Our DecisionTree requires the root at index 0; LightGBM's is already 0.
    return DecisionTree(
        feature=feature,
        threshold=thresh,
        left=left,
        right=right,
        value=value,
        class_id=class_id,
        tree_id=tree_id,
    )


def parse_lightgbm_text(text: str, num_features: int | None = None) -> Forest:
    """Parse a LightGBM text model into a :class:`Forest`.

    Parameters
    ----------
    text:
        Contents of a file written by ``Booster.save_model``.
    num_features:
        Override for the feature count; defaults to ``max_feature_idx + 1``
        from the header.
    """
    blocks = text.split("Tree=")
    header = _parse_section(blocks[0].splitlines())
    if num_features is None:
        if "max_feature_idx" not in header:
            raise ModelParseError("header missing max_feature_idx and no override given")
        num_features = int(header["max_feature_idx"]) + 1
    num_classes = int(header.get("num_class", "1"))
    objective_text = header.get("objective", "regression")
    if num_classes > 1:
        objective = "multiclass"
    elif objective_text.startswith("binary"):
        objective = "binary:logistic"
    else:
        objective = "regression"
    if len(blocks) < 2:
        raise ModelParseError("model text contains no trees")
    trees = []
    for i, block in enumerate(blocks[1:]):
        fields = _parse_section(block.splitlines()[1:])  # first line is the tree index
        class_id = i % num_classes if num_classes > 1 else 0
        trees.append(_tree_from_section(fields, class_id=class_id, tree_id=i))
    return Forest(
        trees,
        num_features=num_features,
        objective=objective,
        num_classes=num_classes,
    )
