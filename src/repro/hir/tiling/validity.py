"""Validity checking for tilings (Section III-B1).

A tiling of a tree with tile size ``n_t`` is *valid* when it satisfies:

* **Partitioning** — the tiles cover all internal nodes, disjointly (leaves
  are implicitly their own tiles and must not appear in any internal tile:
  **leaf separation**).
* **Connectedness** — each tile is a connected subtree.
* **Maximal tiling** — a tile smaller than ``n_t`` has no outgoing edge to a
  non-leaf node (it could otherwise have grown).

``check_valid_tiling`` raises :class:`~repro.errors.TilingError` with a
precise message on the first violated constraint; every tiling algorithm in
this package is checked against it in the test suite (including via
hypothesis-generated random trees).
"""

from __future__ import annotations

from repro.errors import TilingError
from repro.forest.tree import NO_NODE, DecisionTree


def check_valid_tiling(
    tree: DecisionTree, internal_tiles: list[list[int]], tile_size: int
) -> None:
    """Validate ``internal_tiles`` as a tiling of ``tree``; raise on violation."""
    if tile_size < 1:
        raise TilingError("tile size must be >= 1")
    left = tree.left.tolist()
    right = tree.right.tolist()
    if left[0] == NO_NODE:
        if internal_tiles:
            raise TilingError("single-leaf tree must have an empty internal tiling")
        return

    internal = {n for n, child in enumerate(left) if child != NO_NODE}
    leaves = {n for n, child in enumerate(left) if child == NO_NODE}

    seen: set[int] = set()
    for i, nodes in enumerate(internal_tiles):
        if not nodes:
            raise TilingError(f"tile {i} is empty")
        if len(nodes) > tile_size:
            raise TilingError(f"tile {i} has {len(nodes)} nodes, exceeding tile size {tile_size}")
        for n in nodes:
            n = int(n)
            if n in leaves:
                raise TilingError(f"leaf separation violated: leaf {n} in tile {i}")
            if n not in internal:
                raise TilingError(f"tile {i} references unknown node {n}")
            if n in seen:
                raise TilingError(f"partitioning violated: node {n} in multiple tiles")
            seen.add(n)
    if seen != internal:
        missing = sorted(internal - seen)[:5]
        raise TilingError(f"partitioning violated: internal nodes {missing} not tiled")

    parent = [NO_NODE] * len(left)
    for n in internal:
        parent[left[n]] = n
        parent[right[n]] = n
    for i, nodes in enumerate(internal_tiles):
        members = set(map(int, nodes))
        _check_connected(left, right, parent, members, i)
        if len(members) < tile_size:
            _check_maximal(left, right, members, i)


def _check_connected(
    left: list[int], right: list[int], parent: list[int], members: set[int], tile_index: int
) -> None:
    """Connectedness: the tile must induce a connected subtree.

    In a tree, a node set is connected iff exactly one member's parent lies
    outside the set (the tile root) and every member is reachable from it by
    in-set child edges.
    """
    roots = [n for n in members if parent[n] not in members]
    if len(roots) != 1:
        raise TilingError(
            f"connectedness violated in tile {tile_index}: {len(roots)} tile roots"
        )
    reached = {roots[0]}
    stack = [roots[0]]
    while stack:
        n = stack.pop()
        for c in (left[n], right[n]):
            if c in members and c not in reached:
                reached.add(c)
                stack.append(c)
    if reached != members:
        raise TilingError(f"connectedness violated in tile {tile_index}")


def _check_maximal(left: list[int], right: list[int], members: set[int], tile_index: int) -> None:
    """Maximal tiling: undersized tiles may only border leaves."""
    for n in members:
        for c in (left[n], right[n]):
            if c not in members and left[c] != NO_NODE:
                raise TilingError(
                    f"maximality violated: tile {tile_index} has size {len(members)} "
                    f"< tile size but borders non-leaf node {c}"
                )
