"""Dendrograms and canonical forms of finite ultrametric spaces.

An ultrametric space is equivalent to its hierarchy of closed balls: a
rooted tree whose leaves are the points and whose internal nodes carry
the merge heights.  Two spaces are isometric exactly when these trees
match as height-labeled trees, so a canonical string of the tree turns
isometry into string equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .graphs import _coerce_rational
from .metrics import (
    ULTRAMETRIC,
    DistanceMatrix,
    InternalCheckError,
    NotUltrametricError,
    _sorted_pairs,
    _sweep,
    classify_metric,
)

LEAF_MARK = "·"


@dataclass(frozen=True)
class Leaf:
    vertex: str


@dataclass(frozen=True)
class Merge:
    """Internal node: the clusters below fuse at distance ``height``."""

    height: Fraction
    children: tuple["Node", ...]

    def __post_init__(self):
        height = _coerce_rational(self.height)
        if height <= 0:
            raise ValueError("merge heights must be positive")
        if len(self.children) < 2:
            raise ValueError("merge nodes need at least two children")
        for child in self.children:
            if isinstance(child, Merge) and child.height >= height:
                raise ValueError("child merge heights must strictly decrease")
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "children", tuple(self.children))


Node = Union[Leaf, Merge]


def dendrogram(dm: DistanceMatrix) -> Node:
    """Build the merge tree of an ultrametric space.

    Sweep the pairs in ascending order of distance.  A merged cluster
    stays open at its height until it merges again higher up, so
    clusters chaining together at one height share a single multiway
    node.  Children are ordered by their first vertex in declaration
    order.
    """
    if classify_metric(dm) != ULTRAMETRIC:
        raise NotUltrametricError(
            "dendrograms need an ultrametric; collapse zero-distance "
            "classes first (zero_quotient)"
        )

    def close(height: Fraction, kids: list[tuple[int, Node]]) -> tuple[int, Node]:
        if len(kids) == 1:
            return kids[0]
        kids.sort(key=lambda kid: kid[0])
        return kids[0][0], Merge(height, tuple(node for _, node in kids))

    # cluster root -> (height, [(first leaf index, child)]); leaves sit at 0
    open_at = {i: (0, [(i, Leaf(v))]) for i, v in enumerate(dm.vertices)}
    for w, a, b in _sweep(len(dm.vertices), _sorted_pairs(dm.entries)):
        kids: list[tuple[int, Node]] = []
        for root in (a[0], b[0]):
            height, sub = open_at.pop(root)
            if height == w:
                kids.extend(sub)
            else:
                kids.append(close(height, sub))
        open_at[a[0]] = (w, kids)

    if len(open_at) != 1:
        raise InternalCheckError("dendrogram construction left unmerged clusters")
    ((height, kids),) = open_at.values()
    return close(height, kids)[1]


def canonical_form(node: Node) -> str:
    """Order-independent string of a dendrogram.

    Leaves render as a middle dot; a merge node renders as ``(`` +
    height in lowest terms + the children's canonical strings in
    byte order + ``)``.  Equal strings mean isometric spaces.
    """
    # Post-order with an explicit stack, so depth is not bounded by the
    # interpreter's recursion limit.
    done: list[str] = []
    stack: list[tuple[Node, bool]] = [(node, False)]
    while stack:
        item, expanded = stack.pop()
        if isinstance(item, Leaf):
            done.append(LEAF_MARK)
        elif not expanded:
            stack.append((item, True))
            stack.extend((child, False) for child in item.children)
        else:
            k = len(item.children)
            parts = sorted(done[-k:])
            del done[-k:]
            done.append("(" + str(item.height) + "".join(parts) + ")")
    return done[0]


def are_isometric(dm1: DistanceMatrix, dm2: DistanceMatrix) -> bool:
    """Decide isometry of two ultrametric spaces via canonical forms."""
    return canonical_form(dendrogram(dm1)) == canonical_form(dendrogram(dm2))


def leaves(node: Node) -> Iterator[str]:
    """Leaf vertices, left to right."""
    # Explicit stacks here and below, so depth is not bounded by the
    # interpreter's recursion limit.
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, Leaf):
            yield item.vertex
        else:
            stack.extend(reversed(item.children))


def cophenetic_distances(node: Node) -> dict[frozenset[str], Fraction]:
    """Pairwise merge heights; inverts :func:`dendrogram` for tests."""
    dists: dict[frozenset[str], Fraction] = {}
    done: list[list[str]] = []
    stack: list[tuple[Node, bool]] = [(node, False)]
    while stack:
        item, expanded = stack.pop()
        if isinstance(item, Leaf):
            done.append([item.vertex])
        elif not expanded:
            stack.append((item, True))
            stack.extend((child, False) for child in reversed(item.children))
        else:
            k = len(item.children)
            blocks = done[-k:]
            del done[-k:]
            for i in range(k):
                for j in range(i + 1, k):
                    for x in blocks[i]:
                        for y in blocks[j]:
                            dists[frozenset((x, y))] = item.height
            done.append([x for block in blocks for x in block])
    return dists


def to_json_dict(node: Node) -> dict:
    root: dict = {}
    stack: list[tuple[Node, dict]] = [(node, root)]
    while stack:
        item, doc = stack.pop()
        if isinstance(item, Leaf):
            doc["leaf"] = item.vertex
        else:
            doc["height"] = str(item.height)
            doc["children"] = kids = [{} for _ in item.children]
            stack.extend(zip(item.children, kids))
    return root
