"""Dendrograms and canonical forms of finite ultrametric spaces.

An ultrametric space is equivalent to its hierarchy of closed balls: a
rooted tree whose leaves are the points and whose internal nodes carry
the merge heights.  Two spaces are isometric exactly when these trees
match as height-labeled trees, so a canonical string of the tree turns
isometry into string equality.

The tree is the Cartesian tree of a leaf order's gaps (Vuillemin 1980):
the leaf order of a matrix's validation sweep (:func:`dendrogram`), or,
for the space a labeled graph generates, that of the graph's own edge
sweep (:func:`graph_dendrogram`), which needs no matrix.  The build
refuses a gap of ``0``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Sequence, Union

from .graphs import LabeledGraph, _coerce_rational, _quoted
from .metrics import (
    DistanceMatrix,
    InternalCheckError,
    NotUltrametricError,
    _leaf_order,
)

LEAF_MARK = "·"
_NEEDS_ULTRAMETRIC = (
    "dendrograms need an ultrametric; collapse zero-distance classes first (zero_quotient)"
)


@dataclass(frozen=True)
class Leaf:
    vertex: str

    def __post_init__(self):
        if not isinstance(self.vertex, str):
            raise ValueError("vertex names must be strings")


@dataclass(frozen=True, eq=False, repr=False)
class Merge:
    """Internal node: the clusters below fuse at distance ``height``.

    ``==``, ``hash`` and ``repr`` mean what the dataclass-generated
    methods mean, but walk the tree without recursion, so they work at
    any depth.
    """

    height: Fraction
    children: tuple["Node", ...]

    def __post_init__(self):
        height = _coerce_rational(self.height)
        if height <= 0:
            raise ValueError("merge heights must be positive")
        if not isinstance(self.children, (tuple, list)):
            raise TypeError(
                f"children must be a tuple or a list, not {type(self.children).__name__}"
            )
        if len(self.children) < 2:
            raise ValueError("merge nodes need at least two children")
        for child in self.children:
            if not isinstance(child, (Leaf, Merge)):
                raise ValueError(f"merge child {_quoted(child)} is not a Leaf or a Merge")
            if isinstance(child, Merge) and child.height >= height:
                raise ValueError("child merge heights must strictly decrease")
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "children", tuple(self.children))

    @classmethod
    def _checked(cls, height: Fraction, children: tuple["Node", ...]) -> "Merge":
        """The node of a height and children already checked as ``__post_init__`` checks them.

        ``height`` is a Fraction and ``children`` a tuple; :func:`_close`
        makes the checks on ranks.
        """
        node = cls.__new__(cls)
        object.__setattr__(node, "height", height)
        object.__setattr__(node, "children", children)
        return node

    def _shape(self) -> list[tuple]:
        # A post-order with each node's arity fixes an ordered tree.
        return [
            (item.vertex,) if isinstance(item, Leaf) else (item.height, len(item.children))
            for item in _postorder(self)
        ]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._shape() == other._shape()

    def __hash__(self):
        return hash(tuple(self._shape()))

    def __repr__(self) -> str:
        # Pieces in order from a stack of (node, next child index): the
        # nested strings of a recursive repr would be quadratic in depth.
        pieces: list[str] = []
        stack = [(self, 0)]
        while stack:
            node, k = stack.pop()
            if k == 0:
                pieces.append(f"Merge(height={node.height!r}, children=(")
            if k == len(node.children):
                pieces.append("))")
                continue
            if k:
                pieces.append(", ")
            stack.append((node, k + 1))
            child = node.children[k]
            if isinstance(child, Merge):
                stack.append((child, 0))
            else:
                pieces.append(repr(child))
        return "".join(pieces)


Node = Union[Leaf, Merge]


def dendrogram(dm: DistanceMatrix) -> Node:
    """Build the merge tree of an ultrametric space given as a matrix.

    Validation sweeps the matrix's rank rows; the leaf order and gaps
    of that sweep are built into the tree by :func:`_replay`.
    """
    return _replay(dm.vertices, *dm._leaf_order(), dm._ordered)


def graph_dendrogram(g: LabeledGraph) -> Node:
    """The merge tree of the space a connected labeled graph generates.

    Built from the leaf order of the graph's own edge sweep, with no
    distance matrix: the space is ultrametric exactly when no gap is
    ``0``.  The result equals ``dendrogram(distance_matrix(g))``.  In
    place of that route's validation, besides the sweep's count of
    merges and the node checks of :func:`_close`, every internal node
    must have a leaf child, which :func:`_close` checks as it builds the
    node: the endpoint labeled ``h`` of an edge merging at ``h`` is at
    distance exactly ``h`` from every other point of the new cluster.
    """
    return _replay(g.vertices, *_leaf_order(g), leaf_children=True)


_Item = tuple[int, int, Node]


def _close(
    height: int, kids: list[_Item], ordered: Sequence, leaf_children: bool = False
) -> _Item:
    """The node at rank ``height`` over ``kids``, as ``(first leaf, rank, node)``.

    Each kid is ``(first leaf index, height rank, node)``, with leaves
    at rank ``0``.  The node gets the checks of ``Merge.__post_init__``
    on its ranks, which the rank map keeps (it is strictly increasing,
    and rank ``0`` is the value ``0``): a positive height and each child
    below its parent.  A failure raises the same :class:`ValueError`.
    With ``leaf_children``, a node none of whose kids has rank ``0``, so
    none a leaf, raises :class:`InternalCheckError`.  Children are
    ordered by their first leaf in declaration order.
    """
    if height <= 0:
        raise ValueError("merge heights must be positive")
    for _, rank, _ in kids:
        if rank >= height:
            raise ValueError("child merge heights must strictly decrease")
    if leaf_children and all([rank for _, rank, _ in kids]):
        raise InternalCheckError(f"merge at height {ordered[height]} has no leaf child")
    kids.sort(key=itemgetter(0))
    children = tuple([child for _, _, child in kids])
    return kids[0][0], height, Merge._checked(ordered[height], children)


def _replay(
    vertices: Sequence[str],
    order: Sequence[int],
    gaps: Sequence[int],
    ordered: Sequence,
    leaf_children: bool = False,
) -> Node:
    """Build the merge tree of a leaf order: the Cartesian tree of its gaps.

    ``order`` lists indices into ``vertices`` and ``gaps[p]`` is the
    rank of the distance between ``order[p]`` and ``order[p + 1]``, as
    :func:`ultragraph.metrics._leaf_order` returns them; ``ordered[w]``
    is the height of rank ``w``.  An order and gaps that do not cover
    every vertex raise :class:`InternalCheckError`, and a gap of rank
    ``0`` raises :class:`NotUltrametricError`.  One pass from left to
    right keeps a stack of open nodes, heights falling toward the top,
    each holding the subtrees to its left.  A gap first closes every
    open node below it, then joins the open node at its own height or
    opens one there, so neighbouring gaps of one height under no higher
    gap share a single multiway node.  :func:`_close` orders each node's
    children by their first vertex in declaration order, so the tree
    does not depend on the order of subtrees in the leaf order.
    ``leaf_children`` turns on its test for a leaf child, which holds in
    every space a labeled graph generates but not in every ultrametric.
    """
    n, covered = len(vertices), min(len(order), len(gaps) + 1)
    if covered != n:
        raise InternalCheckError(f"dendrogram construction covers {covered} of {n} vertices")
    if 0 in gaps:
        raise NotUltrametricError(_NEEDS_ULTRAMETRIC)
    stack: list[tuple[int, list[_Item]]] = []
    item = (order[0], 0, Leaf(vertices[order[0]]))
    for w, v in zip(gaps, order[1:]):
        while stack and stack[-1][0] < w:
            height, kids = stack.pop()
            kids.append(item)
            item = _close(height, kids, ordered, leaf_children)
        if stack and stack[-1][0] == w:
            stack[-1][1].append(item)
        else:
            stack.append((w, [item]))
        item = (v, 0, Leaf(vertices[v]))
    while stack:
        height, kids = stack.pop()
        kids.append(item)
        item = _close(height, kids, ordered, leaf_children)
    return item[2]


def _postorder(node: Node) -> list[Node]:
    """The nodes under ``node`` in post-order: the right-to-left pre-order, reversed."""
    order, stack = [], [node]
    while stack:
        item = stack.pop()
        order.append(item)
        if isinstance(item, Merge):
            stack.extend(item.children)
    order.reverse()
    return order


def canonical_form(node: Node) -> str:
    """Order-independent string of a dendrogram.

    Leaves render as a middle dot; a merge node renders as ``(`` +
    height in lowest terms + the children's canonical strings in
    byte order + ``)``.  Equal strings mean isometric spaces.
    """
    # A merge's string starts with "(", which sorts before the leaf mark: only merge
    # siblings are joined and sorted, and a lone merge child's pieces grow in place.
    done: list = []
    for item in _postorder(node):
        if isinstance(item, Leaf):
            done.append(LEAF_MARK)
            continue
        k = len(item.children)
        merges = [part for part in done[-k:] if isinstance(part, deque)]
        marks = LEAF_MARK * (k - len(merges)) + ")"
        part = merges[0] if len(merges) == 1 else deque(sorted(map("".join, merges)))
        part.appendleft("(" + str(item.height))
        part.append(marks)
        done[-k:] = [part]
    return "".join(done[0])


def are_isometric(dm1: DistanceMatrix, dm2: DistanceMatrix) -> bool:
    """Decide isometry via canonical forms, each kept in its matrix's ``__dict__`` once built."""
    for dm in (dm1, dm2):
        if "_canonical_form" not in dm.__dict__:
            dm.__dict__["_canonical_form"] = canonical_form(dendrogram(dm))
    return dm1._canonical_form == dm2._canonical_form


def leaves(node: Node) -> Iterator[str]:
    """Leaf vertices, left to right."""
    return (item.vertex for item in _postorder(node) if isinstance(item, Leaf))


def to_json_dict(node: Node) -> dict:
    done: list[dict] = []
    for item in _postorder(node):
        if isinstance(item, Leaf):
            done.append({"leaf": item.vertex})
        else:
            k = len(item.children)
            done[-k:] = [{"height": str(item.height), "children": done[-k:]}]
    return done[0]
