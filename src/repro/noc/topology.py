"""NoC topology representation.

A :class:`Topology` is a set of switches (one per core, laid out on a
rectangular grid) and bidirectional :class:`Link` objects.  Links are
either planar wires (length taken from the grid geometry) or mm-wave
wireless shortcuts (single-hop regardless of distance).

The paper's platform is an 8x8 grid of 64 cores; the mesh baseline links
grid neighbours, the WiNoC topology is built by
:mod:`repro.noc.smallworld` and :mod:`repro.noc.wireless`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.utils.validation import check_positive

class LinkKind(enum.Enum):
    WIRE = "wire"
    WIRELESS = "wireless"


@dataclass(frozen=True)
class GridGeometry:
    """Physical die layout: switches on a uniform grid.

    ``pitch_mm`` is the center-to-center spacing of adjacent tiles; a
    64-core die at 65 nm is ~20 mm on a side, giving a 2.5 mm pitch.
    """

    columns: int
    rows: int
    pitch_mm: float = 2.5

    def __post_init__(self) -> None:
        check_positive("columns", self.columns)
        check_positive("rows", self.rows)
        check_positive("pitch_mm", self.pitch_mm)

    @property
    def num_nodes(self) -> int:
        return self.columns * self.rows

    def coordinates(self, node: int) -> Tuple[int, int]:
        """(column, row) of *node* in row-major order."""
        self._check_node(node)
        return node % self.columns, node // self.columns

    def node_at(self, column: int, row: int) -> int:
        if not (0 <= column < self.columns and 0 <= row < self.rows):
            raise ValueError(f"({column}, {row}) outside {self.columns}x{self.rows}")
        return row * self.columns + column

    def distance_mm(self, a: int, b: int) -> float:
        """Euclidean wire distance between two switches."""
        ax, ay = self.coordinates(a)
        bx, by = self.coordinates(b)
        return math.hypot(ax - bx, ay - by) * self.pitch_mm

    def manhattan_hops(self, a: int, b: int) -> int:
        ax, ay = self.coordinates(a)
        bx, by = self.coordinates(b)
        return abs(ax - bx) + abs(ay - by)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside [0, {self.num_nodes})")


@dataclass(frozen=True)
class Link:
    """Bidirectional link between two switches."""

    a: int
    b: int
    kind: LinkKind = LinkKind.WIRE
    length_mm: float = 0.0
    #: Wireless channel index (0..2); ``None`` for wires.
    channel: Optional[int] = None

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"self-link at node {self.a}")
        if self.kind is LinkKind.WIRELESS and self.channel is None:
            raise ValueError("wireless links must carry a channel index")
        if self.kind is LinkKind.WIRE and self.channel is not None:
            raise ValueError("wire links must not carry a channel index")

    @property
    def key(self) -> FrozenSet[int]:
        return frozenset((self.a, self.b))

    def other(self, node: int) -> int:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"node {node} not on link {self.a}-{self.b}")


@dataclass
class Topology:
    """A named switch network over a grid geometry."""

    name: str
    geometry: GridGeometry
    links: List[Link] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._adjacency: Optional[Dict[int, List[Link]]] = None
        seen = set()
        for link in self.links:
            self.geometry._check_node(link.a)
            self.geometry._check_node(link.b)
            if link.key in seen:
                raise ValueError(f"duplicate link {sorted(link.key)}")
            seen.add(link.key)

    @property
    def num_nodes(self) -> int:
        return self.geometry.num_nodes

    def adjacency(self) -> Dict[int, List[Link]]:
        if self._adjacency is None:
            adjacency: Dict[int, List[Link]] = {
                node: [] for node in range(self.num_nodes)
            }
            for link in self.links:
                adjacency[link.a].append(link)
                adjacency[link.b].append(link)
            self._adjacency = adjacency
        return self._adjacency

    def degree(self, node: int) -> int:
        """Switch degree excluding the local core port."""
        return len(self.adjacency()[node])

    def average_degree(self) -> float:
        return 2.0 * len(self.links) / self.num_nodes

    def is_connected(self) -> bool:
        if self.num_nodes == 0:
            return True
        seen = {0}
        frontier = [0]
        adjacency = self.adjacency()
        while frontier:
            node = frontier.pop()
            for link in adjacency[node]:
                peer = link.other(node)
                if peer not in seen:
                    seen.add(peer)
                    frontier.append(peer)
        return len(seen) == self.num_nodes

    def with_links(self, extra: Iterable[Link], name: Optional[str] = None) -> "Topology":
        """New topology with *extra* links appended."""
        return Topology(
            name=name or self.name,
            geometry=self.geometry,
            links=list(self.links) + list(extra),
        )

    def without_links(
        self,
        keys: Iterable[FrozenSet[int]],
        name: Optional[str] = None,
    ) -> "Topology":
        """New topology with every link whose :attr:`Link.key` is in
        *keys* removed (fault injection: failed wires / lost channels).

        The derived topology's link list differs, so it gets its own
        fabric and tables (:func:`repro.noc.fabric.fabric_for`).
        """
        drop = set(keys)
        missing = drop - {link.key for link in self.links}
        if missing:
            raise KeyError(
                f"links not in topology {self.name!r}: "
                f"{sorted(sorted(k) for k in missing)}"
            )
        return Topology(
            name=name or self.name,
            geometry=self.geometry,
            links=[link for link in self.links if link.key not in drop],
        )

    def wireless_links(self) -> List[Link]:
        return [link for link in self.links if link.kind is LinkKind.WIRELESS]

    def find_link(self, a: int, b: int) -> Link:
        for link in self.adjacency()[a]:
            if link.other(a) == b:
                return link
        raise KeyError(f"no link between {a} and {b}")


def build_mesh(geometry: GridGeometry, name: str = "mesh") -> Topology:
    """Baseline 2D mesh: links between grid neighbours."""
    links: List[Link] = []
    for row in range(geometry.rows):
        for column in range(geometry.columns):
            node = geometry.node_at(column, row)
            if column + 1 < geometry.columns:
                east = geometry.node_at(column + 1, row)
                links.append(
                    Link(node, east, LinkKind.WIRE, geometry.distance_mm(node, east))
                )
            if row + 1 < geometry.rows:
                south = geometry.node_at(column, row + 1)
                links.append(
                    Link(node, south, LinkKind.WIRE, geometry.distance_mm(node, south))
                )
    return Topology(name=name, geometry=geometry, links=links)
