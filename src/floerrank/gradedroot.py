"""Graded roots: infinite trees generated by an integer sequence.

For a sequence tau with non-decreasing tail, take one upward ray per index n
starting at grading tau(n) and glue rays n and n+1 at every grading
>= max(tau(n), tau(n+1)).  The quotient is a tree with finitely many
vertices per grading, exactly one per grading at and above the
stabilization grading max(tau).

The tree only depends on the local extrema of tau, so we store the
compressed alternating min/max sequence and build the explicit tree only
when a vertex-level query or a rendering asks for it.  A vertex at grading
h is a maximal run of consecutive extrema that are all <= h; one top-down
sweep over the gradings finds the runs and each run's parent one grading up.
The same build places the columns the renders draw, in one bottom-up pass
over the sweep's edges: the leaves are the minima, four columns apart in
ray order, and a parent sits at the integer mean of its children's columns.
vertices(), edges() and every render read that one cached structure.  The
renders are array passes over it: the ascii render paints the stem, the
vertex marks, the links and the grading labels straight into the bytes of
its output, each row ending at its right-most mark, so its memory follows
the output and not the rows times the columns of the drawing; the svg and
dot renders write each block of lines in one %-format pass.
Summary ranks come straight from the extrema:
with minima v_1..v_m and maxima u_1..u_{m-1},

    leaves            = m,
    total reduced rank = sum(u) - sum(v) + min(v),
    total hat rank     = 2m - 1.
"""

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import EmptySequenceError, UnknownFormatError

# explicit trees above this many vertices are refused rather than built
MAX_VERTICES = 10**6


def compress_extrema(tau) -> list:
    """Local extrema of tau, alternating and starting/ending with a minimum.

    Leading non-increasing and trailing non-decreasing runs collapse into
    their extreme element; both conventions match gluing a non-decreasing
    tail after the sequence.
    """
    if len(tau) == 0:
        raise EmptySequenceError("tau must be nonempty")
    # drop repeats, then keep strict direction changes
    vals = [tau[0]]
    for v in tau[1:]:
        if v != vals[-1]:
            vals.append(v)
    out = [vals[0]]
    for i in range(1, len(vals) - 1):
        if (vals[i - 1] < vals[i]) != (vals[i] < vals[i + 1]):
            out.append(vals[i])
    if len(vals) > 1:
        out.append(vals[-1])
    # strip a leading descent / trailing ascent: those rays glue into their
    # lower neighbour and contribute nothing
    if len(out) > 1 and out[0] > out[1]:
        out = out[1:]
    if len(out) > 1 and out[-1] > out[-2]:
        out = out[:-1]
    return out


@dataclass(frozen=True)
class Vertex:
    vertex_id: tuple  # (min ray index, grading): deterministic
    grading: int


class GradedRoot:
    """Finite window of a graded root, plus the implicit stable stem above."""

    def __init__(self, extrema):
        extrema = list(extrema)
        if not extrema:
            raise EmptySequenceError("a graded root needs at least one ray")
        if len(extrema) % 2 == 0:
            raise ValueError("extrema must start and end with a minimum")
        for i in range(len(extrema) - 1):
            ascending = extrema[i] < extrema[i + 1]
            if ascending != (i % 2 == 0):
                raise ValueError(f"extrema {extrema} do not alternate min/max")
        self.extrema = tuple(extrema)
        self.minima = tuple(extrema[0::2])
        self.maxima = tuple(extrema[1::2])
        self.stabilization = max(extrema)
        self._structure = None

    @classmethod
    def from_tau(cls, tau) -> "GradedRoot":
        """Root of the sequence tau followed by a non-decreasing tail."""
        return cls(compress_extrema(list(tau)))

    @classmethod
    def from_delta_sequence(cls, ds) -> "GradedRoot":
        return cls.from_tau(ds.tau())

    # -- summary ranks straight from the extrema ---------------------------

    def leaves(self) -> int:
        return len(self.minima)

    def total_red(self) -> int:
        if not self.maxima:
            return 0
        return sum(self.maxima) - sum(self.minima) + min(self.minima)

    def total_hat(self) -> int:
        return 2 * len(self.minima) - 1

    # -- per-grading counts -------------------------------------------------

    def vertex_counts(self) -> dict:
        """Vertices per grading from min(tau) up to stabilization.

        Above stabilization every grading has exactly one vertex (implicit).
        """
        step = Counter(self.minima)
        step.subtract(self.maxima)
        counts, running = {}, 0
        for h in range(min(self.minima), self.stabilization + 1):
            running += step[h]
            counts[h] = running
        return counts

    def hat_ranks_by_degree(self) -> dict:
        """Hat rank per grading: leaves plus the cokernel contribution.

        The cokernel contribution at grading h is the number of vertices at
        h not hit by a vertex above, count(h) - count(h+1) + leaves(h+1),
        which is the number of maxima at h+1.  Grading labels are the root's
        own gradings (no overall shift is applied).
        """
        out = Counter(self.minima) + Counter(u - 1 for u in self.maxima)
        return dict(sorted(out.items()))

    # -- explicit tree (one top-down sweep, then its columns bottom-up) -----

    def _build_structure(self):
        if self._structure is not None:
            return self._structure
        rays, top = self.extrema, self.stabilization
        total = (sum(top - v + 1 for v in self.minima)
                 - sum(top - u + 1 for u in self.maxima))
        if total > MAX_VERTICES:
            raise ValueError(f"graded root has {total} vertices, more than the "
                             f"{MAX_VERTICES} an explicit tree may have")
        leaving = {}
        for i, e in enumerate(rays):
            leaving.setdefault(e, []).append(i)
        active = [True] * len(rays)
        starts = [0]  # first ray of each run at the current grading, sorted
        vertices = [Vertex(vertex_id=(0, top), grading=top)]
        edges = []
        for h in range(top - 1, min(rays) - 1, -1):
            above = starts
            gone = leaving.get(h + 1)
            if gone:
                for i in gone:
                    active[i] = False
                # a ray that leaves ends or splits its run; its active right
                # neighbour starts a run
                new = set(above).difference(gone)
                new.update(i + 1 for i in gone if i + 1 < len(rays) and active[i + 1])
                starts = sorted(new)
            for first in starts:
                vid = (first, h)
                vertices.append(Vertex(vertex_id=vid, grading=h))
                edges.append((vid, (above[bisect_right(above, first) - 1], h + 1)))
        # leaves (the minima) at 0, 4, 8, ...; the sweep's edges reversed reach
        # each child after its own children, and a parent takes their mean
        columns = {(2 * j, v): 4 * j for j, v in enumerate(self.minima)}
        below = {}
        for child, parent in reversed(edges):
            if child not in columns:
                columns[child] = sum(below[child]) // len(below[child])
            below.setdefault(parent, []).append(columns[child])
        if edges:
            columns[(0, top)] = sum(below[(0, top)]) // len(below[(0, top)])
        vertices.sort(key=lambda v: v.vertex_id)
        edges.sort()
        self._structure = (vertices, edges, columns)
        return self._structure

    def vertices(self) -> list:
        return list(self._build_structure()[0])

    def edges(self) -> list:
        """(child id, parent id) pairs inside the window."""
        return list(self._build_structure()[1])

    def render(self, format: str = "ascii") -> str:
        if format == "ascii":
            return self._render_ascii()
        if format == "dot":
            return self._render_dot()
        if format == "svg":
            return self._render_svg()
        raise UnknownFormatError(f"unknown format {format!r}")

    def _table(self, ids: list) -> tuple:
        """Depth below the top grading and column of each vertex id, as arrays.

        Depths, unlike gradings, are bounded by the tree's height, so they
        fit in int64 however large the gradings are.
        """
        top, cols = self.stabilization, self._build_structure()[2]
        return (np.fromiter((top - h for _, h in ids), np.int64, len(ids)),
                np.fromiter(map(cols.__getitem__, ids), np.int64, len(ids)))

    def _render_ascii(self) -> str:
        """Paint the tree straight into the bytes of the output.

        Row 0 holds the stem, row 2k + 1 the vertices at grading top - k and
        row 2k + 2 the links from the vertices at top - k - 1 up to them.  The
        root is the head of the table below and its link is the stem.  Each
        row ends after its right-most mark, so the offset of every row is
        known before anything is painted, and the only buffer is the output's
        own: no grid of rows times columns is built.
        """
        top, lo = self.stabilization, min(self.minima)
        _, edges, _ = self._build_structure()
        # the root, then each edge's child and parent
        depth, col = self._table([(0, top)] + list(chain.from_iterable(edges)))
        depth = np.concatenate((depth[:1], depth[1::2]))
        parent = np.concatenate((col[:1], col[2::2]))
        col = np.concatenate((col[:1], col[1::2]))
        step = np.sign(parent - col)
        label = max(len(str(lo)), len(str(top)))
        left = label + 1  # a grading label and a space precede the tree
        col += left
        link = col + step
        char = np.frombuffer(b"\\|/", np.uint8)[step + 1]
        char[0] = ord(":")
        mark_row = 2 * depth + 1
        link_row = mark_row - 1
        end = np.zeros(2 * (top - lo) + 2, np.int64)
        np.maximum.at(end, mark_row, col + 1)
        np.maximum.at(end, link_row, link + 1)
        start = np.cumsum(end + 1) - (end + 1)
        out = np.full(start[-1] + end[-1] + 1, ord(" "), np.uint8)
        labels = (f"%{label}d " * (top - lo + 1)) % tuple(range(top, lo - 1, -1))
        out[start[1::2, None] + np.arange(left)] = \
            np.frombuffer(labels.encode(), np.uint8).reshape(-1, left)
        out[start[mark_row] + col] = ord("o")
        out[start[link_row] + link] = char
        out[start + end] = ord("\n")
        return str(out.data, "ascii")

    def _render_dot(self) -> str:
        vertices, edges, _ = self._build_structure()
        top = self.stabilization
        dot = "".join((
            "digraph gradedroot {\n",
            f"  // stabilizes: one vertex per grading >= {top}\n",
            "  node [shape=circle];\n",
            _fill('  "v%d_%d" [label="%d"];\n', [(*v.vertex_id, v.grading) for v in vertices]),
            f'  "stem" [label="{top + 1}", style=dashed];\n',
            _fill('  "v%d_%d" -> "v%d_%d";\n', [child + parent for child, parent in edges]),
            f'  "v0_{top}" -> "stem" [style=dashed];\n',
            "}\n"))
        # a vertex's name writes the minus sign of its grading as "m"
        return dot.replace("_-", "_m")

    def _render_svg(self) -> str:
        vertices, edges, _ = self._build_structure()
        top, lo = self.stabilization, min(self.minima)
        scale, margin = 24, 30

        def xy(ids):
            depth, col = self._table(ids)
            return np.column_stack((margin + col * scale // 2, margin + depth * scale))

        ends = xy(list(chain.from_iterable(edges)))  # each edge's child, then parent
        centres = xy([v.vertex_id for v in vertices])
        return "".join((
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{centres[:, 0].max() + margin}" '
            f'height="{margin * 2 + (top - lo) * scale}">\n',
            _fill('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>\n',
                  ends.reshape(-1, 4).tolist()),
            _fill('<circle cx="%d" cy="%d" r="4" fill="black"/>\n', centres.tolist()),
            _fill('<text x="2" y="%d" font-size="10">%d</text>\n',
                  list(zip(range(margin + (top - lo) * scale + 4, margin, -scale),
                           range(lo, top + 1)))),
            "</svg>\n"))


def _fill(template: str, rows: list) -> str:
    """The template once per row, in one %-format pass."""
    return (template * len(rows)) % tuple(chain.from_iterable(rows))
