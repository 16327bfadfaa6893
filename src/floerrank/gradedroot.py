"""Graded roots: infinite trees generated by an integer sequence.

For a sequence tau with non-decreasing tail, take one upward ray per index n
starting at grading tau(n) and glue rays n and n+1 at every grading
>= max(tau(n), tau(n+1)).  The quotient is a tree with finitely many
vertices per grading, exactly one per grading at and above the
stabilization grading max(tau).

The tree only depends on the local extrema of tau, so we store the
compressed alternating sequence v_0, u_1, v_1, ..., u_{m-1}, v_{m-1} of
minima v and maxima u, and build the explicit tree only when a vertex-level
query or a rendering asks for it.  A vertex at grading h is a maximal run of
consecutive extrema that are all <= h, named (first extremum, h); a run
always starts at a minimum.  So the tree is made of chains, one per minimum:
v_j owns the vertices (2j, h) for v_j <= h < cap_j, where cap_0 = top + 1
and cap_j = u_j.  The top of chain j joins, at grading cap_j, the chain
that starts after the nearest maximum to its left above cap_j, and one
stack of earlier chains with decreasing caps finds all of these in a pass
over the minima.  The columns the renders draw follow the chains too: chain
j starts at column 4j, and at each grading where chains join it, it moves
to the integer mean of its own column and their top columns.  The structure
is four int64 arrays in vertex-id order: ray, depth below the top, parent
index and column.  No sweep over the gradings is made.  vertices() and
edges() build their lists from those arrays, and the renders are array
passes over them: the ascii render paints the stem, the vertex marks, the
links and the grading labels straight into the bytes of its output, each
row ending at its right-most mark, so its memory follows the output and not
the rows times the columns of the drawing; the svg and dot renders write
each block of lines in one %-format pass.
Summary ranks come straight from the extrema:

    leaves            = m,
    total reduced rank = sum(u) - sum(v) + min(v),
    total hat rank     = 2m - 1.
"""

from collections import Counter
from itertools import accumulate, chain, groupby, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import EmptySequenceError, UnknownFormatError

# explicit trees above this many vertices are refused rather than built
MAX_VERTICES = 10**6
# ascii drawings above this many bytes are refused rather than painted: a
# tree under MAX_VERTICES can still be hundreds of thousands of columns wide
MAX_ASCII_BYTES = 64 * 2**20


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


class Vertex(NamedTuple):
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
        """Root of ds's tau, which turns exactly where delta changes sign: its
        values at the ends of the same-sign runs are all the extrema need."""
        return cls.from_tau(accumulate(ds.canonical_values(), initial=0))

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

        Above stabilization every grading has exactly one vertex (implicit);
        a window of more than MAX_VERTICES gradings is refused.
        """
        low = min(self.minima)
        if self.stabilization - low >= MAX_VERTICES:
            raise ValueError(f"graded root spans {self.stabilization - low + 1} gradings, "
                             f"more than the {MAX_VERTICES} vertex_counts may list")
        step = Counter(self.minima)
        step.subtract(self.maxima)
        counts, running = {}, 0
        for h in range(low, self.stabilization + 1):
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

    # -- explicit tree: one chain of vertices per minimum -------------------

    def _build_structure(self):
        """Ray, depth below the top, parent index (-1 at the root) and column
        of every vertex, as int64 arrays in vertex-id order.

        Minimum j owns the chain (2j, h), v_j <= h < cap_j, where cap_0 is
        top + 1 and cap_j the maximum just before v_j.  Depths, unlike
        gradings, are bounded by the tree's height, so they fit in int64
        however large the gradings are.
        """
        if self._structure is not None:
            return self._structure
        top, minima = self.stabilization, self.minima
        caps = (top + 1,) + self.maxima
        lengths = [cap - v for cap, v in zip(caps, minima)]
        offset = list(accumulate(lengths, initial=0))
        if offset[-1] > MAX_VERTICES:
            raise ValueError(f"graded root has {offset[-1]} vertices, more than "
                             f"the {MAX_VERTICES} an explicit tree may have")
        # the top of chain j joins chain k, the chain after the nearest maximum
        # to its left above cap_j, at vertex (2k, cap_j); the stack holds the
        # earlier chains with decreasing caps
        stack, above, joins = [0], [-1], [[] for _ in minima]
        for j in range(1, len(minima)):
            while caps[stack[-1]] <= caps[j]:
                stack.pop()
            k = stack[-1]
            above.append(offset[k] + caps[j] - minima[k])
            joins[k].append(j)
            stack.append(j)
        # chain k starts at column 4k; where chains join it, it moves to the
        # mean of its own column and their tops'.  In order of the caps, the
        # chains joining a chain are placed before it.
        # runs[k]: chain k's (column, number of vertices) from its bottom up
        top_col, runs = [0] * len(minima), [None] * len(minima)
        for k in sorted(range(len(minima)), key=caps.__getitem__):
            col, h, runs[k] = 4 * k, minima[k], []
            for g, group in groupby(joins[k], caps.__getitem__):
                runs[k].append((col, g - h))
                tops = [top_col[j] for j in group]
                col, h = (col + sum(tops)) // (1 + len(tops)), g
            runs[k].append((col, caps[k] - h))
            top_col[k] = col
        cols, spans = zip(*chain.from_iterable(runs))
        index = np.arange(offset[-1], dtype=np.int64)
        # vertex i of chain j sits at depth top - v_j - (i - offset_j), below
        # vertex i + 1 or, at the chain's top, below the vertex it joins
        parent = index + 1
        parent[np.array(offset[1:]) - 1] = above
        self._structure = (
            np.repeat(np.arange(0, 2 * len(minima), 2, dtype=np.int64), lengths),
            np.repeat(np.array([top - v + o for v, o in zip(minima, offset)], np.int64),
                      lengths) - index,
            parent,
            np.repeat(np.array(cols, np.int64), spans))
        return self._structure

    def _ids(self) -> list:
        """(ray, grading) of every vertex in id order, gradings exact."""
        ray, depth, _, _ = self._build_structure()
        top = self.stabilization
        return list(zip(ray.tolist(), [top - d for d in depth.tolist()]))

    def _edges(self, ids: list) -> list:
        return [(ids[i], ids[p])
                for i, p in enumerate(self._build_structure()[2].tolist()) if p >= 0]

    def vertices(self) -> list:
        ids = self._ids()
        # tuple.__new__ builds each Vertex in C, past NamedTuple's Python __new__
        return list(map(tuple.__new__, repeat(Vertex), zip(ids, map(itemgetter(1), ids))))

    def edges(self) -> list:
        """(child id, parent id) pairs inside the window."""
        return self._edges(self._ids())

    def render(self, format: str = "ascii") -> str:
        if format == "ascii":
            return self._render_ascii()
        if format == "dot":
            return self._render_dot()
        if format == "svg":
            return self._render_svg()
        raise UnknownFormatError(f"unknown format {format!r}")

    def _render_ascii(self) -> str:
        """Paint the tree straight into the bytes of the output.

        Row 0 holds the stem, row 2k + 1 the vertices at grading top - k and
        row 2k + 2 the links from the vertices at top - k - 1 up to them; the
        root's link is the stem.  Each row ends after its right-most mark, so
        the offset of every row is known before anything is painted, and the
        only buffer is the output's own: no grid of rows times columns is
        built.  An output above MAX_ASCII_BYTES is refused before that buffer
        is allocated.
        """
        top, lo = self.stabilization, min(self.minima)
        _, depth, parent, col = self._build_structure()
        # the root's parent index, -1, reads another column: its link is the stem
        root = parent < 0
        step = np.sign(col[parent] - col)
        step[root] = 0
        label = max(len(str(lo)), len(str(top)))
        left = label + 1  # a grading label and a space precede the tree
        col = col + left
        link = col + step
        char = np.frombuffer(b"\\|/", np.uint8)[step + 1]
        char[root] = ord(":")
        mark_row = 2 * depth + 1
        link_row = mark_row - 1
        end = np.zeros(2 * (top - lo) + 2, np.int64)
        np.maximum.at(end, mark_row, col + 1)
        np.maximum.at(end, link_row, link + 1)
        start = np.cumsum(end + 1) - (end + 1)
        size = int(start[-1] + end[-1] + 1)
        if size > MAX_ASCII_BYTES:
            raise ValueError(f"ascii drawing of the graded root has {size} bytes, more "
                             f"than the {MAX_ASCII_BYTES} a drawing may have")
        out = np.full(size, ord(" "), np.uint8)
        labels = (f"%{label}d " * (top - lo + 1)) % tuple(range(top, lo - 1, -1))
        out[start[1::2, None] + np.arange(left)] = \
            np.frombuffer(labels.encode(), np.uint8).reshape(-1, left)
        out[start[mark_row] + col] = ord("o")
        out[start[link_row] + link] = char
        out[start + end] = ord("\n")
        return str(out.data, "ascii")

    def _render_dot(self) -> str:
        top, ids = self.stabilization, self._ids()
        dot = "".join((
            "digraph gradedroot {\n",
            f"  // stabilizes: one vertex per grading >= {top}\n",
            "  node [shape=circle];\n",
            _fill('  "v%d_%d" [label="%d"];\n', [(*vid, vid[1]) for vid in ids]),
            f'  "stem" [label="{top + 1}", style=dashed];\n',
            _fill('  "v%d_%d" -> "v%d_%d";\n', [child + parent for child, parent in self._edges(ids)]),
            f'  "v0_{top}" -> "stem" [style=dashed];\n',
            "}\n"))
        # a vertex's name writes the minus sign of its grading as "m"
        return dot.replace("_-", "_m")

    def _render_svg(self) -> str:
        _, depth, parent, col = self._build_structure()
        top, lo = self.stabilization, min(self.minima)
        scale, margin = 24, 30
        x, y = margin + col * scale // 2, margin + depth * scale
        child = np.flatnonzero(parent >= 0)
        up = parent[child]
        return "".join((
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{x.max() + margin}" '
            f'height="{margin * 2 + (top - lo) * scale}">\n',
            _fill('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>\n',
                  np.column_stack((x[child], y[child], x[up], y[up])).tolist()),
            _fill('<circle cx="%d" cy="%d" r="4" fill="black"/>\n',
                  np.column_stack((x, y)).tolist()),
            _fill('<text x="2" y="%d" font-size="10">%d</text>\n',
                  list(zip(range(margin + (top - lo) * scale + 4, margin, -scale),
                           range(lo, top + 1)))),
            "</svg>\n"))


def _fill(template: str, rows: list) -> str:
    """The template once per row, in one %-format pass."""
    return (template * len(rows)) % tuple(chain.from_iterable(rows))
