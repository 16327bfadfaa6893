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
vertices(), edges() and every render read that one cached structure.
Summary ranks come straight from the extrema:
with minima v_1..v_m and maxima u_1..u_{m-1},

    leaves            = m,
    total reduced rank = sum(u) - sum(v) + min(v),
    total hat rank     = 2m - 1.
"""

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

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
        return self._build_structure()[1]

    def render(self, format: str = "ascii") -> str:
        if format == "ascii":
            return self._render_ascii()
        if format == "dot":
            return self._render_dot()
        if format == "svg":
            return self._render_svg()
        raise UnknownFormatError(f"unknown format {format!r}")

    def _render_ascii(self) -> str:
        _, edges, cols = self._build_structure()
        parent_of = dict(edges)
        lo = min(self.minima)
        width = max(cols.values()) + 1
        label = max(len(str(h)) for h in range(lo, self.stabilization + 1))
        lines = [" " * (label + 1) + _paint(width, {cols[(0, self.stabilization)]: ":"})]
        by_grading = {}
        for v, c in cols.items():
            by_grading.setdefault(v[1], []).append((v, c))
        for h in range(self.stabilization, lo - 1, -1):
            row = {c: "o" for _, c in by_grading[h]}
            lines.append(f"{h:>{label}} " + _paint(width, row))
            if h > lo:
                conn = {}
                for v, c in by_grading[h - 1]:
                    pc = cols[parent_of[v]]
                    if pc == c:
                        conn[c] = "|"
                    elif pc > c:
                        conn[c + 1] = "/"
                    else:
                        conn[c - 1] = "\\"
                lines.append(" " * (label + 1) + _paint(width, conn))
        return "\n".join(line.rstrip() for line in lines) + "\n"

    def _render_dot(self) -> str:
        vertices, edges, _ = self._build_structure()
        out = ["digraph gradedroot {"]
        out.append(f'  // stabilizes: one vertex per grading >= {self.stabilization}')
        out.append("  node [shape=circle];")
        for v in vertices:
            out.append(f'  "{_vname(v.vertex_id)}" [label="{v.grading}"];')
        stem = (0, self.stabilization)
        out.append(f'  "stem" [label="{self.stabilization + 1}", style=dashed];')
        for child, parent in edges:
            out.append(f'  "{_vname(child)}" -> "{_vname(parent)}";')
        out.append(f'  "{_vname(stem)}" -> "stem" [style=dashed];')
        out.append("}")
        return "\n".join(out) + "\n"

    def _render_svg(self) -> str:
        _, edges, cols = self._build_structure()
        lo = min(self.minima)
        scale, margin = 24, 30

        def xy(vid):
            return (margin + cols[vid] * scale // 2,
                    margin + (self.stabilization - vid[1]) * scale)

        width = margin * 2 + max(c for c in cols.values()) * scale // 2
        height = margin * 2 + (self.stabilization - lo) * scale
        parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
        for child, parent in edges:
            (x1, y1), (x2, y2) = xy(child), xy(parent)
            parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black"/>')
        for vid in sorted(cols):
            x, y = xy(vid)
            parts.append(f'<circle cx="{x}" cy="{y}" r="4" fill="black"/>')
        for h in range(lo, self.stabilization + 1):
            y = margin + (self.stabilization - h) * scale
            parts.append(f'<text x="2" y="{y + 4}" font-size="10">{h}</text>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def _vname(vid) -> str:
    ray, h = vid
    return f"v{ray}_{h}".replace("-", "m")


def _paint(width: int, marks: dict) -> str:
    chars = [" "] * max(width, max(marks, default=0) + 1)
    for col, ch in marks.items():
        chars[col] = ch
    return "".join(chars)
