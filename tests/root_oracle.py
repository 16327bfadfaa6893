"""Oracles for GradedRoot: the union-find tree, its layout, its renders and
per-grading ranks.

Each extremum starts one upward ray; rays i and i+1 are glued at every
grading >= max(e[i], e[i+1]).  The construction unions those cells and reads
vertices and edges off the classes.  The library builds the same tree as one
chain of vertices per minimum, held in int64 arrays; the tests compare the
two.  The columns the renders draw are placed here by a depth-first walk of
a children map, where the library moves each chain's column where chains
join it.  The renders here draw the oracle's vertices, edges and columns
line by line, where the library paints arrays.  The
per-grading hat and reduced ranks are likewise summed grading by grading
here, and the vertex counts and leaves recounted off the explicit tree,
where the library counts extrema.
"""

from collections import Counter

from floerrank.gradedroot import GradedRoot, Vertex


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def union_find_structure(extrema) -> tuple:
    """(vertices sorted by id, sorted (child id, parent id) edges)."""
    rays = tuple(extrema)
    stabilization = max(rays)
    n_rays = len(rays)
    lo = min(rays)
    height = stabilization - lo + 1
    uf = _UnionFind(n_rays * height)

    def cell(i, h):
        return i * height + (h - lo)

    for i in range(n_rays - 1):
        glue_from = max(rays[i], rays[i + 1])
        for h in range(glue_from, stabilization + 1):
            uf.union(cell(i, h), cell(i + 1, h))

    classes = {}
    for i in range(n_rays):
        for h in range(rays[i], stabilization + 1):
            classes.setdefault(uf.find(cell(i, h)), []).append((i, h))
    vertices = {}
    cls_of_cell = {}
    for members in classes.values():
        min_ray = min(i for i, _ in members)
        h = members[0][1]
        vid = (min_ray, h)
        vertices[vid] = Vertex(vertex_id=vid, grading=h)
        for i, _ in members:
            cls_of_cell[(i, h)] = vid
    edges = []
    for (i, h), vid in sorted(cls_of_cell.items()):
        if h < stabilization:
            parent = cls_of_cell[(i, h + 1)]
            edge = (vid, parent)
            if edge not in edges:
                edges.append(edge)
    edges = sorted(set(edges))
    return sorted(vertices.values(), key=lambda v: v.vertex_id), edges


def _dfs_columns(edges, stabilization: int) -> dict:
    """Column per vertex: leaves in child order, parents at midpoints."""
    children = {}
    for child, parent in edges:
        children.setdefault(parent, []).append(child)
    cols = {}
    next_slot = 0
    stack = [((0, stabilization), False)]
    while stack:
        vid, expanded = stack.pop()
        kids = sorted(children.get(vid, []))
        if not kids:
            cols[vid] = next_slot
            next_slot += 4
        elif expanded:
            cols[vid] = sum(cols[k] for k in kids) // len(kids)
        else:
            stack.append((vid, True))
            stack.extend((k, False) for k in reversed(kids))
    return cols


def dfs_layout(root: GradedRoot) -> dict:
    """Columns of the root's vertices by a depth-first walk of its edges."""
    return _dfs_columns(root.edges(), root.stabilization)


def oracle_root(extrema) -> tuple:
    """(vertices, edges, {vertex id: column}) of the root of the extrema:
    the union-find tree laid out by the depth-first walk."""
    vertices, edges = union_find_structure(extrema)
    return vertices, edges, _dfs_columns(edges, max(extrema))


def render(format: str, vertices, edges, columns) -> str:
    """The tree drawn line by line, a closure call per vertex.

    These are the renders the library drew before it painted the ascii
    tree straight into the output's bytes and wrote each svg and dot block
    in one format pass.  Given oracle_root's vertices, edges and columns,
    they draw the union-find tree with its depth-first layout.
    """
    draw = {"ascii": _line_ascii, "dot": _line_dot, "svg": _line_svg}[format]
    gradings = [v.grading for v in vertices]
    return draw(vertices, edges, columns, min(gradings), max(gradings))


def _line_ascii(vertices, edges, cols, lo, top) -> str:
    """Each row painted as a list of characters, then right-stripped."""
    parent_of = dict(edges)
    width = max(cols.values()) + 1
    label = max(len(str(h)) for h in range(lo, top + 1))
    lines = [" " * (label + 1) + _paint(width, {cols[(0, top)]: ":"})]
    by_grading = {}
    for v, c in cols.items():
        by_grading.setdefault(v[1], []).append((v, c))
    for h in range(top, lo - 1, -1):
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


def _line_dot(vertices, edges, cols, lo, top) -> str:
    out = ["digraph gradedroot {"]
    out.append(f'  // stabilizes: one vertex per grading >= {top}')
    out.append("  node [shape=circle];")
    for v in vertices:
        out.append(f'  "{_vname(v.vertex_id)}" [label="{v.grading}"];')
    stem = (0, top)
    out.append(f'  "stem" [label="{top + 1}", style=dashed];')
    for child, parent in edges:
        out.append(f'  "{_vname(child)}" -> "{_vname(parent)}";')
    out.append(f'  "{_vname(stem)}" -> "stem" [style=dashed];')
    out.append("}")
    return "\n".join(out) + "\n"


def _line_svg(vertices, edges, cols, lo, top) -> str:
    scale, margin = 24, 30

    def xy(vid):
        return (margin + cols[vid] * scale // 2, margin + (top - vid[1]) * scale)

    width = margin * 2 + max(c for c in cols.values()) * scale // 2
    height = margin * 2 + (top - lo) * scale
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    for child, parent in edges:
        (x1, y1), (x2, y2) = xy(child), xy(parent)
        parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black"/>')
    for vid in sorted(cols):
        x, y = xy(vid)
        parts.append(f'<circle cx="{x}" cy="{y}" r="4" fill="black"/>')
    for h in range(lo, top + 1):
        y = margin + (top - h) * scale
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


def structural_vertex_counts(root: GradedRoot) -> dict:
    """Per-grading counts recounted from the explicit vertices."""
    return dict(Counter(v.grading for v in root.vertices()))


def structural_leaves(root: GradedRoot) -> list:
    """Vertices with no child, from the explicit tree."""
    parents = {parent for _, parent in root.edges()}
    return [v.vertex_id for v in root.vertices() if v.vertex_id not in parents]


def red_ranks_by_degree(root: GradedRoot) -> dict:
    """Reduced rank per grading: vertex count minus one, zeros omitted."""
    return {h: n - 1 for h, n in root.vertex_counts().items() if n > 1}


def per_grading_hat_ranks(root: GradedRoot) -> dict:
    """Hat rank per grading, summed grading by grading over vertex_counts."""
    counts = root.vertex_counts()
    leaves = Counter(root.minima)
    out = {}
    for h, n in counts.items():
        above = counts.get(h + 1, 1)
        coker = n - (above - leaves.get(h + 1, 0))
        total = leaves.get(h, 0) + coker
        if total:
            out[h] = total
    return out
