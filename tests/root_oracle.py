"""Oracles for GradedRoot: the union-find tree and per-grading hat ranks.

Each extremum starts one upward ray; rays i and i+1 are glued at every
grading >= max(e[i], e[i+1]).  The construction unions those cells and reads
vertices and edges off the classes.  The library builds the same tree by one
top-down sweep over the gradings; the tests compare the two.  The per-grading
hat ranks are likewise summed grading by grading here, where the library
counts extrema.
"""

from floerrank.gradedroot import GradedRoot, Vertex, _paint


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


def oracle_root(extrema) -> GradedRoot:
    """A GradedRoot whose explicit tree is the union-find one, so its
    dot/svg renders draw the oracle's vertices and edges."""
    root = GradedRoot(extrema)
    root._structure = union_find_structure(root.extrema)
    return root


def row_scan_ascii(root: GradedRoot) -> str:
    """The ascii render that scans every vertex once per grading."""
    cols, parent_of = root._layout()
    lo = min(root.minima)
    width = max(cols.values()) + 1
    label = max(len(str(h)) for h in range(lo, root.stabilization + 1))
    lines = [" " * (label + 1) + _paint(width, {cols[(0, root.stabilization)]: ":"})]
    for h in range(root.stabilization, lo - 1, -1):
        row = {cols[v]: "o" for v in cols if v[1] == h}
        lines.append(f"{h:>{label}} " + _paint(width, row))
        if h > lo:
            conn = {}
            for v, c in cols.items():
                if v[1] != h - 1:
                    continue
                pc = cols[parent_of[v]]
                if pc == c:
                    conn[c] = "|"
                elif pc > c:
                    conn[c + 1] = "/"
                else:
                    conn[c - 1] = "\\"
            lines.append(" " * (label + 1) + _paint(width, conn))
    return "\n".join(line.rstrip() for line in lines) + "\n"


def per_grading_hat_ranks(root: GradedRoot) -> dict:
    """Hat rank per grading, summed grading by grading over vertex_counts."""
    counts = root.vertex_counts()
    leaves = root.leaves_by_grading()
    out = {}
    for h, n in counts.items():
        above = counts.get(h + 1, 1)
        coker = n - (above - leaves.get(h + 1, 0))
        total = leaves.get(h, 0) + coker
        if total:
            out[h] = total
    return out
