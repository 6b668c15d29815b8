"""The Jacobian's block form: column coloring, bordered block layout, block LU.

In the port-Hamiltonian form a pipe touches the rest of the network only
through its ports, so once every pipe is cut into segments
(`network.GlobalSystem._segments`) the Jacobian, ordered as segments then
border, is [[A, B], [C, D]]: A is block diagonal over the segments, and the
border (the cut cells and the algebraic unknowns) couples them. A
segments argument is (segment, names): ``segment[i]`` is unknown i's
segment, -1 on the border, row i belongs with unknown i, and ``names``
name the segments in error messages. ``(np.zeros(n, int), ["the system"])``
makes a system one block with an empty border.

`block_layout` maps every structural nonzero into that form once per
system: the segment blocks of one shape stack as [A | B] (B: each block's
ports, the border columns its rows read), C stays as entries and D is a
dense border block. A port is a (segment, border column) pair, so a
border column that several segments read (a node potential that is the
inlet pressure of several pipes) is a port of each. `BlockFactor` solves A
by blocks, one stacked LAPACK call per block shape, then the border's Schur
complement S = D - C A^-1 B dense (block LU, Golub & Van Loan, Matrix
Computations), so no n x n array is formed unless the system is one block,
and nothing beyond numpy is imported. A one-use factor forms no inverse:
one stacked ``np.linalg.solve`` per shape gives A^-1 [B | rhs], then one
dense solve with S. A kept factor holds the blocks' inverses and, for
``solve``, the inverse of S.

A `JacobianStructure` holds the structural nonzeros, their block layout
and where their values come from. The full system's values are forward
differences with the step ``FD_STEP`` (1 + |x_j|) (Curtis, Powell & Reid
1974): `color_columns` groups the columns that share no residual row,
greedily in one pass over per-row color masks, on a pattern deduplicated by
a sort (``np.unique`` hashes, which is slower), so one residual sweep per
color fills all of its columns, and `fd_jacobian` reads every structural
nonzero from the sweep of its column's color in one gather. A closed-form
Jacobian (the reduced steady system's, from `make_port_residual` in
`network`) has no color groups; its maker sums terms that share an entry,
because `block_layout`'s scatter assigns.

The chord slot is the structure's ``factor``, a one-slot list: chord Newton
(`timeloop.newton_solve`, above ``SolverConfig.sparse_threshold``) keeps its
last factor there, the only factor that holds inverses, and reuses it
across iterations and time steps. It lives as long as the structure.
"""

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import FactorizationError

# forward-difference step relative to 1 + |x_j|
FD_STEP = 1e-7


def component_roots(items, links):
    """Union-find: the root of each item's component, joining the pairs in `links`."""
    parent = {a: a for a in items}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in links:
        parent[find(a)] = find(b)
    return [find(a) for a in parent]


class Triplets(NamedTuple):
    """A sparse matrix as (row, column, value) entries; duplicates add, in listed order."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def matvec(self, v, n_rows):
        return np.bincount(self.rows, weights=self.vals * v[self.cols], minlength=n_rows)


def _places(block):
    """Each item's place among the items of its block, in index order."""
    order = np.argsort(block, kind="stable")
    ranked = block[order]
    place = np.empty_like(block)
    place[order] = np.arange(block.size) - np.searchsorted(ranked, ranked)
    return place


class ShapeGroup(NamedTuple):
    """The blocks of one shape of a block-sparse matrix (`stack_by_shape`)."""

    blocks: np.ndarray      # (k,): the blocks' ids, ascending
    R: np.ndarray           # (k, nr): each block's rows, by place
    C: np.ndarray           # (k, nc): each block's columns, by place
    entry: np.ndarray       # the entries inside these blocks ...
    at: np.ndarray          # ... and their flat positions in a (k, nr, nc) stack


def stack_by_shape(row_block, row_place, col_block, col_place, rows, cols) -> list[ShapeGroup]:
    """Group the blocks of a sparse matrix by shape, for stacked numpy calls.

    Row i sits at place ``row_place[i]`` of block ``row_block[i]``, column j
    at place ``col_place[j]`` of block ``col_block[j]``; block -1 holds the
    rows and columns outside every block. An entry (rows[e], cols[e]) whose
    row lies in a block belongs to that block, and its column must lie in
    the same block; entries of rows outside every block are left out, and
    so are blocks without rows or without columns. The blocks of one shape
    scatter into one (k, nr, nc) array through ``at``.
    """
    n_blocks = int(max(row_block.max(initial=-1), col_block.max(initial=-1))) + 1
    shape = np.column_stack([np.bincount(row_block[row_block >= 0], minlength=n_blocks),
                             np.bincount(col_block[col_block >= 0], minlength=n_blocks)])
    inside = row_block[rows] >= 0
    if np.any(col_block[cols[inside]] != row_block[rows[inside]]):
        raise ValueError("an entry couples two blocks")
    key = shape[:, 0] * (shape[:, 1].max(initial=0) + 1) + shape[:, 1]
    out = []
    for kind in np.unique(key[shape.min(axis=1) > 0]).tolist():
        blocks = np.flatnonzero(key == kind)
        nr, nc = shape[blocks[0]].tolist()
        rank = np.full(n_blocks + 1, -1)   # the trailing -1 serves block -1
        rank[blocks] = np.arange(blocks.size)
        r_rank, c_rank = rank[row_block], rank[col_block]
        R = np.empty((blocks.size, nr), dtype=int)
        i = np.flatnonzero(r_rank >= 0)
        R[r_rank[i], row_place[i]] = i
        C = np.empty((blocks.size, nc), dtype=int)
        j = np.flatnonzero(c_rank >= 0)
        C[c_rank[j], col_place[j]] = j
        e = np.flatnonzero(r_rank[rows] >= 0)
        at = (r_rank[rows[e]] * nr + row_place[rows[e]]) * nc + col_place[cols[e]]
        out.append(ShapeGroup(blocks, R, C, e, at))
    return out


def blockwise_pinv(M: Triplets, n: int, rcond: float) -> Triplets:
    """Pseudo-inverse of a sparse n x n matrix, block by block, as triplets.

    The blocks are the connected components of the graph joining each row
    to the columns it has entries in. Permuted to block-diagonal form, the
    matrix's pseudo-inverse is the block-diagonal of the blocks'
    pseudo-inverses, so nothing n x n is formed. Blocks of one shape go
    through one stacked ``np.linalg.pinv`` with cutoff ``rcond`` each.
    Rows or columns without entries belong to no block and map to zero.
    The components come from a union-find, so the solver needs nothing
    beyond numpy.
    """
    # rows 0..n-1, columns n..2n-1
    roots = component_roots(range(2 * n), zip(M.rows.tolist(), (n + M.cols).tolist()))
    block = np.unique(roots, return_inverse=True)[1]
    row_block, col_block = block[:n], block[n:]
    out = []
    for g in stack_by_shape(row_block, _places(row_block), col_block, _places(col_block),
                            M.rows, M.cols):
        k, nr = g.R.shape
        stack = np.zeros(k * nr * g.C.shape[1])
        np.add.at(stack, g.at, M.vals[g.entry])
        inv = np.linalg.pinv(stack.reshape(k, nr, -1), rcond)   # (k, nc, nr)
        keep = inv != 0.0
        out.append((np.broadcast_to(g.C[:, :, None], inv.shape)[keep],
                    np.broadcast_to(g.R[:, None, :], inv.shape)[keep], inv[keep]))
    if not out:
        return Triplets(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
    return Triplets(*(np.concatenate(parts) for parts in zip(*out)))


class SegmentGroup(NamedTuple):
    """Segment blocks of one shape and their couplings to the border.

    ``stack`` stacks each block's rows as [A | B]: its columns are the
    block's own unknowns (the same as its rows) and then its ports, the
    border columns its rows read. C, the border rows' entries in the
    blocks' columns, is kept as entries.
    """

    stack: ShapeGroup
    ports: np.ndarray       # (k, p): the ports' places on the border
    c_entry: np.ndarray     # C's entries ...
    c_row: np.ndarray       # ... their rows' places on the border ...
    c_col: np.ndarray       # ... their columns' flat places in a (k, L) array ...
    c_S: np.ndarray         # ... and, per port p of that block, the flat place of (row, p) in S


class BlockLayout(NamedTuple):
    """Where each structural Jacobian entry goes in the bordered block form (module docstring)."""

    border: np.ndarray      # the border's unknowns, ascending
    groups: list[SegmentGroup]
    d_entry: np.ndarray     # D's entries ...
    d_at: np.ndarray        # ... and their flat places in the (nb, nb) border block
    names: list[str]        # per segment, for error messages


def block_layout(rows, cols, segments) -> BlockLayout:
    """The index maps of the bordered block form of the pattern (rows, cols).

    ``segments`` is (segment, names) (module docstring). Every entry
    between two segments must be zero, so segments couple only through the
    border. Each port, a (segment, border column) pair, is a column slot
    n + i of its segment's stack.
    """
    segment, names = segments
    n, border = segment.size, np.flatnonzero(segment < 0)
    place = _places(segment)     # in its segment, or on the border
    size = np.bincount(segment[segment >= 0], minlength=len(names))
    row_seg, col_seg = segment[rows], segment[cols]
    port = (row_seg >= 0) & (col_seg < 0)
    pairs, slot = np.unique(row_seg[port] * n + cols[port], return_inverse=True)
    p_seg, p_col = np.divmod(pairs, n)
    col_block = np.concatenate([segment, p_seg])
    col_place = np.concatenate([place, size[p_seg] + np.arange(p_seg.size)
                                - np.searchsorted(p_seg, p_seg)])
    slots = cols.copy()
    slots[port] = n + slot
    on_border = row_seg < 0
    stacks = stack_by_shape(segment, place, col_block, col_place, rows, slots)
    group, rank = np.full(len(names) + 1, -1), np.full(len(names) + 1, -1)
    for i, g in enumerate(stacks):
        group[g.blocks], rank[g.blocks] = i, np.arange(g.blocks.size)
    c_all = np.flatnonzero(on_border & (col_seg >= 0))
    groups = []
    for i, g in enumerate(stacks):
        L = g.R.shape[1]
        ports = place[p_col[g.C[:, L:] - n]]
        c = c_all[group[col_seg[c_all]] == i]
        k = rank[col_seg[c]]
        c_row = place[rows[c]]
        groups.append(SegmentGroup(g, ports, c, c_row, k * L + place[cols[c]],
                                   c_row[:, None] * border.size + ports[k]))
    d = np.flatnonzero(on_border & (col_seg < 0))
    return BlockLayout(border, groups, d, place[rows[d]] * border.size + place[cols[d]], names)


class JacobianStructure(NamedTuple):
    """A Jacobian's structural nonzeros, where their values come from, and their block form.

    ``rows`` and ``cols`` list the structural nonzeros, each once;
    ``values(fun, x, F0)`` gives their values at x, entry i at (rows[i],
    cols[i]): colored forward differences (`color_columns`) or a closed
    form. ``groups[c]`` lists the columns of FD color c, no two sharing a
    residual row, and is empty for a closed form, so ``len(groups)`` is the
    residual sweeps per Jacobian. ``layout`` maps the values into the
    bordered block form. ``factor`` is the chord slot.
    """

    groups: list[np.ndarray]
    rows: np.ndarray
    cols: np.ndarray
    values: Callable
    factor: list
    layout: BlockLayout


def color_columns(pattern, segments) -> JacobianStructure:
    """The FD structure of a square pattern: greedy coloring, same-color columns share no row.

    Columns are taken by descending row count, ties by index, each into the
    first color that none of its rows holds. A row's colors are the bits of
    a small Python int, so a column ORs its rows' masks, takes the lowest
    clear bit and sets it in its rows. The pattern is deduplicated by a sort
    and a neighbour mask, not by ``np.unique``, whose hash-table path (numpy
    >= 2.3) is slower, and its entries come column by column (CSC order).
    ``segments`` (module docstring) sizes the pattern and goes to
    `block_layout`.
    """
    n = segments[0].size
    ent = np.array(pattern, dtype=int).reshape(-1, 2)
    key = np.sort(ent[:, 1] * n + ent[:, 0])
    cols, rows = np.divmod(key[np.diff(key, prepend=-1) != 0], n)
    ptr = np.searchsorted(cols, np.arange(n + 1))
    rows_l, ptr_l = rows.tolist(), ptr.tolist()
    taken = [0] * n              # per row, the bits of the colors its columns took
    color_of_col = [0] * n
    for c in np.argsort(ptr[:-1] - ptr[1:], kind="stable").tolist():
        col_rows = rows_l[ptr_l[c]:ptr_l[c + 1]]
        used = 0
        for r in col_rows:
            used |= taken[r]
        bit = ~used & (used + 1)     # the lowest clear bit: the first free color
        for r in col_rows:
            taken[r] |= bit
        color_of_col[c] = bit.bit_length() - 1
    color = np.array(color_of_col, dtype=int)
    groups = [np.flatnonzero(color == ci) for ci in range(color.max(initial=-1) + 1)]
    return JacobianStructure(groups, rows, cols,
                             partial(fd_jacobian, groups, color[cols], rows, cols),
                             [None], block_layout(rows, cols, segments))


def fd_jacobian(groups, sweep, rows, cols, fun, x, F0):
    """Forward-difference Jacobian values, one residual sweep per column color.

    The sweep of color c (the columns ``groups[c]``) fills row c of ``dF``;
    structural nonzero i, at (rows[i], cols[i]), is then read from the sweep
    ``sweep[i]`` of its column's color, all in one gather.
    """
    h = FD_STEP * (1.0 + np.abs(x))
    dF = np.empty((len(groups), F0.size))
    for c, group in enumerate(groups):
        xp = x.copy()
        xp[group] += h[group]
        dF[c] = fun(xp) - F0
    return dF[sweep, rows] / h[cols]


def _lapack(stack, rhs, names):
    """np.linalg.solve(stack, rhs), or inv(stack) for a None ``rhs``, naming a singular matrix
    from ``names``. ``rhs`` is 2-D or 3-D, never a vector: numpy 1 and 2 read those apart."""
    try:
        return np.linalg.inv(stack) if rhs is None else np.linalg.solve(stack, rhs)
    except np.linalg.LinAlgError as exc:
        sign, _ = np.linalg.slogdet(stack)
        name = names[int(np.argmin(np.abs(sign)))]
        raise FactorizationError(f"Jacobian factorization failed: {name} is singular") from exc


def _segment_part(vals, sg, names, rhs, keep):
    """(A^-1, or A^-1 rhs if not ``keep``; A^-1 B; C's values) for same-shape segment blocks."""
    (k, L), p = sg.stack.R.shape, sg.ports.shape[1]
    AB = np.zeros(k * L * (L + p + (not keep)))     # [A | B], or [A | B | rhs]
    AB[sg.stack.at if keep else sg.stack.at + sg.stack.at // (L + p)] = vals[sg.stack.entry]
    AB = AB.reshape(k, L, -1)
    if not keep:
        AB[:, :, -1] = rhs[sg.stack.R]
    X = _lapack(AB[:, :, :L], None if keep else AB[:, :, L:], [names[b] for b in sg.stack.blocks])
    Y = X @ AB[:, :, L:] if keep else X[:, :, :p]
    return X if keep else X[:, :, p], Y, vals[sg.c_entry]


def _border_name(nb):
    return f"the border block ({nb} unknowns)"


class BlockFactor:
    """Block LU of the bordered block form (module docstring); ``x`` solves J x = rhs.

    The gathered values scatter straight into the stacks [A | B], C's
    entries and D. A one-use factor (``keep`` false) solves at once; a kept
    one holds the inverses of the blocks and of S, and ``solve`` serves
    later right-hand sides.
    """

    def __init__(self, vals, layout, rhs, keep):
        self.layout, nb = layout, layout.border.size
        self.parts = [_segment_part(vals, sg, layout.names, rhs, keep) for sg in layout.groups]
        S = np.zeros(nb * nb)
        S[layout.d_at] = vals[layout.d_entry]
        for sg, (_, Y, c) in zip(layout.groups, self.parts):
            k, L, p = Y.shape
            np.subtract.at(S, sg.c_S, c[:, None] * Y.reshape(k * L, p)[sg.c_col])
        if keep:
            self.Sinv = _lapack(S.reshape(nb, nb), None, [_border_name(nb)])
            del S       # before the solve, so a kept factor peaks no higher than its inverses
        self.x = self.solve(rhs) if keep else self.solve(rhs, [y for y, _, _ in self.parts], S)

    def solve(self, rhs, ys=None, S=None):
        """J^-1 rhs on a kept factor; a one-use one passes each stack's A^-1 rhs and flat S."""
        border, groups = self.layout.border, list(zip(self.layout.groups, self.parts))
        if ys is None:
            ys = [(Ainv @ rhs[sg.stack.R][:, :, None])[:, :, 0] for sg, (Ainv, _, _) in groups]
        g = rhs[border]
        for (sg, (_, _, c)), y in zip(groups, ys):
            g = g - np.bincount(sg.c_row, c * y.ravel()[sg.c_col], minlength=border.size)
        if S is None:
            xb = self.Sinv @ g
        else:
            xb = _lapack(S.reshape(g.size, g.size), g[:, None], [_border_name(g.size)])[:, 0]
        x = np.empty(rhs.size)
        x[border] = xb
        for (sg, (_, Y, _)), y in zip(groups, ys):
            x[sg.stack.R] = y - (Y @ xb[sg.ports][:, :, None])[:, :, 0]
        return x
