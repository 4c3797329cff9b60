"""Cache-sized tiling for the cross-query block kernels.

A block kernel scores a ``(Q, W)`` query block against ``(V, W)``
reference rows.  Broadcasting the whole ``(Q, V, W)`` elementwise product
at once builds a temporary of tens of megabytes at library scale (32
queries x 5,000 rows x 48 bins is 61 MB), which is page-faulted in afresh
on every call.  :func:`tiled_sums` instead fills one ``(q, v, W)`` scratch
tile of at most :data:`TILE_ELEMENTS` float64 values at a time, reduces it
over the trailing axis into the ``(Q, V)`` result and reuses the same
buffer for the next tile.

Tiling is bit-identical to the broadcast: each cell's elementwise
arithmetic is unchanged, and each tile is C-contiguous, so every trailing
sum reduces the same contiguous ``W`` values in the same order.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

#: Float64 values per scratch tile (2**16 = 512 KB).  Hellinger at 32
#: queries x 5,000 rows timed within about 10 % from 2**15 to 2**17 on a
#: 2-vCPU x86 host, against 2x slower for the untiled broadcast.
TILE_ELEMENTS = 2**16

#: ``fill(rows, cols, out)`` writes the ``(rows, cols, W)`` elementwise
#: terms of one tile into *out*.
TileFill = Callable[[slice, slice, np.ndarray], None]


def tile_steps(queries: int, width: int) -> tuple[int, int]:
    """``(query rows, reference rows)`` per tile for a ``width``-wide block.

    The query axis is split only when ``queries * width`` alone exceeds the
    budget; the reference step then fills the rest of it (at least one row).
    """
    width = max(width, 1)
    query_step = max(1, min(queries, TILE_ELEMENTS // width))
    return query_step, max(1, TILE_ELEMENTS // (query_step * width))


def tiled_sums(queries: int, views: int, width: int, fill: TileFill) -> np.ndarray:
    """``(queries, views)`` trailing-axis sums of the terms *fill* writes."""
    query_step, view_step = tile_steps(queries, width)
    view_step = max(1, min(view_step, views))
    scratch = np.zeros(query_step * view_step * width)
    sums = np.zeros((queries, views))
    for row in range(0, queries, query_step):
        rows = slice(row, min(row + query_step, queries))
        for col in range(0, views, view_step):
            cols = slice(col, min(col + view_step, views))
            shape = (rows.stop - row, cols.stop - col, width)
            tile = scratch[: shape[0] * shape[1] * width].reshape(shape)
            fill(rows, cols, tile)
            np.sum(tile, axis=2, out=sums[rows, cols])
    return sums
