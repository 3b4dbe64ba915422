"""Hypothesis strategies shared by the walk tests (Shapley, deletion fidelity, PixelWalk)."""

import numpy as np
from hypothesis import strategies as st

from lmmx import LmmParams


@st.composite
def walk_nets(draw, n_rows=2):
    """(params, rows): a tie-heavy dyadic net with H1 <= 8 and ``n_rows`` inputs.

    Every value lies on the grid k / 4, so all sums are exact; inputs share
    pixel values, a repeated W1 column with its W2 row makes neurons tie,
    and max-plus biases span twice the hidden range, so bound pruning both
    fires and meets exact ties.
    """
    n_pix, n_hid, n_cls = draw(st.integers(1, 5)), draw(st.integers(1, 8)), draw(st.integers(2, 3))

    def grid(lo, hi, shape):
        size = int(np.prod(shape))
        values = draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size))
        return np.array(values, dtype=np.float64).reshape(shape) / 4.0

    columns = draw(st.lists(st.integers(0, n_hid - 1), min_size=n_hid, max_size=n_hid))
    params = LmmParams(grid(1, 8, (2 * n_pix,)), grid(-8, 8, (2 * n_pix, n_hid))[:, columns],
                       grid(-16, 16, (n_hid, n_cls))[columns])
    return params, grid(0, 4, (n_rows, n_pix))
