"""Peak memory of kernel state, simulated draws and a fit.

Every operand-sized temporary of kernel state and of simulated data is
built in row pieces of at most ``kernels._CHUNK_ELEMS`` elements, so each
peak is its output plus a fixed budget of pieces, not a multiple of the
operand. tracemalloc counts allocations, not time, so no clock enters.
"""

import numpy as np
import pytest

from kec.kernels import _CHUNK_ELEMS, _prepare, _rank_state
from kec.selection import fit
from kec.simgen import NORMAL_HD, NORMAL_NOISE, UNIFORM_HD, UNIFORM_NOISE
from kec.simgen import SimSetting, generate

from helpers import peak_bytes

N, P = 6000, 250
OPERAND = N * P * 8  # bytes of the (N, P) float64 features
# Twelve float64 pieces; the piecewise ranking of tie-heavy rows reads
# about six, and ranking the whole operand about 26 at this shape.
PIECES = 12 * _CHUNK_ELEMS * 8


def _operand(seed=0):
    # Rounding leaves ties in every row, so each piece takes the tie pass.
    return np.round(np.random.default_rng(seed).normal(size=(N, P)), 2)


def test_spearman_state_peaks_at_the_ranks_plus_a_piece_budget():
    X = _operand()
    ranks = sum(a.nbytes for a in _rank_state(X))
    assert peak_bytes(lambda: _prepare(X, "spearman")) <= ranks + PIECES


def test_distance_state_peaks_well_below_the_operand():
    # The finiteness scan's (N, P) booleans are an eighth of the operand.
    X = _operand()
    assert peak_bytes(lambda: _prepare(X, "distance")) <= 0.25 * OPERAND


@pytest.mark.parametrize("name", [UNIFORM_HD, UNIFORM_NOISE, NORMAL_HD, NORMAL_NOISE])
def test_generate_peaks_at_its_features(name):
    setting = SimSetting(name, n=N, p=P, num_classes=5, seed=1)
    assert peak_bytes(lambda: generate(setting)) <= 1.1 * OPERAND


def test_single_thread_fit_peaks_at_one_and_a_half_operands():
    """A threads=1 fit is one row block: its ranks are one operand, and
    nothing else it builds may come near another."""
    ds = generate(SimSetting(UNIFORM_NOISE, n=N, p=P, num_classes=5, seed=2))
    assert peak_bytes(lambda: fit(ds, threads=1)) <= 1.5 * OPERAND
