"""Property-based invariants of the multi-kernel fit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kec import Dataset, fit

from helpers import random_dataset


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    positions=st.lists(st.integers(0, 60), min_size=1, max_size=40),
)
def test_label_zero_rows_never_change_the_fit(seed, positions):
    """Unlabelled rows inserted anywhere leave every cross-entropy bitwise."""
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, 60, 8, 3)
    extra = rng.normal(0.0, 3.0, size=(len(positions), 8))
    features = np.insert(ds.features, positions, extra, axis=0)
    labels = np.insert(ds.labels, positions, 0)
    base = fit(ds)
    grown = fit(Dataset(features, labels, 3))
    assert grown.cross_entropies.tobytes() == base.cross_entropies.tobytes()
    assert grown.kernel.name == base.kernel.name
