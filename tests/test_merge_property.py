"""Property test: merging chunk statistics in any bracketing gives the whole."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cbcnoise import estimate_stats, merge_stats  # noqa: E402

# fixed before the first run: pooled moments of O(1) data agree with a
# one-pass numpy estimate to far better than these
MEAN_ABS_TOL = 1e-12
VAR_REL_TOL = 1e-10


@st.composite
def split_samples(draw):
    """A sample array, cut into parts of at least 2, and a merge order."""
    n_parts = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.integers(2, 300), min_size=n_parts, max_size=n_parts))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    total = sum(sizes)
    z = (draw(st.floats(-5, 5)) + gen.normal(scale=draw(st.floats(0.01, 10)), size=total)
         + 1j * gen.normal(scale=draw(st.floats(0.01, 10)), size=total))
    # each step merges the adjacent pair at this index: every bracketing is reachable
    order = [draw(st.integers(0, n_parts - 2 - step)) for step in range(n_parts - 1)]
    return z, np.split(z, np.cumsum(sizes)[:-1]), order


@settings(max_examples=200, deadline=None, derandomize=True)
@given(split_samples())
def test_merge_in_any_bracketing_matches_the_whole(case):
    z, parts, order = case
    stats = [estimate_stats(part) for part in parts]
    for i in order:
        stats[i:i + 2] = [merge_stats(stats[i], stats[i + 1])]
    merged, whole = stats[0], estimate_stats(z)
    assert merged.trials == whole.trials == z.size
    assert abs(merged.mean_x - whole.mean_x) <= MEAN_ABS_TOL * max(1.0, abs(whole.mean_x))
    assert abs(merged.mean_p - whole.mean_p) <= MEAN_ABS_TOL * max(1.0, abs(whole.mean_p))
    assert merged.var_x == pytest.approx(whole.var_x, rel=VAR_REL_TOL)
    assert merged.var_p == pytest.approx(whole.var_p, rel=VAR_REL_TOL)
    scale = math.sqrt(2 / (z.size - 1))
    for s in (merged, whole):
        assert s.se_var_x == s.var_x * scale
        assert s.se_var_p == s.var_p * scale
