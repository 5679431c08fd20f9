"""Property test: the combiner transform is unitary and port 0 is the coherent sum."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cbcnoise import combine_port_amplitude, dft, inverse_dft  # noqa: E402

# fixed before the first run: an FFT of length <= 256 in float64 errs by a
# few ulps times log2(N) of the input norm, far below this
REL_TOL = 1e-12

# beam amplitudes up to 1e3, i.e. up to a million photons per beam
amplitude = st.floats(-1e3, 1e3, allow_subnormal=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.builds(complex, amplitude, amplitude), min_size=1, max_size=256))
def test_dft_is_unitary_with_the_coherent_sum_in_port_0(values):
    a = np.array(values, dtype=complex)
    norm = np.linalg.norm(a)
    ports = dft(a)
    assert abs(np.linalg.norm(ports) - norm) <= REL_TOL * norm
    assert np.max(np.abs(inverse_dft(ports) - a)) <= REL_TOL * norm
    assert abs(ports[0] - combine_port_amplitude(a)) <= REL_TOL * norm
