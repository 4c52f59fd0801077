"""Property test of ``exponent_vectors`` (needs Hypothesis).

Part bounds and degrees that Hypothesis draws and shrinks, k far past n
included, against the one-frame-per-slot enumeration in ``helpers``: the
same vectors, degrees and norms in the same order, each norm the sum of its
multiplicities and the keys strictly descending.  The run is derandomized
and keeps no example database.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from isobaric.partitions import exponent_vectors  # noqa: E402

from helpers import slot_exponent_vectors  # noqa: E402


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 24), st.integers(1, 40))
def test_exponent_vectors_match_slot_oracle(n, k):
    got = exponent_vectors(n, k)
    assert [(a.multiplicities, a.degree, a.norm) for a in got] == [
        (a.multiplicities, a.degree, a.norm) for a in slot_exponent_vectors(n, k)
    ]
    keys = [a.multiplicities for a in got]
    assert all(x > y for x, y in zip(keys, keys[1:]))
    assert all(len(a) == k and a.norm == sum(a.multiplicities) for a in got)
