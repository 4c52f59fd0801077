"""Property test of ``dense_det`` (needs Hypothesis).

Square Fraction matrices that Hypothesis draws and shrinks, zeros and
repeated rows included, against Laplace expansion and Gaussian elimination
in ``helpers``.  The run is derandomized and keeps no example database.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from isobaric.companion import dense_det  # noqa: E402

from helpers import gauss_det, laplace_det  # noqa: E402

rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-6, 6).map(Fraction),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
)


@st.composite
def matrices(draw, max_k: int = 6) -> list[list[Fraction]]:
    k = draw(st.integers(1, max_k))
    rows = [draw(st.lists(rationals, min_size=k, max_size=k)) for _ in range(k)]
    if k >= 2 and draw(st.booleans()):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        rows[i] = list(rows[j])
    return rows


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_dense_det_matches_laplace_and_elimination(rows):
    got = dense_det(rows)
    assert type(got) is Fraction
    assert got == laplace_det(rows) == gauss_det(rows)
