import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from track_enrich.lsap import linear_sum_assignment

_entries = st.one_of(
    st.floats(0.0, 100.0),
    st.integers(0, 3).map(float),
    st.sampled_from([0.0, 1.5, 50.0]),
)


@st.composite
def cost_matrices(draw):
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    pool = draw(st.lists(_entries, min_size=1, max_size=4))
    entry = _entries | st.sampled_from(pool)
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=400, deadline=None)
@given(cost=cost_matrices())
def test_same_rows_and_columns_as_scipy(cost):
    import numpy as np
    from scipy.optimize import linear_sum_assignment as scipy_lsa

    rows, cols = scipy_lsa(np.array(cost))
    assert linear_sum_assignment(cost) == (rows.tolist(), cols.tolist())


@pytest.mark.parametrize("cost", [[], [[]], [[], []]])
def test_empty_matrix(cost):
    assert linear_sum_assignment(cost) == ([], [])


def test_one_by_one():
    assert linear_sum_assignment([[7.5]]) == ([0], [0])


def test_tall_matrix_is_solved_transposed_with_rows_in_order():
    cost = [[4.0, 1.0], [0.0, 9.0], [2.0, 0.5], [3.0, 3.0]]
    assert linear_sum_assignment(cost) == ([1, 2], [0, 1])


def test_inf_entries_are_avoided_when_possible():
    cost = [[math.inf, 1.0], [2.0, math.inf]]
    assert linear_sum_assignment(cost) == ([0, 1], [1, 0])


@pytest.mark.parametrize(
    "cost, match",
    [
        ([[1.0, math.nan], [0.0, 2.0]], "NaN or -inf"),
        ([[1.0, -math.inf], [0.0, 2.0]], "NaN or -inf"),
        ([[math.nan], [1.0], [2.0]], "NaN or -inf"),
        ([[math.inf, math.inf], [math.inf, math.inf]], "infeasible"),
        ([[math.inf, 1.0], [math.inf, 2.0]], "infeasible"),
    ],
)
def test_invalid_and_infeasible_costs_raise(cost, match):
    with pytest.raises(ValueError, match=match):
        linear_sum_assignment(cost)


@pytest.mark.parametrize(
    "cost",
    [
        [[-1e308, -1e308], [-1e308, 0.0]],
        [[1e308, 1e308], [1e308, 0.0]],
        [[1e308, 1e308], [-1e308, -1e308]],
    ],
    ids=["sum-overflows-to-minus-inf", "sum-overflows-to-inf", "row-sums-overflow-both-ways"],
)
def test_huge_finite_entries_that_overflow_the_sum_still_solve(cost):
    import numpy as np
    from scipy.optimize import linear_sum_assignment as scipy_lsa

    rows, cols = scipy_lsa(np.array(cost))
    assert linear_sum_assignment(cost) == (rows.tolist(), cols.tolist())
