"""Dense linear-algebra helpers: the jitter escalation's error report and
block-wise evaluation of stacks."""

import numpy as np
import pytest

from contragp.errors import FactorizationError
from contragp.linalg import BLOCK, blockwise, chol_with_jitter


def test_failure_reports_last_jitter_tried():
    # eigenvalues 3 and -1: the four jitters 1e-4 ... 1e-1 all fail
    with pytest.raises(FactorizationError, match=r"up to 1\.000e-01;"):
        chol_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]), jitter=1e-4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [(0, 0), (1, 0), (0, 1), (2, 2)])
def test_non_finite_gram_raises(bad, at):
    # a factor that carries NaN or inf through must not slip past, with or
    # without jitter
    A = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 2.0]])
    A[at] = bad
    for jitter in (None, 1e-3):
        with pytest.raises(FactorizationError):
            chol_with_jitter(A, jitter=jitter)


@pytest.mark.parametrize("rows", [0, 1, BLOCK, BLOCK + 1, 3 * BLOCK - 7])
def test_blockwise_matches_one_call(rows):
    X = np.random.default_rng(rows).normal(size=(rows, 2))
    calls = []

    def fn(Y):
        calls.append(len(Y))
        return np.column_stack([Y.sum(axis=1), Y[:, 0] * Y[:, 1]])

    np.testing.assert_array_equal(blockwise(fn, X), fn(X))
    assert max(calls[:-1]) <= BLOCK
