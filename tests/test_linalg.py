"""Dense linear-algebra helpers: the jitter escalation's error report."""

import numpy as np
import pytest

from contragp.errors import FactorizationError
from contragp.linalg import chol_with_jitter


def test_failure_reports_last_jitter_tried():
    # eigenvalues 3 and -1: jitters 1e-3 and 1e-2 both fail
    with pytest.raises(FactorizationError, match=r"up to 1\.000e-02;"):
        chol_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]),
                         jitter=1e-3, max_tries=2)
