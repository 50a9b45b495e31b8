"""Reference copy of the Cash-Karp step that retracted every stage.

``_Field.advance`` used to put each of the five inner stage points back on
Z before evaluating the field there, and carried a row whose stage
retraction failed on as NaN.  It now takes the stages in the ambient space
and retracts only the endpoint.  tests/test_flow.py installs
:func:`advance` in place of ``_Field.advance`` and checks that every
ensemble member ends as it did with the stage retractions, at nearly the
same point.
"""

import numpy as np

from morseflow.flow import _CK_A, _CK_B4, _CK_B5, ATOL, RTOL, _combine
from morseflow.space import row_sums


def advance(self, Y0, K1, H, sign):
    """One Cash-Karp step of length H[i] from each row Y0[i], every stage retracted."""
    ok = np.ones(len(Y0), dtype=bool)
    h = H[:, None]
    K = [K1]
    for i in range(1, 6):
        P, ok_p = self.Z.retract_batch(Y0 + h * _combine(_CK_A[i], K))
        if not ok_p.all():
            ok &= ok_p
            P[~ok] = np.nan
        K.append(sign[:, None] * self.projected_grad(P))
    y5 = Y0 + h * _combine(_CK_B5, K)
    y4 = Y0 + h * _combine(_CK_B4, K)
    y_new, ok_y = self.Z.retract_batch(y5)
    ok &= ok_y
    y_new[~ok] = np.nan
    scale = ATOL + RTOL * np.maximum(np.abs(Y0), np.abs(y_new))
    return y_new, np.sqrt(row_sums(((y5 - y4) / scale) ** 2) / Y0.shape[1]), ok
