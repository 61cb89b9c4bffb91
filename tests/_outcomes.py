"""One-point views of the stacked divergence kernels' array results.

``q_tilde_stack`` returns :class:`nclp.divergence.Outcomes` (value and reason
arrays), and the check stacks return (residuals, values) with per key a pair
of (B, G) residual and asserted arrays.  These helpers read one entry back as
the one-point API reports it, so that a stack can be compared with one-point
calls.
"""

from nclp import DivergenceValue
from nclp.divergence import REASONS


def value(outcomes, j=0, g=0):
    """Entry (j, g) of an Outcomes as a DivergenceValue; its pair's error
    raised if that point is the pair's first failing one."""
    if j in outcomes.errors and outcomes.errors[j][0] == g:
        raise outcomes.errors[j][1]
    return DivergenceValue(float(outcomes.values[j, g]),
                           REASONS[outcomes.reasons[j, g]])


def row(outcomes, j=0):
    """Pair j's outcomes at every point, as DivergenceValues."""
    return [value(outcomes, j, g) for g in range(outcomes.values.shape[1])]


def point(result, j=0, g=0):
    """(residuals, values) of entry (j, g) of a check stack's result: the
    asserted residuals as a dict, and the values as DivergenceValues, or as
    floats for arrays without reasons."""
    residuals, values = result
    res = {key: float(r[j, g]) for key, (r, on) in residuals.items()
           if on[j, g]}
    return res, tuple(value(v, j, g) if hasattr(v, "reasons")
                      else float(v[j, g]) for v in values)


def points(result, j=0):
    """Entry j's (residuals, values) at every point of a check stack."""
    width = next(iter(result[0].values()))[0].shape[1]
    return [point(result, j, g) for g in range(width)]
