"""Functionals as the stacked kernels take them.

A kernel takes a batch of functionals as one
:class:`nclp.algebra.SpectrumStack`; :func:`stack` builds it from
functionals that may come from different batches, as ``algebra._stack``
builds the per-block stacks of elements.
"""

import numpy as np

from nclp.algebra import SpectrumStack, _gather


def stack(psis) -> SpectrumStack:
    """The spectrum stack whose row j is the spectrum of psis[j], at the
    cutoff of psis[0]: the functionals' one-row stacks, concatenated."""
    rows = [_gather(psi.spectrum()) for psi in psis]

    def joined(name):
        return tuple(np.concatenate(arrays)
                     for arrays in zip(*(getattr(r, name) for r in rows)))
    return SpectrumStack(rows[0].algebra, joined("eigenvalues"),
                         joined("eigenvectors"), joined("kernel_mask"),
                         joined("densities"),
                         np.concatenate([r.radius for r in rows]),
                         rows[0].eps_rel)
