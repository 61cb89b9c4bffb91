"""Functionals as the stacked kernels take them, and one-point instances
drawn by the suites' builders.

A kernel takes a batch of functionals as one
:class:`nclp.algebra.SpectrumStack`; :func:`stack` builds it from
functionals that may come from different batches, as ``algebra._stack``
builds the per-block stacks of elements; :func:`polar` and :func:`kron` are
one-row calls of their kernels.  The draws are B = 1 calls of the
builders of :mod:`nclp.suites`, so a test draws the bits a suite trial
draws from the same stream; the functionals are built at the default
cutoff.
"""

import numpy as np

from nclp.algebra import (SpectrumStack, _gather, _polar_stack, _stack,
                          _unstack)
from nclp.config import default_eps_rel
from nclp.divergence import _kraus_draw, _whitened_channel
from nclp.functionals import _rows
from nclp.suites import (_elements, _functionals, _gram_draw, _nested_draw,
                         _normals, _orthogonal_draw, _unitaries)
from nclp.tensor import kron_functional_stack


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


def polar(x):
    """The polar factors (v, |x|) of one element, at the default cutoff."""
    v, a = _polar_stack(_stack([x]), default_eps_rel())
    return _unstack(v)[0], _unstack(a)[0]


def kron(T, psi1, psi2):
    """The product functional psi1 (x) psi2: one pair of the product
    stack."""
    return _rows(kron_functional_stack(T, stack([psi1]), stack([psi2])))[0]


def element(rng, alg):
    """A complex Gaussian element, (re + i im)/sqrt(2) entrywise."""
    return _unstack(_elements([_normals(rng, alg)], alg)[0])[0]


def unitary(rng, alg):
    """A Haar block unitary: QR with the phases of R divided out."""
    return _unstack(_unitaries(_elements([_normals(rng, alg)], alg)[0]))[0]


def functional(rng, alg, rank=None):
    """A normalized factor square G G*, G with ``rank`` columns in all
    (full by default, filled block by block), so its kernel is exact."""
    return _rows(_functionals(alg, default_eps_rel(),
                              (_gram_draw(rng, alg, rank),))[0])[0]


def orthogonal_pair(rng, alg, rank):
    """(psi, psi') with complementary supports, psi of the given rank."""
    return tuple(_rows(_functionals(alg, default_eps_rel(),
                                    _orthogonal_draw(rng, alg, rank))[0]))


def nested_pair(rng, alg, rank_phi, rank_psi):
    """(psi, phi) with s(psi) <= s(phi), nested by construction."""
    return tuple(_rows(_functionals(alg, default_eps_rel(), _nested_draw(
        rng, alg, rank_phi, rank_psi))[0]))


def unital_channel(rng, domain, codomain, num_kraus=3):
    """A random unital channel, as the dpi suite draws it: Gaussian Kraus
    operators whitened to sum V*V = 1."""
    return _whitened_channel(domain, codomain, _kraus_draw(
        rng, domain, codomain, num_kraus))
