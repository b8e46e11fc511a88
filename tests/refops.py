"""Reference ops that only tests need, built on the public ``Node``: the
unfused chains the fused ops are compared against. ``test_refops.py`` pins
each one's gradient against finite differences."""

import numpy as np

import collapselab.autodiff as ad
from collapselab.errors import ContractError


def neg(x):
    return ad.Node(-x.data, (x,), (lambda g: -g,), x.requires_grad)


def rowwise_dot(a, b):
    """Inner products along the last axis of two equal (d,) or (N, d) nodes."""
    av, bv = a.data, b.data
    return ad.Node(
        np.einsum("...i,...i->...", av, bv),
        (a, b),
        (lambda g: g[..., None] * bv, lambda g: g[..., None] * av),
        a.requires_grad or b.requires_grad,
    )


def dot(a, b):
    """Inner product of two equal 1-d vectors; a 0-d node."""
    if a.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ContractError(f"dot: need equal-length vectors, got {a.shape} and {b.shape}")
    av, bv = a.data, b.data
    return ad.Node(
        av @ bv,
        (a, b),
        (lambda g: float(g) * bv, lambda g: float(g) * av),
        a.requires_grad or b.requires_grad,
    )
