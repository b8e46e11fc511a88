"""collapselab: a desk-scale laboratory for neural collapse under imbalance.

Small MLPs on synthetic long-tailed Gaussian mixtures, trained either with
plain cross-entropy (which lets minority geometry collapse onto the majority)
or with a combined objective that re-aligns class means and classifier rows
to a simplex equiangular tight frame. Ships its own reverse-mode gradient
engine, collapse diagnostics, and a CLI.
"""

__version__ = "0.1.0"
