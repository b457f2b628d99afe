"""Exact subspace-arrangement algebra, transverse splittings and
resolutions, polynomial nondegeneracy with quotient norms, and numerical
decay measurement for multilinear oscillatory integral forms.

The root re-exports nothing: each name is imported from its module."""

__version__ = "0.1.0"
