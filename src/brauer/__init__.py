"""Exact arithmetic for Brauer's centralizer algebra B(n, N), its irreducible
representations in Young's orthogonal form, the central generating series,
and the affine Brauer algebra A(n, N) with its regular-monomial normal form.

Import each name from its own module (`brauer.coeffs`, `brauer.diagrams`,
...); only `brauer.tensor` loads numpy and scipy.
"""

from .diagrams import KERNEL_BACKEND

__version__ = "0.1.0"
