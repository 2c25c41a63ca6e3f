"""Exact path realizations of Demazure crystals over level-1 perfect crystals.

Subpackages cover exact Laurent arithmetic, affine weight lattices with
Weyl group elements and the Demazure step, the six families of level-1
perfect crystals of classical affine type, the signature rule of tensor
products, truncated paths, path-generated characters, one-dimensional
configuration sums (unrestricted, classically restricted, restricted),
string-function limits, Kostka-Foulkes polynomials, and fermionic-style
closed-form sums cross-verified against direct enumeration.
"""

__version__ = "0.1.0"
