"""orbitwalk: quantum-walk kernels on lattice orbit spaces.

Time-evolution, heat, and resolvent kernels on the line, circle, half line
and interval (and their N-walker quotients) are built as weighted image sums
over a discrete symmetry group, then cross-checked against dense
exact-diagonalization of the matching tight-binding Hamiltonians.
"""

# The Bessel core is pure Python; benchmark reports print this name.
BACKEND_NAME = "pure"

__version__ = "0.1.0"

__all__ = ["BACKEND_NAME", "__version__"]
