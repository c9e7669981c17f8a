"""Quantum SU(2) representation theory and spectral geometry on the quantum
weighted projective spaces.

Modules
-------
qcore     exact half-integer weights, q-integers, ladder-form irreducibles
cg        orthogonal q-Clebsch-Gordan block matrices with a cache
coord     the coordinate algebra: product, star, pairing, actions, Haar state
coaction  circle grading, the degree-zero subalgebra and its dimensions
dirac     spinor bases, odd and even spectral triples, summability, commutators
teardrop  weight-(1, l) operator models and K-theory projection classes
cli       command line front end (spectrum, dims, verify, summability, ktheory)

The package itself holds only ``__version__``; import names from the modules.
"""

__version__ = "0.1.0"
