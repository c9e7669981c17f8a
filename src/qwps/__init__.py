"""Quantum SU(2) representation theory and spectral geometry on the quantum
weighted projective spaces.

Modules
-------
exact     half-integer weights, dimensions, spectra, K-theory classes (no numpy)
qcore     q-integers, ladder-form irreducibles
cg        orthogonal q-Clebsch-Gordan block matrices with a cache
coord     the coordinate algebra: product, star, actions, Haar state
coaction  circle grading and the degree-zero subalgebra
operators truncated operators and the spectral norm the benchmark reads
dirac     spinor bases, odd and even spectral triples, commutators
teardrop  weight-(1, l) operator models and the block-pattern evidence that
          reads the K-theory classes of exact.ktheory_class
cli       command line front end (spectrum, dims, verify, summability, ktheory)

The package itself holds only ``__version__``; import names from the modules.
"""

__version__ = "0.1.0"
