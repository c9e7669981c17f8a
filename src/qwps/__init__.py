"""Quantum SU(2) representation theory and spectral geometry on the quantum
weighted projective spaces.

Modules
-------
qcore     exact half-integer weights, q-integers, ladder-form irreducibles
cg        orthogonal q-Clebsch-Gordan block matrices with a cache
coord     the coordinate algebra: product, star, pairing, actions, Haar state
coaction  circle grading, the degree-zero subalgebra and its dimensions
dirac     odd and even spectral triples, summability, commutator evidence
teardrop  weight-(1, l) operator models and K-theory projection classes
cli       command line front end (spectrum, dims, verify, summability, ktheory)
"""

from .qcore import HalfInt, QContext, hi, q_int
from .cg import CGBlock, cg_block, cg_coeff_updown, couple
from .coord import AlgebraElement, BasisIndex
from .coaction import CoinvariantSpinorIndex, WeightPair
from .dirac import SpectrumTable, Spinor, SpinorBasisIndex
from .operators import TruncatedOperator
from .teardrop import ProjectionClass

__version__ = "0.1.0"

__all__ = [
    "HalfInt",
    "QContext",
    "hi",
    "q_int",
    "CGBlock",
    "cg_block",
    "cg_coeff_updown",
    "couple",
    "AlgebraElement",
    "BasisIndex",
    "WeightPair",
    "CoinvariantSpinorIndex",
    "SpectrumTable",
    "Spinor",
    "SpinorBasisIndex",
    "TruncatedOperator",
    "ProjectionClass",
    "__version__",
]
