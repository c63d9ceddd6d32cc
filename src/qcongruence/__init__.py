"""Exact verification of q-congruences and their p-adic specializations.

The package decides congruences A = B (mod P) between rational functions of q,
where P is a product of q-integers, cyclotomic polynomials and specialization
binomials, by exact polynomial arithmetic: write A - B as a reduced fraction
N/D and check that D is a unit modulo P and that P divides N.  A declarative
catalog of truncated-hypergeometric congruence statements, terminating
summation identities, and classical p-adic congruences sits on top, with a CLI
that emits machine-readable reports.
"""

from .arith import BigRat, padic_valuation
from .polyring import QPoly, QRat, cyclotomic, q_integer

__all__ = [
    "BigRat",
    "QPoly",
    "QRat",
    "cyclotomic",
    "padic_valuation",
    "q_integer",
]

__version__ = "0.1.0"
