"""Exact lambda-structures and power structures over integer and polynomial rings.

Library layout:

  rings         integers and sparse multivariate integer polynomials
  series        truncated formal power series over a chosen ring
  lambdas       lambda-structures, Exp/Log, power structures, integer power formula
  finite_model  finite maps, S^k/B_k, the geometric orbit-counting oracle
  motivic       Hodge-level zeta and Hilbert-scheme generating series
  parsing, cli  expression front end and command-line interface
"""

from .finite_model import (
    BudgetExceededError,
    EquivalenceCheckError,
    FiniteMap,
    FiniteSeriesCheckError,
    OrbitCheckError,
    class_of,
    combine,
    config_space_map,
    finite_series,
    geometric_power_coefficient,
    symmetric_power_map,
)
from .lambdas import (
    LambdaStructure,
    UnsupportedLambdaError,
    charge_profiles,
    exp_map,
    integer_power_formula,
    lambda_series,
    log_map,
    power,
)
from .motivic import hilb_local_surface, hilb_surface, hodge_zeta, specialize_series
from .parsing import ParseError, parse_polynomial, parse_ring, parse_series
from .rings import (
    INTEGERS,
    ComputationError,
    DegreeOverflowError,
    InexactDivisionError,
    Ring,
    SparsePolynomial,
)
from .series import NonUnitError, RingMismatchError, TruncatedSeries

__version__ = "0.1.0"
