"""blockalg: exact symbolic engine for graded Lie algebras of Block type.

Bracket evaluation over an ordered grading group, highest weight modules
with PBW straightening, weight space enumeration, singular vector search,
characteristic polynomials and the quasipolynomial analysis of the label
generating series.  All arithmetic is exact (rationals, and an exact
polynomial extension where the grading group requires one).
"""

from .groups import (
    DYADIC,
    GROUPS,
    INTEGERS,
    LEX_Z2,
    GroupError,
    OrderClassification,
    OrderedGroup,
    Region,
    get_group,
)
from .lie import CENTRAL, BlockAlgebra, Central, Generator, LieElement, PolyForm
from .polynomial import ONE, Poly, X, x_power
from .reducibility import (
    DeltaReport,
    DetectorInconsistencyError,
    QuasiVerdict,
    ReducibilityReport,
    SingularReport,
    charpoly_certificate,
    charpoly_from_labels,
    delta_report,
    delta_series,
    is_quasipolynomial,
    labels_from_charpoly,
    m0_condition_holds,
    polynomial_of_vector,
    reducibility_report,
    singular_candidates,
    sweep_check,
    sweep_coefficient,
    vector_of_polynomial,
    verify_singular,
)
from .exprparse import ParseError, parse_element, parse_group_element, parse_vector
from .verify import CHECKS, CheckResult, VerifyConfig, run_suite
from .verma import (
    ExplicitWeight,
    HighestWeight,
    ModuleVector,
    PBWMonomial,
    RecurrentWeight,
    StraighteningLimitError,
    VermaModule,
)

__version__ = "0.1.0"
