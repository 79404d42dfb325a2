"""Exact rational arithmetic toolkit for cycle noncontextuality inequalities.

Verifies, evaluates, and searches for violations of the KCBS inequality
using only qutrit states and projector directions with rational components;
every reported value is an exact rational certificate.
"""

from .rationals import format_rational, parse_rational, to_decimal
from .linalg3 import (
    E_X,
    E_Y,
    E_Z,
    Vec3Q,
    cross,
    dot,
    norm_sq,
)
from .contextuality import (
    CycleScenario,
    CycleValidationError,
    UnitVectorQ,
    correlator,
    kcbs_value,
    kcbs_value_via_projections,
    make_observable,
    reference_scenario,
    validate_cycle,
)
from .hv_models import (
    Assignment,
    classical_min_cycle,
    is_violation,
)
from .search import (
    CircleParams,
    SearchHit,
    best_rational_approx,
    build_pentagon,
    circle_triple,
    optimal_state_numeric,
    rationalize_state,
    search,
    stereo_lift,
)

__version__ = "0.1.0"
