"""Convolution algebra of probabilities on finite first-order structures.

Load a finite model, certify its definable commutative semigroup, and
compute with probabilities on it: convolutions, powers, exponentials,
n-th roots with certificates, divisibility reports, and processes on
discrete or sampled timelines.
"""

from .divisibility import (
    ConcentrationReport,
    DivisibilityReport,
    LevyKhintchineFit,
    RootCertificate,
    SolverConfig,
    VERDICT_EXACT,
    VERDICT_INFEASIBLE,
    VERDICT_LOCAL,
    check_concentration,
    exp_approx_error,
    extract_jump,
    fit_levy_khintchine,
    is_infinitely_divisible,
    lambda_for,
    nth_root,
    power_gradient,
    semilattice_root_oracle,
)
from .errors import FinconvError
from .formulas import Formula, free_variables, parse_formula, pretty_print
from .levy import (
    LevyPath,
    Timeline,
    compare_paths,
    export_path,
    levy_from_exponential,
    levy_from_root,
    make_timeline,
    parse_path_csv,
    restrict_path,
    validate_levy,
)
from .measures import (
    Measure,
    conv_exp,
    conv_exps,
    conv_power,
    conv_powers,
    convolve,
    dirac,
    measure,
    measure_of_event,
    mix,
    translate,
    tv_distance,
    uniform,
)
from .structures import (
    FiniteStructure,
    FunctionSymbol,
    RelationSymbol,
    SemigroupCertificate,
    definable_set,
    eval_formula,
    evaluate_region,
    verify_semigroup,
)

__version__ = "0.1.0"
