"""Certified s-number bounds for the interval integration operator and for
grid Sobolev embeddings of the cube, with inspectable witnesses."""

# numpy 2 imports these two on first use (np.random, and numpy.ma inside
# np.unique); the volterra, cube and john commands use both, so they load
# with the package rather than inside the first command
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .hilbert import (
    CapacityError,
    HilbertOrdering,
    check_face_adjacency,
    check_prefix_nesting,
    hilbert_order,
)
from .john import (
    CertificateInvalidError,
    ConstructionError,
    CubeUnion,
    JohnCertificate,
    john_bound_constructive,
    oscillation_check,
    segment_domain,
    uniform_john_constant,
    verify_john_certificate,
    verify_segment_domains,
)
from .snumbers import (
    Adversary,
    AxiomReport,
    DegenerateBasisError,
    FactorizationWitness,
    GelfandCertificate,
    SNumberBound,
    Subspace,
    ZigzagResult,
    ZigzagWitness,
    approximation_upper,
    bernstein_lower,
    bernstein_upper_1d,
    bernstein_upper_ddim,
    gelfand_lower_adversary,
    gelfand_lower_bound,
    hat_functions,
    isomorphism_lower_1d,
    isomorphism_lower_ddim,
    kolmogorov_lower_witness,
    kolmogorov_upper_1d,
    snumber_axiom_suite,
    zigzag_find,
)
from .spaces import (
    CellField,
    ExactValueError,
    GridFunction,
    GridMismatchError,
    LorentzParams,
    MeanZeroTag,
    StepFunction1D,
    UnsupportedRegimeError,
    grid_gradient_lorentz_norm,
    lorentz_norm,
)
from .volterra import (
    VolterraCurve,
    mean_zero_project,
    operator_norm_discrete,
    volterra_apply,
)

__version__ = "0.1.0"
