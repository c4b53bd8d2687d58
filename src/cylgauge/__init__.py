"""Desk-scale verification toolkit for gauge fields on a spatial circle.

Lattice connections with Gaussian measures, holonomy into U(1) or SU(2) and
their complexifications, heat kernels and heat-kernel transforms, coherent
states on the structure group, and numerical checks that the connection-space
Laplacian and transform descend to the group under gauge reduction.
"""

from .groups import (
    AlgebraVector,
    BranchCutError,
    ComplexGroupElement,
    ConvergenceError,
    GroupElement,
    GroupKind,
    PolarCoordinates,
    exp_map,
    group_distance,
    group_log,
    haar_integrate,
    haar_sample,
    identity,
    polar_decompose,
)
from .montecarlo import MCEstimate, chunked_mc, chunked_mc_vector
from .spectral import (
    CharacterSeries,
    IrrepInfo,
    character,
    evaluate_series,
    finite_difference_casimir,
    heat_kernel,
    heat_semigroup,
    irrep_info,
    rho_s_inner_product,
)
from .bargmann import (
    HeatParams,
    SampledFunction1D,
    TailTruncationError,
    c_limit_gram_check,
    c_transform,
    heat_evolve_poly,
    s_transform_gram_check,
)
from .lattice import (
    LatticeConnection,
    LatticeGaugeMap,
    LinkConfiguration,
    gauge_transform,
    holonomy,
    links_of,
    pushforward_moment,
    sample_connection,
    smooth_connection,
    smooth_gauge_map,
)
from .reduction import (
    FDStepError,
    RefinementStudy,
    gram_isometry_check,
    gram_matrix_refinement,
    laplacian_reduction_check,
    pushforward_refinement,
    radial_laplacian_check,
    semigroup_reduction_check,
    submersion_check,
)
from .coherent import (
    CoherentLabel,
    coherent_overlap,
    resolution_identity_check,
)
from .dynamics import (
    PhasePoint,
    evolve_free,
    geodesic_compare,
    make_constrained_pair,
)
from .reporting import Report, ReportRow

__version__ = "0.1.0"
