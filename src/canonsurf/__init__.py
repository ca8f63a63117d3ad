"""Surface invariants, compatibility residuals, canonical principal parameters,
and reconstruction of a surface (up to rigid motion) from two invariant fields."""

from .catalog import CatalogEntry, Jet2, JetGrid, evaluate_jet, make_entry, make_revolution_entry, sample_surface
from .canonical import (
    AffineMatch,
    CanonicalMaps,
    InvariantGrid,
    build_canonical_maps,
    check_affine_equivalence,
    resample_grid,
    resample_to_canonical,
    verify_canonical,
)
from .compatibility import (
    FloorCheck,
    canonical_factors,
    codazzi_residual_general,
    codazzi_residual_principal,
    compatibility_floor,
    gauss_residual_canonical,
    gauss_residual_general,
    gauss_residual_principal,
)
from .grid import (
    BaseIndex,
    Grid2,
    d_u,
    d_uu,
    d_v,
    d_vv,
)
from .invariants import (
    CurvatureGrid,
    CurvaturePoint,
    FormCoefficients,
    FormGrid,
    curvatures,
    curvatures_grid,
    detect_umbilics,
    fundamental_forms,
    fundamental_forms_grid,
    geodesic_curvatures_of_parametric_lines,
    normal_curvature,
)
from .reconstruction import (
    FrameState,
    SurfaceMesh,
    align_rigid,
    coefficients_from_invariants,
    finite_difference_jets,
    identity_frame,
    integrate_frame,
    path_consistency_diagnostic,
    reconstruct,
)
from .reports import ResidualReport, make_report
from .special_surfaces import (
    FlatCharacterization,
    WeingartenData,
    cmc_residual,
    flat_characterization,
    minimal_natural_residual,
    weingarten_residual,
)

# the frozen benchmark still calls the former kh route by name; its next revision
# (ROADMAP item 8) removes this alias
gauss_residual_canonical_kh = gauss_residual_canonical

__version__ = "0.1.0"
