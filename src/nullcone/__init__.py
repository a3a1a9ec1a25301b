"""Numerical laboratory for null rays in matrix symmetric pairs.

The package builds the classical symmetric pairs over the reals, the
complexes and the quaternions in indefinite signature, samples generic
null directions in the tangent summand, canonicalizes their spectra,
computes ray stabilizers, and verifies the geometry of the induced
reductive homogeneous structures (torsion, curvature, Einstein and
Casimir constants) together with two fully worked case studies.
"""

from .linalg import (
    BilinForm,
    DEFAULT_TOL,
    QMat,
    RealSubspace,
    Tolerance,
    algebra_profile,
    bracket,
    gram_matrix,
    gram_signature,
    orth_complement,
    quat_embed,
    quat_mul,
    quat_split,
    signed_gram_schmidt,
    structure_constants,
    sym_signature,
)
from .report import Check, Report
from .pairs import (
    FIELDS,
    Family,
    SymmetricPair,
    TableRow,
    VARIANTS,
    ambient_dimension,
    axioms_report,
    build_pair,
    check_symmetric_axioms,
    congruence,
    corrupt_pair,
    default_families,
    dimension_table,
    formula_dims,
    isotropy_matrix,
    t_form,
    table_report,
)
from .orbits import (
    NullBatch,
    RayStabilizers,
    canonicalize_symplectic_batch,
    canonicalize_unitary_batch,
    codimension_from_stabilizer,
    commutant_is_smaller,
    make_null_batch,
    normal_form_residuals,
    orbits_report,
    partner_null_batch,
    sample_null_batch,
    sample_so21_stratum_batch,
    so21_orbit_class,
    stabilizers_by_commutant,
    stabilizers_of_rays,
    stabilizers_report,
    trial_blocks,
)
from .reductive import (
    ReductiveSplit,
    bianchi_defect,
    canonical_curvature,
    casimir,
    curvature_eval,
    curvature_tensor,
    einstein_fit,
    frame_ad,
    frame_casimir,
    frame_coords,
    homothety_check,
    levi_civita_nomizu,
    reductive_split,
    ricci,
    ricci_canonical,
    ricci_levi_civita,
    torsion_derivation_check,
    torsion_eval,
    wang_ziller_check,
)
from .casestudies import (
    SP21Data,
    SU21Data,
    duality_identity,
    grading_report,
    model_report,
    sp21_action_formulas,
    sp21_build,
    sp21_embedding_check,
    sp21_hatn_isometry,
    sp21_report,
    sp21_subalgebra_profiles,
    su21_ad_action,
    su21_bracket_table,
    su21_build,
    su21_constant_type,
    su21_invariants,
    su21_nabla_J,
    su21_nabla_J_report,
    su21_report,
)

__version__ = "0.1.0"
