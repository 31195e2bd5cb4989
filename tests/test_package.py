import qfixpoint

EXPORTS = {
    "AffineGaussianMap", "AuditCheck", "AxiomAuditReport", "ContractionOutcome",
    "DEFAULT_MAPS", "DEFAULT_MAX_ITERATIONS", "DEFAULT_QUADRATURE", "DEFAULT_REGION",
    "DEFAULT_STARTS", "DEFAULT_TOLERANCE", "DegenerateRegionError", "FeatureReport",
    "FixedPointReport", "FuzzyFixedPointReport", "FuzzyMetric", "GSConditionAudit",
    "GaussianState", "NotConvergedError", "OUT_OF_SCOPE_NOTES", "ParameterBox",
    "QuadratureConfig", "TNormKind", "absolute_difference", "analytic_fixed_point",
    "apply_map", "audit_gv_axioms", "audit_metric_axioms", "audit_tnorm_axioms",
    "audit_tnorm_ordering", "build_feature_report", "estimate_contraction_factor",
    "evaluate", "fuzzy_fixed_point", "fuzzy_membership", "gaussian_parameter_metric",
    "gaussian_state_sampler", "interference_excess", "interference_excess_quadrature",
    "iterate_to_fixed_point", "overlap_closed_form", "overlap_quadrature",
    "overlap_quadrature_many", "real_line_sampler", "sample_state_pairs",
    "state_distance", "tnorm_eval", "verify_banach_bounds", "verify_uniqueness",
}


def test_package_exports_the_submodules_public_names():
    # 48 distinct names, no more, no fewer
    assert len(EXPORTS) == 48 and sorted(qfixpoint.__all__) == sorted(EXPORTS)
    namespace = {}
    exec("from qfixpoint import *", namespace)
    for name in EXPORTS:
        assert namespace[name] is getattr(qfixpoint, name)
