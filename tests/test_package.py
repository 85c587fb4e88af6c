import tametorus
from tametorus import dynamics, errors, exactalg, sidon, tameness

PUBLIC_NAMES = {
    "__version__",
    # errors
    "TameTorusError", "InputError", "MalformedInputError", "DimensionInputError",
    "NonIntegerInputError", "PreconditionError", "DeterminantNotUnitError",
    "StreamExhaustedError", "CapExceededError", "DimensionMismatchError",
    # exactalg
    "IntMatrix", "IntPoly", "mat_mul", "mat_pow", "min_poly", "poly_gcd", "poly_divmod",
    "strip_x_factor",
    # tameness
    "TAME", "UNTAME", "SEMICASCADE", "CASCADE", "NON_SQUAREFREE", "ORDER_BOUND_EXHAUSTED",
    "ZERO_EIGENVALUE", "TamenessCertificate", "UntameWitness", "OrderBoundTable",
    "order_bound", "order_of_x_mod", "decide_semicascade", "sweep_box",
    "decide_cascade", "oracle_semicascade", "oracle_semicascade_batch", "certificate_check",
    # dynamics
    "AffineMap", "FrequencyOrbit", "IndependenceQuery", "reduce_angles", "torus_dist",
    "torus_grid", "frequency_orbit", "escape_probe", "convergence_probe",
    "independence_check", "exp_grid_average",
    # sidon
    "SidonReport", "extract_sidon", "verify_quasi_independence", "estimate_sidon_ratio",
    "parse_stream", "load_stream",
}
MODULES = (errors, exactalg, tameness, dynamics, sidon)


def test_package_exports_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 54
    assert set(tametorus.__all__) == PUBLIC_NAMES


def test_package_all_is_the_union_of_the_module_lists():
    names = ["__version__"] + [n for m in MODULES for n in m.__all__]
    assert tametorus.__all__ == names
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(tametorus, name) is getattr(module, name), name
