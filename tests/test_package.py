import qzeta

PUBLIC = """
    Block CLOSED_FAMILIES ClassicalTerm ClassicalValue Compiled Composition
    DEFAULT_SEED LEMMA_PARTS QContext SeriesValue SignedIndex THETA Theta
    Triple Twos TwosC TwosOnes VerificationReport all_passed as_q attach bar
    base_state boxplus boxplus_fold classical_battery classical_expand
    classical_zeta closed_212c21 closed_212c212 closed_2c2
    closed_2c21 closed_2c212 closed_c_ones closed_pattern closed_twos
    closed_twos_ones compose delta expand family_equivalence family_instances
    head_reduction_pattern idx inverse_power_pattern is_admissible
    iter_expansion lemma_suite mhs mhs_many mollified_mhs mollified_mhs_many
    oplus oplus_fold parse_composition parse_shift pattern_mhs_many proj
    qmzsv_battery quad_exponent rational_repr run_family
    sample_compositions shift_latex shift_str signed_string
    symmetric_pair_check tokenize verify_classical verify_mhs verify_qmzsv
    zeta_admissible
""".split()


def test_public_names_are_the_ones_the_imports_bind():
    # __all__ is built from the names the package's imports bind: the 72
    # public names, sorted, with no submodule and no private helper, and a
    # star import binds exactly them
    assert len(PUBLIC) == 72
    assert qzeta.__all__ == sorted(PUBLIC)
    namespace: dict = {}
    exec("from qzeta import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)
    assert all(getattr(qzeta, name) is value for name, value in namespace.items())
