"""The library's public surface: the names the benchmark tracer wraps by name
still resolve, and the package re-exports are exactly the pinned lists."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import tsslab
import tsslab.words

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

TSSLAB_NAMES = [
    "BraidCorollaryReport", "BudgetExceeded", "CayleyTableError", "ConjugacyPartition",
    "DerivedSeries", "FiniteGroup", "GeneratorImageMap", "GroupError", "GroupSpecError",
    "HomError", "LemmaVerdict", "Presentation", "SemidirectParams",
    "StabilizerDecomposition", "TableHom", "TssCertificate", "TssError", "TssReport",
    "braid_cyclic_corollary_check", "braid_presentation", "brute_force_tss", "centralizer",
    "certify_tss", "conjugacy_classes", "dedup_up_to_conjugacy", "derived_series",
    "direct_product", "enumerate_homs", "enumerate_table_homs", "enumerate_tss",
    "from_cayley_table", "fundamental_lemma_check", "generated_subgroup", "identity_hom",
    "is_homomorphism", "is_table_homomorphism", "make_cyclic", "make_dihedral",
    "make_semidirect_cyclic", "make_symmetric", "max_tss_size", "odd_artin_generators",
    "parse_group_spec", "quotient_hom", "realized_permutations", "split_product_index",
    "to_cayley_table", "tss_by_size",
]

WORDS_NAMES = [
    "BS_A", "BS_B", "BS_IDENTITY", "BsClassificationReport", "BsElement", "CommonRoot",
    "FpTssVerdict", "FpWord", "FreeWord", "ObstructionEvidence", "SwapSearchResult",
    "bs_classification_check", "bs_commutes", "bs_conjugate", "bs_inverse", "bs_multiply",
    "bs_swap_decide", "bs_swap_search", "cyclic_reduce", "f2_commutes", "f2_conjugate_test",
    "f2_inverse", "f2_multiply", "f2_power", "f2_reduce", "f2_tss_obstruction", "format_bs",
    "format_f2", "format_fp", "fp_ball", "fp_commuting_cliques", "fp_cyclic_reduce",
    "fp_from_syllables", "fp_identity", "fp_inverse", "fp_multiply", "fp_power",
    "fp_primitive_root", "fp_tss_analyze", "parse_bs", "parse_f2", "parse_f2_letters",
    "parse_fp", "primitive_root",
]


def _load_tracer():
    """perfbench/tracer.py as a module of its own, read from its file; nothing
    in it is installed or changed.  Its dataclasses look their module up in
    ``sys.modules`` while they are made, so it is listed there only then."""
    spec = importlib.util.spec_from_file_location("_surface_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("probe", _load_tracer().PROBES, ids=lambda p: f"{p.module}.{p.func}")
def test_tracer_probe_resolves(probe):
    assert callable(getattr(importlib.import_module(probe.module), probe.func))


@pytest.mark.parametrize("module,names", [(tsslab, TSSLAB_NAMES), (tsslab.words, WORDS_NAMES)],
                         ids=["tsslab", "tsslab.words"])
def test_public_names_are_pinned(module, names):
    public = sorted(name for name, value in vars(module).items()
                    if not name.startswith("_") and not inspect.ismodule(value))
    assert public == names
