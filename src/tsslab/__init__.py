"""tsslab: exact computation engine for totally symmetric sets in groups.

Construct finite groups as multiplication tables, enumerate totally symmetric
sets and compute S(G), decompose conjugation stabilizers, enumerate and check
homomorphisms, and run exact word arithmetic in F2, BS(1, n), and free
products of finite groups.  The verify module machine-checks the
classification theorems at desk scale.
"""

from .groups import (  # noqa: F401
    ConjugacyPartition,
    DerivedSeries,
    FiniteGroup,
    GroupError,
    SemidirectParams,
    centralizer,
    conjugacy_classes,
    derived_series,
    direct_product,
    generated_subgroup,
    make_cyclic,
    make_dihedral,
    make_semidirect_cyclic,
    make_symmetric,
    split_product_index,
)
from .cayley import CayleyTableError, from_cayley_table, to_cayley_table  # noqa: F401
from .tss import (  # noqa: F401
    StabilizerDecomposition,
    TssCertificate,
    TssError,
    TssReport,
    brute_force_tss,
    certify_tss,
    dedup_up_to_conjugacy,
    enumerate_tss,
    max_tss_size,
    realized_permutations,
    tss_by_size,
)
from .homs import (  # noqa: F401
    BraidCorollaryReport,
    BudgetExceeded,
    GeneratorImageMap,
    HomError,
    LemmaVerdict,
    Presentation,
    TableHom,
    braid_cyclic_corollary_check,
    braid_presentation,
    enumerate_homs,
    enumerate_table_homs,
    fundamental_lemma_check,
    identity_hom,
    is_homomorphism,
    is_table_homomorphism,
    odd_artin_generators,
    quotient_hom,
)
from .specs import GroupSpecError, parse_group_spec  # noqa: F401

__version__ = "0.1.0"
