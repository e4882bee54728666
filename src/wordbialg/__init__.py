"""Exact-arithmetic engine for word bialgebras, word relations, and their
canonical quasi-symmetric function images."""

from .bialgebra import (
    alphabet_coproduct,
    concat_product,
    deconcat_coproduct,
    duality_pairing_check,
    packed_coproduct,
    packed_product,
    shifted_shuffle,
    shuffle,
    verify_bialgebra_axioms,
)
from .characters import (
    class_image,
    grassmannian_stable_family,
    grothendieck_family,
    multi_fundamental,
    word_image,
)
from .lincomb import LinComb
from .qsym import (
    QSym,
    SymExpansion,
    fundamental_L,
    is_symmetric,
    monomial,
    peak_K,
    q_function,
    schur,
    schur_expand,
    schur_positive,
    schur_q,
    schur_q_expand,
    schur_q_positive,
    substitute_geometric,
    to_fundamental,
    to_monomial_sym,
)
from .relations import (
    CoxeterM,
    RelationPresentation,
    bfs_class,
    builtin_relation,
    check_algebraic,
    check_p_algebraic,
    check_uniformly_algebraic,
    close,
    coxeter_relation,
    explicit_relation,
    headroom_stability,
)
from .scans import (
    doubling_check,
    packed_class_count,
    positivity_scan_homogeneous,
)
from .words import Anchored, anchored, flatten, is_packed, parse_word

__version__ = "0.1.0"
