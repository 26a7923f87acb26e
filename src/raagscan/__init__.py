"""Graph-level duality obstructions for outer automorphism groups of RAAGs."""

from .graphs import (
    SimpleGraph,
    GraphError,
    canonical_form,
    canonical_relabel,
    complete_graph,
    cone,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_nonisomorphic,
    erdos_renyi,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    join,
    link,
    mix_seed,
    parse_edge_list,
    path_graph,
    star,
    suspension,
)
from .complexes import (
    SimplicialComplex,
    flag_complex,
    link_of_simplex,
    maximal_cliques,
)
from .homology import (
    HomologyProfile,
    SmithForm,
    boundary_matrix,
    concentrated_free_in_degree,
    reduced_homology,
    smith_normal_form,
)
from .cm import CmVerdict, is_cohen_macaulay, raag_duality_verdict
from .raag_props import (
    JoinCertificate,
    OutFinitenessReport,
    center_vertices,
    is_one_ended,
    is_transvection_free,
    join_certificate,
    out_is_finite,
    out_virtual_duality_verdict,
)
from .pso import (
    PartialConjugation,
    SupportGraph,
    ThetaResult,
    all_supports_forests,
    outer_generators,
    partial_conjugation_catalog,
    support_graph,
    theta_graph,
)
from .words import (
    Automorphism,
    Word,
    is_inner,
    parabolic_double_coset_member,
    shuffle_orbit,
    words_equal,
)

__version__ = "0.1.0"
