"""Online edge coloring of d-degenerate graphs with per-edge advice."""

from .advice import (
    RequestSource,
    TapeSource,
    bits_per_edge,
    ceil_log2,
    degeneracy_from_length,
    encode_header,
    encode_tape,
    header_bits,
    pack_record,
    pad_degeneracy,
    read_header,
    unpack_record,
)
from .errors import (
    AdviceExhausted,
    DuplicateEdge,
    ImproperColoring,
    MalformedAdvice,
    MalformedTape,
    NoMonochromeFamily,
    NotBipartite,
    ParseError,
    PreconditionViolated,
    RecoloringAttempt,
    ResourceLimit,
    SelfLoop,
)
from .adversaries import (
    build_permutation_instance,
    elimination_game,
    permutation_game,
    pigeonhole_thresholds,
    rigidity_check,
    rounds_to_extinction,
    select_same_colored_stars,
    variant_family,
)
from .coloring import (
    Coloring,
    exact_color,
    konig_color,
    vizing_plus_one,
)
from .generators import (
    build_coupled_pair,
    gen_bipartite,
    gen_d_degenerate,
    gen_forest,
    gen_star,
)
from .graphs import (
    Edge,
    EdgeStream,
    Graph,
    degeneracy,
    edge_pair,
    is_bipartite,
    is_forest,
    is_proper,
    parse_stream,
    serialize_stream,
    stream_from_pairs,
)
from .oracle import (
    build_advice,
    build_partition,
    optimal_coloring,
)
from .runtime import (
    AdviceAlgorithm,
    Greedy,
    GreedyVariant,
    run_advice,
    run_greedy,
    simulate,
    verify_run,
)

__version__ = "0.1.0"
