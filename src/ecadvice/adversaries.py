"""Adversary games that pin down how much advice online coloring needs.

The elimination game drives any finite family of deterministic algorithms
to 2*delta - 1 colors on a forest: each round it finds delta stars that
enough surviving members colored identically and hangs a new vertex off
their centers.  The permutation game wires two stars together through
couplers according to a permutation chosen only after the star edges were
colored, forcing delta + 1 colors out of anyone who committed too early.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count, product
from math import ceil, comb, log, log1p
from typing import Callable, Optional, Sequence

from .coloring import exact_color, konig_color, vizing_plus_one
from .errors import NoMonochromeFamily, PreconditionViolated
from .generators import build_coupled_pair, coupler_edges
from .graphs import Edge, EdgeStream, Graph, Pair, stream_from_pairs
from .runtime import GreedyVariant, OnlineAlgorithm, Referee, RunReport, simulate

# the most steps the elimination game's members take on its star rows: one
# step per member and star edge (delta 10 with one member reveals 3,938,229
# star edges); more would take minutes and gigabytes
MAX_STAR_STEPS = 4_000_000


def pigeonhole_thresholds(delta: int) -> tuple[int, int]:
    """(alpha, beta): alpha stars force delta identically colored ones under
    a 2*delta-2 palette; beta bounds the number of possible selections."""
    if delta < 2:
        raise PreconditionViolated("need delta >= 2")
    alpha = (delta - 1) * comb(2 * delta - 2, delta - 1) + 1
    beta = comb(alpha, delta)
    return alpha, beta


def select_same_colored_stars(
    star_colors: Sequence[frozenset[int]], delta: int
) -> tuple[int, ...]:
    """Lexicographically first delta indices whose color sets coincide."""
    groups: dict[frozenset[int], list[int]] = {}
    for i, colors in enumerate(star_colors):
        groups.setdefault(colors, []).append(i)
    best: Optional[tuple[int, ...]] = None
    for indices in groups.values():
        if len(indices) >= delta:
            candidate = tuple(indices[:delta])
            if best is None or candidate < best:
                best = candidate
    if best is None:
        raise NoMonochromeFamily(
            f"no {delta} stars share a color set among {len(star_colors)}"
        )
    return best


@dataclass(frozen=True)
class EliminationRound:
    row: int
    alive_before: int
    alive_after: int
    selected: tuple[int, ...]
    new_vertex: int


@dataclass
class EliminationTranscript:
    rounds: list[EliminationRound]
    stream: EdgeStream
    colors_used: list[int]
    all_dead: bool


def check_elimination_size(delta: int, members: int, rounds: int) -> None:
    """Refuse an elimination game whose members would take more than
    MAX_STAR_STEPS steps on its star rows.  Every member colors every star
    edge, and counts as one step even where no star edge is revealed."""
    alpha, _ = pigeonhole_thresholds(delta)
    if rounds < 0:
        raise PreconditionViolated(f"round count {rounds} is negative")
    if members * max(rounds * alpha * (delta - 1), 1) > MAX_STAR_STEPS:
        raise PreconditionViolated(
            f"{members} members on {rounds * alpha} stars take over {MAX_STAR_STEPS} steps"
        )


def elimination_game(
    delta: int, family: Sequence[OnlineAlgorithm], rounds: int
) -> EliminationTranscript:
    """Play `rounds` star rows against every member of the family at once.

    Members stay alive while they have used at most 2*delta - 2 colors.
    Per round, at least ceil(alive/beta) members pick the same star family
    and are forced over the threshold, so alive counts shrink by at least
    that much; the game stops early once nobody survives.  The revealed
    graph stays a forest with max degree delta.  A game past
    check_elimination_size is refused before anything is revealed.
    """
    alpha, beta = pigeonhole_thresholds(delta)
    check_elimination_size(delta, len(family), rounds)
    referees = [Referee() for _ in family]
    # every member, dead or alive, sees every edge
    observers = [(alg.step, ref.record) for alg, ref in zip(family, referees)]
    threshold = 2 * delta - 2

    edges: list[Edge] = []
    fresh = count().__next__

    def reveal(u: int, v: int) -> None:
        edge = Edge(u, v, len(edges))
        edges.append(edge)
        for step, record in observers:
            record(edge, step(edge, None))

    centers: list[list[int]] = []
    for _ in range(rounds):
        row_centers = []
        for _ in range(alpha):
            center = fresh()
            leaves = [fresh() for _ in range(delta - 1)]
            for leaf in leaves:
                reveal(center, leaf)
            row_centers.append(center)
        centers.append(row_centers)

    survivors = [ref for ref in referees if ref.colors_used <= threshold]
    played: list[EliminationRound] = []
    for row in range(rounds):
        if not survivors:
            break
        votes: dict[tuple[int, ...], int] = {}
        for ref in survivors:
            # no joint edge reaches a row's centers before the row is
            # played, so a center's colors are exactly its star's
            sets = [ref.colors_at(center) for center in centers[row]]
            choice = select_same_colored_stars(sets, delta)
            votes[choice] = votes.get(choice, 0) + 1
        selected = min(votes, key=lambda s: (-votes[s], s))
        joint = fresh()
        for s in selected:
            reveal(joint, centers[row][s])
        alive_before = len(survivors)
        survivors = [ref for ref in survivors if ref.colors_used <= threshold]
        kills_due = -(-alive_before // beta)  # ceil
        if len(survivors) > alive_before - kills_due:
            raise AssertionError("round killed fewer members than the pigeonhole bound")
        played.append(EliminationRound(row, alive_before, len(survivors), selected, joint))

    return EliminationTranscript(
        played,
        EdgeStream(tuple(edges)),
        [ref.colors_used for ref in referees],
        not survivors,
    )


def rounds_to_extinction(family_size: int, beta: int) -> int:
    """Rounds guaranteed to empty a family under the per-round decay.

    Raises PreconditionViolated where floats cannot hold the count: 1/beta
    underflows to 0 once beta reaches 2**1075 (delta >= 25), and with
    two or more members the count passes the float range at delta = 24.
    """
    if family_size < 1:
        return 0
    # log(beta / (beta - 1)) rounds to log(1.0) = 0 once beta passes 2**53
    try:
        return ceil(log(family_size) / -log1p(-1 / beta)) + 1
    except (ZeroDivisionError, OverflowError) as exc:
        raise PreconditionViolated(
            f"no float round count for a family of {family_size} at a beta of {beta.bit_length()} bits"
        ) from exc


@dataclass
class PermutationInstance:
    stream: EdgeStream
    pi: tuple[int, ...]


def _stars(delta: int) -> tuple[list[Pair], list[Pair]]:
    """The two delta-stars a permutation instance opens with, as (center,
    leaf) pairs in reveal order: center 0 with leaves 1..delta, then center
    delta+1 with leaves delta+2..2*delta+1."""
    x, y = 0, delta + 1
    return [(x, 1 + i) for i in range(delta)], [(y, delta + 2 + j) for j in range(delta)]


def build_permutation_instance(delta: int, pi: Optional[Sequence[int]] = None) -> PermutationInstance:
    """Two delta-stars whose rays are joined through couplers along pi.

    Ray i of the first star is coupled to ray pi[i] of the second.  The
    result is bipartite, delta-regular, with delta**3 + delta edges, hence
    delta-edge-colorable; but a coloring that gives coupled rays different
    colors cannot stay within delta colors.
    """
    if delta < 2:
        raise PreconditionViolated("need delta >= 2")
    if pi is None:
        pi = tuple(range(delta))
    pi = tuple(pi)
    if sorted(pi) != list(range(delta)):
        raise PreconditionViolated(f"{pi} is not a permutation of 0..{delta - 1}")
    x_star, y_star = _stars(delta)
    pairs = x_star + y_star
    label = 2 * delta + 2
    n = delta - 1
    for i in range(delta):
        pairs += coupler_edges(n, x_star[i][1], y_star[pi[i]][1], label)
        label += 2 * n
    return PermutationInstance(stream_from_pairs(pairs), pi)


@dataclass
class PermutationGameResult:
    pi: tuple[int, ...]
    report: RunReport
    forced: bool  # used at least delta + 1 colors


def permutation_game(
    delta: int,
    make_alg: Callable[[], OnlineAlgorithm],
    *,
    final_run: Optional[Callable[[EdgeStream], RunReport]] = None,
) -> PermutationGameResult:
    """Observe the star colors, then couple rays so some pair disagrees.

    The probe run only sees the 2*delta star edges; determinism means a
    fresh instance replays the same prefix on the completed stream.  When
    `final_run` is given it produces the report instead (used to show that
    a consumer whose records are recomputed for the completed instance is
    immune).
    """
    if delta < 2:
        raise PreconditionViolated("need delta >= 2")
    x_star, y_star = _stars(delta)
    probe_report = simulate(stream_from_pairs(x_star + y_star), make_alg())
    x_colors = [probe_report.coloring[p] for p in x_star]
    y_colors = [probe_report.coloring[p] for p in y_star]
    if x_colors == y_colors:
        pi = tuple([1, 0] + list(range(2, delta)))
    else:
        pi = tuple(range(delta))
    instance = build_permutation_instance(delta, pi)
    if final_run is not None:
        report = final_run(instance.stream)
    else:
        report = simulate(instance.stream, make_alg())
    return PermutationGameResult(pi, report, report.colors_used >= delta + 1)


def rigidity_check(n: int, *, budget: Optional[int] = None) -> bool:
    """Verify the coupled pair's color rigidity.

    True iff the instance is (n+1)-edge-colorable, no proper (n+1)-coloring
    gives the two pendant edges different colors, and some (n+2)-coloring
    does.  Joining the two pendant leaves into one vertex makes the pendant
    edges adjacent, so a coloring of the joined graph is exactly a
    coloring of the gadget that separates them: exact_color must find no
    (n+1)-coloring of it, and vizing_plus_one (Vizing's theorem) an
    (n+2)-coloring.  With (n+1)**2 + 1 edges on 2n+3 vertices the joined
    graph is overfull, so exact_color refutes it without search.
    """
    stream, e_l, e_r = build_coupled_pair(n)
    g = Graph.from_stream(stream)
    if len(konig_color(g).palette) != n + 1:
        return False
    joined = Graph(g.edges[:-1] + (Edge(e_l.u, e_r.v, e_r.arrival),))
    if exact_color(joined, n + 1, budget=budget) is not None:
        return False
    return len(vizing_plus_one(joined).palette) <= n + 2


def variant_family(bit_length: int) -> list[GreedyVariant]:
    """All 2**bit_length greedy variants driven by distinct bit strings."""
    if bit_length < 0:
        raise PreconditionViolated(f"bit length {bit_length} is negative")
    return [GreedyVariant("".join(bits)) for bits in product("01", repeat=bit_length)]
