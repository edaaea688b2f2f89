"""The earlier chain-orbit count of sphero.complexes, kept as a test oracle.

Every arrow of a chain is a full TreePair.  A twist of any object composes
the isometry into the arrow before it and its inverse into the arrow after
it, and the chain is normalized again by stripping each arrow's decorations
into a strict factor that is composed onto the arrow before.  The only edit
is the name of the entry point, count_cell_orbits_oracle.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations, product

from sphero.complexes import EnumerationCap, _forest_tilings
from sphero.groups import (
    Config,
    LabeledIsometry,
    LeafPartition,
    TreePair,
    compose,
    inverse,
    isometry_element,
)
from sphero.perms import identity_perm


def _strip_strict_factor(arrow: TreePair) -> tuple[TreePair, TreePair]:
    """Write a canonical merge/transformation as (decoration-free map, strict factor)."""
    if any(w != () for _, w in arrow.domain.leaves):
        raise ValueError("arrow is not merge- or transformation-shaped")
    comb = TreePair(
        arrow.config, arrow.domain, arrow.codomain, arrow.leaf_map,
        tuple(LabeledIsometry.identity(arrow.config.q) for _ in arrow.decorations),
    )
    nu = isometry_element(arrow.config, list(arrow.decorations), arrow.domain.n)
    return comb, nu


def _arrow_key(arrow: TreePair) -> tuple:
    return tuple(arrow.image_leaf(i) for i in range(len(arrow.domain.leaves)))


def _chain_key(chain: list[TreePair]) -> tuple:
    return tuple(_arrow_key(a) for a in chain)


def _normalize_chain(chain: list[TreePair]) -> list[TreePair]:
    out = list(chain)
    for i in range(len(out) - 1, -1, -1):
        comb, nu = _strip_strict_factor(out[i])
        out[i] = comb
        if i >= 1:
            out[i - 1] = compose(nu, out[i - 1])
    return out


def _chain_orbit_canonical(config: Config, chain: list[TreePair]) -> tuple:
    """Minimal key of the orbit of a chain under simultaneous strict twists."""
    gens = [p for p in config.sorted_group() if p != identity_perm(config.q)]
    start = _chain_key(chain)
    if not gens:
        return start
    levels = [chain[0].domain.n] + [a.codomain.n for a in chain]
    max_depth = max((len(w) for a in chain for _, w in a.codomain.leaves), default=0)
    words = [w for d in range(max_depth + 1) for w in product(range(config.q), repeat=d)]
    seen = {start: chain}
    frontier = [chain]
    while frontier:
        cur = frontier.pop()
        for level_pos in range(len(levels)):
            m = levels[level_pos]
            for s in range(1, m + 1):
                for v in words:
                    for p in gens:
                        portraits = [LabeledIsometry.identity(config.q) for _ in range(m)]
                        portraits[s - 1] = LabeledIsometry.make(config.q, {v: p})
                        chi = isometry_element(config, portraits, m)
                        new = list(cur)
                        if level_pos >= 1:
                            new[level_pos - 1] = compose(chi, new[level_pos - 1])
                        if level_pos <= len(new) - 1:
                            new[level_pos] = compose(new[level_pos], inverse(chi))
                        new = _normalize_chain(new)
                        key = _chain_key(new)
                        if key not in seen:
                            seen[key] = new
                            frontier.append(new)
    return min(seen)


def _merge_arrows(config: Config, lvl_from: int, lvl_to: int) -> list[TreePair]:
    """Decoration-free merges from lvl_from summands onto lvl_to summands."""
    out = []
    for tiling in _forest_tilings(config, lvl_to, lvl_from):
        for order in permutations(range(lvl_from)):
            cod = sorted(tiling)
            index = {a: i for i, a in enumerate(cod)}
            leaf_map = tuple(index[tiling[order[i]]] for i in range(lvl_from))
            decs = tuple(LabeledIsometry.identity(config.q) for _ in range(lvl_from))
            out.append(TreePair(config, LeafPartition.roots(lvl_from),
                                LeafPartition(lvl_to, tuple(cod)), leaf_map, decs))
    return _dedupe_arrows(out)


def _transformation_arrows(config: Config, lvl: int) -> list[TreePair]:
    out = []
    for sigma in permutations(range(lvl)):
        if sigma == tuple(range(lvl)):
            continue
        part = LeafPartition.roots(lvl)
        decs = tuple(LabeledIsometry.identity(config.q) for _ in range(lvl))
        out.append(TreePair(config, part, part, sigma, decs))
    return out


def _dedupe_arrows(arrows: list[TreePair]) -> list[TreePair]:
    seen = {}
    for a in arrows:
        seen.setdefault(_arrow_key(a), a)
    return [seen[k] for k in sorted(seen)]


def count_cell_orbits_oracle(config: Config, k: int, d: int, max_level: int = 3) -> int:
    """Orbits of nondegenerate d-chains in the nerve of the level-k truncation.

    Chains are enumerated in decoration-free form and identified up to the
    simultaneous strict twists that survive the quotient.  Only the levels
    m = r + j(q-1), j >= 0, are populated: these are the leaf counts of the
    complete prefix codes of a forest of r rooted q-ary trees.
    """
    if k < 1 or d < 0:
        raise ValueError("need k >= 1 and d >= 0")
    if d >= 1 and k > max_level:
        raise EnumerationCap(f"k={k} exceeds the enumeration cap {max_level}")
    populated = list(range(config.r, k + 1, config.q - 1))
    if d == 0:
        return len(populated)
    total = 0
    for seq in combinations_with_replacement(populated[::-1], d + 1):
        arrow_pools = []
        for i in range(d):
            a, b = seq[i], seq[i + 1]
            pool = _transformation_arrows(config, a) if a == b else _merge_arrows(config, a, b)
            arrow_pools.append(pool)
        canonicals = set()
        for combo in product(*arrow_pools):
            chain = _normalize_chain(list(combo))
            canonicals.add(_chain_orbit_canonical(config, chain))
        total += len(canonicals)
    return total
