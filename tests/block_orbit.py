"""Oracles for canonical blocks and the splitting records built from them.

``orbit_canonical_block`` is a test oracle for
``sphero.complexes.canonical_block``: it walks the whole orbit of a block
under single-label moves at internal vertices, applying each move through
``LabeledIsometry.apply_word``, and returns the minimum it saw.  It shares no
code with the bottom-up minimum in the library.

``split_records_oracle`` is the enumeration that ``split_records`` replaced:
it canonicalises every labeling of every tiling of every part.
"""

from itertools import permutations, product

from sphero.complexes import SplitRecord, _set_partitions, canonical_block, tilings
from sphero.groups import Config, LabeledIsometry
from sphero.perms import identity_perm


def _block_internal_vertices(block):
    out = set()
    for w, _ in block:
        for i in range(len(w)):
            out.add(w[:i])
    return sorted(out)


def orbit_canonical_block(config: Config, block):
    """Minimal representative of the block under the D-admissible isometry action.

    Only labels at internal vertices of the tiling move the tiles, so the
    orbit is closed under single-label moves there.
    """
    if len(block) == 1:
        return block
    gens = [p for p in config.sorted_group() if p != identity_perm(config.q)]
    if not gens:
        return block
    seen = {block}
    frontier = [block]
    while frontier:
        cur = frontier.pop()
        for v in _block_internal_vertices(cur):
            for p in gens:
                iso = LabeledIsometry.make(config.q, {v: p})
                moved = tuple(sorted((iso.apply_word(w), t) for w, t in cur))
                if moved not in seen:
                    seen.add(moved)
                    frontier.append(moved)
    return min(seen)


def split_records_oracle(config: Config, n: int) -> list:
    """All splitting classes with fewer than n blocks, each block canonicalised by ``canonical_block``."""
    out = set()
    for part in _set_partitions(list(range(1, n + 1))):
        if len(part) >= n:
            continue  # the all-singletons partition is the identity, not a split
        block_choices = []
        for group in part:
            group = sorted(group)
            if len(group) == 1:
                block_choices.append([(((), group[0]),)])
                continue
            choices = {
                canonical_block(config, tuple(sorted(zip(tiling, perm))))
                for tiling in tilings(config.q, len(group))
                for perm in permutations(group)
            }
            block_choices.append(sorted(choices))
        for combo in product(*block_choices):
            out.add(SplitRecord(config, n, tuple(sorted(combo))))
    return sorted(out, key=lambda r: (r.k, r.object_id()))
