"""Orbit search for the canonical form of a labeled tiling.

A test oracle for ``sphero.complexes.canonical_block``: it walks the whole
orbit of a block under single-label moves at internal vertices, applying each
move through ``LabeledIsometry.apply_word``, and returns the minimum it saw.
It shares no code with the bottom-up minimum in the library.
"""

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
