"""Permutations of {0..q-1} as image tuples, and subgroup closure.

A permutation p maps i to p[i].  Serialized form is the 1-based image word:
the swap on two letters is "21".
"""

from __future__ import annotations

from itertools import permutations

Perm = tuple[int, ...]


def identity_perm(q: int) -> Perm:
    return tuple(range(q))


def is_perm(p: Perm) -> bool:
    return sorted(p) == list(range(len(p)))


def compose_perms(p1: Perm, p2: Perm) -> Perm:
    """p1 after p2: i -> p1[p2[i]]."""
    return tuple(p1[p2[i]] for i in range(len(p1)))


def invert_perm(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def perm_to_word(p: Perm) -> str:
    """1-based image word, e.g. (1,0) -> "21"."""
    return "".join(str(i + 1) for i in p)


def word_to_perm(word: str) -> Perm:
    p = tuple(int(ch) - 1 for ch in word)
    if not is_perm(p):
        raise ValueError(f"not a permutation word: {word!r}")
    return p


def close_under_group_ops(gens: list[Perm] | tuple[Perm, ...], q: int) -> frozenset[Perm]:
    """Subgroup of Sym(q) generated by gens, by breadth-first search over right products.

    A generator already in the group is skipped, so each kept one at least
    doubles it and at most log2(q!) are kept.  Products give the inverses, as
    the group is finite.
    """
    for g in gens:
        if len(g) != q or not is_perm(g):
            raise ValueError(f"generator {g} is not a permutation of {q} letters")
    elems, kept = {identity_perm(q)}, []
    for g in gens:
        if g in elems:
            continue
        kept.append(g)
        queue = list(elems)
        for x in queue:  # the queue grows while it is read
            for k in kept:
                y = compose_perms(x, k)
                if y not in elems:
                    elems.add(y)
                    queue.append(y)
    return frozenset(elems)


def full_symmetric(q: int) -> frozenset[Perm]:
    return frozenset(permutations(range(q)))
