"""Exact machinery for almost automorphism groups of forests of rooted trees.

Tree-pair arithmetic with finitely supported labels, generalized posets with
Morse bookkeeping, decorated disjoint-support complexes and their splitting
posets, integral homology certificates via Smith normal form, and equivariant
cell-trading inventories.
"""

__version__ = "0.1.0"
