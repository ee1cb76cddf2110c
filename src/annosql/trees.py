"""Bracketed constituency trees and lowest-common-ancestor depth.

Trees are consumed, not produced: a question's line may carry one
PTB-style bracketed tree as its `tree` string.
"""

from dataclasses import dataclass


class TreeParseError(ValueError):
    pass


@dataclass(frozen=True)
class ConstituencyTree:
    """Leaf tokens, left to right, each with its root path: the ids of the
    nodes from the root down to the leaf itself."""

    tokens: tuple
    paths: tuple

    def __len__(self):
        return len(self.tokens)

    def lca_depth(self, i, j):
        """Depth (root = 0) of the lowest common ancestor of leaves i and j."""
        if not (0 <= i < len(self.paths) and 0 <= j < len(self.paths)):
            raise IndexError(f"leaf index out of range: {i}, {j}")
        depth = -1
        for a, b in zip(self.paths[i], self.paths[j]):
            if a != b:
                break
            depth += 1
        return depth


def parse_bracketed(line):
    """Parse one bracketed tree like "(S (NP (DT the) (NN dog)) (VP barks))".

    The first atom after an opening paren is the label; remaining bare atoms
    become leaf tokens (each its own node, one level below). A node's id is
    the position of its label or token among the atoms. One left-to-right
    pass keeps a stack of open nodes, so nesting depth is not limited, and
    a leaf's root path is the ids on the stack when the leaf is read.
    """
    atoms = line.replace("(", " ( ").replace(")", " ) ").split()
    if not atoms:
        raise TreeParseError("empty tree line")
    tokens, paths = [], []
    stack = []  # open nodes: (id, label, leaf count when opened)
    pos = 0
    while pos < len(atoms):
        atom = atoms[pos]
        if not stack and pos:
            raise TreeParseError("trailing content after tree")
        if atom == "(":
            pos += 1
            if pos >= len(atoms) or atoms[pos] in "()":
                raise TreeParseError(f"missing label at token {pos}")
            stack.append((pos, atoms[pos], len(tokens)))
        elif not stack:
            raise TreeParseError(f"expected '(' at token {pos}")
        elif atom == ")":
            if stack[-1][2] == len(tokens):
                # "(NN)" has no content; treat the label itself as a leaf token
                tokens.append(stack[-1][1])
                paths.append(tuple(node for node, _, _ in stack))
            stack.pop()
        else:
            tokens.append(atom)
            paths.append(tuple(node for node, _, _ in stack) + (pos,))
        pos += 1
    if stack:
        raise TreeParseError("unbalanced brackets")
    # unwrap singleton wrappers like (TOP (S ...)) to keep depths meaningful
    top = 0
    while all(len(p) > top + 2 for p in paths) and len({p[top + 1] for p in paths}) == 1:
        top += 1
    return ConstituencyTree(tuple(tokens), tuple(p[top:] for p in paths))
