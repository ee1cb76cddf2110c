"""Bracketed constituency trees and lowest-common-ancestor depth.

Trees are consumed, not produced: input is one PTB-style bracketed tree per
line, aligned by line number to the question file.
"""

from dataclasses import dataclass, field


class TreeParseError(ValueError):
    pass


@dataclass
class TreeNode:
    label: str
    children: list = field(default_factory=list)
    token: str | None = None

    @property
    def is_leaf(self):
        return self.token is not None


class ConstituencyTree:
    """Rooted ordered tree whose leaves align 1:1 with question tokens."""

    def __init__(self, root):
        self.root = root
        self._paths = []
        self.leaves = []
        stack = [(root, (root,))]
        while stack:
            node, path = stack.pop()
            if node.is_leaf:
                self.leaves.append(node)
                self._paths.append(path)
            else:
                for child in reversed(node.children):
                    stack.append((child, path + (child,)))
        # DFS with reversed children yields leaves left to right
        if not self.leaves:
            raise TreeParseError("tree has no leaves")

    def __len__(self):
        return len(self.leaves)

    @property
    def tokens(self):
        return [leaf.token for leaf in self.leaves]

    def lca_depth(self, i, j):
        """Depth (root = 0) of the lowest common ancestor of leaves i and j."""
        if not (0 <= i < len(self._paths) and 0 <= j < len(self._paths)):
            raise IndexError(f"leaf index out of range: {i}, {j}")
        pi, pj = self._paths[i], self._paths[j]
        depth = -1
        for a, b in zip(pi, pj):
            if a is not b:
                break
            depth += 1
        return depth


def parse_bracketed(line):
    """Parse one bracketed tree like "(S (NP (DT the) (NN dog)) (VP barks))".

    The first atom after an opening paren is the label; remaining bare atoms
    become leaf tokens (each its own node, one level below).
    """
    tokens = line.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise TreeParseError("empty tree line")
    pos = 0

    def parse_node():
        nonlocal pos
        if tokens[pos] != "(":
            raise TreeParseError(f"expected '(' at token {pos}")
        pos += 1
        if pos >= len(tokens) or tokens[pos] in "()":
            raise TreeParseError(f"missing label at token {pos}")
        node = TreeNode(label=tokens[pos])
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            if tokens[pos] == "(":
                node.children.append(parse_node())
            else:
                node.children.append(TreeNode(label="", token=tokens[pos]))
                pos += 1
        if pos >= len(tokens):
            raise TreeParseError("unbalanced brackets")
        pos += 1
        if not node.children:
            # "(NN)" has no content; treat the label itself as a leaf token
            return TreeNode(label="", token=node.label)
        return node

    root = parse_node()
    if pos != len(tokens):
        raise TreeParseError("trailing content after tree")
    # unwrap singleton wrappers like (TOP (S ...)) to keep depths meaningful
    while not root.is_leaf and len(root.children) == 1 and not root.children[0].is_leaf:
        root = root.children[0]
    return ConstituencyTree(root)


def load_trees(path):
    """One tree per line; blank lines mean "no tree for this question"."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            out.append(parse_bracketed(line) if line else None)
    return out
