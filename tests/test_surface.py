"""The package keeps only what its modes run: every name in a module's
__all__ is read somewhere in the package beyond its own definition.  A
read is a name or attribute load anywhere in snse, matched by name."""

import ast
import collections
from pathlib import Path

import snse

# exported names that no module reads, each kept for its reason
UNREAD = {
    # the documented reader of the snapshot format that write_snapshot writes
    ("cli", "read_snapshot"),
    # the documented inverses of vector_synthesis and scalar_synthesis; the
    # benchmark's transform counts name them
    ("harmonics", "vector_analysis"),
    ("harmonics", "scalar_analysis"),
}


def test_every_exported_name_is_read_in_the_package():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(Path(snse.__file__).parent.glob("*.py"))}
    reads = collections.Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[node.id] += 1
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                reads[node.attr] += 1
    unread = set()
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__"
                            for t in node.targets)):
                unread |= {(module, name)
                           for name in ast.literal_eval(node.value)
                           if not reads[name]}
    assert unread == UNREAD
