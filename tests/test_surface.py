"""The package keeps only what its modes run: every name in a module's
__all__, and every private module-level function, class and constant, is
read somewhere in the package beyond its own definition.  A read is a name
or attribute load anywhere in snse, matched by name."""

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


def _package():
    """Each module's syntax tree, and the count of reads of every name."""
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
    return trees, reads


def test_every_exported_name_is_read_in_the_package():
    trees, reads = _package()
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


def test_every_private_helper_is_read_in_the_package():
    # a helper that no code reads any more is an orphan of a cut
    trees, reads = _package()
    defined = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [getattr(node.target, "id", None)]
            else:
                continue
            defined |= {(module, name) for name in names
                        if name and name.startswith("_")
                        and not name.startswith("__")}
    assert defined
    assert {(module, name) for module, name in defined if not reads[name]} == set()
