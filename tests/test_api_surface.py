"""Every public function, class and method of the library is used by it,
and every module-level constant is read by it.

A name that occurs only at its own definition is code that nothing in the
package calls. A re-export in ``__init__`` is not a use: it only makes a
name importable. Names are counted as tokens, so a method counts as used
when any code outside ``__init__`` says its name. A constant (an upper
case name bound at module level) counts as read when code outside
``__init__`` loads it, as a name or an attribute; an import is no read.
"""

import ast
import tokenize
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pls_lab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

_DEFS = (ast.FunctionDef, ast.ClassDef)


def _public_definitions(path: Path):
    """Module-level functions and classes, and the methods of those
    classes, whose names do not start with an underscore."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, _DEFS) or node.name.startswith("_"):
            continue
        yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def _name_counts() -> Counter:
    counts = Counter()
    for path in MODULES:
        with tokenize.open(path) as fh:
            counts.update(tok.string for tok in tokenize.generate_tokens(fh.readline)
                          if tok.type == tokenize.NAME)
    return counts


def test_every_public_definition_is_used_in_the_package():
    counts = _name_counts()
    unused = sorted(f"{path.stem}.{name}" for path in MODULES
                    for name in _public_definitions(path)
                    if counts[name.rpartition(".")[2]] < 2)
    assert unused == []


def _constants(path: Path):
    """Upper case names bound at the module level of path."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name) and n.id.isupper())


def _reads() -> set:
    reads = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    return reads


def test_every_module_constant_is_read_in_the_package():
    reads = _reads()
    unread = sorted(f"{path.stem}.{name}" for path in MODULES for name in _constants(path)
                    if name not in reads)
    assert unread == []
