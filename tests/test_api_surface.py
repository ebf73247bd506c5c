"""Every public top-level function and class of the library is used by it.

A name that occurs only at its own definition is code that nothing in the
package calls; a name re-exported by ``__init__`` counts as used.
"""

import ast
import tokenize
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pls_lab"


def _public_definitions(path: Path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name


def _name_counts() -> Counter:
    counts = Counter()
    for path in SRC.glob("*.py"):
        with tokenize.open(path) as fh:
            counts.update(tok.string for tok in tokenize.generate_tokens(fh.readline)
                          if tok.type == tokenize.NAME)
    return counts


def test_every_public_definition_is_used_in_the_package():
    counts = _name_counts()
    unused = sorted(f"{path.stem}.{name}" for path in SRC.glob("*.py")
                    for name in _public_definitions(path) if counts[name] < 2)
    assert unused == []
