"""The cross-checks stay independent of the word kernel they check."""

import ast
import inspect
from pathlib import Path

from qcsp import implsearch

ROOT = Path(__file__).resolve().parents[1]


def _imports_words(path: Path) -> bool:
    """Whether the module at ``path`` imports ``qcsp.words`` in any form."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == "words" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "words":
                return True
            if any(alias.name == "words" for alias in node.names):
                return True
    return False


def test_references_do_not_use_the_word_kernel():
    # verify's definitional evaluator, its brute-force implementation search
    # and perfbench's reference answers are what the word-built tables are
    # checked against
    for path in (ROOT / "src" / "qcsp" / "verify.py", ROOT / "perfbench" / "reference.py"):
        assert not _imports_words(path), path
    tree = ast.parse(inspect.getsource(implsearch.check_implementation))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not names & {"table_word", "patterns"}, names
