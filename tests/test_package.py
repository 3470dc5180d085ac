import ast
import re
import types
from pathlib import Path

import maxplus


def test_all_lists_exactly_the_public_imports():
    tree = ast.parse(Path(maxplus.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert len(set(maxplus.__all__)) == len(maxplus.__all__)
    assert set(maxplus.__all__) == set(imported)
    for name in maxplus.__all__:
        assert not isinstance(getattr(maxplus, name), types.ModuleType), name


def test_the_readme_documents_every_exported_name():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = [name for name in maxplus.__all__ if not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert missing == []


def test_the_removed_names_stay_gone():
    # no verb, generator, verifier or acceptance test read these; visualize
    # still asserts its own postcondition (spectral._check_visualized), and
    # Tarjan's search is the tests' oracle (oracles.tarjan).  A matrix holds
    # int rows, so nothing scales Fraction rows to ints and back, and the
    # generators draw ints
    removed = {
        "spectral": ["is_visualized", "is_strictly_visualized", "_visualized"],
        "matrix": ["transpose", "_scaled", "_unscaled"],
        "csr": ["_csr_entry"],
        "extremal": ["_rand_fraction", "_rand_margin", "_hamiltonian_entries"],
        "digraph": ["to_dot", "_tarjan", "_scc_decomposition"],
        "semiring": ["UNIT", "oplus", "otimes"],
        "bounds": ["compare_bounds", "BoundComparison"],
    }
    for module, names in removed.items():
        for name in names:
            assert not hasattr(maxplus, name), name
            assert not hasattr(getattr(maxplus, module), name), f"{module}.{name}"
