"""The README's examples, run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def run_python_blocks(text):
    """Run every ```python block of ``text`` in order in one namespace; each
    block compiles at its own lines of the file, so a traceback names them."""
    blocks = [(text.count("\n", 0, m.start(1)), m.group(1))
              for m in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S)]
    namespace = {}
    for line, block in blocks:
        exec(compile("\n" * line + block, str(README), "exec"), namespace)
    return len(blocks)


def test_readme_examples_run():
    # the examples assert what they claim: the H_plus spread, the Noether drift
    assert run_python_blocks(README.read_text()) == 2


def test_an_example_that_imports_a_removed_name_fails():
    # newton_solve left the package; an example that still imports it fails
    text = README.read_text().replace("from thermint import (",
                                      "from thermint import (newton_solve, ", 1)
    with pytest.raises(ImportError, match="newton_solve"):
        run_python_blocks(text)
