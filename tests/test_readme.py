"""The README's python blocks run against the package as documented."""

import re
import textwrap
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # dedented, since one block sits under a list item, and run in one
    # namespace, since the API notes reuse the quick start's names
    fence = "`" * 3
    text = README.read_text()
    blocks = re.findall(r"^( *)%spython\n(.*?)^\1%s" % (fence, fence), text, re.M | re.S)
    assert len(blocks) >= 2, "README python blocks not found"
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _, block in blocks:
            exec(textwrap.dedent(block), namespace)
