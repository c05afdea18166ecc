"""The README's examples run as written: every ``python`` code block of
README.md, in order, in one namespace, so that a later block may use the
names an earlier one made.  A block that drifts from the API fails here,
and its traceback names the README line."""

import re
from pathlib import Path

from ctxnoise.harness import _KEY_TYPES, _SYN_KEY_TYPES

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[tuple[int, str]]:
    """The 0-based line of each ``python`` block's fence, and its code."""
    return [
        (text.count("\n", 0, m.start()), m.group(1))
        for m in re.finditer(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    ]


def test_readme_python_blocks_run_in_order():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 3
    namespace: dict = {"__name__": "readme"}
    for fence, code in blocks:
        # padded so that the code's line numbers are the README's
        exec(compile("\n" * (fence + 1) + code, str(README), "exec"), namespace)


def test_config_keys_block_names_every_key():
    # the block is hand-written; the key tables come from the config fields
    block = re.search(r"^### Config keys\n\n```\n(.*?)^```$", README.read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE)
    lines = block.group(1).splitlines()
    top = {w for line in lines if not line.startswith("synthetic.") for w in re.findall(r"\w+", line.split("#")[0])}
    synthetic = {w for line in lines if line.startswith("synthetic.") for w in re.findall(r"\w+", line)}
    assert set(_KEY_TYPES) <= top
    assert set(_SYN_KEY_TYPES) <= synthetic
