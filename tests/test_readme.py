"""README's library examples run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_library_examples_run():
    # The blocks build on each other (the timing-error block uses the
    # quickstart's numpy import), so they share one namespace.
    blocks = _python_blocks()
    namespace = {}
    for i, code in enumerate(blocks[:3]):
        exec(compile(code, f"README.md python block {i + 1}", "exec"), namespace)
    assert namespace["time_on_air"](namespace["p"]) == 2.465792


def test_experiments_block_compiles():
    # At paper scale it runs for seconds, so it is only compiled.
    code = _python_blocks()[3]
    assert "sweep_emax" in code
    compile(code, "README.md python block 4", "exec")
