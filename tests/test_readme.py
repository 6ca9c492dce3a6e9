"""README's library examples and its config example run as written."""

import pathlib
import re

import pytest

from lorafix.cli import main

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


@pytest.mark.parametrize("argv", [["airtime"], ["alpha-bounds"], ["dutycycle-grid"], ["solve"]])
def test_config_example_loads(tmp_path, capsys, argv):
    # Every key the example lists must be one the loader accepts.
    (doc,) = re.findall(r"^```json\n(.*?)^```$", README.read_text(), re.M | re.S)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc)
    assert main([*argv, "--config", str(cfg)]) == 0, capsys.readouterr().err
