"""The README's examples work: its configs load and its library quick start runs."""

import re
from pathlib import Path

import pytest

from gpops.config import load_config
from gpops.verify import VerificationTolerances

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(intro, language="yaml"):
    # the first fenced block in ``language`` after the line that introduces it
    text = README.read_text(encoding="utf-8")
    match = re.search(re.escape(intro) + r"\s*```" + language + r"\n(.*?)```", text, re.S)
    assert match, f"README has no {language} block after {intro!r}"
    return match.group(1)


@pytest.mark.parametrize("extras", ["`verify` extras:", "`solve` extras:"])
def test_readme_config_examples_load(tmp_path, extras):
    path = tmp_path / "readme.yaml"
    path.write_text(_block("Common keys:") + _block(extras), encoding="utf-8")
    cfg = load_config(path)
    if extras.startswith("`verify`"):
        # the block says it shows the defaults
        assert cfg.tolerances == VerificationTolerances()
    else:
        assert cfg.problem is not None


def test_readme_library_quick_start_runs():
    code = compile(_block("## Library quick start", "python"), "README quick start", "exec")
    namespace = {}
    exec(code, namespace)  # the block asserts that verification passed
    assert namespace["post"].mean.shape == (65,)
