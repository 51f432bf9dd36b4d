"""The README's config examples are accepted by the config loader."""

import re
from pathlib import Path

import pytest

from gpops.config import load_config
from gpops.verify import VerificationTolerances

README = Path(__file__).resolve().parent.parent / "README.md"


def _yaml_block(intro):
    # the first ```yaml fence after the line that introduces it
    text = README.read_text(encoding="utf-8")
    match = re.search(re.escape(intro) + r"\s*```yaml\n(.*?)```", text, re.S)
    assert match, f"README has no yaml block after {intro!r}"
    return match.group(1)


@pytest.mark.parametrize("extras", ["`verify` extras:", "`solve` extras:"])
def test_readme_config_examples_load(tmp_path, extras):
    path = tmp_path / "readme.yaml"
    path.write_text(_yaml_block("Common keys:") + _yaml_block(extras), encoding="utf-8")
    cfg = load_config(path)
    if extras.startswith("`verify`"):
        # the block says it shows the defaults
        assert cfg.tolerances == VerificationTolerances()
    else:
        assert cfg.problem is not None
