"""README's examples stay runnable: its one Python block runs as written,
and its one JSON config block loads and validates with no problem."""

import json
import re
from pathlib import Path

from aoisched.model import config_from_dict, validate_config

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(language: str) -> str:
    """The README's one fenced block in `language`."""
    (text,) = re.findall(
        rf"^```{language}\n(.*?)^```$", README.read_text(), re.DOTALL | re.MULTILINE
    )
    return text


def test_readme_examples_run(capsys):
    exec(compile(_block("python"), str(README), "exec"), {})
    assert capsys.readouterr().out  # the example prints its results
    config = config_from_dict(json.loads(_block("json")))
    assert validate_config(config) == []
