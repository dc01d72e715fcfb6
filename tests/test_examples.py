"""The shipped examples: importability and (for the fast ones) execution."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"examples_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ALL_EXAMPLES = [p.stem for p in sorted(EXAMPLES.glob("*.py"))]


class TestExamples:
    def test_at_least_the_required_three_exist(self):
        assert "quickstart" in ALL_EXAMPLES
        assert len(ALL_EXAMPLES) >= 3

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_importable_with_main(self, name):
        module = _load(name)
        assert callable(module.main)
        assert module.__doc__  # every example documents itself

    def test_quickstart_runs(self, capsys):
        _load("quickstart").main()
        out = capsys.readouterr().out
        assert "overhead" in out and "early-bird" in out

    def test_noise_study_runs(self, capsys):
        _load("noise_study").main()
        out = capsys.readouterr().out
        assert "uniform" in out and "gaussian" in out
