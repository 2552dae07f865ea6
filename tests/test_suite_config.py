"""The suite's own pytest configuration: under ``filterwarnings = error`` a
failing property test is reported as one failure, and the tests after it
still run."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_does_not_stop_the_run(pytester):
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(test_property="""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_property.py")
    result.assert_outcomes(failed=1, passed=1)
