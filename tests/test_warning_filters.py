"""The suite's warning filters: project warnings fail, failing property tests are reported."""
from pathlib import Path

import fedvarp_sim

TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"


def test_failing_property_test_is_a_failure_and_project_warnings_still_fail(pytester, monkeypatch):
    # Run under the project's own pytest settings and conftest, once as
    # configured and once with a command-line -W error, which overrides
    # the ini filters. Reporting a falsifying example makes hypothesis
    # import libcst, which warns on import; that warning must not turn
    # the failure into an internal error.
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    pytester.makeconftest((TESTS / "conftest.py").read_text(encoding="utf-8"))
    monkeypatch.setenv("PYTHONPATH", str(Path(fedvarp_sim.__file__).resolve().parents[1]))
    pytester.makepyfile(
        test_inner="""
        import warnings

        from hypothesis import given, settings
        from hypothesis import strategies as st


        @settings(database=None)
        @given(st.integers())
        def test_property_fails(x):
            assert x < 0


        def test_project_deprecation_fails():
            warnings.warn("deprecated project call", DeprecationWarning)


        def test_passes():
            pass
        """
    )
    for extra in ((), ("-W", "error")):
        result = pytester.runpytest_subprocess("-p", "no:cacheprovider", *extra, "test_inner.py")
        result.assert_outcomes(failed=2, passed=1)
        assert result.ret == 1
        out = result.stdout.str() + result.stderr.str()
        assert "INTERNALERROR" not in out
        assert "Falsifying example" in out
        assert "DeprecationWarning: deprecated project call" in out
