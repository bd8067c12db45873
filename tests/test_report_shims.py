"""The canonical report helper stays free of deprecation warnings.

The deprecated ``report_on_*`` shims are gone; ``full_deployment_report`` is
the supported entry point and must not warn.
"""

import warnings

import pytest


@pytest.fixture()
def frames(prepared_data):
    return prepared_data["preprocessor"](prepared_data["test_session"].frames[:2])


class TestDeprecatedReportShims:
    def test_canonical_helper_does_not_warn(self, integer_network, frames):
        """full_deployment_report is not deprecated and must stay silent."""
        from repro.deploy import full_deployment_report

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = full_deployment_report(integer_network, frames)
        assert set(report.entries) == {"STM32", "IBEX", "MAUPITI"}
