"""The three tier-1 tests that fail by design: acceptance criteria 3, 4 and
10, the cross-variant agreement bands (README.md).  CI's tier-1 step fails on
any other failure, and ``mutants.py`` deselects these.  pytest does not
collect this file."""
EXPECTED_FAILURES = (
    "tests/test_acceptance.py::TestCriterion3Tracking::test_final_tracking_and_mode_agreement",
    "tests/test_acceptance.py::TestCriterion4ControllerAgreement"
    "::test_input_agreement_after_transient",
    "tests/test_acceptance.py::TestCriterion10Robustness::test_disturbed_and_undisturbed",
)
