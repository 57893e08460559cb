"""Hypothesis settings for the tier-1 suite, and one third-party import.

Under CI Hypothesis loads its own ``ci`` profile (derandomized draws, no
deadline, no example database).  This file replaces it with a child that
drops only the shrink phase: every test still runs every example, drawn
as before, but a failure is reported as it was first drawn rather than
shrunk.  A kernel fault otherwise shrinks for minutes: with the packed
product's low digits one slot short, one test took 307 s to report, and
2.6 s without shrinking.  ``tests/run_mutants.py`` runs its mutants the
same way.

Where ``libcst`` is installed, Hypothesis's failure report imports
``libcst.metadata.type_inference_provider``, which warns on import
(``mypy_extensions.TypedDict`` is deprecated).  Under ``python -W error``
that warning, raised inside pytest's report hook, aborts the whole session
at the first failing Hypothesis test.  The module is imported here once,
with that warning ignored; every other warning, qcong's own included,
still errors."""

import warnings

from hypothesis import Phase, settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst.metadata.type_inference_provider  # noqa: F401
    except ImportError:
        pass

if settings.get_current_profile_name() == "ci":
    ci = settings.get_profile("ci")
    settings.register_profile("ci-no-shrink", ci, phases=[
        phase for phase in ci.phases if phase is not Phase.shrink])
    settings.load_profile("ci-no-shrink")
