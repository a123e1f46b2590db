"""Shared test set-up."""

import pytest


@pytest.fixture(autouse=True, scope="session")
def class_cache_home(tmp_path_factory):
    # The enumerated classes are stored under $XDG_CACHE_HOME: point it at a
    # directory of the session's own, so that no test reads or writes the
    # user's cache and a test run always pays for (and checks) a cold build.
    home = tmp_path_factory.mktemp("xdg-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(home))
        yield home
