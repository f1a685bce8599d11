import pytest


@pytest.fixture(autouse=True)
def dataset_cache(tmp_path_factory, monkeypatch):
    """A dataset cache of the test's own, outside ``tmp_path``, whose listing tests pin.

    So no test reads or writes the user's cache, and every test starts on an empty one.
    """
    cache = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache
