import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leftover_children():
    """Fail any test that leaves a multiprocessing child running or unjoined."""
    yield
    leftover = multiprocessing.active_children()
    for child in leftover:
        child.terminate()
        child.join()
    if leftover:
        pytest.fail(f"test left {len(leftover)} child process(es) behind")
