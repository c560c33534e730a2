"""Session-wide checks of the test suite."""

import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _git(*args):
    try:
        out = subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *args],
                             capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def _tree_status():
    """``git status --porcelain`` of the repository holding these tests,
    or None without git or without a work tree of their own."""
    top = _git("rev-parse", "--show-toplevel")
    if top is None or pathlib.Path(top.strip()).resolve() != ROOT:
        return None
    return _git("status", "--porcelain", "--untracked-files=all")


@pytest.fixture(scope="session", autouse=True)
def tree_left_as_found():
    """Fail the run if a test wrote into the repository's tree: what a
    test makes belongs under ``tmp_path``."""
    before = _tree_status()
    yield
    after = None if before is None else _tree_status()
    if after is not None and after != before:
        old, new = set(before.splitlines()), set(after.splitlines())
        pytest.fail("tests changed the work tree:\n" + "\n".join(
            ["+ " + ln for ln in sorted(new - old)]
            + ["- " + ln for ln in sorted(old - new)]), pytrace=False)
