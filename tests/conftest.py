"""Fixtures shared across the test packages."""

import pathlib
import shutil

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def repro_copy(tmp_path):
    """Factory copying ``src/repro`` into ``tmp_path/<name>/repro``.

    ``make(name, edit="apps/s3d/model.py")`` also appends a comment line
    to that file of the copy, the smallest edit a source tree can take.
    Returns ``tmp_path/<name>``, ready to go on ``PYTHONPATH``.
    """

    def make(name, edit=None):
        root = tmp_path / name
        shutil.copytree(
            SRC / "repro", root / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        if edit is not None:
            with open(root / "repro" / edit, "a") as fh:
                fh.write("# edited\n")
        return root

    return make
