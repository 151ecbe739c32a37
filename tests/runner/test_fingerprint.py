"""Cache-key derivation: one digest of the source tree, the experiment
id and the fault plan; an edit to any source file misses."""

import hashlib
import importlib
import inspect
import json
import pathlib

import pytest

from repro.core.registry import driver_module
from repro.runner import (
    NO_FAULTS,
    cache_key,
    cache_key_for,
    fault_plan_hash,
    source_digest,
)
from repro.runner.fingerprint import PACKAGE_ROOT, canonical_json, sha256_text

BASE = dict(tree="ab" * 32, fault_hash=NO_FAULTS)


def _key_after_edit(repro_copy, edit):
    """fig05's key over a copy of the tree with ``edit`` touched."""
    tree = source_digest(repro_copy("edited", edit=edit) / "repro")
    return cache_key("fig05", tree=tree, fault_hash=NO_FAULTS)


@pytest.fixture
def pristine_key(repro_copy):
    tree = source_digest(repro_copy("pristine") / "repro")
    return cache_key("fig05", tree=tree, fault_hash=NO_FAULTS)


def test_identical_inputs_identical_key():
    assert cache_key("fig05", **BASE) == cache_key("fig05", **BASE)


def test_exp_id_in_key():
    assert cache_key("fig05", **BASE) != cache_key("fig06", **BASE)


def test_digest_does_not_depend_on_the_install_location(repro_copy):
    assert source_digest(repro_copy("pristine") / "repro") == source_digest()


def test_driver_source_edit_misses(repro_copy, pristine_key):
    edited = _key_after_edit(repro_copy, "experiments/fig05_dgemm.py")
    assert edited != pristine_key


def test_machine_config_swap_misses(repro_copy, pristine_key):
    assert _key_after_edit(repro_copy, "machine/configs.py") != pristine_key


def test_sweep_change_misses(repro_copy, pristine_key):
    assert _key_after_edit(repro_copy, "experiments/common.py") != pristine_key


def test_version_bump_misses(repro_copy, pristine_key):
    assert _key_after_edit(repro_copy, "version.py") != pristine_key


@pytest.mark.parametrize(
    "edit", ["apps/s3d/model.py", "core/validate.py", "mpi/costmodels.py"]
)
def test_model_or_shape_check_edit_misses(repro_copy, pristine_key, edit):
    # Neither file is fig05's driver: the key covers the whole tree.
    assert _key_after_edit(repro_copy, edit) != pristine_key


def test_source_digest_covers_every_py_file(repro_copy):
    root = repro_copy("tree") / "repro"
    before = source_digest(root)
    (root / "README.txt").write_text("not source\n")
    (root / "__pycache__").mkdir()
    (root / "__pycache__" / "x.cpython-311.pyc").write_bytes(b"\0")
    source_digest.cache_clear()
    assert source_digest(root) == before  # only *.py files count
    (root / "apps" / "extra.py").write_text("")
    source_digest.cache_clear()
    added = source_digest(root)
    assert added != before  # a new, even empty, module counts
    (root / "apps" / "extra.py").rename(root / "apps" / "other.py")
    source_digest.cache_clear()
    assert source_digest(root) not in (before, added)  # so does its path


def _rglob_digest(root):
    """The reference digest: ``pathlib.rglob`` over ``*.py``, sorted by
    relative POSIX path, each file's path then its length-prefixed bytes."""
    root = pathlib.Path(root)
    digest = hashlib.sha256()
    for rel, path in sorted(
        (p.relative_to(root).as_posix(), p) for p in root.rglob("*.py")
    ):
        data = path.read_bytes()
        digest.update(rel.encode("utf-8") + b"\0")
        digest.update(len(data).to_bytes(8, "big") + data)
    return digest.hexdigest()


def test_source_digest_equals_the_rglob_reference_on_the_package():
    assert source_digest() == _rglob_digest(PACKAGE_ROOT)


def test_source_digest_equals_the_rglob_reference_on_a_small_tree(tmp_path):
    root = tmp_path / "pkg"
    (root / "sub" / "deeper").mkdir(parents=True)
    (root / "sub" / "__pycache__").mkdir()
    (root / "__init__.py").write_text("x = 1\n")
    (root / "a_b.py").write_text("")
    (root / "sub" / "__init__.py").write_text("# sub\n")
    (root / "sub" / "z.py").write_bytes(b"\xff\x00 not utf-8")
    (root / "sub" / "deeper" / "m.py").write_text("y = 2\n")
    (root / "sub" / "notes.txt").write_text("not source\n")
    (root / "sub" / "__pycache__" / "z.cpython-311.pyc").write_bytes(b"\0pyc")
    # "a_b.py" sorts after "a/..." but before "sub/...": a wrong order or
    # a non-POSIX relative path changes the digest.
    (root / "a").mkdir()
    (root / "a" / "k.py").write_text("k = 3\n")
    assert source_digest(root) == _rglob_digest(root)
    assert source_digest(str(root)) == _rglob_digest(root)


def test_driver_source_is_module_source():
    # The module the registry names for fig05 is a file the digest reads.
    module = importlib.import_module(driver_module("fig05"))
    path = pathlib.Path(inspect.getsourcefile(module)).resolve()
    assert PACKAGE_ROOT in path.parents and path.suffix == ".py"
    src = path.read_text()
    assert '@register("fig05"' in src and "def shape_checks" in src


def test_machine_blob_covers_both_modes(repro_copy, pristine_key):
    from repro.machine.configs import xt4

    sn, vn = xt4("SN"), xt4("VN")
    assert sn != vn and sn.node.processor and vn.node.processor
    # The factories and the mode semantics are both digested source.
    for name, edit in (("configs", "machine/configs.py"), ("modes", "machine/modes.py")):
        tree = source_digest(repro_copy(name, edit=edit) / "repro")
        assert cache_key("fig05", tree=tree, fault_hash=NO_FAULTS) != pristine_key


def test_sweep_blob_matches_common_constants(repro_copy, pristine_key):
    from repro.experiments.common import GLOBAL_SWEEP

    common = repro_copy("sweep") / "repro" / "experiments" / "common.py"
    text = common.read_text()
    literal = repr(tuple(GLOBAL_SWEEP))
    assert literal in text  # the constant is written in the digested file
    common.write_text(text.replace(literal, repr(tuple(GLOBAL_SWEEP) + (2048,)), 1))
    tree = source_digest(common.parents[1])
    assert cache_key("fig05", tree=tree, fault_hash=NO_FAULTS) != pristine_key


def test_fault_plan_attach_misses():
    edited = dict(BASE, fault_hash="ab" * 32)
    assert cache_key("fig05", **BASE) != cache_key("fig05", **edited)


def test_empty_fault_plan_differs_from_no_faults(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text('{"version": 1, "events": []}')
    h = fault_plan_hash(str(plan))
    assert h != NO_FAULTS
    # Cosmetic JSON reformatting must not change the hash...
    plan.write_text('{"events":[],"version":1}')
    assert fault_plan_hash(str(plan)) == h


def test_semantic_fault_plan_change_changes_hash(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"version": 1, "events": []}))
    b.write_text(json.dumps({
        "version": 1,
        "events": [{"t_s": 10.0, "kind": "node_crash", "node": 3}],
    }))
    assert fault_plan_hash(str(a)) != fault_plan_hash(str(b))


def test_cache_key_for_is_stable_and_fault_sensitive(tmp_path):
    assert cache_key_for("fig05") == cache_key_for("fig05")
    plan = tmp_path / "plan.json"
    plan.write_text('{"version": 1, "events": []}')
    assert cache_key_for("fig05") != cache_key_for("fig05", str(plan))


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
    assert sha256_text("x") == sha256_text("x")
