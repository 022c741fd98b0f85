"""The bit-identity harness (``tests/identity.py``): two dumps made the
same way compare equal, and a change of one unit in the last place is
caught and reported."""

import numpy as np
import pytest

import identity


@pytest.fixture(scope="module")
def dumps():
    return identity.collect(reduced=True), identity.collect(reduced=True)


def test_reduced_dump_covers_each_kind_of_output(dumps):
    names = dumps[0]
    for part in ("acc/base/no_grad.logits", "acc/base/recorded.logits",
                 "acc/base/traced.grad.head.w", "acc/base/trace1.grads",
                 "acc/base/trace0.token_grad",
                 "acc/scores.taylor_token.layer0",
                 "acc/class.learnable/recorded.grad.pm.layer0.merge",
                 "acc/class.distill.opt.m.head.w",
                 "acc/class.distill.plan.layer0.groups", "plan/000.pmvt"):
        assert part in names


def test_two_reduced_dumps_compare_equal(dumps):
    a, b = dumps
    assert identity.differences(a, b) == []


def test_one_ulp_is_caught(dumps, tmp_path, capsys):
    a, b = dumps
    name = "acc/class.frozen/traced.logits"
    b = dict(b)
    b[name] = b[name].copy()
    b[name].flat[3] = np.nextafter(b[name].flat[3], np.inf)
    assert identity.differences(a, b) == [
        f"{name}: 1 of {b[name].size} elements differ, max |d| 1 ulp"]
    for tag, arrays in (("A", a), ("B", b)):
        (tmp_path / tag).mkdir()
        np.savez(tmp_path / tag / "arrays.npz", **arrays)
    capsys.readouterr()
    assert identity.main(["compare", str(tmp_path / "A"),
                          str(tmp_path / "A")]) == 0
    assert capsys.readouterr().out.endswith("; 0 differ\n")
    assert identity.main(["compare", str(tmp_path / "A"),
                          str(tmp_path / "B")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{name}: 1 of {b[name].size} elements differ, " \
                     f"max |d| 1 ulp"
    assert out[1] == f"{len(a)} arrays compared; 1 differ"


def test_ulps_span_signs_and_bytes_and_missing_arrays_are_named():
    a = {"f": np.array([3.0, -0.0, 1.0]), "u": np.array([1, 2], np.uint8),
         "only": np.zeros(1)}
    b = {"f": np.array([-3.0, 0.0, 1.0]), "u": np.array([1, 9], np.uint8),
         "int": np.zeros(1, np.int64)}
    span = 2 * int(np.array(3.0).view(np.int64))
    assert identity.differences(a, b) == [
        "f: 2 of 3 elements differ, max |d| " f"{span} ulp",
        "int: only in B", "only: only in A",
        "u: 1 of 2 elements differ, max |d| 7"]
    assert identity.differences({"x": np.zeros(2)},
                                {"x": np.zeros(3, np.float32)}) == [
        "x: float64[2] vs float32[3]"]
