"""Golden outputs: every `fimlab estimate` kind and the `fimlab variance` JSON
on two fixed configs, against the files in tests/golden/ (written by
tests/golden/write.py); no file there may lack a command."""

import pytest

from golden.write import HERE, RTOL, commands, compare, orphans, write


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    write(out)
    return out


@pytest.mark.parametrize("name", commands())
def test_output_matches_its_golden_file(name, fresh, record_property):
    identical, drift = compare(fresh / name, HERE / name)
    # bitwise equality is reported, not required: another BLAS may sum in another order
    record_property("bitwise", identical)
    record_property("relative_drift", drift)
    print(f"{name}: {'bitwise' if identical else 'differs'}, relative drift {drift:.3e}")
    assert drift <= RTOL


def test_every_golden_file_is_written_by_a_command():
    # a file whose command is gone would sit in tests/golden/ unread
    assert orphans() == []
