"""Golden outputs: every `fimlab estimate` kind, the `fimlab variance` JSON and
the `fimlab bounds` JSON on fixed configs, against the files in tests/golden/
(written by tests/golden/write.py); no file there may lack a command."""

import pytest

from fimlab import bounds
from fimlab.cli import _build_instance, parse_config
from golden.write import BOUNDS_ONLY, CONFIGS, HERE, RTOL, commands, compare, orphans, write


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


def test_bounds_goldens_cover_both_routes():
    # B C^4 picks the per-label route, and B C against a fraction of dim the root of
    # K = J J^T (J^T itself, or from an eigh of K); configs on each side keep every
    # route under a golden
    def routes(config):
        cfg = parse_config(HERE / f"{config}.cfg")
        X, _, net, _ = _build_instance(cfg)
        B, C = X.shape[0], net.n_classes
        return B * C**4 >= bounds._SECULAR_MIN_WORK, B * C < bounds._JT_ROOT_MIN_FILL * net.dim

    assert all(routes(config) == (False, False) for config in CONFIGS)
    assert all(routes(config) == (True, True) for config in BOUNDS_ONLY)
