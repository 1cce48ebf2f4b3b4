import json
from dataclasses import replace

import numpy as np
import pytest

from mxemu import cli, config, matmul, tensorfile


@pytest.fixture
def small_file(rng, tmp_path):
    path = str(tmp_path / "x.mxt")
    tensorfile.write_tensor(path, rng.normal(0.5, 1.0, (8, 64)))
    return path


def test_lloydmax_integer_group_size(small_file, tmp_path, capsys):
    out = str(tmp_path / "y.mxt")
    argv = ["lloydmax", "--in", small_file, "--out", out, "--group-size", "32",
            "--clusters", "2", "--iters", "5"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["group_size"] == 32
    assert report["mse"] > 0
    assert tensorfile.read_tensor(out).shape == (8, 64)


@pytest.mark.parametrize("argv", [
    ["stats"],
    ["compare", "--format", "fp4_e2m1_asym", "--scale", "fp8e5m2"],
    ["compare", "--format", "fp4_e2m1", "--lloyd-ref"],
])
def test_integer_group_size(small_file, capsys, argv):
    assert cli.main(argv + ["--in", small_file, "--group-size", "32"]) == 0
    report = json.loads(capsys.readouterr().out)
    rows = report.get("results", [report])
    assert all(row["group_size"] == 32 for row in rows)


def test_bad_group_size_is_config_error(small_file, capsys):
    assert cli.main(["stats", "--in", small_file, "--group-size", "abc"]) == 3
    assert "bad group size" in capsys.readouterr().err


def test_matmul_writes_the_emulated_product(small_file, rng, tmp_path, capsys):
    b_path, out = str(tmp_path / "b.mxt"), str(tmp_path / "y.mxt")
    tensorfile.write_tensor(b_path, rng.normal(0, 1, (64, 4)))
    argv = ["matmul", "--in", small_file, "--in-b", b_path, "--out", out,
            "--format", "fp4_e2m1_asym", "--scale", "fp8e5m2", "--group-size", "32"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == ""
    cfg = config("fp4_e2m1_asym", "fp8e5m2", 32)
    expect = matmul(tensorfile.read_tensor(small_file), tensorfile.read_tensor(b_path),
                    cfg, replace(cfg, axis=0))
    np.testing.assert_array_equal(tensorfile.read_tensor(out), expect.astype(np.float32))
    with pytest.raises(SystemExit):  # the float64 oracle check is no longer a CLI option
        cli.main(argv + ["--oracle-check"])
