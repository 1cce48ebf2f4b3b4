import argparse
import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from mxemu import cli, config, dequantize, matmul, quantize, tensorfile


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


def test_quantize_writes_its_outputs(small_file, tmp_path, capsys):
    out, dump = str(tmp_path / "y.mxt"), str(tmp_path / "y.mxq")
    argv = ["quantize", "--in", small_file, "--format", "fp4_e2m1_asym", "--scale", "fp8e5m2",
            "--group-size", "32", "--out", out, "--dump-q", dump, "--dump-unique"]
    assert cli.main(argv) == 0
    q = quantize(tensorfile.read_tensor(small_file), config("fp4_e2m1_asym", "fp8e5m2", 32))
    y = dequantize(q)
    assert capsys.readouterr().out.split() == [repr(float(v)) for v in np.unique(y)]
    np.testing.assert_array_equal(tensorfile.read_tensor(out), y.astype(np.float32))
    back = tensorfile.read_quantized(dump)
    assert back.config == q.config
    np.testing.assert_array_equal(back.codes, q.codes)
    np.testing.assert_array_equal(back.scales, q.scales)


def test_rotate_transpose_undoes_the_rotation(small_file, tmp_path, capsys):
    fwd, back = str(tmp_path / "r.mxt"), str(tmp_path / "b.mxt")
    assert cli.main(["rotate", "--in", small_file, "--seed", "3", "--out", fwd]) == 0
    assert cli.main(["rotate", "--in", fwd, "--seed", "3", "--transpose", "--out", back]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "rotated dim=64 seed=3 transpose=False", "rotated dim=64 seed=3 transpose=True"]
    x = tensorfile.read_tensor(small_file)
    assert not np.allclose(tensorfile.read_tensor(fwd), x)
    np.testing.assert_allclose(tensorfile.read_tensor(back), x, rtol=0, atol=1e-5)


def test_rotate_out_of_range_dim_axis_is_config_error(tmp_path, capsys):
    path = str(tmp_path / "x.mxt")
    tensorfile.write_tensor(path, np.ones((3, 4)))
    assert cli.main(["rotate", "--in", path, "--dim-axis", "5"]) == 3
    assert capsys.readouterr().err == "error: axis 5 out of range for shape (3, 4)\n"


@pytest.mark.parametrize("damage", ["missing", "truncated"])
def test_unreadable_input_is_io_error(small_file, tmp_path, capsys, damage):
    path = str(tmp_path / "bad.mxt")
    if damage == "truncated":
        with open(small_file, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-3])
    assert cli.main(["stats", "--in", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


class _ReadRecorder(argparse.Namespace):
    """A Namespace that records which attributes code outside argparse reads."""

    made = []

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        _ReadRecorder.made.append(self)
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_") and sys._getframe(1).f_globals["__name__"] != "argparse":
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def test_every_declared_option_is_read(small_file, rng, tmp_path, monkeypatch, capsys):
    b_path = str(tmp_path / "b.mxt")
    tensorfile.write_tensor(b_path, rng.normal(0, 1, (64, 4)))
    out, common = str(tmp_path / "o"), ["--in", small_file]
    fmt = ["--format", "fp4_e2m1_asym", "--scale", "fp8e5m2", "--group-size", "32"]
    runs = {  # each sets every option its command reads on some branch
        "quantize": fmt + ["--axis", "1", "--out", out, "--dump-q", out, "--dump-unique"],
        "compare": fmt + ["--axis", "1", "--seed", "1", "--lloyd-ref", "--json", out],
        "stats": ["--group-size", "32", "--axis", "-1", "--json", out],
        "rotate": ["--seed", "1", "--dim-axis", "0", "--transpose", "--out", out],
        "matmul": fmt + ["--in-b", b_path, "--format-b", "fp8_e4m3", "--out", out],
        "lloydmax": ["--group-size", "32", "--axis", "-1", "--seed", "1", "--clusters", "2",
                     "--iters", "2", "--levels", "4", "--init", "format_grid",
                     "--json", out, "--out", out],
    }
    monkeypatch.setattr(argparse, "Namespace", _ReadRecorder)
    unread = {}
    for command, argv in runs.items():
        _ReadRecorder.made.clear()
        assert cli.main([command] + common + argv) == 0, command
        args = _ReadRecorder.made[0]
        declared = set(vars(args)) - {"_reads", "command"}
        unread[command] = sorted(declared - object.__getattribute__(args, "_reads"))
    capsys.readouterr()
    assert unread == {command: [] for command in runs}


@pytest.mark.parametrize("command", ["stats", "lloydmax"])
def test_nan_input_is_data_error(rng, tmp_path, capsys, command):
    path = str(tmp_path / "nan.mxt")
    tensorfile.write_tensor(path, np.r_[rng.normal(0, 1, 63), np.nan].reshape(2, 32))
    assert cli.main([command, "--in", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-finite input value at flat index 63\n"
