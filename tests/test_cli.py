"""Command-line interface: artifacts, formats, exit codes.

Everything runs in-process through main(argv) so the tests can assert
on return codes and monkeypatch the numerical layer.  File contents are
parsed back and compared against the same library calls the commands
wrap, plus a handful of closed-form values.
"""

import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bandedzeros
from bandedzeros import ArcsineMixture, cli, kva_functions
from bandedzeros.errors import NumericalFailure


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# meta ")
    meta = json.loads(lines[0][len("# meta ") :])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return meta, header, rows


def test_traces_example_values(tmp_path):
    out = tmp_path / "t.csv"
    code = cli.main(
        ["traces", "--scheme", "gue", "--n", "5", "--moments", "4", "--out", str(out)]
    )
    assert code == 0
    meta, header, rows = read_csv(out)
    assert meta["command"] == "traces"
    assert set(meta["versions"]) == {"bandedzeros", "numpy", "scipy"}
    assert header == [
        "N",
        "ell",
        "mean",
        "zero_side",
        "gap",
        "gap_bound",
        "variance",
        "variance_bound",
    ]
    table = {(int(r[0]), int(r[1])): [float(x) for x in r[2:]] for r in rows}
    assert table[(5, 2)][0] == 1.0
    assert table[(5, 2)][1] == 0.8
    assert table[(5, 0)] == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    assert table[(5, 1)][4] == pytest.approx(1 / 25, abs=1e-12)  # 1/N^2 at ell = 1
    assert set(n for n, _ in table) == {5}
    assert set(ell for _, ell in table) == {0, 1, 2, 3, 4}


def test_traces_multiple_ranks(tmp_path):
    out = tmp_path / "t.csv"
    assert (
        cli.main(
            ["traces", "--scheme", "gue", "--n", "2,10", "--moments", "2", "--out", str(out)]
        )
        == 0
    )
    _, _, rows = read_csv(out)
    ranks = {int(r[0]) for r in rows}
    assert ranks == {2, 10}


def test_curve_density_example(tmp_path):
    out = tmp_path / "c.csv"
    code = cli.main(
        [
            "curve", "--kind", "hermite", "--q", "1", "--a", "0",
            "--density", "0", "--eps", "1e-6", "--out", str(out),
        ]
    )
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["x", "density"]
    assert float(rows[0][1]) == pytest.approx(1 / math.pi, abs=1e-4)


def test_curve_table_and_moments(tmp_path):
    out = tmp_path / "c.json"
    code = cli.main(
        [
            "curve", "--kind", "laguerre", "--q", "1", "--a", "1",
            "--alpha", "1", "--moments", "4", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "laguerre"
    assert payload["deg_w"] == 2
    assert payload["table"] == [[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    assert np.allclose(payload["moments"], [1, 1, 2, 5, 14], atol=1e-8)


def test_zeros_json_summary(tmp_path):
    out = tmp_path / "z.json"
    code = cli.main(
        [
            "zeros", "--scheme", "gue", "--n", "30", "--moments", "4",
            "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["N"] == 30
    assert payload["real"] is True
    assert payload["route"] == "tridiagonal" and payload["certified"] is True
    assert payload["max_imag"] <= 1e-10
    assert len(payload["moments"]) == 5
    assert payload["moments"][2] == pytest.approx(1 - 1 / 30, abs=1e-10)


def test_zeros_csv_points(tmp_path):
    out = tmp_path / "z.csv"
    assert (
        cli.main(
            ["zeros", "--scheme", "gue", "--n", "2", "--moments", "1", "--out", str(out)]
        )
        == 0
    )
    _, header, rows = read_csv(out)
    assert header == ["index", "re", "im"]
    pts = sorted(float(r[1]) for r in rows)
    root = math.sqrt(0.5)
    assert pts == pytest.approx([-root, root], abs=1e-12)
    assert all(float(r[2]) == 0.0 for r in rows)


def test_mop_zeros_first_moment(tmp_path):
    out = tmp_path / "m.json"
    code = cli.main(
        [
            "mop-zeros", "--kind", "multiple-laguerre", "--q", "1/2,1/2",
            "--a", "1,2", "--alpha", "1", "--n", "12", "--moments", "2",
            "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["real"] is True
    assert payload["route"] == "sign-scan" and payload["certified"] is True
    assert payload["moments"][1] == pytest.approx(1.5, abs=1e-9)


def test_gap_sweep_exact_column_and_slope(tmp_path):
    out = tmp_path / "g.csv"
    code = cli.main(
        [
            "gap-sweep", "--scheme", "gue", "--n", "25,50,100,200",
            "--moments", "2", "--out", str(out),
        ]
    )
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["N", "ell", "mean", "zero_side", "gap", "gap_bound", "slope"]
    for r in rows:
        n, ell = int(r[0]), int(r[1])
        if ell == 2:
            assert float(r[4]) == pytest.approx(1 / n, rel=1e-12)
            assert float(r[6]) == pytest.approx(-1.0, abs=0.01)
        if ell == 0:
            assert float(r[4]) == 0.0


def test_variance_sweep_slope(tmp_path):
    out = tmp_path / "v.csv"
    code = cli.main(
        [
            "variance-sweep", "--scheme", "gue", "--n", "25,50,100,200",
            "--moments", "1", "--out", str(out),
        ]
    )
    assert code == 0
    _, header, rows = read_csv(out)
    assert header == ["N", "ell", "variance", "variance_bound", "slope"]
    slopes = {float(r[4]) for r in rows if int(r[1]) == 1}
    assert len(slopes) == 1
    assert slopes.pop() == pytest.approx(-2.0, abs=0.01)


def test_kva_moment_table(tmp_path):
    out = tmp_path / "k.csv"
    assert cli.main(["kva", "--scheme", "gue", "--moments", "6", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["ell", "moment"]
    moments = [float(r[1]) for r in rows]
    assert np.allclose(moments, [1, 0, 1, 0, 2, 0, 5], atol=1e-9)


def test_kva_density_table(tmp_path):
    out = tmp_path / "k.csv"
    args = ["kva", "--scheme", "gue", "--density=-1.5,0,1,2.5", "--out", str(out)]
    assert cli.main(args) == 0
    _, header, rows = read_csv(out)
    assert header == ["x", "density"]
    mixture = ArcsineMixture(*kva_functions("gue"))
    xs = [float(r[0]) for r in rows]
    values = [float(r[1]) for r in rows]
    assert xs == [-1.5, 0.0, 1.0, 2.5]
    assert values == [mixture.density(x) for x in xs]
    # the GUE mixture is the semicircle law, up to quadrature error
    for x, value in zip(xs, values):
        assert abs(value - math.sqrt(max(4 - x * x, 0.0)) / (2 * math.pi)) <= 0.02
    assert values[-1] == 0.0


def test_free_conv_exact_strings(tmp_path):
    out = tmp_path / "f.json"
    code = cli.main(
        [
            "free-conv", "--op", "add", "--mu", "sc",
            "--nu", "atoms:1@1/2,-1@1/2", "--moments", "6", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["op"] == "add"
    assert payload["moments"] == [1.0, 0.0, 2.0, 0.0, 7.0, 0.0, 30.0]
    assert payload["moments_exact"] == ["1", "0", "2", "0", "7", "0", "30"]

    out2 = tmp_path / "f2.json"
    code = cli.main(
        [
            "free-conv", "--op", "mul", "--mu", "mp:2",
            "--nu", "atoms:1@1/2,1/2@1/2", "--moments", "3", "--out", str(out2),
        ]
    )
    assert code == 0
    payload = json.loads(out2.read_text())
    assert payload["moments_exact"] == ["1", "3/2", "29/8", "351/32"]


def test_sample_payload_shape(tmp_path):
    out = tmp_path / "s.json"
    code = cli.main(
        [
            "sample", "--model", "gue", "--n", "8", "--samples", "5",
            "--seed", "3", "--moments", "2", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["model"] == "gue"
    assert payload["meta"]["stream_version"] == 4
    assert payload["N"] == 8 and payload["samples"] == 5 and payload["seed"] == 3
    assert len(payload["mean"]) == len(payload["var"]) == len(payload["se"]) == 3
    assert payload["mean"][0] == 1.0


def test_byte_identical_reruns(tmp_path):
    out = tmp_path / "r.csv"
    args = ["traces", "--scheme", "wishart", "--alpha", "1", "--n", "6",
            "--moments", "3", "--out", str(out)]
    assert cli.main(args) == 0
    first = out.read_bytes()
    assert cli.main(args) == 0
    assert out.read_bytes() == first

    outj = tmp_path / "r.json"
    argsj = ["sample", "--model", "wishart", "--n", "6", "--alpha", "1",
             "--samples", "4", "--seed", "9", "--moments", "2", "--out", str(outj)]
    assert cli.main(argsj) == 0
    firstj = outj.read_bytes()
    assert cli.main(argsj) == 0
    assert outj.read_bytes() == firstj

    outz = tmp_path / "z.json"
    argsz = ["mop-zeros", "--kind", "multiple-hermite", "--q", "1/2,1/2", "--a", "1,-1",
             "--n", "24", "--moments", "4", "--format", "json", "--out", str(outz)]
    assert cli.main(argsz) == 0
    firstz = outz.read_bytes()
    assert cli.main(argsz) == 0
    assert outz.read_bytes() == firstz

    outd = tmp_path / "d.csv"
    argsd = ["curve", "--kind", "laguerre", "--q", "1/2,1/2", "--a", "1,2", "--alpha", "1",
             "--density", "0.5,1,2.5", "--richardson", "--out", str(outd)]
    assert cli.main(argsd) == 0
    firstd = outd.read_bytes()
    assert cli.main(argsd) == 0
    assert outd.read_bytes() == firstd


def test_output_path_stays_out_of_the_artifact(tmp_path):
    # the config hash leaves out the output path, so one computation
    # written to two paths gives the same bytes
    config = {"command": "sample", "model": "wishart_cov", "alpha": 1, "ratios": "1/2,1/2",
              "atoms": "1,0.5", "n": 12, "samples": 30, "seed": 5, "moments": 3}
    written = []
    for name in ("s1.json", "s2.json"):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**config, "out": str(tmp_path / name)}))
        assert cli.main(["run", str(cfg)]) == 0
        written.append((tmp_path / name).read_bytes())
    assert written[0] == written[1]


# one invocation per command; zeros leaves --format to its default, and
# mop-zeros names it
FLAG_INVOCATIONS = [
    ["traces", "--scheme", "gue", "--n", "5", "--moments", "2"],
    ["zeros", "--kind", "multiple-hermite", "--q", "1/2,1/2", "--a", "1,-1",
     "--n", "6", "--moments", "3"],
    ["gap-sweep", "--scheme", "wishart", "--alpha", "1", "--n", "5,10", "--moments", "2"],
    ["variance-sweep", "--scheme", "jacobi", "--alpha", "1", "--beta", "1",
     "--n", "5,10", "--moments", "2"],
    ["kva", "--scheme", "gue", "--order", "40", "--density", "0,1"],
    ["mop-zeros", "--kind", "multiple-laguerre", "--q", "1/2,1/2", "--a", "1,2",
     "--alpha", "1", "--n", "8", "--moments", "2", "--format", "json"],
    ["free-conv", "--op", "mul", "--mu", "mp:2", "--nu", "point:1/2", "--moments", "3"],
    ["curve", "--kind", "hermite", "--q", "1/2,1/2", "--a", "1,-1",
     "--density", "0", "--eps", "1e-4", "--richardson"],
    ["sample", "--model", "gue_source", "--n", "6", "--ratios", "1/2,1/2",
     "--atoms", "1,-1", "--samples", "3", "--seed", "2", "--moments", "2"],
]


def config_from_flags(argv):
    """The run config holding each flag's raw value under its name
    without dashes; a bare switch becomes true."""
    config, args = {"command": argv[0]}, argv[1:]
    while args:
        key, args = args[0][2:], args[1:]
        if args and not args[0].startswith("--"):
            config[key], args = args[0], args[1:]
        else:
            config[key] = True
    return config


def test_run_config_reproduces_flag_invocation(tmp_path, capsys):
    assert sorted(argv[0] for argv in FLAG_INVOCATIONS) == sorted(cli._COMMANDS)
    out, cfg = tmp_path / "eq.out", tmp_path / "cfg.json"
    for argv in FLAG_INVOCATIONS:
        assert cli.main(argv + ["--out", str(out)]) == 0, argv
        via_flags = out.read_bytes()
        out.unlink()

        # same raw values as the flags, so the config hash in the meta agrees too
        config = {**config_from_flags(argv), "out": str(out)}
        cfg.write_text(json.dumps(config))
        assert cli.main(["run", str(cfg)]) == 0, argv
        assert out.read_bytes() == via_flags, argv

        # a key that is another command's flag is still unknown here
        extra = "seed" if argv[0] != "sample" else "format"
        cfg.write_text(json.dumps({**config, extra: "1"}))
        capsys.readouterr()
        assert cli.main(["run", str(cfg)]) == 2, argv
        assert repr(extra) in capsys.readouterr().err, argv

    # JSON-typed values are accepted as well and produce the same rows
    assert cli.main(FLAG_INVOCATIONS[0] + ["--out", str(out)]) == 0
    via_flags = out.read_bytes()
    cfg.write_text(
        json.dumps(
            {"command": "traces", "scheme": "gue", "n": [5], "moments": 2,
             "out": str(out)}
        )
    )
    assert cli.main(["run", str(cfg)]) == 0
    assert out.read_bytes().splitlines()[1:] == via_flags.splitlines()[1:]


def readme_block(lang):
    """The first ``lang`` code block of README's Command line section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_command_lines_parse(tmp_path, monkeypatch):
    lines = [shlex.split(line) for line in readme_block("sh").splitlines()]
    parser = cli._build_parser()
    for words in lines:
        assert words[0] == "bandedzeros"
        parser.parse_args(words[1:])
    assert {words[1] for words in lines} == set(cli._COMMANDS) | {"run"}

    # the config shown writes the first line's artifact byte for byte
    monkeypatch.chdir(tmp_path)
    config = json.loads(readme_block("json"))
    Path("config.json").write_text(json.dumps(config))
    assert cli.main(lines[0][1:]) == 0
    via_flags = Path(config["out"]).read_bytes()
    assert cli.main(["run", "config.json"]) == 0
    assert Path(config["out"]).read_bytes() == via_flags


def test_default_output_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["kva", "--scheme", "gue", "--moments", "2"]) == 0
    assert (tmp_path / "kva.csv").exists()


def test_module_entry_point(tmp_path):
    # `python3 -m bandedzeros` runs the CLI from a source checkout too
    src = str(Path(bandedzeros.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "bandedzeros", "sample", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )

    done = run("--model", "gue", "--n", "8", "--samples", "4", "--moments", "2",
               "--out", "s.json")
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "s.json").read_text())["mean"][0] == 1.0
    refused = run("--model", "gue", "--n", "8", "--alpha", "3", "--samples", "4",
                  "--moments", "2")
    assert refused.returncode == 2
    assert "alpha" in refused.stderr


def test_validation_exit_codes(tmp_path, capsys):
    # conflicting / missing scheme specification
    assert cli.main(["traces", "--n", "5", "--moments", "2"]) == 2
    assert "scheme" in capsys.readouterr().err
    # jacobi needs positive parameters
    assert (
        cli.main(["traces", "--scheme", "jacobi", "--alpha", "-1", "--beta", "1",
                  "--n", "5", "--moments", "2"])
        == 2
    )
    # sweep ranks must ascend
    assert (
        cli.main(["gap-sweep", "--scheme", "gue", "--n", "50,25", "--moments", "2"])
        == 2
    )
    capsys.readouterr()
    # unknown law string
    assert (
        cli.main(["free-conv", "--op", "add", "--mu", "cauchy", "--nu", "sc",
                  "--moments", "2"])
        == 2
    )
    assert "mu" in capsys.readouterr().err
    # hermite curve takes no alpha
    assert (
        cli.main(["curve", "--kind", "hermite", "--q", "1", "--a", "0",
                  "--alpha", "1", "--moments", "2"])
        == 2
    )
    # source model without a source
    assert (
        cli.main(["sample", "--model", "gue_source", "--n", "8", "--samples", "2",
                  "--moments", "1"])
        == 2
    )
    # plain model with source arguments
    assert (
        cli.main(["sample", "--model", "gue", "--n", "8", "--samples", "2",
                  "--moments", "1", "--ratios", "1/2,1/2", "--atoms", "1,-1"])
        == 2
    )
    capsys.readouterr()
    # gue takes no aspect offset
    assert (
        cli.main(["sample", "--model", "gue", "--n", "8", "--alpha", "3",
                  "--samples", "4", "--moments", "2"])
        == 2
    )
    assert "alpha" in capsys.readouterr().err


def test_run_config_validation(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert cli.main(["run", str(missing)]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == 2

    nocmd = tmp_path / "nocmd.json"
    nocmd.write_text(json.dumps({"scheme": "gue"}))
    assert cli.main(["run", str(nocmd)]) == 2
    assert "command" in capsys.readouterr().err

    unknown = tmp_path / "unknown.json"
    unknown.write_text(
        json.dumps(
            {"command": "traces", "scheme": "gue", "n": 5, "moments": 2, "bogus": 1}
        )
    )
    assert cli.main(["run", str(unknown)]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err


def run_both_ways(config, tmp_path):
    """Exit codes of a config run as flags and as a ``run`` config."""
    config = {**config, "out": str(tmp_path / "artifact")}
    argv = [config["command"]]
    for key, value in config.items():
        if key != "command":
            argv += ["--" + key] + ([] if value is True else [str(value)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return cli.main(argv), cli.main(["run", str(cfg)])


REQUIRED = [
    (argv, name)
    for argv in FLAG_INVOCATIONS
    for name, kwargs in cli._COMMANDS[argv[0]].flags
    if kwargs.get("required")
]


@pytest.mark.parametrize("argv, name", REQUIRED, ids=[f"{a[0]}-{n}" for a, n in REQUIRED])
def test_missing_required_key_is_named(argv, name, tmp_path, capsys):
    config = {key: value for key, value in config_from_flags(argv).items() if key != name}
    assert run_both_ways(config, tmp_path) == (2, 2)
    assert capsys.readouterr().err.count(f"error: missing key {name!r}") == 2


CHOICES = [(0, "scheme"), (1, "kind"), (5, "kind"), (5, "format"), (6, "op"), (7, "kind"),
           (8, "model")]


@pytest.mark.parametrize(
    "index, key", CHOICES, ids=[f"{FLAG_INVOCATIONS[i][0]}-{k}" for i, k in CHOICES]
)
def test_invalid_choice_is_named(index, key, tmp_path, capsys):
    config = {**config_from_flags(FLAG_INVOCATIONS[index]), key: "bogus"}
    assert run_both_ways(config, tmp_path) == (2, 2)
    err = capsys.readouterr().err
    assert err.count(f"error: {key}: expected one of ") == 2
    assert "'bogus'" in err


@pytest.mark.parametrize("config, key", [
    ({"command": "traces", "scheme": "wishart", "alpha": True, "n": 5, "moments": 2},
     "alpha"),
    ({"command": "kva", "scheme": "gue", "density": [True, 0.5]}, "density"),
], ids=["traces-alpha", "kva-density"])
def test_json_booleans_are_not_numbers(config, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "out": str(tmp_path / "x.out")}))
    assert cli.main(["run", str(cfg)]) == 2
    assert f"error: {key}: expected a number, got True" in capsys.readouterr().err
    assert not (tmp_path / "x.out").exists()


def test_richardson_takes_only_a_json_boolean(tmp_path, capsys):
    config = {"command": "curve", "kind": "hermite", "q": "1/2,1/2", "a": "1,-1",
              "density": "0,0.5", "eps": "1e-3"}
    cfg = tmp_path / "cfg.json"
    rows = {}
    for value in (True, False, None):
        out = tmp_path / f"{value}.csv"
        extra = {} if value is None else {"richardson": value}
        cfg.write_text(json.dumps({**config, **extra, "out": str(out)}))
        assert cli.main(["run", str(cfg)]) == 0
        rows[value] = read_csv(out)[2]
    assert rows[False] == rows[None] != rows[True]
    out = tmp_path / "x.csv"
    for value in ("false", "true", 0, 1):
        cfg.write_text(json.dumps({**config, "richardson": value, "out": str(out)}))
        assert cli.main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"error: richardson: expected true or false, got {value!r}" in err
        assert not out.exists()


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    def boom(config):
        raise NumericalFailure("injected instability")

    monkeypatch.setitem(cli._COMMANDS, "zeros", cli._COMMANDS["zeros"]._replace(handler=boom))
    code = cli.main(["zeros", "--scheme", "gue", "--n", "4", "--moments", "2",
                     "--out", str(tmp_path / "z.csv")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, detail",
    [
        ("traces --scheme gue --n 5 --moments 150", ""),
        ("variance-sweep --scheme gue --n 5,10 --moments 80", ""),
        ("kva --scheme gue --moments 2000", ""),
        ("curve --kind laguerre --q 1/2,1/2 --a 1,2 --alpha 1 --moments 160",
         "curve moment of order 155 at contour radius 96\n"),
        ("curve --kind hermite --q 1/2,1/2 --a 1,-1 --moments 200",
         "curve moment of order 170 at contour radius 64\n"),
        ("traces --scheme wishart --alpha 1 --n 10 --moments 45", ""),
        ("variance-sweep --scheme wishart --alpha 1 --n 10,20 --moments 60", ""),
        ("kva --scheme wishart --alpha 1 --moments 500", ""),
        ("zeros --scheme wishart --alpha 1 --n 50 --moments 500 --format json", ""),
        ("sample --model wishart --alpha 1 --n 20 --samples 3 --moments 500", ""),
    ],
    ids=["traces", "variance-sweep", "kva", "curve", "curve-hermite", "traces-bound-product",
         "variance-sweep-bound-product", "kva-mixture", "zeros-moments", "sample-moments"],
)
def test_results_past_the_double_range_exit_3(argv, detail, tmp_path, capsys):
    # the bounds' (2 ell)^ell / N or their product with the window peak,
    # the arcsine mixture moments, the contour's rho^(ell + 1) and the
    # zero and sample moments leave the double range at these orders; a
    # contour names the first order its radius cannot reach
    out = tmp_path / "x.out"
    assert cli.main([*shlex.split(argv), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: result outside the double range: ")
    assert err.endswith(detail)
    assert err.count("\n") == 1
    assert not out.exists()


def test_wishart_refuses_a_negative_alpha(tmp_path, capsys):
    # with alpha < 0 the squared coefficient (k/N)(k/N + alpha) is negative
    # at k = 1 once N > -1/alpha: refused when the scheme is built
    out = tmp_path / "w.csv"
    for argv in ("traces --scheme wishart --alpha -0.5 --n 5 --moments 2",
                 "kva --scheme wishart --alpha -0.5 --moments 3"):
        assert cli.main([*shlex.split(argv), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: wishart needs alpha >= 0, got -0.5\n"
        assert not out.exists()
    for argv in ("traces --scheme wishart --alpha 0 --n 5 --moments 2",
                 "kva --scheme wishart --alpha 0 --moments 3"):
        assert cli.main([*shlex.split(argv), "--out", str(out)]) == 0


def test_numbers_beyond_double_range_are_refused(tmp_path, capsys):
    config = {"command": "traces", "scheme": "wishart", "alpha": "1e400", "n": 5, "moments": 2}
    assert run_both_ways(config, tmp_path) == (2, 2)
    assert capsys.readouterr().err.count("error: alpha: expected a finite number") == 2
    # a JSON number past the double range parses as inf
    for text, key in [
        ('{"command": "traces", "scheme": "wishart", "alpha": 1e400, "n": 5, "moments": 2}',
         "alpha"),
        ('{"command": "traces", "scheme": "gue", "n": 1e400, "moments": 2}', "n"),
    ]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert cli.main(["run", str(cfg)]) == 2
        assert f"error: {key}: expected" in capsys.readouterr().err


@pytest.mark.parametrize("out, message", [
    (5, "error: out: expected a file path, got 5"),
    ("nonexistent/dir/k.csv", "error: out: no directory"),
    (".", "error: out: '.' is a directory"),
], ids=["number", "missing-directory", "directory"])
def test_out_is_checked_before_the_computation(out, message, tmp_path, capsys, monkeypatch):
    def never(config):
        raise AssertionError("the handler ran")

    monkeypatch.setitem(cli._COMMANDS, "kva", cli._COMMANDS["kva"]._replace(handler=never))
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "kva", "scheme": "gue", "moments": 2, "out": out}))
    codes = [cli.main(["run", str(cfg)])]
    if isinstance(out, str):  # a flag value is always a string
        codes.append(cli.main(["kva", "--scheme", "gue", "--moments", "2", "--out", out]))
    assert codes == [2] * len(codes)
    assert capsys.readouterr().err.count(message) == len(codes)


# malformed values for each flag parser: a string goes both as a flag and
# in a run config, any other JSON value only in a run config
MALFORMED = {
    cli._as_int: ["x", "1.5", 2.5, True, [1]],
    cli._as_float: ["x", "1/0", "1e400", True],
    cli._as_number: ["x", "1/0", "1e400", [1]],
    cli._number_list: [",", "1,x", [], 5],
    cli._float_list: [",", "1,x", [], 5],
    cli._parse_law: ["cauchy", "atoms:1", "atoms:1@x", 5],
    cli._single_n: ["5,6", "0", "x"],
    cli._sweep_ns: ["0,5", "10,5", ""],
    cli._moment_order: ["-3", "x", 1.5],
    cli._positive_int: ["0", "-2", "x"],
    cli._positive_float: ["0", "-1", "x"],
    cli._switch: [1, "yes"],
}
PARSED = [
    (argv, name, kwargs["parse"])
    for argv in FLAG_INVOCATIONS
    for name, kwargs in cli._COMMANDS[argv[0]].flags
    if "parse" in kwargs
]


@pytest.mark.parametrize(
    "argv, name, parse", PARSED, ids=[f"{a[0]}-{n}" for a, n, _ in PARSED]
)
def test_malformed_value_is_named(argv, name, parse, tmp_path, capsys):
    # every given value is parsed before the handler runs, whether or
    # not the command's mode reads it
    for value in MALFORMED[parse]:
        config = {**config_from_flags(argv), name: value}
        if isinstance(value, str) and parse is not cli._switch:  # a switch takes no value
            assert run_both_ways(config, tmp_path) == (2, 2), value
            expected = 2
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({**config, "out": str(tmp_path / "artifact")}))
            assert cli.main(["run", str(cfg)]) == 2, value
            expected = 1
        assert capsys.readouterr().err.count(f"error: {name}: ") == expected, value
        assert not (tmp_path / "artifact").exists()


@pytest.mark.parametrize("config, key", [
    ({"command": "curve", "kind": "hermite", "q": "1/2,1/2", "a": "1,-1", "eps": "1e-3"},
     "eps"),
    ({"command": "curve", "kind": "hermite", "q": "1/2,1/2", "a": "1,-1", "richardson": True},
     "richardson"),
    ({"command": "curve", "kind": "hermite", "q": "1/2,1/2", "a": "1,-1", "density": "0.5",
      "moments": "4"}, "moments"),
    ({"command": "curve", "kind": "hermite", "q": "1", "a": "0", "alpha": "1"}, "alpha"),
    ({"command": "kva", "scheme": "gue", "density": "0.5", "moments": "4"}, "moments"),
    ({"command": "traces", "scheme": "gue", "kind": "multiple-hermite", "q": "1/2,1/2",
      "a": "1,-1", "n": "5", "moments": "2"}, "kind"),
    ({"command": "gap-sweep", "scheme": "gue", "a": "1,-1", "n": "5,10", "moments": "2"}, "a"),
    ({"command": "zeros", "kind": "multiple-hermite", "q": "1/2,1/2", "a": "1,-1",
      "beta": "1", "n": "5", "moments": "2"}, "beta"),
    ({"command": "sample", "model": "wishart", "alpha": "1", "atoms": "1,-1", "n": "4",
      "samples": "2", "moments": "1"}, "atoms"),
], ids=["curve-eps", "curve-richardson", "curve-density-moments", "curve-hermite-alpha",
        "kva-density-moments", "scheme-and-kind", "scheme-and-a", "kind-and-beta",
        "sample-atoms"])
def test_a_flag_the_mode_never_reads_is_refused(config, key, tmp_path, capsys):
    # a flag that changes nothing would still change the config hash
    assert run_both_ways(config, tmp_path) == (2, 2)
    assert capsys.readouterr().err.count(f"error: {key}: not read ") == 2
    assert not (tmp_path / "artifact").exists()


def test_scheme_errors_exit_2(tmp_path, capsys):
    config = {"command": "mop-zeros", "kind": "multiple-hermite", "q": "1/2,1/2", "a": "1,1",
              "n": "5", "moments": "2"}
    assert run_both_ways(config, tmp_path) == (2, 2)
    assert capsys.readouterr().err.count("locations must be distinct") == 2


@pytest.mark.parametrize("text, message", [
    ('["traces"]', "error: config must be a JSON object\n"),
    ('{"command": "bogus"}', "error: command: unknown command 'bogus'\n"),
], ids=["not-an-object", "unknown-command"])
def test_run_config_names_a_known_command(text, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli.main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("call, argv", [
    ("trace_table", "traces --scheme gue --n 10000000000000 --moments 1"),
    ("mc_moments", "sample --model gue --n 10000000000000 --samples 2 --moments 1"),
], ids=["traces", "sample"])
def test_out_of_memory_exits_3(call, argv, tmp_path, capsys, monkeypatch):
    # stands in for numpy refusing an allocation; nothing is allocated
    def refuse(*args):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")

    monkeypatch.setattr(cli, call, refuse)
    out = tmp_path / "x.out"
    assert cli.main([*shlex.split(argv), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: out of memory: Unable to allocate 72.8 TiB for an array\n"
    assert not out.exists()


def test_null_is_an_absent_value(tmp_path):
    # a null value passes required, choices and parse as if it were absent;
    # the config hash still covers it, so only the rows are compared
    cfg = tmp_path / "cfg.json"
    for given, nulls in [
        ({"command": "kva", "scheme": "gue", "moments": 2}, ("alpha", "order", "density")),
        ({"command": "zeros", "scheme": "gue", "n": "4", "moments": 2}, ("kind", "q", "format")),
    ]:
        tables = []
        for config in (given, {**given, **dict.fromkeys(nulls)}):
            cfg.write_text(json.dumps({**config, "out": str(tmp_path / "x.csv")}))
            assert cli.main(["run", str(cfg)]) == 0
            tables.append(read_csv(tmp_path / "x.csv")[1:])
        assert tables[0] == tables[1]
