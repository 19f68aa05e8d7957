import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from graphfair import cli, io
from graphfair.core import Agent, GoodsGraph, Instance


def write_instance(path, graph: GoodsGraph, utils: list[dict], types=None):
    agents = tuple(
        Agent(id=i, type_id=(types[i - 1] if types else i), utility={v: Fraction(x) for v, x in u.items()})
        for i, u in enumerate(utils, start=1)
    )
    doc = io.instance_to_doc(Instance(graph=graph, agents=agents))
    Path(path).write_bytes(io.canonical_dumps(doc).encode("utf-8"))


def complete_bipartite(a: int, b: int) -> GoodsGraph:
    left = [f"a{i}" for i in range(a)]
    right = [f"b{i}" for i in range(b)]
    return GoodsGraph.build(left + right, [(x, y) for x in left for y in right])


def cycle(n: int) -> GoodsGraph:
    names = [f"c{i}" for i in range(n)]
    return GoodsGraph.build(names, [(names[i], names[(i + 1) % n]) for i in range(n)])


def test_recognize_complete_bipartite(tmp_path, capsys):
    g = complete_bipartite(2, 2)
    f = tmp_path / "k22.json"
    write_instance(f, g, [{v: 1 for v in g.vertices}])
    assert cli.main(["recognize", str(f)]) == 0
    out = capsys.readouterr().out
    assert "complete_multipartite" in out
    assert "parts=[2,2]" in out
    assert "connected=false" not in out


def test_recognize_disconnected(tmp_path, capsys):
    g = GoodsGraph.build(["a", "b", "c"], [("a", "b")])
    f = tmp_path / "disc.json"
    write_instance(f, g, [{v: 1 for v in g.vertices}])
    assert cli.main(["recognize", str(f)]) == 0
    assert "connected=false" in capsys.readouterr().out


def test_mms_command_reports_both_shares(tmp_path, capsys):
    g = GoodsGraph.build(["x", "y", "z"], [("x", "y")])
    f = tmp_path / "fix.json"
    write_instance(f, g, [{"x": 2, "y": 2, "z": 1}, {"x": 2, "y": 2, "z": 1}], types=[1, 1])
    assert cli.main(["mms", str(f), "--agent", "1"]) == 0
    out = capsys.readouterr().out
    assert "agent 1 n=2 mms=1/1 pmms=2/1" in out


def test_gen_is_deterministic(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    args = ["gen", "--class", "split", "--seed", "7", "--vertices", "9", "--agents", "2"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert cli.main(["gen", "--class", "split", "--seed", "8", "--vertices", "9", "--agents", "2", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_postconditions(tmp_path):
    f = tmp_path / "bc.json"
    assert cli.main(["gen", "--class", "block-cactus", "--seed", "3", "--vertices", "9", "--agents", "3", "--out", str(f)]) == 0
    inst, _ = io.load_instance(str(f))
    assert len(inst.graph) == 9 and inst.n == 3
    text = f.read_text(encoding="utf-8")
    parsed, names = io.parse_instance_doc(json.loads(text))
    assert io.canonical_dumps(io.instance_to_doc(parsed, names)) == text


def test_gen_infeasible_parameters_exit_3(tmp_path):
    rc = cli.main(["gen", "--class", "multipartite", "--seed", "1", "--vertices", "6", "--agents", "3", "--out", str(tmp_path / "x.json")])
    assert rc == 3


def test_allocate_auto_dispatch_cycle(tmp_path, capsys):
    g = cycle(6)
    f = tmp_path / "c6.json"
    write_instance(f, g, [{v: 1 for v in g.vertices}, {v: 1 for v in g.vertices}])
    out_f = tmp_path / "alloc.json"
    assert cli.main(["allocate", str(f), "--out", str(out_f)]) == 0
    err = capsys.readouterr().err
    assert "class=block-cactus" in err and "pass" in err
    doc = json.loads(out_f.read_text(encoding="utf-8"))
    assert doc["alpha_target"] == "1/2"

    assert cli.main(["verify", str(f), str(out_f), "--alpha", "1/2"]) == 0


def test_allocate_three_agents_on_k33(tmp_path, capsys):
    g = complete_bipartite(3, 3)
    f = tmp_path / "k33.json"
    write_instance(f, g, [{v: 1 for v in g.vertices} for _ in range(3)])
    assert cli.main(["allocate", str(f), "--out", str(tmp_path / "a.json")]) == 0
    assert "class=multipartite" in capsys.readouterr().err


def test_allocate_wrong_class_exit_3(tmp_path):
    g = cycle(6)
    f = tmp_path / "c6.json"
    write_instance(f, g, [{v: 1 for v in g.vertices}])
    # C6 is neither split nor complete multipartite
    rc = cli.main(["allocate", str(f), "--class", "split", "--out", str(tmp_path / "a.json")])
    assert rc == 3


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    assert cli.main(["recognize", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert cli.main(["recognize", str(missing)]) == 2

    g = cycle(4)
    f = tmp_path / "c4.json"
    write_instance(f, g, [{v: 1 for v in g.vertices}])
    alloc = tmp_path / "alloc.json"
    cli.main(["allocate", str(f), "--out", str(alloc)])
    assert cli.main(["verify", str(f), str(alloc), "--alpha", "banana"]) == 2


def test_verify_zero_denominator_alpha_exit_2(tmp_path, capsys):
    g = cycle(4)
    f = tmp_path / "c4.json"
    write_instance(f, g, [{v: 1 for v in g.vertices}])
    alloc = tmp_path / "alloc.json"
    assert cli.main(["allocate", str(f), "--out", str(alloc)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", str(f), str(alloc), "--alpha", "1/0"]) == 2
    assert "not a rational value: '1/0'" in capsys.readouterr().err


def test_size_cap_exit_4(tmp_path):
    names = [f"v{i:02d}" for i in range(15)]
    g = GoodsGraph.build(names, [(names[i], names[i + 1]) for i in range(14)])
    f = tmp_path / "long.json"
    write_instance(f, g, [{v: 1 for v in names}])
    assert cli.main(["mms", str(f)]) == 4


def test_verify_failing_certificate_exit_1(tmp_path, capsys):
    g = cycle(6)
    f = tmp_path / "c6.json"
    write_instance(f, g, [{v: 1 for v in g.vertices}, {v: 1 for v in g.vertices}])
    alloc = tmp_path / "alloc.json"
    assert cli.main(["allocate", str(f), "--out", str(alloc)]) == 0
    capsys.readouterr()
    # each agent holds 3 of 6, mms is 3, so min ratio 1: alpha 2 must fail
    assert cli.main(["verify", str(f), str(alloc), "--alpha", "2/1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_reports_a_repeated_agent_exit_1(tmp_path, capsys):
    g = cycle(6)
    f = tmp_path / "c6.json"
    write_instance(f, g, [{v: 1 for v in g.vertices}, {v: 1 for v in g.vertices}])
    alloc = tmp_path / "alloc.json"
    assert cli.main(["allocate", str(f), "--out", str(alloc)]) == 0
    capsys.readouterr()
    # a hand edit hands agent 2's bundle to agent 1 as well
    doc = json.loads(alloc.read_text(encoding="utf-8"))
    doc["bundles"][1]["agent"] = 1
    alloc.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["verify", str(f), str(alloc), "--alpha", "1/2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "structural_ok=false" in out[0]
    assert "note: an agent id labels two bundles" in out


def test_batch_csv(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "trials": [
                    {"class": "block-cactus", "count": 2, "seed": 11, "vertices": 8, "agents": 2},
                    {"class": "split", "count": 1, "seed": 5, "vertices": 8, "agents": 2},
                ]
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "report.csv"
    assert cli.main(["batch", "--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "instance_id,class,n_agents,n_vertices,n_types,alpha_target,min_ratio,pass,runtime_ms"
    assert len(lines) == 4
    assert all(line.split(",")[7] == "true" for line in lines[1:])


def test_batch_empty_config_header_only(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"trials": []}), encoding="utf-8")
    out = tmp_path / "report.csv"
    assert cli.main(["batch", "--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines == ["instance_id,class,n_agents,n_vertices,n_types,alpha_target,min_ratio,pass,runtime_ms"]


def test_batch_non_int_trial_field_exit_2(tmp_path, capsys):
    base = {"class": "block-cactus", "count": 1, "seed": 11, "vertices": 8, "agents": 2}
    config = tmp_path / "cfg.json"
    out = tmp_path / "report.csv"
    for name, bad in [
        ("count", "2"),
        ("seed", 1.5),
        ("vertices", None),
        ("agents", True),
        ("max_utility", [20]),
    ]:
        config.write_text(json.dumps({"trials": [{**base, name: bad}]}), encoding="utf-8")
        assert cli.main(["batch", "--config", str(config), "--out", str(out)]) == 2, name
        assert f"trial {name} must be an integer" in capsys.readouterr().err


def test_batch_trial_without_class_exit_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"trials": [{"count": 1, "seed": 1, "vertices": 6, "agents": 2}]}),
        encoding="utf-8",
    )
    out = tmp_path / "report.csv"
    assert cli.main(["batch", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert 'missing "class"' in err
    for cls in ("block-cactus", "multipartite", "split"):
        assert cls in err
    assert "auto" not in err


def test_console_script_round_trip(tmp_path):
    # The child imports the package from where this process found it, which
    # may be a path pytest added rather than one on PYTHONPATH.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    inst = tmp_path / "inst.json"
    res = subprocess.run(
        [sys.executable, "-m", "graphfair.cli", "gen", "--class", "block-cactus",
         "--seed", "2", "--vertices", "7", "--agents", "2", "--out", str(inst)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0, res.stderr
    res = subprocess.run(
        [sys.executable, "-m", "graphfair.cli", "allocate", str(inst)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert "bundles" in doc and "alpha_target" in doc


def test_batch_infeasible_sizes_exit_3_like_gen(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    out = tmp_path / "report.csv"
    trial = {"class": "multipartite", "vertices": 5, "agents": 2}
    config.write_text(json.dumps({"trials": [trial]}), encoding="utf-8")
    assert cli.main(["batch", "--config", str(config), "--out", str(out)]) == 3
    batch_err = capsys.readouterr().err
    assert batch_err.startswith("infeasible parameters: ")
    gen = ["gen", "--class", "multipartite", "--seed", "0", "--vertices", "5", "--agents", "2"]
    assert cli.main(gen) == 3
    assert capsys.readouterr().err == batch_err


def test_batch_unknown_class_exit_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    out = tmp_path / "report.csv"
    config.write_text(json.dumps({"trials": [{"class": "auto"}]}), encoding="utf-8")
    assert cli.main(["batch", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unknown \"class\" 'auto'" in err
    for cls in ("block-cactus", "multipartite", "split"):
        assert cls in err


def assert_cannot_write(argv: list[str], out: Path, capsys) -> None:
    """`argv --out out` exits 2 and names the path, leaving no traceback."""
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert not out.exists()


def test_allocate_unwritable_out_exit_2(tmp_path, capsys):
    g = cycle(4)
    f = tmp_path / "c4.json"
    write_instance(f, g, [{v: 1 for v in g.vertices}, {v: 1 for v in g.vertices}])
    assert_cannot_write(["allocate", str(f)], tmp_path / "missing" / "alloc.json", capsys)


def test_gen_unwritable_out_exit_2(tmp_path, capsys):
    gen = ["gen", "--class", "split", "--seed", "1", "--vertices", "6", "--agents", "2"]
    assert_cannot_write(gen, tmp_path / "missing" / "inst.json", capsys)


def test_batch_unwritable_out_exit_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"trials": []}), encoding="utf-8")
    assert_cannot_write(["batch", "--config", str(config)], tmp_path / "missing" / "r.csv", capsys)


def test_batch_negative_count_exit_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    out = tmp_path / "report.csv"
    trial = {"class": "block-cactus", "count": -1, "vertices": 8, "agents": 2}
    config.write_text(json.dumps({"trials": [trial]}), encoding="utf-8")
    assert cli.main(["batch", "--config", str(config), "--out", str(out)]) == 2
    assert "trial count must not be negative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_batch_checks_every_trial_before_running_any(tmp_path, capsys, record):
    config = tmp_path / "cfg.json"
    out = tmp_path / "report.csv"
    trials = [
        {"class": "multipartite", "count": 3, "vertices": 10, "agents": 2},
        {"class": "split", "count": -1},
    ]
    config.write_text(json.dumps({"trials": trials}), encoding="utf-8")
    generated = record(cli.generators, "generate")
    assert cli.main(["batch", "--config", str(config), "--out", str(out)]) == 2
    assert "trial count must not be negative, got -1" in capsys.readouterr().err
    assert generated == []
    assert not out.exists()


def unreadable_file_commands(tmp_path, bad: Path) -> list[list[str]]:
    """allocate, verify and batch, each reading `bad` as its last input file."""
    g = cycle(4)
    inst = tmp_path / "c4.json"
    write_instance(inst, g, [{v: 1 for v in g.vertices}, {v: 1 for v in g.vertices}])
    return [
        ["allocate", str(bad)],
        ["verify", str(inst), str(bad), "--alpha", "1/2"],
        ["batch", "--config", str(bad)],
    ]


def test_missing_input_file_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    for argv in unreadable_file_commands(tmp_path, missing):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: "), argv


def test_malformed_input_file_exit_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{\n  "trials": [\n', encoding="utf-8")
    for argv in unreadable_file_commands(tmp_path, broken):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: {broken}: invalid JSON at line 3"), argv
