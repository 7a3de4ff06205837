import json
import math
import subprocess
import sys

import numpy as np
import pytest

from bayesim import cli, energy, stochastic, tasks
from child_env import child_env


@pytest.fixture(autouse=True)
def serial_workers(monkeypatch):
    # keep in-process CLI tests off the process pool; the parallel-vs-serial
    # equality lives in the acceptance suite
    monkeypatch.setenv("BAYESIM_THREADS", "1")


def run(*argv):
    return cli.main([str(a) for a in argv])


def read_rows(path):
    header = None
    rows = []
    for ln in path.read_text().splitlines():
        if ln.startswith("#"):
            continue
        if header is None:
            header = ln.split(",")
        else:
            rows.append(dict(zip(header, ln.split(","))))
    return rows


def test_pipeline_end_to_end(tmp_path):
    out = tmp_path / "run"
    assert run("gen", "--task", "gesture_like", "--seed", 11, "--out", out) == 0
    assert (out / "train.csv").exists() and (out / "test.csv").exists()
    assert (out / "train.csv.manifest.json").exists()

    model = out / "model.json"
    assert run("train", "--data", out / "train.csv", "--dist", "gaussian",
               "--bins", 64, "--out", model) == 0
    assert run("compile", "--model", model, "--mode", "logarithmic",
               "--out", out / "log.img") == 0
    assert run("compile", "--model", model, "--mode", "stochastic",
               "--out", out / "lin.img") == 0

    assert run("sim", "--model", model, "--image", out / "log.img",
               "--data", out / "test.csv", "--out", out) == 0
    sim = read_rows(out / "sim.csv")
    assert len(sim) == 1 and sim[0]["mode"] == "logarithmic"
    assert float(sim[0]["mean_acc"]) > 0.5  # clearly above 4-class chance
    assert sim[0]["std_acc"] == "0.0"  # deterministic machine

    assert run("sim", "--model", model, "--image", out / "lin.img",
               "--data", out / "test.csv", "--budget", 32, "--trials", 3,
               "--seed", 5, "--out", out) == 0
    sim = read_rows(out / "sim.csv")
    assert sim[0]["mode"] == "stochastic" and sim[0]["trials"] == "3"
    assert float(sim[0]["mean_cycles"]) <= 32

    assert run("sweep", "--kind", "cycles", "--model", model,
               "--data", out / "test.csv", "--grid", "4,16", "--trials", 2,
               "--seed", 5, "--out", out) == 0
    rows = read_rows(out / "sweep_cycles.csv")
    assert len(rows) == 4  # grid size x strategy count
    assert {r["strategy"] for r in rows} == {"conventional", "power_conscious"}

    assert run("sweep", "--kind", "ber", "--model", model,
               "--data", out / "test.csv", "--grid", "0,0.01", "--budget", 16,
               "--trials", 2, "--seed", 5, "--out", out) == 0
    rows = read_rows(out / "sweep_ber.csv")
    assert len(rows) == 4
    assert {r["machine"] for r in rows} == {"logarithmic", "stochastic"}

    assert run("energy", "--model", model, "--data", out / "test.csv",
               "--grid", "4,16", "--trials", 2, "--seed", 5, "--out", out) == 0
    rows = read_rows(out / "energy.csv")
    assert len(rows) == 5  # 2 strategies x 2 budgets + 1 log point
    assert "# crossover_budget=" in (out / "energy.csv").read_text()

    assert run("report", "--run", out, "--out", out) == 0
    statuses = {r["file"]: r["status"] for r in read_rows(out / "report.csv")}
    assert set(statuses.values()) == {"ok"}
    assert "sweep_cycles.csv" in statuses


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("gen", "--task", "sleep_like", "--seed", 3, "--out", a) == 0
    assert run("gen", "--task", "sleep_like", "--seed", 3, "--out", b) == 0
    assert (a / "train.csv").read_bytes() == (b / "train.csv").read_bytes()
    assert (a / "test.csv").read_bytes() == (b / "test.csv").read_bytes()


def test_gen_spec_file_round(tmp_path, capsys):
    out = tmp_path / "r"
    assert run("gen", "--task", "gesture_like", "--seed", 9, "--out", out) == 0
    out2 = tmp_path / "r2"
    capsys.readouterr()
    assert run("gen", "--spec", out / "spec.json", "--task", "sleep_like", "--out", out2) == 2
    assert capsys.readouterr().err == "error: --task is not used by gen --spec\n"
    assert not out2.exists()
    assert run("gen", "--spec", out / "spec.json", "--out", out2) == 0
    # same data; only the embedded manifest hash reflects the different flags
    strip = lambda p: p.read_text().splitlines()[1:]
    assert strip(out / "train.csv") == strip(out2 / "train.csv")
    assert strip(out / "test.csv") == strip(out2 / "test.csv")


def test_pipeline_above_law_rows(tmp_path, capsys):
    # a 13-class filter task: its stochastic image would need a law of 2**13
    # masks, so compile refuses it naming the bound; the log machine runs it
    classes = stochastic.LAW_MAX_ROWS + 1
    chain = np.full((classes, classes), 0.1 / (classes - 1))
    np.fill_diagonal(chain, 0.9)
    spec = tasks.SyntheticTaskSpec(
        kind="sleep_like", classes=classes, features=2,
        locations=tuple(map(tuple, np.arange(2 * classes).reshape(classes, 2) / 4)),
        scales=tuple(map(tuple, np.full((classes, 2), 0.5))),
        transition=tuple(map(tuple, chain)), train_size=400, test_size=60, seed=3)
    tasks.save_task_spec(tmp_path / "spec.json", spec)
    out = tmp_path / "r"
    assert run("gen", "--spec", tmp_path / "spec.json", "--out", out) == 0
    model = out / "model.json"
    assert run("train", "--data", out / "train.csv", "--bins", 8, "--out", model) == 0
    capsys.readouterr()
    assert run("compile", "--model", model, "--mode", "stochastic", "--out", out / "lin.img") == 2
    assert f"at most LAW_MAX_ROWS = {stochastic.LAW_MAX_ROWS} rows" in capsys.readouterr().err
    assert not (out / "lin.img").exists()
    assert run("compile", "--model", model, "--mode", "logarithmic", "--out", out / "log.img") == 0
    assert run("sim", "--model", model, "--image", out / "log.img",
               "--data", out / "test.csv", "--out", out) == 0
    sim = read_rows(out / "sim.csv")
    assert len(sim) == 1 and sim[0]["mode"] == "logarithmic"


def test_exit_codes(tmp_path, capsys):
    assert run("train", "--data", tmp_path / "nope.csv", "--out", tmp_path / "m.json") == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.csv"
    bad.write_text("not a dataset\n")
    assert run("train", "--data", bad, "--out", tmp_path / "m.json") == 2
    assert ":1:" in capsys.readouterr().err  # line-anchored

    out = tmp_path / "r"
    assert run("gen", "--task", "gesture_like", "--seed", 1, "--out", out) == 0
    model = out / "model.json"
    assert run("train", "--data", out / "train.csv", "--out", model) == 0
    assert run("compile", "--model", model, "--mode", "logarithmic",
               "--width", 16, "--out", out / "x.img") == 2
    assert "8-bit" in capsys.readouterr().err


def test_exit_one_on_runtime_failure(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    code = run("gen", "--task", "gesture_like", "--seed", 1,
               "--out", blocker / "sub")
    assert code == 1
    assert "runtime failure" in capsys.readouterr().err


def test_missing_required_flag(tmp_path, capsys):
    assert run("compile", "--out", tmp_path / "x.img") == 2
    assert "--model" in capsys.readouterr().err


def test_report_flags_tampering(tmp_path):
    out = tmp_path / "r"
    assert run("gen", "--task", "gesture_like", "--seed", 2, "--out", out) == 0
    assert run("report", "--run", out, "--out", out) == 0
    with open(out / "train.csv", "a") as fh:
        fh.write("junk\n")
    assert run("report", "--run", out, "--out", out) == 2
    statuses = {r["file"]: r["status"] for r in read_rows(out / "report.csv")}
    assert statuses["train.csv"] == "content-mismatch"
    (out / "test.csv.manifest.json").unlink()
    assert run("report", "--run", out, "--out", out) == 2
    statuses = {r["file"]: r["status"] for r in read_rows(out / "report.csv")}
    assert statuses["test.csv"] == "missing-manifest"


def test_report_flags_corrupt_manifest(tmp_path):
    out = tmp_path / "r"
    assert run("gen", "--task", "gesture_like", "--seed", 2, "--out", out) == 0
    for text in ("{not json\n", "[" * 200_000 + "]" * 200_000):
        (out / "test.csv.manifest.json").write_text(text)
        assert run("report", "--run", out, "--out", tmp_path / "rep") == 2
        statuses = {r["file"]: r["status"] for r in read_rows(tmp_path / "rep" / "report.csv")}
        assert statuses == {"test.csv": "bad-manifest", "train.csv": "ok"}
    # a directory is neither a manifest nor a CSV
    (out / "test.csv.manifest.json").unlink()
    (out / "test.csv.manifest.json").mkdir()
    (out / "dir.csv").mkdir()
    assert run("report", "--run", out, "--out", tmp_path / "rep") == 2
    statuses = {r["file"]: r["status"] for r in read_rows(tmp_path / "rep" / "report.csv")}
    assert statuses == {"test.csv": "bad-manifest", "train.csv": "ok"}


def test_report_flags_unreadable_csv(tmp_path):
    out = tmp_path / "r"
    assert run("gen", "--task", "gesture_like", "--seed", 2, "--out", out) == 0
    (out / "train.csv").write_bytes(b"# bayesim-dataset version=1\n\xff\xfe\n")
    assert run("report", "--run", out, "--out", tmp_path / "rep") == 2
    statuses = {r["file"]: r["status"] for r in read_rows(tmp_path / "rep" / "report.csv")}
    assert statuses == {"test.csv": "ok", "train.csv": "unreadable"}


def test_trials_below_one_refused(tmp_path, capsys):
    out = tmp_path / "t"
    assert run("gen", "--task", "gesture_like", "--seed", 3, "--out", out) == 0
    model = out / "model.json"
    assert run("train", "--data", out / "train.csv", "--bins", 8, "--out", model) == 0
    assert run("compile", "--model", model, "--mode", "stochastic", "--out", out / "lin.img") == 0
    capsys.readouterr()
    for trials in (0, -1):
        common = ["--model", model, "--data", out / "test.csv", "--trials", trials,
                  "--out", out]
        assert run("sim", "--image", out / "lin.img", *common) == 2
        assert run("sweep", "--kind", "cycles", *common) == 2
        assert run("energy", *common) == 2
        assert capsys.readouterr().err.count("--trials must be >= 1") == 3
    assert not any((out / f).exists() for f in ("sim.csv", "sweep_cycles.csv", "energy.csv"))


def test_energy_refuses_a_boolean_cost(tmp_path, capsys):
    out = tmp_path / "t"
    assert run("gen", "--task", "gesture_like", "--seed", 3, "--out", out) == 0
    model = out / "model.json"
    assert run("train", "--data", out / "train.csv", "--bins", 8, "--out", model) == 0
    cost = out / "cost.json"
    cost.write_text(json.dumps({"version": 1, "unit": "J", "costs": {
        "mem_read_bit": 1e-12, "add_op": True, "and_compare_op": 1e-12, "rng_draw": 1e-12,
        "counter_increment": 1e-12, "register_write": 1e-12}}))
    capsys.readouterr()
    assert run("energy", "--model", model, "--data", out / "test.csv", "--cost", cost,
               "--grid", 8, "--trials", 1, "--out", out) == 2
    assert "cost add_op" in capsys.readouterr().err
    assert not (out / "energy.csv").exists()


def test_sim_refuses_sampling_options_on_log_image(tmp_path, capsys):
    out = tmp_path / "t"
    assert run("gen", "--task", "gesture_like", "--seed", 3, "--out", out) == 0
    model = out / "model.json"
    assert run("train", "--data", out / "train.csv", "--bins", 8, "--out", model) == 0
    assert run("compile", "--model", model, "--out", out / "log.img") == 0
    sim = ["sim", "--model", model, "--image", out / "log.img", "--data", out / "test.csv",
           "--out", out]
    capsys.readouterr()
    # a logarithmic machine runs one pass: none of these can change its row
    for flag, value in (("--budget", 7), ("--strategy", "power_conscious"),
                        ("--trials", 3), ("--seed", 5)):
        assert run(*sim, flag, value) == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sim": {flag[2:]: value}}))
        assert run("--config", cfg, *sim) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {flag} is not used by a logarithmic image"] * 2
    assert not (out / "sim.csv").exists()
    assert run(*sim) == 0


def test_non_finite_feature_refused(tmp_path, capsys):
    out = tmp_path / "n"
    assert run("gen", "--task", "gesture_like", "--seed", 3, "--out", out) == 0
    model = out / "model.json"
    assert run("train", "--data", out / "train.csv", "--bins", 8, "--out", model) == 0
    assert run("compile", "--model", model, "--out", out / "log.img") == 0
    lines = (out / "test.csv").read_text().splitlines()
    label, _, rest = lines[2].split(",", 2)
    lines[2] = f"{label},nan,{rest}"  # second data row, file line 3
    bad = out / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("sim", "--model", model, "--image", out / "log.img", "--data", bad,
               "--out", out) == 2
    assert run("train", "--data", bad, "--out", out / "m2.json") == 2
    assert capsys.readouterr().err.count("bad.csv:3: non-finite feature") == 2
    assert not (out / "sim.csv").exists()


def test_malformed_inputs_exit_two(tmp_path, capsys):
    out = tmp_path / "m"
    assert run("gen", "--task", "gesture_like", "--seed", 3, "--out", out) == 0
    model = out / "model.json"
    assert run("train", "--data", out / "train.csv", "--bins", 8, "--out", model) == 0
    junk = tmp_path / "junk"
    junk.write_bytes(b"\xff\xfe not UTF-8")
    no_cols = tmp_path / "nocols.csv"
    no_cols.write_text("# bayesim-dataset version=1 kind=features\n0,1.0\n")
    bad_cols = tmp_path / "badcols.csv"
    bad_cols.write_text("# bayesim-dataset version=1 kind=features columns=abc\n0,1.0\n")
    huge = tmp_path / "huge.json"
    doc = json.loads(model.read_text())
    huge.write_text(json.dumps({**doc, "bins": "BINS"}).replace('"BINS"', "[1e400]"))
    img = tmp_path / "x.img"
    lin = tmp_path / "lin.img"
    log = tmp_path / "log.img"
    assert run("compile", "--model", model, "--mode", "stochastic", "--out", lin) == 0
    assert run("compile", "--model", model, "--out", log) == 0
    bad_seed = tmp_path / "seed.json"
    bad_seed.write_text(json.dumps({"gen": {"seed": "x"}}))
    bad_budget = tmp_path / "budget.json"
    bad_budget.write_text(json.dumps({"sim": {"budget": "abc"}}))
    bad_width = tmp_path / "width.json"
    bad_width.write_text(json.dumps({"sweep": {"kind": "bits", "width": 12}}))
    bad_strategy = tmp_path / "strategy.json"
    bad_strategy.write_text(json.dumps({"sim": {"strategy": "eager"}}))
    bad_spec = tmp_path / "spec.json"
    assert run("gen", "--task", "gesture_like", "--out", tmp_path / "s") == 0
    bad_spec.write_text((tmp_path / "s" / "spec.json").read_text().replace(
        '"seed": 0', '"seed": "abc"'))
    off_row = tmp_path / "offrow.json"  # a transition row summing to 1.000005
    assert run("gen", "--task", "sleep_like", "--out", tmp_path / "sl") == 0
    doc = json.loads((tmp_path / "sl" / "spec.json").read_text())
    doc["transition"][0][0] += 5e-6
    off_row.write_text(json.dumps(doc))
    pj_cost = tmp_path / "pj.json"  # picojoules must not be read as joules
    energy.save_cost_table(pj_cost, energy.example_cost_table())
    pj_cost.write_text(pj_cost.read_text().replace('"J"', '"pJ"'))
    spec = json.loads((tmp_path / "sl" / "spec.json").read_text())
    nan_scale = tmp_path / "nanscale.json"  # gen wrote it, train refused its rows
    nan_scale.write_text(json.dumps({**spec, "scales": [[math.nan] * 3] * 4}))
    inf_loc = tmp_path / "infloc.json"
    inf_loc.write_text(json.dumps({**spec, "locations": [[math.inf] * 3] * 4}))
    skewed = tmp_path / "skewed.json"  # a prior no compiled image can hold
    doc = json.loads(model.read_text())
    skewed.write_text(json.dumps({**doc, "prior": [0.97] + [0.01] * (doc["classes"] - 1)}))
    cases = [
        ["compile", "--model", junk, "--out", img],
        ["compile", "--model", huge, "--out", img],
        ["train", "--data", junk, "--out", tmp_path / "x.json"],
        ["train", "--data", no_cols, "--out", tmp_path / "x.json"],
        ["train", "--data", bad_cols, "--out", tmp_path / "x.json"],
        ["gen", "--spec", junk, "--out", tmp_path / "g"],
        ["gen", "--spec", bad_spec, "--out", tmp_path / "g"],
        ["gen", "--spec", off_row, "--out", tmp_path / "g"],
        ["gen", "--spec", nan_scale, "--out", tmp_path / "g"],
        ["gen", "--spec", inf_loc, "--out", tmp_path / "g"],
        ["--config", junk, "gen", "--task", "gesture_like", "--out", tmp_path / "g"],
        ["--config", bad_seed, "gen", "--task", "gesture_like", "--out", tmp_path / "g"],
        ["--config", bad_budget, "sim", "--model", model, "--image", lin,
         "--data", out / "test.csv", "--out", tmp_path / "g"],
        ["train", "--data", out / "train.csv", "--bins", 0, "--out", tmp_path / "x.json"],
        ["train", "--data", out / "train.csv", "--bins", -3, "--out", tmp_path / "x.json"],
        ["sweep", "--kind", "cycles", "--model", model, "--data", out / "test.csv",
         "--grid", "", "--out", tmp_path / "g"],
        ["sweep", "--kind", "ber", "--model", model, "--data", out / "test.csv",
         "--grid", "", "--out", tmp_path / "g"],
        ["energy", "--model", model, "--data", out / "test.csv", "--grid", "",
         "--out", tmp_path / "g"],
        ["--config", bad_width, "sweep", "--model", model, "--data", out / "test.csv",
         "--out", tmp_path / "g"],
        ["--config", bad_strategy, "sim", "--model", model, "--image", log,
         "--data", out / "test.csv", "--out", tmp_path / "g"],
        ["energy", "--model", model, "--data", out / "test.csv", "--cost", pj_cost,
         "--grid", 8, "--trials", 1, "--out", tmp_path / "g"],
        ["sim", "--model", model, "--image", lin, "--data", out / "test.csv",  # petabytes
         "--budget", 10**12, "--out", tmp_path / "g"],
        ["sim", "--model", model, "--image", lin, "--data", out / "test.csv",  # 2**53 + 1
         "--budget", 9007199254740993, "--strategy", "power_conscious", "--out", tmp_path / "g"],
        ["train", "--data", out / "train.csv", "--alpha", 0.5, "--out", tmp_path / "x.json"],
    ]
    capsys.readouterr()
    for argv in cases:
        assert run(*argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:"), argv
    for argv in (["compile", "--model", skewed, "--out", img],
                 ["sim", "--model", skewed, "--image", log, "--data", out / "test.csv",
                  "--out", tmp_path / "g"]):
        assert run(*argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: prior must be"), argv
    assert run("--config", bad_budget, "sim", "--model", model, "--image", lin,
               "--data", out / "test.csv", "--out", tmp_path / "g") == 2
    assert "--budget must be an integer, got 'abc'" in capsys.readouterr().err
    # a flag the command would accept and then ignore is refused by name
    sweep = ["sweep", "--model", model, "--data", out / "test.csv", "--out", tmp_path / "g"]
    unused = [
        ("--budget", [*sweep, "--kind", "cycles", "--budget", 16]),
        ("--budget", [*sweep, "--kind", "bits", "--budget", 16]),
        ("--width", [*sweep, "--kind", "bits", "--width", 16]),
    ]
    for flag, argv in unused:
        assert run(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err, argv
    assert not img.exists() and not (tmp_path / "x.json").exists()
    assert not any((tmp_path / "g" / f).exists() for f in (
        "sim.csv", "sweep_cycles.csv", "sweep_ber.csv", "sweep_bits.csv", "energy.csv"))
    # a flag and a config value are read by the same checker
    seed_abc = tmp_path / "seed_abc.json"
    seed_abc.write_text(json.dumps({"gen": {"seed": "abc"}}))
    assert run("gen", "--task", "gesture_like", "--seed", "abc", "--out", tmp_path / "g") == 2
    assert run("--config", seed_abc, "gen", "--task", "gesture_like", "--out", tmp_path / "g") == 2
    errs = capsys.readouterr().err.splitlines()
    assert errs == ["error: --seed must be an integer, got 'abc'"] * 2


def test_oversized_sizes_exit_two_before_allocating(tmp_path, capsys):
    # each would need terabytes; each is refused from its sizes alone
    out = tmp_path / "g"
    assert run("gen", "--task", "gesture_like", "--seed", 7, "--out", out) == 0
    doc = json.loads((out / "spec.json").read_text())
    model = tmp_path / "m.json"
    cases = [(["train", "--data", out / "train.csv", "--bins", 10**12, "--out", model],
              f"4 classes over {6 * 10**12} bins need a density table of {24 * 10**12} "
              "entries, more than 4194304")]
    for name in ("train_size", "test_size"):
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps({**doc, name: 10**12}))
        cases.append((["gen", "--spec", spec, "--out", tmp_path / name],
                      f"{name} {10**12} generates {24 * 10**12} feature values, more than 4194304"))
    capsys.readouterr()
    for argv, message in cases:
        assert run(*argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv
    assert not model.exists()
    assert not any((tmp_path / name / "train.csv").exists() for name in ("train_size", "test_size"))


def test_compile_refuses_a_float_class_count(tmp_path, capsys):
    out = tmp_path / "sl"
    assert run("gen", "--task", "sleep_like", "--seed", 3, "--out", out) == 0
    model = out / "model.json"
    assert run("train", "--data", out / "train.csv", "--filter", "--out", model) == 0
    doc = json.loads(model.read_text())
    model.write_text(json.dumps({**doc, "classes": float(doc["classes"])}))
    capsys.readouterr()
    assert run("compile", "--model", model, "--out", tmp_path / "x.img") == 2
    assert "classes must be an integer, got 4.0" in capsys.readouterr().err
    assert not (tmp_path / "x.img").exists()


# every command's flags; --filter and --text are switches and take no value
COMMAND_FLAGS = {
    "gen": {"--task", "--spec", "--seed", "--out"},
    "train": {"--data", "--dist", "--bins", "--alpha", "--filter", "--out"},
    "compile": {"--model", "--mode", "--width", "--text", "--out"},
    "sim": {"--model", "--image", "--data", "--budget", "--strategy", "--trials", "--seed",
            "--out"},
    "sweep": {"--kind", "--model", "--data", "--grid", "--budget", "--width", "--trials",
              "--seed", "--out"},
    "energy": {"--model", "--data", "--grid", "--width", "--cost", "--trials", "--seed",
               "--out"},
    "report": {"--run", "--out"},
}


def test_parser_accepts_exactly_each_commands_flags(capsys):
    parser = cli.build_parser()
    for command, flags in COMMAND_FLAGS.items():
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: bayesim {command}")
        dests = {flag[2:].replace("-", "_") for flag in flags}
        assert set(vars(parser.parse_args([command]))) == dests | {"command", "func", "config"}
        for flag in flags:
            argv = [command, flag] + ([] if flag in ("--filter", "--text") else ["v"])
            assert getattr(parser.parse_args(argv), flag[2:].replace("-", "_")) is not None
    # the class count is max(label) + 1, and column 0 always holds
    # 1 << classes.bit_length() values
    for argv in (["train", "--classes", "4"], ["compile", "--prior-values", "8"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2


def test_single_class_machine_is_always_right(tmp_path):
    rng = np.random.default_rng(0)
    out = tmp_path / "one"
    out.mkdir()
    data = out / "train.csv"
    lines = ["# bayesim-dataset version=1 kind=features fs=0.0 dt=0.0 columns=2"]
    for _ in range(30):
        lines.append("0," + ",".join(repr(float(v)) for v in rng.normal(size=2)))
    data.write_text("\n".join(lines) + "\n")
    model = out / "m.json"
    assert run("train", "--data", data, "--bins", 4, "--out", model) == 0
    assert run("sweep", "--kind", "cycles", "--model", model, "--data", data,
               "--grid", "1", "--trials", 2, "--seed", 1, "--out", out) == 0
    rows = read_rows(out / "sweep_cycles.csv")
    assert all(float(r["mean_acc"]) == 1.0 for r in rows)


@pytest.mark.parametrize("label", [10**15, 2**63 - 1])
def test_train_on_a_very_large_label_exits_two(tmp_path, capsys, label):
    data = tmp_path / "train.csv"
    lines = ["# bayesim-dataset version=1 kind=features fs=0.0 dt=0.0 columns=2"]
    lines += [f"{y},0.5,1.5" for y in (0, 0, 0, 0, label)]
    data.write_text("\n".join(lines) + "\n")
    assert run("train", "--data", data, "--out", tmp_path / "m.json") == 2
    assert "class 1 has 0 samples, need >= 2" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_config_file_defaults_and_flag_priority(tmp_path):
    out = tmp_path / "r"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gen": {"task": "gesture_like", "seed": 7},
                               "sim": {"budget": 16, "trials": 2}}))
    assert run("--config", cfg, "gen", "--out", out) == 0
    model = out / "m.json"
    assert run("train", "--data", out / "train.csv", "--out", model) == 0
    assert run("compile", "--model", model, "--mode", "stochastic",
               "--out", out / "lin.img") == 0
    assert run("--config", cfg, "sim", "--model", model, "--image", out / "lin.img",
               "--data", out / "test.csv", "--out", out) == 0
    rows = read_rows(out / "sim.csv")
    assert rows[0]["budget"] == "16" and rows[0]["trials"] == "2"
    # explicit flag beats the config value
    assert run("--config", cfg, "sim", "--model", model, "--image", out / "lin.img",
               "--data", out / "test.csv", "--budget", 8, "--out", out) == 0
    rows = read_rows(out / "sim.csv")
    assert rows[0]["budget"] == "8"


def test_bad_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{broken\n")
    assert run("--config", cfg, "gen", "--task", "gesture_like",
               "--out", tmp_path / "r") == 2
    assert cfg.name in capsys.readouterr().err


@pytest.mark.parametrize("doc,named", [({"sim": {"budgett": 7}}, "no option 'budgett'"),
                                       ({"simm": {"budget": 7}}, "'simm' is not a command"),
                                       ({"sim": {"text": True}}, "no option 'text'"),
                                       ({"train": {"classes": 4}}, "no option 'classes'"),
                                       ({"compile": {"prior_values": 8}},
                                        "no option 'prior_values'")])
def test_config_keys_the_command_does_not_take_are_refused(tmp_path, capsys, doc, named):
    out = tmp_path / "k"
    assert run("gen", "--task", "gesture_like", "--seed", 3, "--out", out) == 0
    model = out / "model.json"
    assert run("train", "--data", out / "train.csv", "--bins", 8, "--out", model) == 0
    assert run("compile", "--model", model, "--mode", "stochastic", "--out", out / "lin.img") == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    capsys.readouterr()
    sim = ["sim", "--model", model, "--image", out / "lin.img", "--data", out / "test.csv",
           "--trials", 1, "--out", out]
    assert run("--config", cfg, *sim) == 2  # was run on defaults, exit 0
    assert named in capsys.readouterr().err
    assert not (out / "sim.csv").exists()


def test_sim_refuses_an_image_laid_out_for_another_model(tmp_path, capsys):
    out = tmp_path / "l"
    assert run("gen", "--task", "sleep_like", "--seed", 3, "--out", out) == 0
    for name, flags in (("m4", ["--bins", 4]), ("m8", ["--bins", 8]),
                        ("f8", ["--bins", 8, "--filter"])):
        assert run("train", "--data", out / "train.csv", "--dist", "lognormal", *flags,
                   "--out", out / f"{name}.json") == 0
    for name in ("m8", "f8"):
        assert run("compile", "--model", out / f"{name}.json", "--out", out / f"{name}.img") == 0
    capsys.readouterr()
    for model, image, why in (("m4", "m8", "column 0: image holds 8 values, model feature 0 "
                                            "has 4 bins"),
                              ("m8", "f8", "image has 4 columns, the naive model needs 3"),
                              ("f8", "m8", "image has 3 columns, the filter model needs 4")):
        assert run("sim", "--model", out / f"{model}.json", "--image", out / f"{image}.img",
                   "--data", out / "test.csv", "--out", out) == 2
        assert why in capsys.readouterr().err
    assert not (out / "sim.csv").exists()
    assert run("sim", "--model", out / "f8.json", "--image", out / "f8.img",
               "--data", out / "test.csv", "--out", out) == 0


def test_sweep_bits_schema(tmp_path):
    out = tmp_path / "r"
    assert run("gen", "--task", "gesture_like", "--seed", 4, "--out", out) == 0
    model = out / "m.json"
    assert run("train", "--data", out / "train.csv", "--bins", 16, "--out", model) == 0
    assert run("sweep", "--kind", "bits", "--model", model,
               "--data", out / "test.csv", "--grid", "4,8", "--trials", 2,
               "--seed", 3, "--out", out) == 0
    rows = read_rows(out / "sweep_bits.csv")
    assert len(rows) == 8  # 2 widths x 2 strategies x 2 budgets
    assert {r["width"] for r in rows} == {"8", "16"}


def test_manifest_hash_location_independent(tmp_path):
    a, b = tmp_path / "deep" / "a", tmp_path / "b"
    assert run("gen", "--task", "gesture_like", "--seed", 5, "--out", a) == 0
    assert run("gen", "--task", "gesture_like", "--seed", 5, "--out", b) == 0
    ha = json.loads((a / "train.csv.manifest.json").read_text())["hash"]
    hb = json.loads((b / "train.csv.manifest.json").read_text())["hash"]
    assert ha == hb
    assert (a / "train.csv").read_bytes() == (b / "train.csv").read_bytes()


@pytest.fixture(scope="module")
def gesture_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("gesture")
    assert run("gen", "--task", "gesture_like", "--seed", 7, "--out", d) == 0
    assert run("train", "--data", d / "train.csv", "--bins", 8, "--out", d / "m.json") == 0
    for mode, name in (("logarithmic", "log.img"), ("stochastic", "lin.img")):
        assert run("compile", "--model", d / "m.json", "--mode", mode, "--out", d / name) == 0
    return d


_SCORE = "--model {d}/m.json --data {d}/test.csv --out {o}"
_SAMPLE = "--trials 1 --seed 2"


# a command line ({d}: the gesture files, {o}: a fresh directory), the file
# whose sidecar it writes, and the options it reads, which are all its
# manifest may record
@pytest.mark.parametrize("argv,written,params", [
    pytest.param("gen --task gesture_like --seed 3 --out {o}", "train.csv", {"task", "seed"},
                 id="gen-preset"),
    pytest.param("gen --spec {d}/spec.json --out {o}", "train.csv", {"seed"}, id="gen-spec"),
    pytest.param("train --data {d}/train.csv --bins 8 --out {o}/m.json", "m.json",
                 {"dist", "bins", "filter"}, id="train"),
    pytest.param("train --data {d}/train.csv --filter --alpha 2 --out {o}/m.json", "m.json",
                 {"dist", "bins", "filter", "alpha"}, id="train-filter"),
    pytest.param("compile --model {d}/m.json --mode stochastic --out {o}/lin.img", "lin.img",
                 {"mode", "width", "text"}, id="compile"),
    pytest.param("sim --image {d}/log.img " + _SCORE, "sim.csv", set(), id="sim-log"),
    pytest.param("sim --image {d}/lin.img --budget 8 " + _SCORE + " " + _SAMPLE, "sim.csv",
                 {"budget", "strategy", "trials", "seed"}, id="sim-linear"),
    pytest.param("sweep --kind cycles --grid 4 " + _SCORE + " " + _SAMPLE, "sweep_cycles.csv",
                 {"kind", "grid", "width", "trials", "seed"}, id="sweep-cycles"),
    pytest.param("sweep --kind ber --grid 0 --budget 4 " + _SCORE + " " + _SAMPLE,
                 "sweep_ber.csv", {"kind", "grid", "budget", "width", "trials", "seed"},
                 id="sweep-ber"),
    pytest.param("sweep --kind bits --grid 4 " + _SCORE + " " + _SAMPLE, "sweep_bits.csv",
                 {"kind", "grid", "trials", "seed"}, id="sweep-bits"),
    pytest.param("energy --grid 4 " + _SCORE + " " + _SAMPLE, "energy.csv",
                 {"grid", "width", "trials", "seed"}, id="energy"),
    pytest.param("report --run {d} --out {o}", "report.csv", set(), id="report"),
])
def test_manifest_records_only_the_options_read(gesture_files, tmp_path, argv, written, params):
    argv = argv.format(d=gesture_files, o=tmp_path).split()
    assert run(*argv) == 0
    side = json.loads((tmp_path / (written + ".manifest.json")).read_text())
    assert set(side["params"]) == params


def test_module_runs_as_child_from_any_directory(tmp_path):
    # the acceptance suite starts `python -m bayesim` from a temporary
    # directory; this is the seconds-long check that such a child finds
    # the package under test
    proc = subprocess.run([sys.executable, "-m", "bayesim", "--help"],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage: bayesim" in proc.stdout
