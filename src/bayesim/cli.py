"""Command-line front end.

Subcommands chain into a pipeline:

    gen -> train -> compile -> sim / sweep / energy -> report

Every emitted CSV starts with a comment line carrying the schema name and
the hash of the run manifest; the full manifest (tool version, resolved
parameters, input checksums, timestamp) is written next to the CSV as a
``.manifest.json`` sidecar.  The hash covers everything except the
timestamp, so re-running a command with the same inputs reproduces the
CSVs byte for byte.  Exit codes: 0 ok, 2 validation problem, 1 runtime
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, energy, machine, modelkit, runner, tasks
from .errors import ConfigError, FormatError, ValidationError, parse_json, read_text

_CSV_VERSION = 1

SCHEMAS = {
    "sim": ("mode", "strategy", "budget", "width", "trials", "mean_acc", "std_acc", "mean_cycles"),
    "sweep_cycles": ("strategy", "budget", "mean_acc", "std_acc", "trials"),
    "sweep_ber": ("machine", "ber", "mean_acc", "std_acc", "trials"),
    "sweep_bits": ("width", "strategy", "budget", "mean_acc", "std_acc", "trials"),
    "energy": ("strategy", "budget", "accuracy", "energy_j"),
    "report": ("file", "schema", "rows", "manifest", "status"),
}


# ---- manifests ----

_LOCATION_PARAMS = ("out", "run", "model", "data", "image", "spec", "cost", "config")


@dataclass
class RunManifest:
    """What went into one command: resolved parameters and input checksums.

    Paths are reduced to basenames and location-only parameters are
    dropped, so the same pipeline in a different directory produces the
    same hash (and therefore byte-identical CSVs).  The timestamp lives
    only in the sidecar and stays outside the hash.
    """

    command: str
    params: dict  # resolved flag values, seed included
    inputs: dict  # file name -> sha256 of content
    tool_version: str = __version__

    def canonical(self) -> dict:
        params = {k: v for k, v in self.params.items() if k not in _LOCATION_PARAMS}
        inputs = {Path(k).name: v for k, v in self.inputs.items()}
        return {
            "version": 1,
            "tool_version": self.tool_version,
            "command": self.command,
            "params": params,
            "inputs": inputs,
        }

    @property
    def hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def write_sidecar(self, out_path: Path) -> None:
        doc = self.canonical()
        doc["hash"] = self.hash
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        if out_path.exists():
            doc["content_sha256"] = _sha256_file(out_path)
        side = out_path.with_name(out_path.name + ".manifest.json")
        side.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: Path, schema: str, rows, manifest: RunManifest, comments=()) -> None:
    cols = SCHEMAS[schema]
    lines = [f"# bayesim-csv version={_CSV_VERSION} schema={schema} manifest={manifest.hash}"]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(cols))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    manifest.write_sidecar(path)


# ---- config/flag resolution ----

def _load_config(path) -> dict:
    if path is None:
        return {}
    doc = parse_json(read_text(path), path)
    if not isinstance(doc, dict) or not all(isinstance(v, dict) for v in doc.values()):
        raise FormatError(f"{path}: config must be a JSON object of per-command objects")
    return doc


# what each option's value must be, from a flag or the config file:
# (accepted JSON types, conversion, description, smallest value); bool is
# accepted only by flags, and options not listed here are text
_INT = ((int, str), int, "an integer", None)
_OPTION_TYPES = {
    **dict.fromkeys(("bins", "classes", "width", "prior_values", "budget"), _INT),
    "seed": ((int, str), int, "an integer", 0),
    "trials": ((int, str), int, "an integer", 1),
    "alpha": ((int, float, str), float, "a finite number", None),
    "filter": ((bool,), bool, "true or false", None),
    "text": ((bool,), bool, "true or false", None),
    "grid": ((str, int, float), str, "a comma list", None),
}
_TEXT = ((str,), str, "a string", None)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class Options:
    """Flags win over the config file; the config wins over defaults.

    ``get`` is the one place option values are converted and checked: a
    value of the wrong type, or below its option's minimum, is a
    ConfigError naming the option.
    """

    def __init__(self, args, command: str):
        self.args = args
        self.section = _load_config(args.config).get(command, {})
        self.resolved = {}

    def get(self, name: str, default=None):
        v = getattr(self.args, name, None)
        if v is None:
            v = self.section.get(name, default)
        self.resolved[name] = v
        if v is None:
            return None
        accepted, conv, what, lo = _OPTION_TYPES.get(name, _TEXT)
        try:
            ok = isinstance(v, accepted) and (conv is bool or not isinstance(v, bool))
            out = conv(v) if ok else None
        except (ValueError, OverflowError):
            out = None
        if out is None or (conv is float and not math.isfinite(out)):
            raise ConfigError(f"{_flag(name)} must be {what}, got {v!r}")
        if lo is not None and out < lo:
            raise ConfigError(f"{_flag(name)} must be >= {lo}, got {out}")
        return out

    def require(self, name: str):
        v = self.get(name)
        if v is None:
            raise ConfigError(f"missing required option {_flag(name)}")
        return v


def _numbers(text, conv) -> list:
    """A comma list of grid values, each read by ``conv`` (int or float)."""
    try:
        return [conv(t) for t in str(text).split(",") if t != ""]
    except ValueError as exc:
        raise ConfigError(f"bad {conv.__name__} list {text!r}") from exc


def _outdir(opts) -> Path:
    out = Path(opts.require("out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_prepared(opts) -> tuple:
    """Common sim/sweep/energy input handling: model + binned test data."""
    model_path = opts.require("model")
    data_path = opts.require("data")
    model = modelkit.load_model(model_path)
    ds = tasks.load_dataset(data_path)
    obs = modelkit.bin_observations(model, ds.features)
    prep = runner.Prepared(model, obs, ds.labels)
    inputs = {str(model_path): _sha256_file(model_path), str(data_path): _sha256_file(data_path)}
    return prep, inputs


# ---- commands ----

def cmd_gen(args) -> int:
    opts = Options(args, "gen")
    task = opts.get("task")
    spec_path = opts.get("spec")
    seed_opt = opts.get("seed")
    seed = 0 if seed_opt is None else seed_opt
    out = _outdir(opts)
    if spec_path is not None:
        spec = tasks.load_task_spec(spec_path)
        if opts.resolved.get("seed") is not None:
            spec = replace(spec, seed=seed)
        inputs = {str(spec_path): _sha256_file(spec_path)}
    elif task == "sleep_like":
        spec, inputs = tasks.sleep_like_spec(seed=seed), {}
    elif task == "gesture_like":
        spec, inputs = tasks.gesture_like_spec(seed=seed), {}
    else:
        raise ConfigError("gen needs --task sleep_like|gesture_like or --spec FILE")
    train, test = tasks.generate(spec)
    manifest = RunManifest("gen", opts.resolved, inputs)
    tasks.save_task_spec(out / "spec.json", spec)
    for name, ds in (("train.csv", train), ("test.csv", test)):
        tasks.save_dataset(out / name, ds, manifest=manifest.hash)
        manifest.write_sidecar(out / name)
    print(f"gen: {len(train)} train / {len(test)} test rows -> {out}")
    return 0


def cmd_train(args) -> int:
    opts = Options(args, "train")
    data_path = opts.require("data")
    out = Path(opts.require("out"))
    dist = opts.get("dist", "gaussian")
    bins = opts.get("bins", 64)
    alpha = opts.get("alpha", 1.0)
    filtered = opts.get("filter", False)
    ds = tasks.load_dataset(data_path)
    classes = opts.get("classes")
    classes = classes if classes is not None else int(ds.labels.max()) + 1
    model = modelkit.train_model(ds.features, ds.labels, classes, bins, kind=dist,
                                 with_transitions=filtered, alpha=alpha)
    out.parent.mkdir(parents=True, exist_ok=True)
    modelkit.save_model(out, model)
    manifest = RunManifest("train", opts.resolved, {str(data_path): _sha256_file(data_path)})
    manifest.write_sidecar(out)
    print(f"train: {classes} classes x {model.features} features -> {out}")
    return 0


def cmd_compile(args) -> int:
    opts = Options(args, "compile")
    model_path = opts.require("model")
    out = Path(opts.require("out"))
    mode = opts.get("mode", "logarithmic")
    width = opts.get("width", 8)
    prior_values = opts.get("prior_values")
    model = modelkit.load_model(model_path)
    cfg = runner.config_for_model(model, mode, width, prior_values)
    image = modelkit.compile_model(model, cfg)
    out.parent.mkdir(parents=True, exist_ok=True)
    machine.save_image(out, image)
    if opts.get("text", False):
        out.with_suffix(out.suffix + ".txt").write_text(image.to_text())
    manifest = RunManifest("compile", opts.resolved, {str(model_path): _sha256_file(model_path)})
    manifest.write_sidecar(out)
    print(f"compile: {mode} width={width} checksum=0x{image.checksum:08x} -> {out}")
    return 0


def cmd_sim(args) -> int:
    opts = Options(args, "sim")
    prep, inputs = _load_prepared(opts)
    image_path = opts.require("image")
    image = machine.load_image(image_path)
    inputs[str(image_path)] = _sha256_file(image_path)
    budget = opts.get("budget", 255)
    strategy = opts.get("strategy", "conventional")
    trials = opts.get("trials", 10)
    seed = opts.get("seed", 0)
    out = _outdir(opts)
    manifest = RunManifest("sim", opts.resolved, inputs)

    if image.kind == "log":
        acc = runner.eval_log(prep, image)
        rows = [("logarithmic", "-", 1, image.width, 1, acc, 0.0, 1.0)]
    else:
        cfg = runner.config_from_image(image)
        cfg = replace(cfg, cycle_budget=budget, strategy=strategy)
        evals = [runner.eval_stochastic(prep, image, cfg, runner.point_seed(seed, 0, t))
                 for t in range(trials)]
        accs = [e.accuracy for e in evals]
        rows = [("stochastic", strategy, budget, image.width, trials,
                 float(np.mean(accs)), runner.trial_std(accs),
                 float(np.mean([e.mean_cycles for e in evals])))]
    _write_csv(out / "sim.csv", "sim", rows, manifest)
    print(f"sim: acc={rows[0][5]:.4f} -> {out / 'sim.csv'}")
    return 0


def cmd_sweep(args) -> int:
    opts = Options(args, "sweep")
    kind = opts.require("kind")
    prep, inputs = _load_prepared(opts)
    trials = opts.get("trials", 10)
    seed = opts.get("seed", 0)
    width = opts.get("width", 8)
    out = _outdir(opts)

    if kind == "cycles":
        budgets = _numbers(opts.get("grid", "10,50,100,255"), int)
        manifest = RunManifest("sweep", opts.resolved, inputs)
        _, lin = runner.images_for_model(prep, widths=(width,))
        pts = runner.sweep_cycles(prep, lin[width], budgets, trials, seed)
        rows = [(p.strategy, p.budget, p.mean_acc, p.std_acc, p.trials) for p in pts]
        _write_csv(out / "sweep_cycles.csv", "sweep_cycles", rows, manifest)
        print(f"sweep cycles: {len(rows)} points -> {out / 'sweep_cycles.csv'}")
    elif kind == "ber":
        bers = _numbers(opts.get("grid", "0,1e-4,1e-2"), float)
        budget = opts.get("budget", 255)
        manifest = RunManifest("sweep", opts.resolved, inputs)
        log_img, lin = runner.images_for_model(prep, widths=(width,))
        cfg = runner.config_for_model(prep.model, "stochastic", width, cycle_budget=budget)
        pts = runner.sweep_ber(prep, log_img, lin[width], cfg, bers, trials, seed)
        rows = [(p.machine, p.ber, p.mean_acc, p.std_acc, p.trials) for p in pts]
        _write_csv(out / "sweep_ber.csv", "sweep_ber", rows, manifest)
        print(f"sweep ber: {len(rows)} points -> {out / 'sweep_ber.csv'}")
    elif kind == "bits":
        budgets = _numbers(opts.get("grid", "10,50,100,255"), int)
        manifest = RunManifest("sweep", opts.resolved, inputs)
        _, lin = runner.images_for_model(prep, widths=(8, 16))
        pts = runner.sweep_bits(prep, lin, budgets, trials, seed)
        rows = [(p.width, p.strategy, p.budget, p.mean_acc, p.std_acc, p.trials) for p in pts]
        _write_csv(out / "sweep_bits.csv", "sweep_bits", rows, manifest)
        print(f"sweep bits: {len(rows)} points -> {out / 'sweep_bits.csv'}")
    else:
        raise ConfigError(f"unknown sweep kind {kind!r}, expected cycles|ber|bits")
    return 0


def cmd_energy(args) -> int:
    opts = Options(args, "energy")
    prep, inputs = _load_prepared(opts)
    budgets = _numbers(opts.get("grid", "10,50,100,255"), int)
    trials = opts.get("trials", 10)
    seed = opts.get("seed", 0)
    width = opts.get("width", 8)
    cost_path = opts.get("cost")
    if cost_path is None:
        table = energy.example_cost_table()
    else:
        table = energy.load_cost_table(cost_path)
        inputs[str(cost_path)] = _sha256_file(cost_path)
    out = _outdir(opts)
    manifest = RunManifest("energy", opts.resolved, inputs)
    log_img, lin = runner.images_for_model(prep, widths=(width,))
    report = runner.energy_report(prep, log_img, lin[width], budgets, trials, seed, table)
    rows = [(p.strategy, p.budget, p.accuracy, p.energy_j) for p in report.points]
    cross = "none" if report.crossover_budget is None else str(report.crossover_budget)
    _write_csv(out / "energy.csv", "energy", rows, manifest,
               comments=(f"crossover_budget={cross}",))
    print(f"energy: crossover_budget={cross} -> {out / 'energy.csv'}")
    return 0


def cmd_report(args) -> int:
    opts = Options(args, "report")
    run_dir = Path(opts.require("run"))
    out = _outdir(opts)
    if not run_dir.is_dir():
        raise ConfigError(f"{run_dir} is not a directory")
    rows = []
    inputs = {}
    for csv_path in sorted(run_dir.glob("*.csv")):
        try:
            head = csv_path.read_text().splitlines()
        except UnicodeDecodeError:
            inputs[str(csv_path)] = _sha256_file(csv_path)
            rows.append((csv_path.name, "?", 0, "", "unreadable"))
            continue
        toks = head[0].split() if head else []
        if len(toks) < 2 or toks[0] != "#" or not toks[1].startswith("bayesim"):
            continue
        fields = dict(tok.partition("=")[::2] for tok in toks[2:])
        schema = fields.get("schema", fields.get("kind", "?"))
        embedded = fields.get("manifest", "")
        n_rows = sum(1 for ln in head if ln and not ln.startswith("#")) - (
            1 if schema in SCHEMAS else 0)
        side = csv_path.with_name(csv_path.name + ".manifest.json")
        content = _sha256_file(csv_path)
        if not side.exists():
            status = "missing-manifest"
        else:
            try:
                doc = json.loads(side.read_text())
            except (json.JSONDecodeError, UnicodeDecodeError):
                doc = None
            if not isinstance(doc, dict):
                status = "bad-manifest"
            elif doc.get("hash") != embedded:
                status = "hash-mismatch"
            elif doc.get("content_sha256", content) != content:
                status = "content-mismatch"
            else:
                status = "ok"
        inputs[str(csv_path)] = content
        rows.append((csv_path.name, schema, max(n_rows, 0), embedded, status))
    if not rows:
        raise ConfigError(f"no bayesim CSVs found under {run_dir}")
    manifest = RunManifest("report", opts.resolved, inputs)
    _write_csv(out / "report.csv", "report", rows, manifest)
    bad = [r for r in rows if r[4] != "ok"]
    print(f"report: {len(rows)} files, {len(bad)} problems -> {out / 'report.csv'}")
    return 0 if not bad else 2


# ---- parser ----

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bayesim",
                                description="Bayesian machine behavioral simulator")
    p.add_argument("--config", help="JSON config with per-command defaults")
    p.add_argument("--version", action="version", version=f"bayesim {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--task", choices=("sleep_like", "gesture_like"))
    g.add_argument("--spec", help="task spec JSON (overrides --task)")
    g.add_argument("--seed", type=int)
    g.add_argument("--out", help="output directory")
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("train", help="fit a model from a feature CSV")
    t.add_argument("--data")
    t.add_argument("--dist", choices=("gaussian", "lognormal"))
    t.add_argument("--bins", type=int)
    t.add_argument("--classes", type=int)
    t.add_argument("--alpha", type=float)
    t.add_argument("--filter", action="store_const", const=True,
                   help="estimate transitions for the recursive filter")
    t.add_argument("--out", help="model JSON path")
    t.set_defaults(func=cmd_train)

    c = sub.add_parser("compile", help="quantize a model into a memory image")
    c.add_argument("--model")
    c.add_argument("--mode", choices=("logarithmic", "stochastic"))
    c.add_argument("--width", type=int, choices=(8, 16))
    c.add_argument("--prior-values", dest="prior_values", type=int,
                   help="value count of the transition column (filter models)")
    c.add_argument("--text", action="store_const", const=True,
                   help="also write a readable .txt dump")
    c.add_argument("--out", help="image path")
    c.set_defaults(func=cmd_compile)

    s = sub.add_parser("sim", help="score one image on a test CSV")
    s.add_argument("--model")
    s.add_argument("--image")
    s.add_argument("--data")
    s.add_argument("--budget", type=int)
    s.add_argument("--strategy", choices=("conventional", "power_conscious"))
    s.add_argument("--trials", type=int)
    s.add_argument("--seed", type=int)
    s.add_argument("--out", help="output directory")
    s.set_defaults(func=cmd_sim)

    w = sub.add_parser("sweep", help="accuracy sweeps over cycles, ber or code width")
    w.add_argument("--kind", choices=("cycles", "ber", "bits"))
    w.add_argument("--model")
    w.add_argument("--data")
    w.add_argument("--grid", help="comma list: budgets (cycles/bits) or bers")
    w.add_argument("--budget", type=int, help="stochastic budget for the ber sweep")
    w.add_argument("--width", type=int, choices=(8, 16))
    w.add_argument("--trials", type=int)
    w.add_argument("--seed", type=int)
    w.add_argument("--out", help="output directory")
    w.set_defaults(func=cmd_sweep)

    e = sub.add_parser("energy", help="energy/accuracy crossover report")
    e.add_argument("--model")
    e.add_argument("--data")
    e.add_argument("--grid", help="comma list of budgets")
    e.add_argument("--width", type=int, choices=(8, 16))
    e.add_argument("--cost", help="cost table JSON (default: bundled example)")
    e.add_argument("--trials", type=int)
    e.add_argument("--seed", type=int)
    e.add_argument("--out", help="output directory")
    e.set_defaults(func=cmd_energy)

    r = sub.add_parser("report", help="verify and summarize a run directory")
    r.add_argument("--run", help="directory with emitted CSVs")
    r.add_argument("--out", help="output directory")
    r.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort runtime mapping
        print(f"runtime failure: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
