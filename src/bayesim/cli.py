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
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from . import __version__, energy, machine, modelkit, runner, stochastic, tasks
from .errors import (ConfigError, FormatError, ValidationError, parse_header, parse_json, read_text,
                     read_versioned, write_json)

_CSV_VERSION = 1

SCHEMAS = {
    "sim": ("mode", "strategy", "budget", "width", "trials", "mean_acc", "std_acc", "mean_cycles"),
    "sweep_cycles": ("strategy", "budget", "mean_acc", "std_acc", "trials"),
    "sweep_ber": ("machine", "ber", "mean_acc", "std_acc", "trials"),
    "sweep_bits": ("width", "strategy", "budget", "mean_acc", "std_acc", "trials"),
    "energy": ("strategy", "budget", "accuracy", "energy_j"),
    "report": ("file", "schema", "rows", "manifest", "status"),
}


def _sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---- options ----

# dropped from the manifest: they say where files are, not what went in
_LOCATION_PARAMS = ("out", "run", "model", "data", "image", "spec", "cost")


def _load_config(path) -> dict:
    if path is None:
        return {}
    doc = parse_json(read_text(path), path)
    if not isinstance(doc, dict) or not all(isinstance(v, dict) for v in doc.values()):
        raise FormatError(f"{path}: config must be a JSON object of per-command objects")
    for command, section in doc.items():
        if command not in _COMMANDS:
            raise ConfigError(f"{path}: {command!r} is not a command")
        unknown = [key for key in section if key not in _COMMANDS[command][2].split()]
        if unknown:
            raise ConfigError(f"{path}: {command} takes no option {unknown[0]!r}")
    return doc


# per kind of option: the JSON types a config value may have (flags give
# text; bool only where the conversion is bool), conversion, and its name
_KINDS = {
    "int": ((int, str), int, "an integer"),
    "float": ((int, float, str), float, "a finite number"),
    "bool": ((bool,), bool, "true or false"),
    "list": ((str, int, float), str, "a comma list"),
    "str": ((str,), str, "a string"),
}


class _Option(NamedTuple):
    kind: str  # a key of _KINDS; a "bool" option is a switch flag
    lo: int | None = None  # smallest value
    allowed: tuple = ()  # the only values accepted, when not empty
    help: str | None = None


_OPTIONS = {
    "task": _Option("str", allowed=("sleep_like", "gesture_like")),
    "spec": _Option("str", help="task spec JSON"),
    **dict.fromkeys(("data", "model", "image"), _Option("str")),
    "cost": _Option("str", help="cost table JSON (default: bundled example)"),
    "run": _Option("str", help="directory with emitted CSVs"),
    "out": _Option("str", help="output directory (train: model JSON path, compile: image path)"),
    "dist": _Option("str", allowed=modelkit.KINDS),
    "mode": _Option("str", allowed=machine.MODES),
    "strategy": _Option("str", allowed=stochastic.STRATEGIES),
    "kind": _Option("str", allowed=("cycles", "ber", "bits")),
    "seed": _Option("int", lo=0),
    "trials": _Option("int", lo=1),
    "bins": _Option("int", lo=1),
    "budget": _Option("int", help="stochastic cycle budget (sweep: for --kind ber)"),
    "width": _Option("int", allowed=stochastic.WIDTHS,
                     help="code width (sweep --kind bits always sweeps 8 and 16)"),
    "alpha": _Option("float"),
    "filter": _Option("bool", help="estimate transitions for the recursive filter"),
    "text": _Option("bool", help="also write a readable .txt dump"),
    "grid": _Option("list", help="comma list: budgets (cycles, bits, energy) or bers"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _read(name: str, v):
    """``v`` converted and checked as option ``name``; None stays None."""
    if v is None:
        return None
    opt = _OPTIONS[name]
    accepted, conv, what = _KINDS[opt.kind]
    try:
        ok = isinstance(v, accepted) and (conv is bool or not isinstance(v, bool))
        out = conv(v) if ok else None
    except (ValueError, OverflowError):
        out = None
    if out is None or (conv is float and not math.isfinite(out)):
        raise ConfigError(f"{_flag(name)} must be {what}, got {v!r}")
    if opt.lo is not None and out < opt.lo:
        raise ConfigError(f"{_flag(name)} must be >= {opt.lo}, got {out}")
    if opt.allowed and out not in opt.allowed:
        raise ConfigError(f"{_flag(name)} must be one of "
                          f"{'|'.join(map(str, opt.allowed))}, got {out!r}")
    return out


class Options:
    """One command's options, input files and outputs.

    Flags win over the config file; the config wins over defaults.  Flags
    are read up front, so a bad flag fails before any work.  ``resolved``
    (converted values) and ``inputs`` (file sha256s) make the manifest.
    """

    def __init__(self, args, command: str):
        self.command = command
        flags = {k: _read(k, v) for k, v in vars(args).items() if k in _OPTIONS and v is not None}
        self.values = {**_load_config(args.config).get(command, {}), **flags}
        self.resolved = {}
        self.inputs = {}

    def get(self, name: str, default=None):
        v = self.resolved[name] = _read(name, self.values.get(name, default))
        return v

    def require(self, name: str):
        v = self.get(name)
        if v is None:
            raise ConfigError(f"missing required option {_flag(name)}")
        return v

    def refuse(self, names, why: str) -> None:
        """Refuse options given (by flag or config) that ``why`` leaves unused."""
        for name in names:
            if self.values.get(name) is not None:
                raise ConfigError(f"{_flag(name)} is not used by {why}")

    def path(self, name: str) -> Path:
        """The file named by a required option, its sha256 recorded."""
        p = Path(self.require(name))
        if not p.is_file():
            raise ConfigError(f"{_flag(name)}: no such file {p}")
        self.inputs[str(p)] = _sha256_file(p)
        return p

    def outdir(self) -> Path:
        out = Path(self.require("out"))
        out.mkdir(parents=True, exist_ok=True)
        return out

    def manifest(self) -> dict:
        """What went into the command.  Paths are reduced to basenames and
        location-only options are dropped, so the same pipeline in another
        directory gives the same hash, and so byte-identical CSVs."""
        params = {k: v for k, v in self.resolved.items() if k not in _LOCATION_PARAMS}
        inputs = {Path(k).name: v for k, v in self.inputs.items()}
        return {"version": 1, "tool_version": __version__, "command": self.command,
                "params": params, "inputs": inputs}

    @property
    def hash(self) -> str:
        blob = json.dumps(self.manifest(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def write_sidecar(self, path: Path) -> None:
        """The manifest next to ``path``, with the hash, the sha256 of
        ``path`` and a timestamp, which stays outside the hash."""
        doc = {**self.manifest(), "hash": self.hash, "content_sha256": _sha256_file(path),
               "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
        write_json(path.with_name(path.name + ".manifest.json"), doc)

    def emit(self, out: Path, schema: str, points, summary: str, comments=()) -> None:
        """Write ``<out>/<schema>.csv`` (a row per point, from its attributes
        named by the schema columns) and its sidecar; print ``summary``."""
        path = out / f"{schema}.csv"
        cols = SCHEMAS[schema]
        lines = [f"# bayesim-csv version={_CSV_VERSION} schema={schema} manifest={self.hash}"]
        lines.extend(f"# {c}" for c in comments)
        lines.append(",".join(cols))
        for p in points:
            vals = (getattr(p, c) for c in cols)
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in vals))
        path.write_text("\n".join(lines) + "\n")
        self.write_sidecar(path)
        print(f"{summary} -> {path}")


def _numbers(text: str, conv) -> list:
    """A comma list of grid values, each read by ``conv`` (int or float)."""
    try:
        values = [conv(t) for t in text.split(",") if t != ""]
    except ValueError as exc:
        raise ConfigError(f"bad {conv.__name__} list {text!r}") from exc
    if not values:
        raise ConfigError(f"--grid lists no values, got {text!r}")
    return values


def _prepared(opts: Options) -> runner.Prepared:
    """The model and the test data binned by it, for sim, sweep and energy."""
    model_path, data_path = opts.path("model"), opts.path("data")
    model = modelkit.load_model(model_path)
    ds = tasks.load_dataset(data_path)
    return runner.Prepared(model, modelkit.bin_observations(model, ds.features), ds.labels)


# ---- commands ----

def cmd_gen(opts: Options) -> int:
    seed = opts.get("seed")
    if opts.get("spec") is not None:
        opts.refuse(("task",), "gen --spec")
        spec = tasks.load_task_spec(opts.path("spec"))
        spec = spec if seed is None else replace(spec, seed=seed)
    elif (task := opts.get("task")) is not None:
        make = tasks.sleep_like_spec if task == "sleep_like" else tasks.gesture_like_spec
        spec = make(seed=0 if seed is None else seed)
    else:
        raise ConfigError("gen needs --task sleep_like|gesture_like or --spec FILE")
    out = opts.outdir()
    train, test = tasks.generate(spec)
    tasks.save_task_spec(out / "spec.json", spec)
    for name, ds in (("train.csv", train), ("test.csv", test)):
        tasks.save_dataset(out / name, ds, manifest=opts.hash)
        opts.write_sidecar(out / name)
    print(f"gen: {len(train)} train / {len(test)} test rows -> {out}")
    return 0


def cmd_train(opts: Options) -> int:
    ds = tasks.load_dataset(opts.path("data"))
    out = Path(opts.require("out"))
    dist = opts.get("dist", "gaussian")
    bins = opts.get("bins", 64)
    filtered = opts.get("filter", False)
    if not filtered:  # alpha smooths only the transitions a filter model fits
        opts.refuse(("alpha",), "a model without --filter")
    alpha = opts.get("alpha", 1.0) if filtered else 1.0
    model = modelkit.train_model(ds.features, ds.labels, int(ds.labels.max()) + 1, bins,
                                 kind=dist, with_transitions=filtered, alpha=alpha)
    out.parent.mkdir(parents=True, exist_ok=True)
    modelkit.save_model(out, model)
    opts.write_sidecar(out)
    print(f"train: {model.classes} classes x {model.features} features -> {out}")
    return 0


def cmd_compile(opts: Options) -> int:
    model = modelkit.load_model(opts.path("model"))
    out = Path(opts.require("out"))
    mode = opts.get("mode", "logarithmic")
    width = opts.get("width", 8)
    image = modelkit.compile_model(model, mode, width)
    out.parent.mkdir(parents=True, exist_ok=True)
    machine.save_image(out, image)
    if opts.get("text", False):
        out.with_suffix(out.suffix + ".txt").write_text(image.to_text())
    opts.write_sidecar(out)
    print(f"compile: {mode} width={width} checksum=0x{image.checksum:08x} -> {out}")
    return 0


def cmd_sim(opts: Options) -> int:
    prep = _prepared(opts)
    image = machine.load_image(opts.path("image"))
    modelkit.check_layout(prep.model, image)
    if image.kind == "log":  # one deterministic pass: no cycles, strategy or draws
        opts.refuse(("budget", "strategy", "trials", "seed"), "a logarithmic image")
    else:
        cfg = machine.MachineConfig(cycle_budget=opts.get("budget", 255),
                                    strategy=opts.get("strategy", "conventional"))
        trials, seed = opts.get("trials", 10), opts.get("seed", 0)
    out = opts.outdir()
    if image.kind == "log":
        acc = runner.eval_log(prep, image)
        mode, point = "logarithmic", runner.CyclesPoint(image.width, "-", 1, acc, 0.0, 1, 1.0)
    else:
        mode, point = "stochastic", runner.trials_point(prep, image, cfg, trials, (seed, 0))
    opts.emit(out, "sim", [SimpleNamespace(mode=mode, **vars(point))],
              f"sim: acc={point.mean_acc:.4f}")
    return 0


def cmd_sweep(opts: Options) -> int:
    kind = opts.require("kind")
    opts.refuse({"cycles": ("budget",), "bits": ("budget", "width")}.get(kind, ()),
                f"--kind {kind}")
    prep = _prepared(opts)
    trials = opts.get("trials", 10)
    seed = opts.get("seed", 0)
    widths = (8, 16) if kind == "bits" else (opts.get("width", 8),)
    out = opts.outdir()
    if kind == "ber":
        bers = _numbers(opts.get("grid", "0,1e-4,1e-2"), float)
        cfg = machine.MachineConfig(cycle_budget=opts.get("budget", 255))
        log_img, lin = runner.images_for_model(prep, widths=widths)
        points = runner.sweep_ber(prep, log_img, lin[widths[0]], cfg, bers, trials, seed)
    else:  # a budget sweep: cycles on one width, bits on 8 and 16
        budgets = _numbers(opts.get("grid", "10,50,100,255"), int)
        _, lin = runner.images_for_model(prep, widths=widths)
        points = runner.sweep_bits(prep, lin, budgets, trials, seed)
    opts.emit(out, f"sweep_{kind}", points, f"sweep {kind}: {len(points)} points")
    return 0


def cmd_energy(opts: Options) -> int:
    prep = _prepared(opts)
    budgets = _numbers(opts.get("grid", "10,50,100,255"), int)
    trials = opts.get("trials", 10)
    seed = opts.get("seed", 0)
    width = opts.get("width", 8)
    table = energy.example_cost_table()
    if opts.get("cost") is not None:
        table = energy.load_cost_table(opts.path("cost"))
    out = opts.outdir()
    log_img, lin = runner.images_for_model(prep, widths=(width,))
    points = runner.sweep_cycles(prep, lin[width], budgets, trials, seed)
    report = energy.crossover(log_img, lin[width], table, points, runner.eval_log(prep, log_img))
    cross = "none" if report.crossover_budget is None else str(report.crossover_budget)
    opts.emit(out, "energy", report.points, f"energy: crossover_budget={cross}",
              comments=(f"crossover_budget={cross}",))
    return 0


def _manifest_status(csv_path: Path, embedded: str, content: str) -> str:
    side = csv_path.with_name(csv_path.name + ".manifest.json")
    if not side.exists():
        return "missing-manifest"
    try:
        doc = read_versioned(read_text(side), side, 1, "manifest", dict)
    except (FormatError, OSError):  # not a version-1 JSON object, or not a readable file
        return "bad-manifest"
    if doc.get("hash") != embedded:
        return "hash-mismatch"
    return "ok" if doc.get("content_sha256", content) == content else "content-mismatch"


def cmd_report(opts: Options) -> int:
    run_dir = Path(opts.require("run"))
    out = opts.outdir()
    if not run_dir.is_dir():
        raise ConfigError(f"{run_dir} is not a directory")
    rows = []
    for csv_path in sorted(p for p in run_dir.glob("*.csv") if p.is_file()):
        row = SimpleNamespace(file=csv_path.name, schema="?", rows=0, manifest="",
                              status="unreadable")
        try:
            head = read_text(csv_path).splitlines()
        except FormatError:
            head = None
        content = _sha256_file(csv_path)
        if head is not None:
            header = parse_header(head[0] if head else "")
            if header is None:
                continue
            fields = header[1]
            row.schema = fields.get("schema", fields.get("kind", "?"))
            row.manifest = fields.get("manifest", "")
            n_rows = sum(1 for ln in head if ln and not ln.startswith("#"))
            row.rows = max(n_rows - (row.schema in SCHEMAS), 0)
            row.status = _manifest_status(csv_path, row.manifest, content)
        opts.inputs[str(csv_path)] = content
        rows.append(row)
    if not rows:
        raise ConfigError(f"no bayesim CSVs found under {run_dir}")
    bad = sum(r.status != "ok" for r in rows)
    opts.emit(out, "report", rows, f"report: {len(rows)} files, {bad} problems")
    return 0 if not bad else 2


# ---- parser ----

# each command's function, help and options, in the order --help lists them
_COMMANDS = {
    "gen": (cmd_gen, "generate a synthetic dataset", "task spec seed out"),
    "train": (cmd_train, "fit a model from a feature CSV",
              "data dist bins alpha filter out"),
    "compile": (cmd_compile, "quantize a model into a memory image",
                "model mode width text out"),
    "sim": (cmd_sim, "score one image on a test CSV",
            "model image data budget strategy trials seed out"),
    "sweep": (cmd_sweep, "accuracy sweeps over cycles, ber or code width",
              "kind model data grid budget width trials seed out"),
    "energy": (cmd_energy, "energy/accuracy crossover report",
               "model data grid width cost trials seed out"),
    "report": (cmd_report, "verify and summarize a run directory", "run out"),
}


def build_parser() -> argparse.ArgumentParser:
    """Flags are collected as text; ``Options`` converts and checks them."""
    p = argparse.ArgumentParser(prog="bayesim",
                                description="Bayesian machine behavioral simulator")
    p.add_argument("--config", help="JSON config with per-command defaults")
    p.add_argument("--version", action="version", version=f"bayesim {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (func, about, names) in _COMMANDS.items():
        s = sub.add_parser(command, help=about)
        for name in names.split():
            opt = _OPTIONS[name]
            allowed = "one of " + "|".join(map(str, opt.allowed)) if opt.allowed else None
            text = "; ".join(t for t in (opt.help, allowed) if t) or None
            switch = {"action": "store_const", "const": True} if opt.kind == "bool" else {}
            s.add_argument(_flag(name), help=text, **switch)
        s.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(Options(args, args.command))
    except (ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort runtime mapping
        print(f"runtime failure: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
