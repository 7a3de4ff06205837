"""The bytes of the JSON artifacts are pinned.

Every writer goes through `errors.write_json`; the sha256 of each file
below was taken before the writers shared it, so any drift in key order,
indentation, number formatting or field set fails here.  A sidecar is
compared with its timestamp blanked, the one field that differs by run.
"""

import argparse
import hashlib
import re
from types import SimpleNamespace

from bayesim import cli, energy, modelkit, tasks

PINNED = {
    "sleep_spec.json": "760bdd2a35d0a252d33c097a00824946d47dace6c0e97277f9d231079550a852",
    "gesture_model.json": "2e8d51e245dd52524133c51cbb0c3eb9d12ea584c63b89844133dd6e01b356c4",
    "sleep_model.json": "52379cec5b1ae0403ffaa22cb6810f3892657c68035e44e0115f90a30b576df4",
    "cost.json": "7e588a2705b56ea07049da1d6441ede2a1b3e13e37a99de89b88b38ca207b4ba",
    "sim.csv.manifest.json": "2986cf337ae6a202a12860e9ec79d4c64a4a7aaf1c290f36e41f0cc9bf5d64ae",
}


def _write_all(out):
    sleep = tasks.sleep_like_spec(seed=7)
    tasks.save_task_spec(out / "sleep_spec.json", sleep)
    train, _ = tasks.generate(tasks.gesture_like_spec(seed=7))
    modelkit.save_model(out / "gesture_model.json",
                        modelkit.train_model(train.features, train.labels, 4, 64))
    train, _ = tasks.generate(sleep)
    modelkit.save_model(out / "sleep_model.json", modelkit.train_model(
        train.features, train.labels, 4, 8, kind="lognormal", with_transitions=True, alpha=2.0))
    energy.save_cost_table(out / "cost.json", energy.example_cost_table())
    opts = cli.Options(argparse.Namespace(config=None, trials="3", seed="7"), "sim")
    for name in ("trials", "seed"):
        opts.get(name)
    point = SimpleNamespace(mode="stochastic", strategy="conventional", budget=64, width=8,
                            trials=3, mean_acc=0.75, std_acc=0.125, mean_cycles=64.0)
    opts.emit(out, "sim", [point], "sim")


def test_json_artifacts_keep_their_bytes(tmp_path):
    _write_all(tmp_path)
    got = {}
    for name in PINNED:
        data = (tmp_path / name).read_bytes()
        data = re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', data)
        got[name] = hashlib.sha256(data).hexdigest()
    assert got == PINNED
