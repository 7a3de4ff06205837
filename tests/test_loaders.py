"""Every file loader returns an object or raises ValidationError.

Arbitrary bytes, valid files with bytes overwritten, and valid JSON
documents with one field replaced must never escape as another
exception (which the CLI would report as a runtime failure, exit 1).
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from bayesim import cli, energy, machine, modelkit, runner, tasks
from bayesim.errors import FormatError, ValidationError

FUZZ = settings(max_examples=80, deadline=None)


def sample_files(tmp_path):
    """One valid file per loader, as bytes."""
    spec = tasks.gesture_like_spec(seed=2, train_size=4, test_size=2)
    train, test = tasks.generate(spec)
    model = modelkit.train_model(train.features, train.labels, spec.classes, bins=4)
    prep = runner.Prepared(model, modelkit.bin_observations(model, test.features), test.labels)
    image, _ = runner.images_for_model(prep, widths=())
    paths = {n: tmp_path / n for n in ("img", "model", "data", "spec", "cost", "config")}
    machine.save_image(paths["img"], image)
    modelkit.save_model(paths["model"], prep.model)
    tasks.save_dataset(paths["data"], train)
    tasks.save_task_spec(paths["spec"], spec)
    energy.save_cost_table(paths["cost"], energy.example_cost_table())
    paths["config"].write_text(json.dumps({"sim": {"budget": 16, "trials": 2}}))
    return {n: p.read_bytes() for n, p in paths.items()}


LOADERS = {
    "img": machine.load_image,
    "model": modelkit.load_model,
    "data": tasks.load_dataset,
    "spec": tasks.load_task_spec,
    "cost": energy.load_cost_table,
    "config": cli._load_config,
}
JSON_FILES = ("model", "spec", "cost", "config")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=4),
    max_leaves=12,
)


@st.composite
def overwritten(draw, raw: bytes):
    at = draw(st.integers(0, len(raw)))
    patch = draw(st.binary(min_size=1, max_size=8))
    return raw[:at] + patch + raw[at + len(patch):]


@st.composite
def field_replaced(draw, raw: bytes):
    doc = json.loads(raw)
    path = [draw(st.sampled_from(sorted(doc)))]
    if isinstance(doc[path[0]], dict) and doc[path[0]]:
        path.append(draw(st.sampled_from(sorted(doc[path[0]]))))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = draw(json_values)
    return json.dumps(doc).encode()


def load_or_reject(loader, path, raw: bytes):
    path.write_bytes(raw)
    try:
        loader(path)
    except ValidationError:
        pass


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loader_takes_arbitrary_bytes(name, tmp_path):
    raw = sample_files(tmp_path)[name]
    strategy = st.binary(max_size=200) | overwritten(raw)
    if name in JSON_FILES:
        strategy = strategy | field_replaced(raw)

    @FUZZ
    @given(strategy)
    def check(data):
        load_or_reject(LOADERS[name], tmp_path / "fuzzed", data)

    check()


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_non_utf8_file_is_format_error(name, tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(sample_files(tmp_path)[name][:40] + b"\xff\xfe\xc3(")
    with pytest.raises(FormatError):
        LOADERS[name](path)


@pytest.mark.parametrize("version", [True, 1.0, 2, "1"])
@pytest.mark.parametrize("name", ["model", "spec", "cost"])
def test_versioned_json_needs_the_integer_version(name, version, tmp_path):
    doc = json.loads(sample_files(tmp_path)[name])
    assert doc["version"] == 1
    path = tmp_path / "versioned.json"
    path.write_text(json.dumps({**doc, "version": version}))
    with pytest.raises(FormatError, match="not a version-1"):
        LOADERS[name](path)


@pytest.mark.parametrize("header", ["columns=abc", "", "columns=-1", "columns=1e400"])
def test_dataset_header_numbers_checked(header, tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(f"# bayesim-dataset version=1 kind=features {header}\n0,1.0\n")
    with pytest.raises(FormatError, match=":1:"):
        tasks.load_dataset(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_dataset_rejects_non_finite_features(value, tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("# bayesim-dataset version=1 kind=features columns=2\n"
                    f"0,1.0,2.0\n1,{value},2.0\n")
    with pytest.raises(FormatError, match=r"d\.csv:3: non-finite"):
        tasks.load_dataset(path)
