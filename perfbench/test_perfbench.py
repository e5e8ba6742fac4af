"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import re
from dataclasses import replace

import bootstrap

bootstrap.import_package()

import tracing  # noqa: E402
from workloads import CLOUD, CLUSTERED, WORKLOADS, make_dataset, write_libsvm  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def small(data_kind):
    w = next(w for w in WORKLOADS.values() if w.data == data_kind)
    return replace(w, n_train=150, n_test=50)


def write(tmp_path, workload, seed, copy=0):
    path = tmp_path / f"{workload.name}-{seed}-{copy}.libsvm"
    write_libsvm(str(path), *make_dataset(workload, seed))
    return path.read_bytes()


def test_metric_and_workload_names():
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert "setup_s" in [m["name"] for m in spec["end_to_end"]]


def test_same_seed_gives_identical_files(tmp_path):
    for kind in (CLOUD, CLUSTERED):
        w = small(kind)
        assert write(tmp_path, w, 7, copy=0) == write(tmp_path, w, 7, copy=1)


def test_different_seed_gives_different_files(tmp_path):
    for kind in (CLOUD, CLUSTERED):
        w = small(kind)
        assert write(tmp_path, w, 7) != write(tmp_path, w, 8)


def test_self_times_account_for_the_root_span():
    tracer = tracing.Tracer()
    with tracer.span(tracing.SOLVE):
        with tracer.span(tracing.PCG):
            with tracer.span(tracing.OPERATOR):
                sum(range(10000))
            sum(range(10000))
        with tracer.span(tracing.FACTOR):
            sum(range(10000))
    spans = tracer.as_dicts()
    own = tracing.self_times(spans)
    root = spans[0]
    assert all(t >= 0 for t in own.values())
    assert abs(sum(own.values()) - (root["end"] - root["start"])) < 1e-9
