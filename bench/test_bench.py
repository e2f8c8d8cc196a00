"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench
"""

import json
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import invcensus.cli  # noqa: E402,F401  (the CLI workloads call it)
import child  # noqa: E402
import run  # noqa: E402
from spans import Recorder, patch, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, query_stream  # noqa: E402


def test_query_stream_is_fixed_by_its_seed():
    first = query_stream(7)
    assert first == query_stream(7)
    assert first != query_stream(8)
    assert len(first) == 1500


def test_every_seed_asks_the_same_calls_at_the_same_degrees():
    def shape(stream):
        return sorted((q[0], q[1] if q[0] == "char_table" else sum(q[1])) for q in stream)

    assert shape(query_stream(1)) == shape(query_stream(2))


def test_self_times_on_a_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap, and
    # c [9, 12], which runs past the root's end; a has child d [2, 3].
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    # root: 10 - |[1, 6] u [9, 10]| = 4; a: 3 - 1; b, c, d have no children.
    assert self_times(start, end, parent) == [4.0, 2.0, 3.0, 3.0, 1.0]


def test_summary_accounts_for_the_wall_time():
    recorder = Recorder()
    recorder.names = ["cli.main", "census.invariant_count", "kronecker.pair_weight"]
    for nid, s, e, p in [(0, 1.0, 9.0, -1), (1, 2.0, 5.0, 0), (2, 3.0, 4.0, 1), (1, 6.0, 8.0, 0)]:
        recorder.name_id.append(nid)
        recorder.start.append(s)
        recorder.end.append(e)
        recorder.parent.append(p)
    summary = summarize(recorder, wall=10.0)
    assert summary["layers"] == {"cli": 3.0, "census": 4.0, "kronecker": 1.0}
    assert summary["unspanned_s"] == 2.0
    assert summary["by_name"]["census.invariant_count"] == {
        "calls": 2, "self_s": 4.0, "max_s": 3.0}
    assert summary["calls_from"][("kronecker.pair_weight", "census.invariant_count")] == 1


def test_patch_reaches_names_imported_by_name():
    lib = types.ModuleType("lib")
    lib.leaf = lambda x: x + 1
    user = types.ModuleType("user")
    user.leaf = lib.leaf
    user.top = lambda x: user.leaf(x) * 2
    recorder = Recorder()
    missing = patch(recorder, [(lib, "leaf", "lib.leaf", None), (user, "top", "user.top", None),
                               (lib, "gone", "lib.gone", None)], [lib, user])
    assert user.top(1) == 4
    assert missing == ["lib.gone"]
    assert [recorder.names[i] for i in recorder.name_id] == ["user.top", "lib.leaf"]
    assert list(recorder.parent) == [-1, 0]


def test_a_corrupted_query_answer_is_counted_as_failed():
    mix = WORKLOADS["query-mix"]
    stream = mix.prepare(3)[:300]
    outcomes = mix.run(stream)
    assert mix.check(stream, outcomes) == []
    index = next(i for i, q in enumerate(stream) if q[0] == "kronecker_coefficient")
    latency, answer = outcomes[index]
    outcomes[index] = (latency, answer + 1)
    failures = mix.check(stream, outcomes)
    assert len(failures) == 1 and str(stream[index]) in failures[0]


def test_a_corrupted_envelope_is_counted_as_failed():
    census = WORKLOADS["census-2x2"]
    argv = census.prepare(1)
    argv[argv.index("--max-degree") + 1] = "10"  # quick; checked against the golden prefix
    [(latency, (code, text))] = census.run(argv)
    assert census.check(argv, [(latency, (code, text))]) == []
    corrupted = text.replace("396", "397")
    assert corrupted != text
    failures = census.check(argv, [(latency, (code, corrupted))])
    assert len(failures) == 1 and "golden" in failures[0]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    traced = child.layer_metrics(
        {"by_name": {}, "calls_from": {}, "layers": {}, "unspanned_s": 0.0},
        {"term_pairs": 0, "max_terms_out": 0, "h_terms_max": 0}, 1.0, 0)
    traced.update(child.memo_stats())
    assert set(traced) | {"trace.overhead_s"} == set(run.PER_LAYER)
