import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from invcensus import __version__, cli, clear_caches, factorizer
from invcensus.cli import main
from invcensus.factorizer import search_candidates
from invcensus.series import Series, write_series_file

SRC = Path(__file__).resolve().parent.parent / "src"
TWO_BY_TWO = [1, 1, 4, 6, 16, 23, 52, 77, 150, 224, 396, 583]


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_json(capsys, *argv):
    status, out, err = run(capsys, *argv)
    assert status == 0, err
    return json.loads(out)


def test_census_text_golden(capsys):
    status, out, err = run(capsys, "census", "--n1", "2", "--n2", "2", "--max-degree", "11")
    assert status == 0
    assert "396 q^10 + 583 q^11" in out
    assert out.strip() == (
        "1 + q + 4 q^2 + 6 q^3 + 16 q^4 + 23 q^5 + 52 q^6 + 77 q^7"
        " + 150 q^8 + 224 q^9 + 396 q^10 + 583 q^11"
    )


def test_census_text_trivial(capsys):
    status, out, _ = run(capsys, "census", "--n1", "1", "--n2", "1", "--max-degree", "3")
    assert status == 0
    assert out.strip() == "1 + q + q^2 + q^3"


def test_census_json_envelope(capsys):
    doc = run_json(
        capsys, "census", "--n1", "2", "--n2", "2", "--max-degree", "4", "--format", "json"
    )
    assert list(doc) == ["command", "input", "result", "versions", "timing_ms"]
    assert doc["command"] == "census"
    assert doc["input"] == {
        "n1": 2, "n2": 2, "max_degree": 4, "degree_limit": 12, "format": "json"
    }
    assert doc["result"] == {"truncation_degree": 4, "coefficients": [1, 1, 4, 6, 16]}
    assert doc["versions"] == {"tool": __version__}
    assert isinstance(doc["timing_ms"], int)


def test_census_json_corrected_degree_twelve(capsys):
    doc = run_json(
        capsys, "census", "--n1", "2", "--n2", "2", "--max-degree", "12", "--format", "json"
    )
    assert doc["result"]["coefficients"] == TWO_BY_TWO + [964]


def test_census_degree_limit_error(capsys):
    status, out, err = run(capsys, "census", "--n1", "1", "--n2", "1", "--max-degree", "13")
    assert status == 1
    assert out == ""
    assert "exceeds the configured limit" in err


def test_census_rejects_bad_dimension(capsys):
    with pytest.raises(SystemExit):
        main(["census", "--n1", "0", "--n2", "2", "--max-degree", "3"])
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--max-degree", "-1", "expected a nonnegative integer, got '-1'"),
        ("--max-degree", "2.5", "expected an integer, got '2.5'"),
        # int() reads each of these; the CLI takes only '-' and ASCII digits
        ("--max-degree", "1_0", "expected an integer, got '1_0'"),
        ("--max-degree", "+3", "expected an integer, got '+3'"),
        ("--max-degree", "\u0663", "expected an integer, got '\u0663'"),
        ("--n1", "\uff13", "expected an integer, got '\uff13'"),
        ("--n1", "-2", "expected a positive integer, got '-2'"),
    ],
)
def test_integer_options_report_their_bound(capsys, flag, text, message):
    argv = {"--n1": "2", "--n2": "2", "--max-degree": "3"}
    argv[flag] = text
    with pytest.raises(SystemExit) as exc:
        main(["census", *[x for pair in argv.items() for x in pair]])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_molien_check_agreement(capsys):
    status, out, _ = run(
        capsys, "molien", "--n1", "2", "--n2", "2", "--max-degree", "5", "--check"
    )
    assert status == 0
    assert "1 + q + 4 q^2 + 6 q^3 + 16 q^4 + 23 q^5" in out
    assert "census agreement: OK" in out


def test_molien_trivial(capsys):
    status, out, _ = run(capsys, "molien", "--n1", "1", "--n2", "1", "--max-degree", "2")
    assert status == 0
    assert out.strip() == "1 + q + q^2"


def test_molien_json_with_check(capsys):
    doc = run_json(
        capsys,
        "molien", "--n1", "2", "--n2", "1", "--max-degree", "6",
        "--check", "--format", "json",
    )
    assert doc["result"]["coefficients"] == [1, 1, 2, 2, 3, 3, 4]
    assert doc["result"]["census_agreement"] == "OK"


def test_molien_check_disagreement_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setattr(
        "invcensus.cli.molien_series", lambda *args, **kwargs: Series([1, 2])
    )
    status, out, err = run(capsys, "molien", "--n1", "1", "--n2", "1", "--max-degree", "1", "--check")
    assert status == 1
    assert out == ""
    assert "census disagreement at degree 1" in err


def test_kron_golden_expansion(capsys):
    status, out, _ = run(capsys, "kron", "6,2", "6,2")
    assert status == 0
    assert out.splitlines() == [
        "{8}: 1",
        "{7,1}: 1",
        "{6,2}: 2",
        "{6,1,1}: 1",
        "{5,3}: 1",
        "{5,2,1}: 2",
        "{5,1,1,1}: 1",
        "{4,4}: 1",
        "{4,3,1}: 1",
        "{4,2,2}: 1",
    ]


def test_kron_sign_twist(capsys):
    status, out, _ = run(capsys, "kron", "2,1", "1,1,1")
    assert status == 0
    assert out.strip() == "{2,1}: 1"


def test_kron_with_trivial_representation(capsys):
    status, out, _ = run(capsys, "kron", "3", "2,1")
    assert status == 0
    assert out.strip() == "{2,1}: 1"


def test_kron_weight_mismatch(capsys):
    status, out, err = run(capsys, "kron", "4", "2,1")
    assert status == 1
    assert out == ""
    assert "weights differ" in err


def test_kron_parse_error(capsys):
    status, out, err = run(capsys, "kron", "1,2", "2,1")
    assert status == 1
    assert out == ""
    assert "weakly decreasing" in err


def test_kron_refuses_a_weight_past_the_expansion_bound(capsys):
    # S_25 has 1,958 shapes; the bound refuses before any row is built
    start = time.perf_counter()
    status, out, err = run(capsys, "kron", "25", "25")
    assert time.perf_counter() - start < 1
    assert status == 1
    assert out == ""
    assert err == "error: Kronecker expansion too large: n=25 exceeds the limit 24\n"


def test_kron_json(capsys):
    doc = run_json(capsys, "kron", "2,1", "2,1", "--format", "json")
    assert doc["input"] == {"lambda": "2,1", "mu": "2,1", "format": "json"}
    assert doc["result"]["weight"] == 3
    assert doc["result"]["terms"] == [
        {"partition": [3], "multiplicity": 1},
        {"partition": [2, 1], "multiplicity": 1},
        {"partition": [1, 1, 1], "multiplicity": 1},
    ]


def test_char_values(capsys):
    status, out, _ = run(capsys, "char", "2,1", "3")
    assert status == 0
    assert out.strip() == "-1"
    status, out, _ = run(capsys, "char", "3", "1,1,1")
    assert status == 0
    assert out.strip() == "1"


def test_table_text(capsys):
    status, out, _ = run(capsys, "table", "3")
    assert status == 0
    lines = out.splitlines()
    assert lines[0].split() == ["3", "2,1", "1,1,1"]
    assert lines[1].split() == ["3", "1", "1", "1"]
    assert lines[2].split() == ["2,1", "-1", "0", "2"]
    assert lines[3].split() == ["1,1,1", "1", "-1", "1"]


def test_table_json(capsys):
    doc = run_json(capsys, "table", "3", "--format", "json")
    assert doc["result"]["partitions"] == [[3], [2, 1], [1, 1, 1]]
    assert doc["result"]["values"] == [[1, 1, 1], [-1, 0, 2], [1, -1, 1]]


def test_table_resource_limit(capsys):
    status, out, err = run(capsys, "table", "17")
    assert status == 1
    assert out == ""
    assert "too large" in err


def test_factor_rediscovers_saturated_denominator(capsys, tmp_path):
    path = tmp_path / "target.json"
    write_series_file(path, Series(TWO_BY_TWO))
    status, out, _ = run(
        capsys,
        "factor", "--series-file", str(path),
        "--free-generators", "9", "--max-factor-degree", "9", "--limit", "1",
    )
    assert status == 0
    assert "num {4,5,6,6,6,6,7,7,8,8,9,9} / den {1,2,2,2,3,3,4,4,4}" in out
    assert "match through degree 9" in out
    assert "first mismatch at degree 10 (candidate 398, target 396)" in out


def test_factor_all_ones(capsys, tmp_path):
    path = tmp_path / "ones.json"
    write_series_file(path, Series([1] * 7))
    status, out, _ = run(capsys, "factor", "--series-file", str(path), "--free-generators", "1")
    assert status == 0
    assert "num {} / den {1}" in out
    assert "matches the target through degree 6 (full truncation)" in out


def test_factor_json(capsys, tmp_path):
    path = tmp_path / "single_qubit.json"
    write_series_file(path, Series([1, 1, 2, 2, 3, 3, 4, 4, 5]))
    doc = run_json(
        capsys,
        "factor", "--series-file", str(path),
        "--free-generators", "2", "--format", "json",
    )
    top = doc["result"]["candidates"][0]
    assert top["numerator_degrees"] == []
    assert top["denominator_degrees"] == [1, 2]
    assert top["free_generator_count"] == 2
    assert top["match_degree"] == 8
    assert top["first_mismatch"] is None
    assert top["fully_factored"] is True


@pytest.mark.parametrize(
    "coefficients, kwargs, numerator, anchored, factored",
    [
        # the README example: the numerator is printed, recomputed from the denominator
        (TWO_BY_TWO, ["--free-generators", "9", "--max-factor-degree", "9"],
         [1, 0, 0, 0, 1, 1, 4, 2, 2, 3, 2, 2], True, False),
        ([1, 2, 2, 2, 2], ["--free-generators", "1"], [1, 1, 0, 0, 0], False, True),
    ],
)
def test_factor_json_numerator_and_anchor(
    capsys, tmp_path, coefficients, kwargs, numerator, anchored, factored
):
    path = tmp_path / "target.json"
    write_series_file(path, Series(coefficients))
    doc = run_json(
        capsys, "factor", "--series-file", str(path), *kwargs, "--limit", "1", "--format", "json"
    )
    top = doc["result"]["candidates"][0]
    assert top["numerator_series"]["coefficients"] == numerator
    assert top["degree_one_anchored"] is anchored
    assert top["fully_factored"] is factored


@pytest.mark.parametrize(
    "options",
    [
        {"free_generators": 9, "max_factor_degree": 9},  # 4,862 survivors
        {"max_total_factors": 5, "max_factor_degree": 7},  # a size sweep, 201 survivors
    ],
)
def test_factor_rows_are_the_library_ranking(capsys, tmp_path, monkeypatch, options):
    target = Series(TWO_BY_TWO)
    path = tmp_path / "target.json"
    write_series_file(path, target)
    reports = search_candidates(target, **options)
    # the CLI ranks plain tuples, whose order is the library's only if denominators are distinct
    assert len({r.candidate.denominator_degrees for r in reports}) == len(reports)
    built = []

    def counted_report(key, nonnegative_through):
        built.append(key)
        return factorizer._report(key, nonnegative_through)

    monkeypatch.setattr(cli, "_report", counted_report)
    flags = [f"--{name.replace('_', '-')}={value}" for name, value in options.items()]
    for limit in (1, 3, 10, len(reports) + 7):
        built.clear()
        doc = run_json(
            capsys, "factor", "--series-file", str(path), *flags,
            "--limit", str(limit), "--format", "json",
        )
        assert doc["result"]["candidate_count"] == len(reports)
        rows = doc["result"]["candidates"]
        assert len(rows) == len(built) == min(limit, len(reports))
        assert [
            (
                row["numerator_degrees"],
                row["denominator_degrees"],
                row["match_degree"],
                row["first_mismatch"],
                row["numerator_nonnegative_through"],
            )
            for row in rows
        ] == [
            (
                list(r.candidate.numerator_degrees),
                list(r.candidate.denominator_degrees),
                r.match_degree,
                list(r.first_mismatch) if r.first_mismatch else None,
                r.numerator_nonnegative_through,
            )
            for r in reports[:limit]
        ]


def test_factor_fails_loudly_on_a_negative_shown_numerator(capsys, tmp_path, monkeypatch):
    # (1, 1) leaves -1 at degree 1 of 1 + x + 4x^2 + ..., so the search never keeps it;
    # a search that did would show a row whose nonnegativity claim is false
    path = tmp_path / "target.json"
    write_series_file(path, Series(TWO_BY_TWO))
    key = (-11, 2, (1, 1), (), None)
    monkeypatch.setattr(cli, "_survivors", lambda *args: (1, [key]))
    status, out, err = run(
        capsys, "factor", "--series-file", str(path), "--free-generators", "2"
    )
    assert status == 1
    assert out == ""
    assert "kept denominator (1, 1), whose numerator is -1 at degree 1" in err


def test_factor_fails_loudly_when_a_shown_row_disagrees_with_its_one_shot_fit(
    capsys, tmp_path, monkeypatch
):
    # a walk that carried a wrong greedy run would show a row whose match degree
    # a one-shot fit of the same denominator does not reproduce
    path = tmp_path / "target.json"
    write_series_file(path, Series(TWO_BY_TWO))
    count, (key,) = factorizer._survivors(Series(TWO_BY_TWO), 2, None, None, 1)
    wrong = (key[0] - 1,) + key[1:]  # one degree more than the walk found
    monkeypatch.setattr(cli, "_survivors", lambda *args: (count, [wrong]))
    status, out, err = run(
        capsys, "factor", "--series-file", str(path), "--free-generators", "2", "--limit", "1"
    )
    assert status == 1
    assert out == ""
    match = -key[0]
    assert f"{key[2]} match degree, numerator degrees and first mismatch ({match + 1}, " in err
    assert f"a one-shot fit gives ({match}, " in err


def test_factor_refuses_a_huge_euler_exponent(capsys, tmp_path):
    # e_1 = 2^70 within the factor cap: the rank key would list 2^70 factors (1+x)
    path = tmp_path / "target.json"
    write_series_file(path, Series([1, 2**70, 5, 7]))
    status, out, err = run(capsys, "factor", "--series-file", str(path), "--free-generators", "1")
    assert status == 1
    assert out == ""
    assert f"e_1 = {2**70} factors (1+x^1), past the bound of 65536 numerator factors" in err
    assert "Traceback" not in err


def test_factor_reports_no_candidates(capsys, tmp_path):
    # a negative coefficient at degree 2 leaves every denominator's numerator
    # negative below the truncation, so the sweep keeps none
    path = tmp_path / "target.json"
    write_series_file(path, Series([1, 3, -2, 4, 6]))
    argv = ("factor", "--series-file", str(path), "--max-total-factors", "3")
    assert run(capsys, *argv) == (0, "no candidates found\n", "")
    doc = run_json(capsys, *argv, "--format", "json")
    assert doc["result"] == {"candidate_count": 0, "candidates": []}


def test_factor_rejects_both_size_options(capsys, tmp_path):
    path = tmp_path / "target.json"
    write_series_file(path, Series(TWO_BY_TWO))
    status, out, err = run(
        capsys,
        "factor", "--series-file", str(path), "--free-generators", "9",
        "--max-total-factors", "2", "--max-factor-degree", "9",
    )
    assert status == 1
    assert out == ""
    assert "exactly one of free_generators or max_total_factors" in err


def test_factor_missing_file(capsys):
    status, out, err = run(
        capsys, "factor", "--series-file", "/nonexistent/series.json", "--free-generators", "1"
    )
    assert status == 1
    assert out == ""
    assert "/nonexistent/series.json" in err


def test_factor_malformed_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    status, out, err = run(capsys, "factor", "--series-file", str(path), "--free-generators", "1")
    assert status == 1
    assert out == ""
    assert "line 1" in err
    path.write_text('{"truncation_degree": 1, "coefficients": [1, 1.5]}', encoding="utf-8")
    status, _, err = run(capsys, "factor", "--series-file", str(path), "--free-generators", "1")
    assert status == 1
    assert "coefficients" in err
    path.write_text('{"truncation_degree": true, "coefficients": [1, 1]}', encoding="utf-8")
    status, _, err = run(capsys, "factor", "--series-file", str(path), "--free-generators", "1")
    assert status == 1
    assert "'truncation_degree' must be a nonnegative integer" in err
    # each malformed file gives one stderr line that names it, and no traceback
    for content in (b"\xff{}", b"[" * 100_000):
        path.write_bytes(content)
        status, out, err = run(
            capsys, "factor", "--series-file", str(path), "--free-generators", "1"
        )
        assert status == 1
        assert out == ""
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_json_determinism(capsys):
    first = run_json(
        capsys, "census", "--n1", "2", "--n2", "2", "--max-degree", "6", "--format", "json"
    )
    second = run_json(
        capsys, "census", "--n1", "2", "--n2", "2", "--max-degree", "6", "--format", "json"
    )
    del first["timing_ms"], second["timing_ms"]
    assert json.dumps(first) == json.dumps(second)


@pytest.mark.parametrize("flag", [["--threads", "2"], ["--cache-dir", "X"]])
def test_removed_flags_rejected(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--n1", "1", "--n2", "1", "--max-degree", "2", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_table_writes_no_files(capsys, tmp_path, monkeypatch):
    clear_caches()  # so that the table is built, not served from memory
    monkeypatch.setenv("INVCENSUS_CACHE", str(tmp_path))
    doc = run_json(capsys, "table", "5", "--format", "json")
    assert doc["input"] == {"n": 5, "format": "json"}
    assert list(tmp_path.iterdir()) == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "invcensus" in capsys.readouterr().out


def spawn(argv, stdout):
    """A whole `python -m invcensus` process on this tree, stderr piped."""
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    command = [sys.executable, "-m", "invcensus", *argv]
    return subprocess.Popen(command, stdout=stdout, stderr=subprocess.PIPE, env=env)


def test_closed_pipe_is_one_error_line():
    # the table is far larger than a pipe's buffer, so the reader leaves mid-write
    with spawn(["table", "16"], subprocess.PIPE) as child:
        assert len(child.stdout.read(20)) == 20
        child.stdout.close()
        err = child.stderr.read().decode()
    assert child.returncode == 1
    assert err.splitlines() == ["error: cannot write the result: [Errno 32] Broken pipe"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_full_device_is_one_error_line():
    with open("/dev/full", "wb") as full:
        child = spawn(["table", "5"], full)
        err = child.communicate()[1].decode()
    assert child.returncode == 1
    assert err.splitlines() == ["error: cannot write the result: [Errno 28] No space left on device"]
