"""The bench-gate engine, driven through its CLI with fake declarations."""

import json

import pytest

from repro.bench.gate import Gate, main


@pytest.fixture(autouse=True)
def _report_to_tmp(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_REPORT", str(tmp_path / "report.txt"))


def fake(name="fake", results=None, runs=None, workload=None, **kwargs):
    """A gate whose measure returns ``results``, or each of ``runs`` in turn."""
    runs = iter(runs or [])
    return Gate(
        name=name,
        title="fake gate",
        workload=workload or {"seed": 1},
        measure=lambda w: json.loads(json.dumps(results)) if results else next(runs),
        exact=("n",),
        columns=("n", "rate"),
        **kwargs,
    )


def section(gate, results):
    return {"workload": dict(gate.workload), "results": results}


def write(path, **sections):
    path.write_text(json.dumps(sections, indent=2, sort_keys=True) + "\n")


def run(argv, gates, baseline, capsys):
    code = main(argv, gates={gate.name: gate for gate in gates}, baseline=baseline)
    return code, capsys.readouterr().out


def test_exact_drift_fails_naming_every_field(tmp_path, capsys):
    gate = fake(results={"a": {"n": 2}, "b": {"n": 3}})
    baseline = tmp_path / "gates.json"
    write(baseline, fake=section(gate, {"a": {"n": 1}, "b": {"n": 4}}))
    code, out = run(["--check"], [gate], baseline, capsys)
    assert code == 1
    assert "FAIL fake/a/n: 2 vs baseline 1" in out
    assert "FAIL fake/b/n: 3 vs baseline 4" in out


def test_speed_floor_is_inclusive(tmp_path, capsys):
    baseline = tmp_path / "gates.json"
    for rate, expected in ((99.9, 1), (100.0, 0)):
        gate = fake(results={"a": {"n": 1, "rate": rate}}, speed={"a/rate": 0.5})
        write(baseline, fake=section(gate, {"a": {"n": 1, "rate": 200.0}}))
        code, out = run(["--check"], [gate], baseline, capsys)
        assert code == expected, out
    gate = fake(results={"a": {"n": 1, "rate": 99.9}}, speed={"a/rate": 0.5})
    code, out = run(["--check"], [gate], baseline, capsys)
    assert "FAIL fake/a/rate: 99.9 vs baseline 200.0 (floor 100.0, 50% below)" in out


def test_failing_predicate_fails_check_and_blocks_refresh(tmp_path, capsys):
    gate = fake(results={"a": {"n": 1}}, shape=lambda results: ["curve too flat"])
    baseline = tmp_path / "gates.json"
    write(baseline, fake=section(gate, {"a": {"n": 1}}))
    before = baseline.read_text()
    code, out = run(["--check"], [gate], baseline, capsys)
    assert code == 1 and "FAIL fake: curve too flat" in out
    code, out = run([], [gate], baseline, capsys)
    assert code == 1 and "FAIL fake: curve too flat" in out
    assert baseline.read_text() == before


def test_exact_field_changing_between_repeats_fails(tmp_path, capsys):
    runs = [{"a": {"n": 1, "cpu_s": 1.0}}, {"a": {"n": 1, "cpu_s": 1.0}},
            {"a": {"n": 2, "cpu_s": 1.0}}]
    gate = fake(runs=runs, workload={"repeats": 2})
    baseline = tmp_path / "gates.json"
    write(baseline, fake=section(gate, {"a": {"n": 1}}))
    code, out = run(["--check"], [gate], baseline, capsys)
    assert code == 1
    assert "FAIL fake/a/n: 2 vs 1 on the warm-up run" in out


def test_repeats_keep_the_fastest_run_and_derive_across_them(tmp_path, capsys):
    runs = [{"a": {"n": 1, "cpu_s": 0.1}}, {"a": {"n": 1, "cpu_s": 3.0}},
            {"a": {"n": 1, "cpu_s": 2.0}}, {"a": {"n": 1, "cpu_s": 4.0}}]

    def derive(best, timed):
        best["a"]["repeats_seen"] = len(timed)

    gate = fake(runs=runs, workload={"repeats": 3}, derive=derive)
    baseline = tmp_path / "gates.json"
    assert run([], [gate], baseline, capsys)[0] == 0
    written = json.loads(baseline.read_text())["fake"]
    assert written == {
        "workload": {"repeats": 3},
        "results": {"a": {"n": 1, "cpu_s": 2.0, "repeats_seen": 3}},
    }


def test_missing_gate_section_fails(tmp_path, capsys):
    gate = fake(results={"a": {"n": 1}})
    other = fake(name="other", results={"a": {"n": 1}})
    baseline = tmp_path / "gates.json"
    write(baseline, other=section(other, {"a": {"n": 1}}))
    code, out = run(["--check", "fake"], [gate, other], baseline, capsys)
    assert code == 1 and "FAIL fake: no section in the baseline" in out


def test_refreshing_one_gate_leaves_other_sections_byte_identical(tmp_path, capsys):
    first = fake(name="alpha", results={"a": {"n": 5, "rate": 1.25}})
    second = fake(name="beta", results={"b": {"n": 7, "rate": 0.1}})
    baseline = tmp_path / "gates.json"
    write(
        baseline,
        alpha=section(first, {"a": {"n": 1, "rate": 3.5}}),
        beta=section(second, {"b": {"n": 2, "rate": 51012.2, "note": [1, 2]}}),
    )
    before = baseline.read_text()
    code, _ = run(["alpha"], [first, second], baseline, capsys)
    assert code == 0
    after = baseline.read_text()
    beta_at = before.index('  "beta": ')
    assert after[after.index('  "beta": '):] == before[beta_at:]
    assert json.loads(after)["alpha"]["results"] == {"a": {"n": 5, "rate": 1.25}}
    code, out = run(["--check"], [first, second], baseline, capsys)
    assert code == 1 and "FAIL beta/b/n: 7 vs baseline 2" in out
    assert "ok alpha: 1 exact values match; shape holds" in out
