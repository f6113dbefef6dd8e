"""Tests for the paper-shape validation subsystem (repro.validate)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.errors import ConfigError
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, get_spec
from repro.validate import (
    Cells,
    Claim,
    ClaimDataError,
    Col,
    build_validation,
    crossover,
    diff_validations,
    evaluate_result,
    load_validation,
    monotone_falling,
    monotone_rising,
    ordering,
    peak_then_fall,
    render_markdown,
    render_verdict_table,
    sign,
    within_rel,
    write_validation,
)
from repro.validate.cli import main as validate_main
from repro.validate.evaluate import doc_failed, failed_entry
from repro.validate.predicates import ResultTable


def table(headers, rows) -> ExperimentResult:
    return ExperimentResult(experiment="T", headers=list(headers),
                            rows=[list(row) for row in rows])


SPEEDUPS = table(
    ("workload", "ws", "ref"),
    [("mcf", 1.4, 1.0), ("omnetpp", 1.2, 1.0), ("milc", 1.1, 1.0),
     ("GMEAN", 1.23, "")],
)
CURVE = table(
    ("h", "bw"),
    [("0.0", 38.4), ("0.5", 89.6), ("1.0", 51.2)],
)


def run(predicate, result):
    return predicate.evaluate(ResultTable.of(result))


# ----------------------------------------------------------------------
# Selectors
# ----------------------------------------------------------------------

def test_col_excludes_aggregate_rows():
    series = Col("ws").resolve(ResultTable.of(SPEEDUPS))
    assert [label for label, _ in series] == ["mcf", "omnetpp", "milc"]


def test_col_explicit_rows_select_and_reorder():
    series = Col("ws", rows=("milc", "mcf")).resolve(ResultTable.of(SPEEDUPS))
    assert series == [("milc", 1.1), ("mcf", 1.4)]


def test_selector_errors_on_missing_data():
    t = ResultTable.of(SPEEDUPS)
    with pytest.raises(ClaimDataError):
        Col("nope").resolve(t)
    with pytest.raises(ClaimDataError):
        Col("ws", rows=("astar",)).resolve(t)
    with pytest.raises(ClaimDataError):
        Cells(()).resolve(t)
    # A table holding only aggregate rows answers no whole-column claim.
    only_agg = ResultTable.of(table(("w", "ws"), [("GMEAN", 1.2)]))
    with pytest.raises(ClaimDataError):
        Col("ws").resolve(only_agg)


def test_non_numeric_cell_errors():
    with pytest.raises(ClaimDataError):
        Cells((("GMEAN", "ref"),)).resolve(ResultTable.of(SPEEDUPS))


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------

def test_ordering_pass_fail_and_margin():
    ok, _ = run(ordering(("mcf", "ws"), ("omnetpp", "ws"), ("milc", "ws")),
                SPEEDUPS)
    assert ok
    ok, _ = run(ordering(("milc", "ws"), ("mcf", "ws")), SPEEDUPS)
    assert not ok
    # margin demands a minimum gap: 1.4 vs 1.2 clears 0.1 but not 0.3.
    assert run(ordering(("mcf", "ws"), ("omnetpp", "ws"), margin=0.1),
               SPEEDUPS)[0]
    assert not run(ordering(("mcf", "ws"), ("omnetpp", "ws"), margin=0.3),
                   SPEEDUPS)[0]


def test_ordering_ties_fail_and_single_point_errors():
    tied = table(("w", "ws"), [("a", 1.0), ("b", 1.0)])
    assert not run(ordering(("a", "ws"), ("b", "ws")), tied)[0]
    with pytest.raises(ClaimDataError):
        run(ordering(("mcf", "ws")), SPEEDUPS)


def test_ordering_nan_fails_rather_than_errors():
    bad = table(("w", "ws"), [("a", float("nan")), ("b", 1.0)])
    ok, observed = run(ordering(("a", "ws"), ("b", "ws")), bad)
    assert not ok
    assert "non-finite" in observed


def test_monotone_rising_and_falling():
    rising = table(("x", "y"), [("a", 1.0), ("b", 2.0), ("c", 3.0)])
    assert run(monotone_rising(Col("y")), rising)[0]
    assert not run(monotone_falling(Col("y")), rising)[0]
    falling = table(("x", "y"), [("a", 3.0), ("b", 2.0), ("c", 1.0)])
    assert run(monotone_falling(Col("y")), falling)[0]


def test_monotone_tol_forgives_small_wobbles():
    wobble = table(("x", "y"), [("a", 1.0), ("b", 0.995), ("c", 2.0)])
    assert not run(monotone_rising(Col("y")), wobble)[0]
    assert run(monotone_rising(Col("y"), tol=0.01), wobble)[0]


def test_monotone_strict_rejects_ties():
    flat = table(("x", "y"), [("a", 1.0), ("b", 1.0), ("c", 2.0)])
    assert run(monotone_rising(Col("y")), flat)[0]
    assert not run(monotone_rising(Col("y"), strict=True), flat)[0]


def test_monotone_single_point_errors():
    with pytest.raises(ClaimDataError):
        run(monotone_rising(Col("ws", rows=("mcf",))), SPEEDUPS)


def test_peak_then_fall_requires_interior_peak():
    assert run(peak_then_fall(Col("bw")), CURVE)[0]
    edge = table(("h", "bw"), [("a", 5.0), ("b", 4.0), ("c", 3.0)])
    assert not run(peak_then_fall(Col("bw")), edge)[0]


def test_peak_then_fall_window_and_min_drop():
    assert run(peak_then_fall(Col("bw"), peak_within=("0.5",)), CURVE)[0]
    ok, observed = run(peak_then_fall(Col("bw"), peak_within=("0.0",)), CURVE)
    assert not ok
    assert "peak outside" in observed
    # 89.6 -> 51.2 is a 43% drop: clears 0.4, not 0.5.
    assert run(peak_then_fall(Col("bw"), min_drop=0.4), CURVE)[0]
    assert not run(peak_then_fall(Col("bw"), min_drop=0.5), CURVE)[0]


def test_peak_then_fall_needs_three_points():
    short = table(("h", "bw"), [("a", 1.0), ("b", 2.0)])
    with pytest.raises(ClaimDataError):
        run(peak_then_fall(Col("bw")), short)


def test_crossover_detects_sign_flip():
    xtab = table(
        ("h", "dram", "edram"),
        [("0.00", 38.4, 70.0), ("0.50", 80.0, 89.6), ("1.00", 102.4, 51.2)],
    )
    assert run(crossover("edram", "dram", ("0.00", "1.00")), xtab)[0]
    assert not run(crossover("edram", "dram", ("0.00", "0.50")), xtab)[0]
    with pytest.raises(ClaimDataError):
        run(crossover("edram", "dram", ("0.00",)), xtab)
    with pytest.raises(ClaimDataError):
        run(crossover("edram", "dram", ("0.00", "2.00")), xtab)


def test_within_rel_target_and_reference():
    assert run(within_rel(Cells((("GMEAN", "ws"),)), 0.05, target=1.25),
               SPEEDUPS)[0]
    assert not run(within_rel(Cells((("GMEAN", "ws"),)), 0.01, target=1.0),
                   SPEEDUPS)[0]
    # Paired column: worst deviation is mcf's 40%.
    assert run(within_rel(Col("ws"), 0.5, reference=Col("ref")), SPEEDUPS)[0]
    assert not run(within_rel(Col("ws"), 0.3, reference=Col("ref")),
                   SPEEDUPS)[0]


def test_within_rel_configuration_errors():
    with pytest.raises(ClaimDataError):
        run(within_rel(Col("ws"), 0.1), SPEEDUPS)
    mismatched = within_rel(Col("ws"), 0.1,
                            reference=Col("ref", rows=("mcf",)))
    with pytest.raises(ClaimDataError):
        run(mismatched, SPEEDUPS)


def test_sign_bounds_are_strict():
    assert run(sign(("GMEAN", "ws"), above=1.0), SPEEDUPS)[0]
    assert not run(sign(("mcf", "ref"), above=1.0), SPEEDUPS)[0]  # tie
    assert run(sign(("milc", "ws"), below=1.2), SPEEDUPS)[0]
    assert run(sign(Col("ws"), above=1.0), SPEEDUPS)[0]
    assert not run(sign(Col("ws"), above=1.15), SPEEDUPS)[0]
    with pytest.raises(ClaimDataError):
        run(sign(("mcf", "ws")), SPEEDUPS)


# ----------------------------------------------------------------------
# Claims and the validation document
# ----------------------------------------------------------------------

PASSING = Claim(id="t.good", claim="speedups beat one", paper="Fig. T",
                predicate=sign(("GMEAN", "ws"), above=1.0))
FAILING = Claim(id="t.bad", claim="speedups beat two",
                predicate=sign(("GMEAN", "ws"), above=2.0))
BROKEN = Claim(id="t.broken", claim="missing workload",
               predicate=sign(("astar", "ws"), above=1.0))
NOTED = Claim(id="t.noted", claim="milc still gains",
              predicate=sign(("milc", "ws"), above=1.0),
              deviation="smaller than the paper's bar")


def test_claim_evaluate_statuses():
    assert PASSING.evaluate(SPEEDUPS)["status"] == "pass"
    assert FAILING.evaluate(SPEEDUPS)["status"] == "fail"
    entry = BROKEN.evaluate(SPEEDUPS)
    assert entry["status"] == "error"
    assert "astar" in entry["observed"]
    assert entry["predicate"] == "sign"
    assert entry["paper"] == ""


def spec_with(*claims, title="Fig. T"):
    return SimpleNamespace(title=title, claims=lambda: claims)


def test_verdict_folding():
    assert evaluate_result(spec_with(PASSING), SPEEDUPS)["verdict"] == "pass"
    assert (evaluate_result(spec_with(PASSING, NOTED), SPEEDUPS)["verdict"]
            == "pass-deviation")
    assert (evaluate_result(spec_with(PASSING, FAILING), SPEEDUPS)["verdict"]
            == "fail")
    # error outranks fail; a claimless spec yields no entry at all.
    assert (evaluate_result(spec_with(FAILING, BROKEN), SPEEDUPS)["verdict"]
            == "error")
    assert evaluate_result(SimpleNamespace(claims=None), SPEEDUPS) is None


def make_doc(*claims):
    claims = claims or (PASSING, NOTED)
    entries = {
        "figt": evaluate_result(spec_with(*claims), SPEEDUPS),
        "figz": evaluate_result(spec_with(PASSING), SPEEDUPS),
    }
    return build_validation(entries, scale="smoke")


def test_build_validation_counts_and_order():
    doc = make_doc(PASSING, FAILING, BROKEN)
    assert list(doc["experiments"]) == ["figt", "figz"]
    assert doc["summary"] == {"experiments": 2, "claims": 4, "passed": 2,
                              "failed": 1, "errors": 1}
    assert doc_failed(doc)
    assert not doc_failed(make_doc())


def test_failed_entry_gates_the_document():
    doc = build_validation({"figt": failed_entry("Fig. T", "3 cells failed")},
                           scale="smoke")
    assert doc["experiments"]["figt"]["verdict"] == "error"
    assert doc["summary"]["errors"] == 1
    assert doc_failed(doc)
    assert "run failed" in render_verdict_table(doc)


def test_round_trip_is_deterministic(tmp_path):
    first = write_validation(tmp_path / "a.json", make_doc())
    second = write_validation(tmp_path / "b.json", make_doc())
    assert first.read_bytes() == second.read_bytes()
    loaded = load_validation(first)
    assert loaded == make_doc()
    assert render_markdown(loaded) == render_markdown(make_doc())


def test_markdown_sections():
    text = render_markdown(make_doc(PASSING, FAILING, NOTED))
    assert "# Paper-shape validation" in text
    assert "| experiment | verdict |" in text
    assert "`t.bad`" in text
    assert "## Failing claims" in text
    assert "## Known deviations (≈)" in text
    clean = render_markdown(make_doc(PASSING))
    assert "## Failing claims" not in clean
    assert "✔" in clean


def test_load_validation_rejects_bad_documents(tmp_path):
    with pytest.raises(ConfigError):
        load_validation(tmp_path / "missing.json")
    not_ours = tmp_path / "other.json"
    not_ours.write_text('{"schema": "something-else"}')
    with pytest.raises(ConfigError):
        load_validation(not_ours)
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{nope")
    with pytest.raises(ConfigError):
        load_validation(garbled)


# ----------------------------------------------------------------------
# Verdict diffing
# ----------------------------------------------------------------------

def mini_doc(verdict, status, name="figt", claim_id="figt.x"):
    entry = {"title": "T", "verdict": verdict,
             "claims": [{"id": claim_id, "status": status}]}
    return build_validation({name: entry}, scale="smoke")


def test_diff_flags_flips_as_regressions():
    diff = diff_validations(mini_doc("pass", "pass"),
                            mini_doc("fail", "fail"))
    assert diff.regressed
    assert "figt: pass -> fail" in diff.flips
    assert "figt.x: pass -> fail" in diff.flips
    assert "REGRESSED" in diff.render()


def test_diff_missing_experiment_regresses():
    base = mini_doc("pass", "pass")
    empty = build_validation({}, scale="smoke")
    diff = diff_validations(base, empty)
    assert diff.missing_experiments == ["figt"]
    assert diff.regressed


def test_diff_improvements_and_softening_do_not_gate():
    better = diff_validations(mini_doc("fail", "fail"),
                              mini_doc("pass", "pass"))
    assert better.improvements and not better.regressed
    softer = diff_validations(mini_doc("pass", "pass"),
                              mini_doc("pass-deviation", "pass"))
    assert softer.softened and not softer.regressed
    same = diff_validations(mini_doc("error", "error"),
                            mini_doc("error", "error"))
    assert same.still_failing and not same.regressed


def test_diff_tracks_added_and_removed_claims():
    base = mini_doc("pass", "pass", claim_id="figt.old")
    cand = mini_doc("pass", "pass", claim_id="figt.new")
    diff = diff_validations(base, cand)
    assert diff.removed == ["figt.old"]
    assert diff.added == ["figt.new"]
    assert not diff.regressed


# ----------------------------------------------------------------------
# The repro validate CLI gate
# ----------------------------------------------------------------------

def shape_doc(rows):
    """A document judging a real ordering claim over a tiny fixture."""
    result = table(("cfg", "ws"), rows)
    claim = Claim(id="fx.order", claim="dap beats the baseline",
                  predicate=ordering(("dap", "ws"), ("base", "ws")))
    entry = evaluate_result(spec_with(claim, title="FX"), result)
    return build_validation({"fx": entry}, scale="smoke")


def test_cli_diff_fails_on_flipped_ordering(tmp_path, capsys):
    base = write_validation(tmp_path / "base.json",
                            shape_doc([("base", 1.0), ("dap", 1.2)]))
    flipped = write_validation(tmp_path / "cand.json",
                               shape_doc([("base", 1.2), ("dap", 1.0)]))
    assert validate_main(["diff", str(base), str(flipped)]) == 1
    out = capsys.readouterr().out
    assert "fx: pass -> fail" in out
    assert "REGRESSED" in out
    assert validate_main(["diff", str(base), str(base)]) == 0
    assert validate_main(["diff", str(base), str(flipped), "--no-fail"]) == 0


def test_cli_diff_defaults_to_committed_baseline(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_validation("VERDICTS.json", shape_doc([("base", 1.0), ("dap", 1.2)]))
    flipped = write_validation("cand.json",
                               shape_doc([("base", 1.2), ("dap", 1.0)]))
    assert validate_main(["diff", str(flipped)]) == 1
    assert "against VERDICTS.json" in capsys.readouterr().out


def test_cli_report_renders_markdown(tmp_path, capsys):
    path = write_validation(tmp_path / "v.json",
                            shape_doc([("base", 1.0), ("dap", 1.2)]))
    assert validate_main(["report", str(path)]) == 0
    assert "# Paper-shape validation" in capsys.readouterr().out


def test_cli_reports_missing_documents(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert validate_main(["diff", missing, missing]) == 2
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Registry coverage
# ----------------------------------------------------------------------

def test_every_experiment_registers_claims():
    total, seen = 0, set()
    for name in EXPERIMENTS:
        spec = get_spec(name)
        assert spec.claims is not None, f"{name} has no claims block"
        claims = tuple(spec.claims())
        assert claims, f"{name} registered an empty claims block"
        for claim in claims:
            assert claim.id.startswith(f"{name}."), claim.id
            assert claim.id not in seen, f"duplicate claim id {claim.id}"
            assert claim.claim, f"{claim.id} has no prose statement"
            seen.add(claim.id)
        total += len(claims)
    assert total >= 20
