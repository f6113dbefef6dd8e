"""Claims × results → the validation document.

The document is deliberately deterministic: no timestamps, no git SHA,
no wall-clock — two runs over identical results produce byte-identical
JSON, so ``repro validate diff`` and the committed ``VERDICTS.json``
baseline see only genuine verdict changes.

Experiment verdicts fold the claim statuses:

- ``pass`` (✔)  — every claim passed, none carries a deviation note;
- ``pass-deviation`` (≈) — every claim passed, at least one encodes a
  shape that knowingly deviates from the paper's exact statement;
- ``fail`` (✗)  — at least one claim failed;
- ``error`` (!) — a claim could not be judged (missing data), or the
  experiment itself failed to run.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

SCHEMA = "repro.validation/1"

#: Verdict → the symbol EXPERIMENTS.md uses in its headings.
VERDICT_SYMBOLS = {
    "pass": "✔",            # ✔
    "pass-deviation": "≈",  # ≈
    "fail": "✗",            # ✗
    "error": "!",
}

#: Verdicts that gate CI (repro validate run/diff exit non-zero).
FAILING_VERDICTS = ("fail", "error")


def evaluate_claims(claims: Sequence, result) -> list[dict]:
    """Judge each claim against one rendered ExperimentResult."""
    return [claim.evaluate(result) for claim in claims]


def _fold_verdict(claim_entries: Sequence[dict]) -> str:
    statuses = {entry["status"] for entry in claim_entries}
    if "error" in statuses:
        return "error"
    if "fail" in statuses:
        return "fail"
    if any(entry.get("deviation") for entry in claim_entries):
        return "pass-deviation"
    return "pass"


def evaluate_result(spec, result) -> Optional[dict]:
    """One experiment's validation entry, or None if it has no claims."""
    if spec.claims is None:
        return None
    claim_entries = evaluate_claims(tuple(spec.claims()), result)
    return {
        "title": spec.title,
        "verdict": _fold_verdict(claim_entries),
        "claims": claim_entries,
    }


def failed_entry(spec_title: str, error: str) -> dict:
    """The entry recorded when the experiment itself failed to run."""
    return {"title": spec_title, "verdict": "error", "claims": [],
            "error": error}


def build_validation(entries: Dict[str, dict], scale: str) -> dict:
    """Assemble per-experiment entries into the validation document."""
    experiments = {name: entries[name] for name in sorted(entries)}
    claims = [claim for entry in experiments.values()
              for claim in entry["claims"]]
    summary = {
        "experiments": len(experiments),
        "claims": len(claims),
        "passed": sum(1 for c in claims if c["status"] == "pass"),
        "failed": sum(1 for c in claims if c["status"] == "fail"),
        "errors": (sum(1 for c in claims if c["status"] == "error")
                   + sum(1 for e in experiments.values() if e.get("error"))),
    }
    return {
        "schema": SCHEMA,
        "scale": scale,
        "experiments": experiments,
        "summary": summary,
    }


def is_validation_doc(doc) -> bool:
    """Does this parsed JSON look like one of our validation documents?"""
    return (isinstance(doc, dict)
            and str(doc.get("schema", "")).startswith("repro.validation/"))


def doc_failed(doc: dict) -> bool:
    """CI gate: any experiment verdict in a failing state."""
    return any(entry.get("verdict") in FAILING_VERDICTS
               for entry in doc.get("experiments", {}).values())
