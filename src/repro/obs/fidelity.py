"""The fidelity scorer: measured quantities vs the paper-reference registry.

Every :class:`~repro.obs.reference.PaperRef` names an experiment and one
named measure of the table or figure that experiment returns.
:func:`score_fidelity` runs each named experiment once on an
:class:`~repro.analysis.context.AnalysisContext` (sharing its memo with
whatever else the run computed), so a verdict rests on the numbers the
experiment renders. It emits one :class:`FidelityRecord` per check
(measured value, reference, normalized divergence,
``pass``/``warn``/``fail``/``skip`` verdict), rolled up into a
:class:`FidelityReport` whose JSON is **deterministic**: it contains no
timings or environment data, so ``jobs=1`` and ``jobs=2`` runs of the same
(scale, seed) produce bit-identical reports (pinned by
``tests/test_fidelity.py``).

The committed ``FIDELITY_baseline.json`` is scored at CI scale; the
:func:`fidelity_regressions` gate compares verdicts (not values, which are
noisy across scales) and fails only when a check's verdict *worsens* —
``pass`` -> ``warn``, ``warn`` -> ``fail``, or a previously-scored check
disappearing. ``skip`` never gates in either direction.

Like :mod:`repro.obs.bench`, the experiments are imported lazily inside
the scorer so ``repro.obs`` stays importable from every layer.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ReproError
from repro.obs.reference import (
    REFERENCES,
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_SKIP,
    VERDICT_WARN,
    PaperRef,
    paper_item_of,
    reference_experiment_ids,
    verdict_rank,
)
from repro.obs.recorder import get_recorder

__all__ = [
    "FidelityRecord",
    "FidelityReport",
    "FIDELITY_SCHEMA_VERSION",
    "score_fidelity",
    "resolve_check_ids",
    "fidelity_regressions",
    "load_fidelity_report",
]

FIDELITY_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Records and report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FidelityRecord:
    """One scored check: measured value vs paper reference."""

    check_id: str
    experiment_id: str
    paper_item: str
    quantity: str
    paper: str
    predicate: str
    #: JSON-ready measured value (number / list / list of lists); None
    #: when the experiment left its measure undefined (verdict == "skip").
    measured: Optional[object]
    measured_text: str
    divergence: Optional[float]
    verdict: str
    scale_free: bool
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class FidelityReport:
    """All scored checks of one run, JSON-deterministic.

    A run over saved campaigns names their directory in ``data`` and
    leaves ``scale`` and ``seed`` unset: the data does not record them.
    """

    scale: Optional[float]
    seed: Optional[int]
    years: List[int]
    records: List[FidelityRecord] = field(default_factory=list)
    schema_version: int = FIDELITY_SCHEMA_VERSION
    data: Optional[str] = None

    def count(self, verdict: str) -> int:
        return sum(1 for r in self.records if r.verdict == verdict)

    @property
    def n_pass(self) -> int:
        return self.count(VERDICT_PASS)

    @property
    def n_warn(self) -> int:
        return self.count(VERDICT_WARN)

    @property
    def n_fail(self) -> int:
        return self.count(VERDICT_FAIL)

    @property
    def n_skip(self) -> int:
        return self.count(VERDICT_SKIP)

    def record(self, check_id: str) -> FidelityRecord:
        for rec in self.records:
            if rec.check_id == check_id:
                return rec
        raise ReproError(f"no fidelity record for check {check_id!r}")

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "scale": self.scale,
            "seed": self.seed,
            "data": self.data,
            "years": list(self.years),
            "n_checks": len(self.records),
            "n_pass": self.n_pass,
            "n_warn": self.n_warn,
            "n_fail": self.n_fail,
            "n_skip": self.n_skip,
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "FidelityReport":
        record_fields = set(FidelityRecord.__dataclass_fields__)
        scale, seed = data.get("scale"), data.get("seed")
        return cls(
            scale=None if scale is None else float(scale),
            seed=None if seed is None else int(seed),
            data=data.get("data"),
            years=[int(y) for y in data.get("years", ())],
            records=[
                FidelityRecord(**{k: v for k, v in rec.items()
                                  if k in record_fields})
                for rec in data.get("records", ())
            ],
            schema_version=int(
                data.get("schema_version", FIDELITY_SCHEMA_VERSION)
            ),
        )

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    def render(self) -> str:
        """Aligned plain-text scoreboard."""
        mark = {VERDICT_PASS: "ok", VERDICT_WARN: "WARN",
                VERDICT_FAIL: "FAIL", VERDICT_SKIP: "skip"}
        header = ("check", "exp", "verdict", "divergence", "measured")
        rows = [
            (r.check_id, r.experiment_id, mark[r.verdict],
             "-" if r.divergence is None else f"{r.divergence:.3f}",
             r.measured_text)
            for r in self.records
        ]
        widths = [max(len(row[i]) for row in [header] + rows)
                  for i in range(len(header))]
        lines = ["fidelity scoreboard", "-" * 19]
        lines.append("  ".join(c.ljust(w) for c, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        scored = (f"data {self.data}" if self.data is not None
                  else f"scale {self.scale}, seed {self.seed}")
        lines.append(
            f"{len(self.records)} checks: {self.n_pass} pass, "
            f"{self.n_warn} warn, {self.n_fail} fail, {self.n_skip} skip "
            f"({scored})"
        )
        return "\n".join(lines)


def load_fidelity_report(path: Union[str, Path]) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read fidelity report {path}: {exc}") from None


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------

def resolve_check_ids(names: Optional[Sequence[str]] = None) -> List[str]:
    """Expand experiment ids / check ids / ``all`` to sorted check ids."""
    if not names or list(names) == ["all"]:
        return sorted(REFERENCES)
    by_experiment: Dict[str, List[str]] = {}
    for check_id, ref in REFERENCES.items():
        by_experiment.setdefault(ref.experiment_id, []).append(check_id)
    resolved: List[str] = []
    unknown: List[str] = []
    for name in names:
        if name in REFERENCES:
            resolved.append(name)
        elif name in by_experiment:
            resolved.extend(by_experiment[name])
        else:
            unknown.append(name)
    if unknown:
        raise ReproError(
            f"unknown fidelity checks: {unknown}; valid ids: "
            f"{', '.join(reference_experiment_ids())} (or 'all', or a "
            f"check id)"
        )
    return sorted(set(resolved))


def _round_measured(value, digits: int = 6):
    """Round a measured structure for stable JSON."""
    if isinstance(value, (list, tuple)):
        return [_round_measured(v, digits) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, int):
        return value
    return float(value)  # numpy scalars


def _measured_text(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, (list, tuple)):
        if value and isinstance(value[0], (list, tuple)):
            return " vs ".join(_measured_text(v) for v in value)
        return " -> ".join(_measured_text(v) for v in value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _context_is_partial(ctx) -> bool:
    """Whether the context's study dropped shards (``--partial-results``).

    Scoring a partial run against full-panel references is meaningless:
    any check may fail or blow up on the holes, so experiment and measure
    errors are downgraded to ``skip`` rather than crashing the scoreboard.
    """
    study = getattr(ctx, "study", None)
    if study is None:
        return False
    return any(
        getattr(result, "losses", None) is not None
        for result in getattr(study, "campaigns", {}).values()
    )


def _measure(ref: PaperRef, ctx, results: dict):
    """The value of ``ref``'s measure; its experiment runs once per score.

    A failed experiment is kept in ``results`` and raised again for each
    check that reads it.
    """
    from repro.reporting.experiments import run_experiment

    experiment_id = ref.experiment_id
    if experiment_id not in results:
        try:
            with get_recorder().span("experiment", experiment=experiment_id):
                results[experiment_id] = run_experiment(experiment_id, ctx)
        except Exception as exc:
            results[experiment_id] = exc
    result = results[experiment_id]
    if isinstance(result, Exception):
        raise result
    return result.measures[ref.measure]()


def _score_one(ref: PaperRef, ctx, results: dict) -> FidelityRecord:
    from repro.errors import AnalysisError

    skip_on = Exception if _context_is_partial(ctx) else AnalysisError
    try:
        with get_recorder().span("fidelity.check", check=ref.check_id):
            measured = _measure(ref, ctx, results)
    except skip_on as exc:
        return FidelityRecord(
            check_id=ref.check_id, experiment_id=ref.experiment_id,
            paper_item=paper_item_of(ref.experiment_id),
            quantity=ref.quantity, paper=ref.paper,
            predicate=ref.predicate.describe(), measured=None,
            measured_text="-", divergence=None, verdict=VERDICT_SKIP,
            scale_free=ref.scale_free,
            note=str(exc) or ref.note,
        )
    verdict, divergence = ref.predicate.verdict(measured, ref.paper_value)
    rounded = _round_measured(measured)
    return FidelityRecord(
        check_id=ref.check_id, experiment_id=ref.experiment_id,
        paper_item=paper_item_of(ref.experiment_id),
        quantity=ref.quantity, paper=ref.paper,
        predicate=ref.predicate.describe(), measured=rounded,
        measured_text=_measured_text(rounded),
        divergence=round(float(divergence), 6), verdict=verdict,
        scale_free=ref.scale_free, note=ref.note,
    )


def score_fidelity(
    context,
    checks: Optional[Sequence[str]] = None,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    data: Optional[str] = None,
) -> FidelityReport:
    """Score (a subset of) the registry against one analysis context.

    ``context`` is an :class:`~repro.analysis.context.AnalysisContext`
    (study-backed for the survey checks; dataset-backed contexts skip
    them). Each experiment a check names runs once on it. ``checks``
    accepts experiment ids, check ids or ``all``. ``scale`` and ``seed``
    label a simulated study, ``data`` the directory of saved campaigns.
    """
    check_ids = resolve_check_ids(checks)
    report = FidelityReport(scale=scale, seed=seed, data=data,
                            years=[int(y) for y in context.years])
    results: dict = {}
    with get_recorder().span("fidelity.score", n_checks=len(check_ids)):
        for check_id in check_ids:
            report.records.append(
                _score_one(REFERENCES[check_id], context, results))
    return report


# ----------------------------------------------------------------------
# The regression gate
# ----------------------------------------------------------------------

def fidelity_regressions(
    current: Union[FidelityReport, dict],
    baseline: dict,
    baseline_name: str = "baseline",
) -> List[str]:
    """Verdict regressions of ``current`` vs a committed baseline.

    A regression is a check whose verdict worsened (pass -> warn,
    anything -> fail) or that the baseline scored but the current report
    no longer contains. ``skip`` on either side exempts the check: a
    quantity that is undefined at one scale cannot gate.
    """
    if isinstance(current, FidelityReport):
        current = current.to_dict()
    current_by_id = {r["check_id"]: r for r in current.get("records", ())}
    failures: List[str] = []
    for base in baseline.get("records", ()):
        check_id = base["check_id"]
        base_verdict = base["verdict"]
        if base_verdict == VERDICT_SKIP:
            continue
        now = current_by_id.get(check_id)
        if now is None:
            failures.append(
                f"{baseline_name}: check {check_id} disappeared "
                f"(was {base_verdict})"
            )
            continue
        now_verdict = now["verdict"]
        if now_verdict == VERDICT_SKIP:
            continue
        if verdict_rank(now_verdict) > verdict_rank(base_verdict):
            failures.append(
                f"{baseline_name}: {check_id} regressed "
                f"{base_verdict} -> {now_verdict} "
                f"(divergence {base.get('divergence')} -> "
                f"{now.get('divergence')}, measured {now.get('measured_text')})"
            )
    return failures
