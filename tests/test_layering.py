"""Layering guard: analysis modules must go through the AnalysisContext.

Only ``repro.analysis.context`` may call the expensive derivation entry
points directly (cleaning, user-day classification, AP classification);
every other analysis module gets them memoized from the context. A direct
call re-introduces the scattered ``classification=None`` recompute
fallbacks this layer removed, so the guard greps the source tree.
"""

from __future__ import annotations

import re
from pathlib import Path

ANALYSIS_DIR = (
    Path(__file__).resolve().parents[1] / "src" / "repro" / "analysis"
)

#: Callables only context.py may invoke directly.
GUARDED_CALLS = re.compile(
    r"\b(clean_for_main_analysis|classify_user_days|classify_aps)\("
)


def _violations():
    found = []
    for path in sorted(ANALYSIS_DIR.glob("*.py")):
        if path.name == "context.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            stripped = line.strip()
            if stripped.startswith(("def ", "#", '"', "'")):
                continue
            if GUARDED_CALLS.search(line):
                found.append(f"{path.name}:{lineno}: {stripped}")
    return found


def test_analysis_modules_use_the_context():
    violations = _violations()
    assert not violations, (
        "direct derivation calls outside context.py (use "
        "AnalysisContext.user_classes()/.classification()/.clean()):\n"
        + "\n".join(violations)
    )


def test_guard_sees_the_allowed_calls_in_context():
    # Sanity-check the regex: context.py itself does make these calls, so
    # an empty violation list above means the guard is looking correctly.
    text = (ANALYSIS_DIR / "context.py").read_text()
    assert GUARDED_CALLS.search(text)


SRC_DIR = ANALYSIS_DIR.parent

#: Study-wide app breakdowns (Tables 6-7), WiFi ratios (Figures 6-8) and
#: the WiFi-available scan mask (Figure 17, §3.5) come from the memo,
#: ``ctx.app_breakdown(year)``, ``ctx.wifi_ratios(year)`` and
#: ``ctx.available_scan_mask(year)``; calling the analysis function bare or
#: through a module alias recomputes it per caller.
DIRECT_MEMO_CALLS = re.compile(
    r"(?:^|[^\w.]|\b(?:A|analysis)\.)"
    r"(?:app_breakdown|wifi_ratios|available_scan_mask)\("
)


def _memo_call_violations():
    paths = sorted((SRC_DIR / "reporting").glob("*.py"))
    paths.append(SRC_DIR / "obs" / "fidelity.py")
    paths += [p for p in sorted(ANALYSIS_DIR.glob("*.py"))
              if p.name != "context.py"]
    found = []
    for path in paths:
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            stripped = line.strip()
            if stripped.startswith(("def ", "#", '"', "'")):
                continue
            if DIRECT_MEMO_CALLS.search(line):
                found.append(f"{path.name}:{lineno}: {stripped}")
    return found


def test_reporting_gets_app_breakdown_from_the_context():
    violations = _memo_call_violations()
    assert not violations, (
        "direct app_breakdown/wifi_ratios/available_scan_mask calls outside "
        "context.py (use the memoized ctx.app_breakdown(year) / "
        "ctx.wifi_ratios(year) / ctx.available_scan_mask(year)):\n"
        + "\n".join(violations)
    )


def test_app_breakdown_guard_regex():
    for bad in (
        "breakdown = A.app_breakdown(cache.campaign(year))",
        "top = app_breakdown(ctx)",
        "analysis.app_breakdown(ctx.campaign(last))",
        "ratios = A.wifi_ratios(cache.campaign(year))",
        "mask = available_scan_mask(dataset)",
    ):
        assert DIRECT_MEMO_CALLS.search(bad), bad
    for good in ("breakdown = cache.app_breakdown(year)",
                 "ctx.app_breakdown(last).top('wifi_home')",
                 "ratios = cache.wifi_ratios(year)",
                 "mask = ctx.available_scan_mask()"):
        assert not DIRECT_MEMO_CALLS.search(good), good


KERNEL_PATH = (
    Path(__file__).resolve().parents[1]
    / "src" / "repro" / "simulation" / "kernel.py"
)

#: The simulation kernel is a leaf compute layer: it must never reach up
#: into presentation (``repro.reporting``) or the run-report side of obs
#: (``repro.obs.report``) — such an import would invert the layering and
#: drag matplotlib-adjacent code into every shard worker.
FORBIDDEN_KERNEL_IMPORTS = re.compile(
    r"^\s*(?:from|import)\s+repro\.(?:reporting\b|obs\.report\b)",
    re.MULTILINE,
)


def test_kernel_never_imports_reporting_or_obs_report():
    text = KERNEL_PATH.read_text()
    matches = [m.group(0).strip() for m in
               FORBIDDEN_KERNEL_IMPORTS.finditer(text)]
    assert not matches, (
        "simulation/kernel.py must stay a leaf compute layer; forbidden "
        "imports found:\n" + "\n".join(matches)
    )


def test_kernel_guard_regex_catches_violations():
    # Sanity-check the pattern against the imports it must catch.
    for bad in (
        "from repro.reporting import tables",
        "import repro.reporting",
        "from repro.obs.report import write_run_report",
        "import repro.obs.report",
    ):
        assert FORBIDDEN_KERNEL_IMPORTS.search(bad), bad
    assert not FORBIDDEN_KERNEL_IMPORTS.search(
        "from repro.obs.recorder import get_recorder"
    )
