"""Checks of the program's outputs against the independent reference.

Each check returns a list of problems; an empty list means the output is
correct. They compare with properties and with reference.py, never with a
stored copy of earlier output.
"""

from __future__ import annotations

import csv
import io
import json

import reference

# Relative tolerance of a replayed row against the program's row. The
# reference agrees to about 1e-15 over its replayed steps.
REPLAY_RTOL = 1e-9
# The rate rule is checked on the printed cells themselves.
RULE_RTOL = 1e-12
# Verdicts within this distance of rho are not judged (as in the program).
BAND = 1e-9
# Spectral radii from the closed-form 2x2 roots against LAPACK.
RADIUS_RTOL = 1e-7


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def parse_records(text: str):
    """(header, rows) of records.csv; empty cells become None."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = [{k: (float(v) if v else None) for k, v in zip(header, row)} for row in reader]
    return header, rows


def check_run(cfg: dict, records_text: str, summary: dict, ref_rows=None) -> list[str]:
    """One training run: its length, the rate rule on every row, no
    divergence, and agreement with the replayed first rows."""
    problems = []
    header, rows = parse_records(records_text)
    steps = cfg["steps"]
    groups = sum(h.startswith("lr_g") for h in header)
    if len(rows) != steps + 1 or [r["iter"] for r in rows] != list(range(steps + 1)):
        problems.append(f"records.csv has {len(rows)} rows for {steps} steps")
    if summary.get("diverged") is not False or summary.get("steps_completed") != steps:
        problems.append(
            f"summary: diverged={summary.get('diverged')} "
            f"steps_completed={summary.get('steps_completed')}"
        )
    if any(r["diverged"] != 0.0 for r in rows):
        problems.append("a row is flagged diverged")

    rate = cfg["rate"]
    for r in rows[1:]:
        lrs = [r[f"lr_g{k}"] for k in range(groups)]
        ls = [r[f"L_g{k}"] for k in range(groups)]
        if rate["kind"] == "fixed":
            ok = all(lr == rate["eta"] for lr in lrs) and all(l is None for l in ls)
        elif r["iter"] == 1:
            ok = all(lr == rate["eta0"] for lr in lrs) and all(l == 0.0 for l in ls)
        else:
            ok = all(
                l is not None and l >= 0.0 and lr is not None
                and _close(lr, rate["eta0"] / (l + rate["eps2"]), RULE_RTOL)
                for lr, l in zip(lrs, ls)
            )
        if not ok:
            problems.append(f"row {r['iter']:.0f} breaks the {rate['kind']} rate rule")
            break

    for t, (loss, test_loss, lrs, ls) in enumerate(ref_rows or []):
        if t >= len(rows):
            break
        row = rows[t]
        pairs = [("train_loss", row["train_loss"], loss)]
        if test_loss is not None:
            pairs.append(("test_loss", row["test_loss"], test_loss))
        for k, lr in enumerate(lrs or []):
            pairs.append((f"lr_g{k}", row.get(f"lr_g{k}"), lr))
        for k, l in enumerate(ls or []):
            pairs.append((f"L_g{k}", row.get(f"L_g{k}"), l))
        for name, got, want in pairs:
            if got is None or not _close(got, want, REPLAY_RTOL):
                problems.append(f"row {t} {name}: program {got!r}, reference {want!r}")
    return problems


def check_analysis(system: str, params: dict, exit_code: int, stdout: str):
    """One ``pls-lab stability`` analysis: (problems, failed).

    ``problems`` lists wrong outputs: spectral radius, certificate and
    window against the reference. ``failed`` is the known fault: the
    ``stable`` field disagrees with contraction (radius below rho).
    """
    if exit_code != 0:
        return [f"{system} {params}: exit code {exit_code}"], True
    out = json.loads(stdout)
    problems = []
    rho = params["rho"]
    radius = reference.spectral_radius(system, params)
    if not _close(out["spectral_radius"], radius, RADIUS_RTOL):
        problems.append(f"spectral_radius {out['spectral_radius']!r} != {radius!r}")
    judged = abs(radius - rho) > BAND
    contracts = radius < rho
    if system == "t1":
        certified = out["lyapunov_p"] is not None
    else:
        certified = out["lmi_feasible"]
    if judged and certified != contracts:
        problems.append(f"certificate {certified} but radius {radius!r} vs rho {rho!r}")
    lo, hi, _ = reference.window(system, params)
    if not (_close(out["window"][0], lo, RULE_RTOL) and _close(out["window"][1], hi, RULE_RTOL)):
        problems.append(f"window {out['window']} != {[lo, hi]}")
    elif out["eta_in_window"] != reference.in_window(system, params):
        problems.append(f"eta_in_window {out['eta_in_window']} for eta {params['eta']!r}")
    failed = judged and out["stable"] != contracts
    return [f"{system} {params}: {p}" for p in problems], failed
