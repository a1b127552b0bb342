"""Output checks behind ``failed``: each command's output against scipy and
against the key sets in ``reference.json``.

scipy is imported here, by the benchmark alone, before any timed region.
Reports are read by column name and unknown columns are ignored.  Pass
versus inconclusive is deliberately not judged.

Regenerate the reference key sets from reports of a trusted build with::

    python3 bench/check.py --write-reference REPORT [REPORT ...]
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys

import numpy as np
from scipy import stats

TOL = 1e-12
#: Checks whose margins are recomputed through scipy.stats, row by row.
SCIPY_CHECKS = ("bound_exceeds_normal", "step_decreasing")
#: Spec fields that fix a report's (check_id, d1, d2) key set.
GRID_FIELDS = ("command", "d1", "d2", "d2_max", "checks", "d2_large", "exploratory")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def f_band_prob(d1, d2):
    """P{|X - E X| <= sd X} for X ~ F(d1, d2), elementwise, via scipy."""
    mean, var = stats.f.stats(d1, d2, moments="mv")
    sd = np.sqrt(var)
    return (stats.f.cdf(mean + sd, d1, d2)
            - stats.f.cdf(np.maximum(mean - sd, 0.0), d1, d2))


def chisq_band_prob(k: int) -> float:
    sd = (2.0 * k) ** 0.5
    return float(stats.chi2.cdf(k + sd, k) - stats.chi2.cdf(max(k - sd, 0.0), k))


def normal_band_prob() -> float:
    return float(stats.norm.cdf(1.0) - stats.norm.cdf(-1.0))


def expected_prob(params: dict) -> float:
    if params["dist"] == "normal":
        return normal_band_prob()
    if params["dist"] == "chisq":
        return chisq_band_prob(params["k"])
    return float(f_band_prob(params["d1"], params["d2"]))


def _close(got: float, want: float, what: str) -> list:
    if not abs(got - want) <= TOL:
        return [f"{what}: got {got!r}, scipy gives {want!r}"]
    return []


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class ReportScan:
    """What the checker keeps of one report: spec, summary, key digests and
    the margins that scipy can reproduce."""

    def __init__(self):
        self.spec = None
        self.summary = {}
        self.counts = {}
        self._hashes = {}
        self._last = None
        self.problems = []
        self.scipy_rows = []   # (check_id, d1, d2, margin)

    def add(self, check_id: str, d1: int, d2: int, margin) -> None:
        key = (check_id, d1, d2)
        if self._last is not None and key <= self._last:
            if len(self.problems) < 5:
                self.problems.append(f"row {key} not after {self._last}: "
                                     "rows unsorted or duplicated")
        self._last = key
        self.counts[check_id] = self.counts.get(check_id, 0) + 1
        h = self._hashes.get(check_id)
        if h is None:
            h = self._hashes[check_id] = hashlib.sha256()
        h.update(f"{d1},{d2}\n".encode())
        if check_id in SCIPY_CHECKS:
            self.scipy_rows.append((check_id, d1, d2, margin))

    def key_sets(self) -> dict:
        return {cid: [self.counts[cid], self._hashes[cid].hexdigest()[:16]]
                for cid in sorted(self.counts)}

    @property
    def grid_key(self) -> str:
        """The spec fields that decide which rows a report holds."""
        grid = {k: v for k, v in (self.spec or {}).items() if k in GRID_FIELDS}
        return json.dumps(grid, sort_keys=True, separators=(",", ":"))


def _margin(text):
    return None if text in ("", None) else float(text)


def scan_csv(path: str) -> ReportScan:
    scan = ReportScan()
    with open(path, encoding="utf-8", newline="") as fh:
        line = fh.readline()
        while line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("spec:"):
                scan.spec = json.loads(body[len("spec:"):])
            elif body.startswith("summary:"):
                for item in body[len("summary:"):].split():
                    name, _, value = item.partition("=")
                    scan.summary[name] = int(value)
            line = fh.readline()
        columns = next(csv.reader([line]))
        try:
            ic, i1, i2, im = (columns.index(c) for c in ("check_id", "d1", "d2", "margin"))
        except ValueError:
            scan.problems.append(f"missing column in header {columns}")
            return scan
        for rec in csv.reader(fh):
            scan.add(rec[ic], int(rec[i1]), int(rec[i2]), _margin(rec[im]))
    return scan


def scan_json(path: str) -> ReportScan:
    scan = ReportScan()
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    scan.spec = doc.get("header", {}).get("spec")
    scan.summary = dict(doc.get("summary", {}))
    for row in doc.get("rows", ()):
        scan.add(row["check_id"], int(row["d1"]), int(row["d2"]), row["margin"])
    return scan


def scan_report(path: str) -> ReportScan:
    return scan_json(path) if path.endswith(".json") else scan_csv(path)


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def check_scipy_margins(rows) -> list:
    """Every bound_exceeds_normal and step_decreasing margin within TOL of
    scipy.stats."""
    if not rows:
        return []
    is_bound = np.array([r[0] == "bound_exceeds_normal" for r in rows])
    d1 = np.array([r[1] for r in rows], dtype=float)
    d2 = np.array([r[2] for r in rows], dtype=float)
    got = np.array([np.nan if r[3] is None else r[3] for r in rows])
    here = f_band_prob(d1, d2)
    want = np.where(is_bound, here - normal_band_prob(),
                    here - f_band_prob(d1, d2 + 2.0))
    err = np.abs(got - want)
    bad = ~(err <= TOL)
    if not bad.any():
        return []
    i = int(np.argmax(np.where(bad, np.nan_to_num(err, nan=np.inf), -1.0)))
    return [f"{int(bad.sum())} scipy-checked margins off by more than {TOL}; "
            f"worst {rows[i][:3]}: got {got[i]!r}, scipy gives {want[i]!r}"]


def check_report(path: str, reference: dict) -> list:
    """Problems found in one report; empty when it passes."""
    if not os.path.isfile(path):
        return [f"report {path} was not written"]
    try:
        scan = scan_report(path)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"report {path} does not parse: {exc!r}"]
    problems = list(scan.problems)
    if scan.summary.get("fail") != 0:
        problems.append(f"summary fail={scan.summary.get('fail')!r}, expected 0")
    want = reference.get(scan.grid_key)
    if want is None:
        problems.append(f"no reference key set for spec {scan.grid_key}")
    else:
        got = scan.key_sets()
        for cid in sorted(set(want) | set(got)):
            if want.get(cid) != got.get(cid):
                problems.append(f"{cid}: (count, key digest) {got.get(cid)} "
                                f"differs from reference {want.get(cid)}")
    problems += check_scipy_margins(scan.scipy_rows)
    return problems


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def check_output(cmd, code: int, stdout: str, stderr: str, reference: dict,
                 scan_report: bool = True) -> list:
    """Problems with one finished command; empty when it passes."""
    problems = []
    if code != 0:
        problems.append(f"exit status {code}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    try:
        if cmd.kind == "varprob":
            text = stdout.strip()
            prob = json.loads(text)["prob"] if text.startswith("{") else float(text)
            problems += _close(prob, expected_prob(cmd.params), "probability")
        elif cmd.kind == "endpoints":
            problems += _check_endpoints(json.loads(stdout), cmd.params)
        elif cmd.kind == "oracle":
            problems += _check_oracle(stdout, cmd.params)
        elif cmd.kind == "report" and scan_report:
            problems += check_report(cmd.report, reference)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def _check_endpoints(payload: dict, params: dict) -> list:
    mean, var = stats.f.stats(params["d1"], params["d2"], moments="mv")
    sd = float(var) ** 0.5
    problems = _close(payload["prob"], expected_prob(params), "probability")
    for name, want in (("band_lower", max(float(mean) - sd, 0.0)),
                       ("band_upper", float(mean) + sd)):
        if not abs(payload[name] - want) <= TOL * max(1.0, abs(want)):
            problems.append(f"{name}: got {payload[name]!r}, scipy gives {want!r}")
    return problems


def _check_oracle(stdout: str, params: dict) -> list:
    lines = {ln.split()[0]: ln for ln in stdout.splitlines() if ln.strip()}
    problems = _close(float(lines["analytic"].split()[1]), expected_prob(
        {"dist": "f", **params}), "analytic probability")
    for route in ("monte-carlo", "quadrature"):
        if not lines.get(route, "").rstrip().endswith(" agree"):
            problems.append(f"{route} line does not end in 'agree': "
                            f"{lines.get(route)!r}")
    return problems


def _write_reference(paths) -> int:
    reference = load_reference() if os.path.exists(REFERENCE) else {}
    for path in paths:
        scan = scan_report(path)
        reference[scan.grid_key] = scan.key_sets()
        print(f"{path}: {len(scan.counts)} check ids under {scan.grid_key}")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] != "--write-reference":
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        sys.exit(2)
    sys.exit(_write_reference(sys.argv[2:]))
