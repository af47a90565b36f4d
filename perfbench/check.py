"""Independent output checker for run reports.

It shares no code with simulcut.  It reads the instance file and the report
text, recounts every member's crossing or rainbow edges from the report's
assignment, and checks every constraint row against the closed-form
thresholds of the paper, with a tolerance of 1e-9*m so that last-ulp
differences in a threshold are not counted as errors.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from itertools import combinations

TOL = 1e-9


def read_instance(text: str):
    """(kind, n, r, members) from instance text; members are lists of vertex tuples."""
    rows = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    head = rows[0]
    kind, ell, n = head[0], int(head[1]), int(head[3])
    r = int(head[5]) if kind == "hypergraphs" else 2
    members, at = [], 1
    for _ in range(ell):
        m = int(rows[at][1])
        members.append([tuple(int(x) for x in row) for row in rows[at + 1:at + 1 + m]])
        at += 1 + m
    return kind, n, r, members


def _delta2(edges) -> int:
    pairs = Counter(p for e in edges for p in combinations(sorted(e), 2))
    return max(pairs.values(), default=0)


def _thresholds(theorem: str, m: int, ell: int, k: int, eps: float | None, r: int, edges):
    """Closed-form bound(s) per statistic class for one member."""
    if theorem == "thm1":
        return {"crossing": m / 2 - math.sqrt(ell * m / 2)}
    if theorem == "thm2":
        return {"crossing": (k - 1) * m / k - math.sqrt(2 * ell * m)}
    if theorem == "thm3":
        cut = eps ** 0.25 * m
        return {"pair": 2 * m / k ** 2 - cut, "within": m / k ** 2 - cut}
    return {"rainbow": math.factorial(r) * m / r ** r
            - math.sqrt(2 * ell * (1 + r * (r - 1) * _delta2(edges)) * m)}


def _member_stats(edges, labels, k: int, hyper: bool):
    """Expected constraint counts of one member, keyed by the report's stat names."""
    if hyper:
        return {"rainbow": sum(1 for e in edges if len({labels[x] for x in e}) == k)}
    cls = Counter(tuple(sorted((labels[u], labels[v]))) for u, v in edges)
    stats = {"crossing": sum(c for (s, t), c in cls.items() if s != t)}
    for s in range(k):
        stats[f"within({s})"] = cls[(s, s)]
        for t in range(s + 1, k):
            stats[f"pair({s},{t})"] = cls[(s, t)]
    return stats


def check_report(report_text: str, instance_text: str) -> tuple[list[str], list[float]]:
    """Problems found in one report, and margin/m of each member constraint row."""
    fields, members, rows, sizes = {}, {}, [], {}
    for line in report_text.splitlines():
        key, _, rest = line.partition(" ")
        if key == "member":
            idx, _stat, count = rest.split()
            members[int(idx)] = int(count)
        elif key == "constraint":
            rows.append(dict(tok.split("=", 1) for tok in rest.split()))
        elif key == "class-size":
            c, size = rest.split()
            sizes[int(c)] = int(size)
        else:
            fields[key] = rest

    kind, n, r, edges = read_instance(instance_text)
    hyper = kind == "hypergraphs"
    ell = len(edges)
    problems = []
    if fields.get("instance-sha256") != hashlib.sha256(instance_text.encode("utf-8")).hexdigest():
        problems.append("instance digest does not match the instance file")
    if fields.get("result") != "pass":
        problems.append(f"result is {fields.get('result')!r}, not pass")
    theorem = fields["theorem"]
    k = int(fields["k"])
    want_k = r if theorem == "hyp" else 2 if theorem == "thm1" else k
    if k != want_k:
        problems.append(f"k={k}, expected {want_k}")
    labels = [int(x) for x in fields["assignment"].split()]
    if len(labels) != n or any(not 0 <= x < k for x in labels):
        return problems + ["assignment is not a total k-labelling of n vertices"], []
    counted = Counter(labels)
    if sizes != {c: counted[c] for c in range(k)}:
        problems.append(f"class sizes {sizes} do not match the assignment")
    eps = None
    if theorem == "thm3":
        cap = 1 / (9 * ell * ell * k ** 4)
        eps = float(fields["epsilon"])
        if not 0 < eps <= cap * (1 + TOL):
            problems.append(f"epsilon {eps!r} outside (0, {cap!r}]")

    expected = {}
    for i, member in enumerate(edges):
        stats = _member_stats(member, labels, k, hyper)
        headline = "rainbow" if hyper else "crossing"
        if members.get(i) != stats[headline]:
            problems.append(f"member {i} {headline} {members.get(i)}, recounted {stats[headline]}")
        bounds = _thresholds(theorem, len(member), ell, k, eps, r, member)
        for stat, count in stats.items():
            cls = stat.split("(")[0]
            if cls in bounds:
                expected[(i, stat)] = (count, bounds[cls], len(member))
    if fields.get("balanced") == "yes":
        slack = float(fields["balance-slack"])
        default = math.sqrt(n * math.log(2 * k * ell * int(fields["max-tries"])))
        if abs(slack - default) > TOL * default:
            problems.append(f"balance slack {slack!r}, expected {default!r}")
        for c in range(k):
            expected[(-1, f"balance({c})")] = (counted[c], n / k - slack, n)

    got = {(int(row["graph"]), row["stat"]): row for row in rows}
    if set(got) != set(expected):
        problems.append(f"constraint rows {sorted(got)}, expected {sorted(expected)}")
        return problems, []
    fracs = []
    for key, (count, threshold, m) in sorted(expected.items()):
        row = got[key]
        tol = TOL * max(m, 1)
        if key[0] < 0:    # balance row: the slack minus the class's drift from n/k
            margin = n / k - threshold - abs(count - n / k)
        else:
            margin = count - threshold
            fracs.append(float(row["margin"]) / m)
        ok = margin >= -tol
        if int(row["count"]) != count:
            problems.append(f"row {key}: count {row['count']}, recounted {count}")
        if abs(float(row["threshold"]) - threshold) > tol:
            problems.append(f"row {key}: threshold {row['threshold']}, closed form {threshold!r}")
        if abs(float(row["margin"]) - margin) > tol:
            problems.append(f"row {key}: margin {row['margin']}, expected {margin!r}")
        if not ok or row["pass"] != "yes":
            problems.append(f"row {key}: count {count} misses threshold {threshold!r}")
    return problems, fracs
