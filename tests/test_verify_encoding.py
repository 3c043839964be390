"""verify's JSONL block, encoded by the worker, against a per-report oracle.

The oracle is the encoder verify used before workers wrote their own
text: one dict per report, passed through json.dumps.
"""

import json
from fractions import Fraction

import kforcing.cli as cli
from kforcing.bounds import ALL_BOUNDS, BoundId, BoundReport
from kforcing.graphio import graph6_order
from kforcing.records import DEFAULT_MAX_N

from conftest import DATA


def report_line_oracle(index: int, g6: str, n: int, rep: BoundReport) -> str:
    """One report's JSONL line, built as a dict and encoded by json.dumps."""
    return json.dumps({
        "index": index,
        "graph6": g6,
        "n": n,
        "k": rep.k,
        "bound": rep.bound.value,
        "side": rep.side,
        "applicable": rep.applicable,
        "bound_value": None if rep.bound_value is None else str(rep.bound_value),
        "exact": rep.exact_value,
        "slack": None if rep.slack is None else str(rep.slack),
        "equality": rep.equality,
        "satisfied": rep.satisfied,
        "detail": dict(rep.detail),
    }) + "\n"


def verify_with_reports(monkeypatch, index: int, g6: str, ks=None, reports=None):
    """Run the worker on one graph; return its result and the reports it encoded.

    ``reports``, when given, replaces what evaluate_bounds returns.
    """
    seen = []

    def evaluate(*args, **kwargs):
        seen[:] = real(*args, **kwargs) if reports is None else reports
        return seen

    real = cli.evaluate_bounds
    with monkeypatch.context() as patch:
        patch.setattr(cli, "evaluate_bounds", evaluate)
        result = cli._verify_one((index, *graph6_order(g6), ks, ALL_BOUNDS,
                                  DEFAULT_MAX_N, True))
    return result, list(seen)


def assert_block_matches_oracle(result, reports, g6: str, n: int):
    index, text, counts, violations, _ = result
    assert text == "".join(report_line_oracle(index, g6, n, rep) for rep in reports)
    applicable = [rep for rep in reports if rep.applicable]
    assert counts == (len(applicable), sum(bool(rep.equality) for rep in applicable),
                      len(reports) - len(applicable))
    assert violations == [
        f"VIOLATION: graph6={g6} k={rep.k} bound={rep.bound.value} side={rep.side} "
        f"bound_value={rep.bound_value} exact={rep.exact_value}"
        for rep in applicable if not rep.satisfied
    ]


def test_block_matches_oracle_on_connected_graphs_upto_6(monkeypatch):
    index = 0
    for n in range(1, 7):
        for g6 in (DATA / f"connected_{n}.g6").read_text().split():
            result, reports = verify_with_reports(monkeypatch, index, g6)
            assert_block_matches_oracle(result, reports, g6, n)
            index += 1


def test_block_matches_oracle_on_family_sweep(monkeypatch):
    detailed = set()
    specs = ["cycle_tree:3..4,3..4", "circulant:8:1,2..3", "complete:2..6",
             "cycle:3..8", "subdivided_star:3:2"]
    for index, (g6, n, _) in enumerate(cli._load_graphs(cli.CampaignConfig(spec=specs))):
        result, reports = verify_with_reports(monkeypatch, index, g6)
        assert_block_matches_oracle(result, reports, g6, n)
        detailed |= {rep.bound for rep in reports if rep.detail}
    assert {BoundId.K1R, BoundId.CLAWFREE, BoundId.CYCLE_TREE} <= detailed


def test_block_matches_oracle_on_hand_made_reports(monkeypatch):
    g6 = "EC\\o"  # JSON escapes the backslash
    assert g6 in (DATA / "connected_6.g6").read_text().split()
    reports = [
        # the not-applicable tail depends on k, bound and side alike
        BoundReport(7, 1, BoundId.TREE_LEAF, "lower", False),
        BoundReport(7, 1, BoundId.TREE_LEAF, "upper", False),
        BoundReport(7, 2, BoundId.TREE_LEAF, "upper", False),
        BoundReport(7, 2, BoundId.TREE_COR, "upper", False),
        BoundReport(7, 1, BoundId.MAIN, "upper", True, Fraction(7, 2), 3,
                    Fraction(1, 2), False, True),
        BoundReport(7, 1, BoundId.RATIO, "upper", True, Fraction(3), 4,
                    Fraction(-1), False, False),
        BoundReport(7, 2, BoundId.LOWER_DEG, "lower", True, Fraction(-2), 1,
                    Fraction(3), False, True),
        BoundReport(7, 2, BoundId.K1R, "upper", True, Fraction(4), 4,
                    Fraction(0), True, True, (("r", 3), ("index", 4))),
        # signs, slashes and several digits on both sides of the slash
        BoundReport(7, 2, BoundId.KCOR, "upper", True, Fraction(-1001, 6), 12,
                    Fraction(-1073, 6), False, False),
        BoundReport(7, 2, BoundId.GAMMA_LOWER, "lower", True, Fraction(1001, 2),
                    1000, Fraction(999, 2), False, True),
    ]
    result, encoded = verify_with_reports(monkeypatch, 7, g6, [1, 2], reports)
    assert encoded == reports
    assert_block_matches_oracle(result, reports, g6, 6)
    assert result[2] == (6, 1, 4)
    assert result[3] == ["VIOLATION: graph6=EC\\o k=1 bound=RATIO side=upper "
                         "bound_value=3 exact=4",
                         "VIOLATION: graph6=EC\\o k=2 bound=KCOR side=upper "
                         "bound_value=-1001/6 exact=12"]
    assert '"bound_value": "-1001/6", "exact": 12, "slack": "-1073/6"' in result[1]
    assert '"graph6": "EC\\\\o"' in result[1]
    assert result[4]["equalities"] == "K1R@2:upper"
