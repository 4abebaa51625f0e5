"""CLI outputs pinned byte for byte to the values recorded when every BS(1,n)
swap was still decided by the bounded spiral search (`bs_swap_search`).

The exact decider must reproduce them: the `table`, the default
`verify baumslag-solitar` JSON (elapsed times zeroed) and `word bs swap`.
The classification at the radius cap, 20, is pinned by digests recorded when
its rigid branch still tested every pair of the ball for commutation.
"""

import hashlib
import json
import re

import pytest

from tsslab.cli import main
from tsslab.words.baumslag import bs_classification_check, format_bs

TABLE = [
    ("1", "Abelian (Z12)"),
    ("1", "Free group F2 (words <= 4, bounded)"),
    ("1", "Odd order (Z7 x| Z3)"),
    ("1", "BS(1,2) (radius 3, bounded)"),
    ("2", "Dihedral (D10)"),
    ("2", "Z3 x| Z6 (k=2)"),
    ("2", "BS(1,-1) (radius 3)"),
    ("3 (<= 4)", "Solvable (S4; bound from the SES)"),
    ("max = 3", "Direct product (D6 x S4)"),
    ("max = 1", "Free product (Z3 * Z3, ball 3)"),
]

TABLE_TEXT = """\
S(G)       Group
1          Abelian (Z12)
1          Free group F2 (words <= 4, bounded)
1          Odd order (Z7 x| Z3)
1          BS(1,2) (radius 3, bounded)
2          Dihedral (D10)
2          Z3 x| Z6 (k=2)
2          BS(1,-1) (radius 3)
3 (<= 4)   Solvable (S4; bound from the SES)
max = 3    Direct product (D6 x S4)
max = 1    Free product (Z3 * Z3, ball 3)
"""


def _rigid(n, pairs):
    return (n, "exhausted(6)",
            f"BS(1,{n}): {pairs} commuting pairs, no swap witness; "
            f"exact unique-solution conditions verified")


BS_SUITE = [
    _rigid(-3, 144),
    _rigid(-2, 168),
    (-1, "pass", "BS(1,-1): 36 certified size-2 TSS, no size-3 extension"),
    _rigid(2, 148),
    _rigid(3, 142),
]


# sha256 of the JSON list of [format_bs(u), format_bs(v), verdict, detail] for
# every instance of bs_classification_check(n, 20), with the default bound
RADIUS_20_DIGESTS = {
    2: "fe974406525947cfe905491ca8f01ae8aff715a531b1dac97778607025dbc742",
    -2: "e16c3df3cf2f11b132c12e2578153ce4ce7dc9b114bd1eef32d044e0cebf1b13",
    3: "c2fb6fdbb09c370cf11cd3c9e4541182bf7a8e409ff32e120a834d75a18c6140",
    -3: "95a36e8ba90ebc6609767ec2388677f5bfa57561c5bcd9b8248477b5dca151e2",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_text(capsys):
    assert run(capsys, "table") == (0, TABLE_TEXT, "")


def test_table_json(capsys):
    doc = {"format": 1, "rows": [{"s": s, "family": fam} for s, fam in TABLE]}
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert run(capsys, "--format", "json", "table") == (0, expected, "")


def test_default_baumslag_suite_json(capsys):
    code, out, err = run(capsys, "--format", "json", "verify", "baumslag-solitar")
    doc = {
        "format": 1, "theorem": "baumslag-solitar", "passed": True, "elapsed_s": 0,
        "artifacts": [],
        "instances": [
            {"params": {"n": n, "radius": 4, "bound": 6}, "verdict": verdict,
             "detail": detail, "counterexample": None, "repro": None, "elapsed_s": 0}
            for n, verdict, detail in BS_SUITE
        ],
    }
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert (code, err) == (0, "")
    assert re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": 0', out) == expected


@pytest.mark.parametrize("n", sorted(RADIUS_20_DIGESTS))
def test_classification_at_radius_20(n):
    report = bs_classification_check(n, 20)
    rows = [[format_bs(i.u, n), format_bs(i.v, n), i.verdict, i.detail]
            for i in report.instances]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == RADIUS_20_DIGESTS[n]


def test_word_bs_classify_at_radius_20(capsys):
    code, out, err = run(capsys, "word", "bs", "--n", "2", "classify", "--radius", "20")
    assert (code, err) == (0, "")
    assert out.startswith("BS(1,2) branch rigid: 3380 instances, all_ok True\n")


@pytest.mark.parametrize("n,u,v,out", [
    (-1, "a^3/-1^0 b^0", "a^-3/-1^0 b^0", "witness a^0/-1^0 b^1"),
    (-1, "a^2/-1^0 b^4", "a^-2/-1^0 b^4", "witness a^0/-1^0 b^1"),
    (-1, "a^2/-1^0 b^4", "a^2/-1^0 b^4", "witness a^0/-1^0 b^0"),
    (-1, "a^1/-1^0 b^2", "a^3/-1^0 b^2", "exhausted({bound})"),
    (-1, "a^1/-1^0 b^2", "a^-1/-1^0 b^-2", "exhausted({bound})"),
    (2, "a^1/2^1 b^1", "a^1/2^1 b^1", "witness a^0/2^0 b^0"),
    (2, "a^1/2^0 b^0", "a^-1/2^0 b^0", "exhausted({bound})"),
    (2, "a^0/2^0 b^1", "a^0/2^0 b^2", "exhausted({bound})"),
    (1, "a^1/1^0 b^0", "a^-1/1^0 b^0", "exhausted({bound})"),
    (3, "a^1/3^1 b^0", "a^-1/3^1 b^0", "exhausted({bound})"),
])
@pytest.mark.parametrize("bound", ["1", "6"])
def test_word_bs_swap(capsys, n, u, v, out, bound):
    got = run(capsys, "word", "bs", "--n", str(n), "swap", u, v, "--bound", bound)
    assert got == (0, out.format(bound=bound) + "\n", "")


@pytest.mark.parametrize("n,u,v", [
    (-1, "a^1/-1^0 b^1", "a^2/-1^0 b^1"),
    (2, "a^1/2^0 b^1", "a^2/2^0 b^1"),
])
def test_word_bs_swap_non_commuting(capsys, n, u, v):
    got = run(capsys, "word", "bs", "--n", str(n), "swap", u, v)
    assert got == (2, "", "error: swap search requires commuting inputs\n")
