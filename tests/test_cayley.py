import tracemalloc

import numpy as np
import pytest

from tsslab import cayley
from tsslab.cayley import CayleyTableError, from_cayley_table, to_cayley_table
from tsslab.groups import (
    SemidirectParams,
    conjugacy_classes,
    direct_product,
    make_cyclic,
    make_dihedral,
    make_group,
    make_semidirect_cyclic,
    make_symmetric,
)

from helpers import ref_from_cayley_table, ref_to_cayley_table


def test_trivial_group():
    g = from_cayley_table("1\n0\n")
    assert g.order == 1 and g.identity == 0


def test_s3_roundtrip(s3):
    text = to_cayley_table(s3)
    parsed = from_cayley_table(text)
    assert parsed.mul == s3.mul
    assert parsed.labels == s3.labels
    assert len(conjugacy_classes(parsed).classes) == 3
    # write(parse(write(g))) is byte-identical
    assert to_cayley_table(parsed) == text


def test_comments_ignored():
    text = "# a comment\n2\n0 1  # inline\n1 0\n"
    g = from_cayley_table(text)
    assert g.order == 2


def test_labels_parsed():
    text = "2\n0 1\n1 0\nlabel 0 e\nlabel 1 flip side\n"
    g = from_cayley_table(text)
    assert g.labels == ("e", "flip side")


def test_latin_rejection_reports_location():
    with pytest.raises(CayleyTableError, match="column 0"):
        from_cayley_table("2\n0 1\n0 1\n")
    with pytest.raises(CayleyTableError, match="row 1"):
        from_cayley_table("2\n0 1\n1 1\n")


def test_out_of_range_entry():
    with pytest.raises(CayleyTableError, match="column 1"):
        from_cayley_table("2\n0 5\n1 0\n")


def test_short_row():
    with pytest.raises(CayleyTableError, match="expected 2 entries"):
        from_cayley_table("2\n0\n1 0\n")


def test_missing_rows():
    with pytest.raises(CayleyTableError, match="table rows"):
        from_cayley_table("3\n0 1 2\n")


def test_no_identity():
    with pytest.raises(CayleyTableError, match="identity"):
        from_cayley_table("3\n1 2 0\n0 1 2\n2 0 1\n")


def test_associativity_rejection():
    rows = [
        "0 1 2 3 4",
        "1 0 3 4 2",
        "2 4 0 1 3",
        "3 2 4 0 1",
        "4 3 1 2 0",
    ]
    with pytest.raises(CayleyTableError, match="associativity"):
        from_cayley_table("5\n" + "\n".join(rows) + "\n")


def test_bad_label_line():
    with pytest.raises(CayleyTableError, match="label"):
        from_cayley_table("1\n0\nnote 0 e\n")


def test_bad_label_index():
    with pytest.raises(CayleyTableError, match="range"):
        from_cayley_table("1\n0\nlabel 3 x\n")


def test_empty_document():
    with pytest.raises(CayleyTableError, match="empty"):
        from_cayley_table("# nothing\n")


@pytest.mark.parametrize("head", ["\u00b2", "2.0", "x"])
def test_header_must_be_a_decimal_integer(head):
    # a superscript passes str.isdigit() but not int()
    with pytest.raises(CayleyTableError) as info:
        from_cayley_table(f"{head}\n0 1\n1 0\n")
    assert str(info.value) == "first line must hold the group order (line 1)"


def test_s4_survives_roundtrip(s4):
    assert from_cayley_table(to_cayley_table(s4)).mul == s4.mul


@pytest.mark.parametrize("row,message,col", [
    ("1 x 0", "non-integer entry 'x'", 1),
    ("1 -1 0", "entry -1 out of range 0..2", 1),
    ("1 7 0", "entry 7 out of range 0..2", 1),
    ("1 0 2.0", "non-integer entry '2.0'", 2),
])
def test_bad_entry_location(row, message, col):
    # the bad entry sits mid-row on the third line; earlier entries are fine
    with pytest.raises(CayleyTableError) as info:
        from_cayley_table(f"3\n0 1 2\n{row}\n2 0 1\n")
    err = info.value
    assert (err.line, err.row, err.col) == (3, 1, col)
    assert str(err) == f"{message} (line 3, row 1, column {col})"


def test_other_spellings_of_entries():
    # "+1" and "01" are not the writer's spelling but still name entry 1
    g = from_cayley_table("2\n0 +1\n01 0\n")
    assert g.mul == ((0, 1), (1, 0))


def test_writer_format(s4):
    lines = to_cayley_table(s4).splitlines()
    assert lines[0] == "24"
    assert lines[1:25] == [" ".join(str(v) for v in row) for row in s4.mul]
    assert lines[25:] == [f"label {i} {lab}" for i, lab in enumerate(s4.labels)]


@pytest.mark.parametrize("n", [1, 2, 10, 11, 100, 101])
@pytest.mark.parametrize("labelled", [True, False], ids=["labels", "plain"])
def test_writer_at_token_width_edges(n, labelled):
    # 9 / 10 and 99 / 100 are where the widest entry gains a digit
    g = make_cyclic(n)
    if not labelled:
        g = make_group(g.table)
    text = to_cayley_table(g)
    assert text == ref_to_cayley_table(g)
    back = from_cayley_table(text)
    assert (back.table == g.table).all() and back.labels == g.labels
    assert to_cayley_table(back) == text


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_writer_blocks_keep_bytes(block, monkeypatch):
    g = direct_product(make_cyclic(11), make_dihedral(5))
    want = ref_to_cayley_table(g)
    monkeypatch.setattr(cayley, "_ENCODE_BLOCK", block)
    assert to_cayley_table(g) == want


# --- the block decode against the token-by-token decoder ---------------------

def _canonical_documents():
    return [to_cayley_table(g) for g in (
        make_cyclic(1), make_cyclic(12), make_dihedral(6), make_symmetric(4),
        make_semidirect_cyclic(SemidirectParams(7, 3, 2)),
        direct_product(make_cyclic(2), make_dihedral(4)),
    )]


def _with_row(text: str, r: int, row: str) -> str:
    """The document with table row r (0-based, after the order line) replaced."""
    lines = text.splitlines()
    lines[1 + r] = row
    return "\n".join(lines) + "\n"


Z3 = "3\n0 1 2\n1 2 0\n2 0 1\n"
Z12 = to_cayley_table(make_cyclic(12))  # row 1 is "1 2 ... 11 0"
FULL_WIDTH_ONE = "\uff11"

DOCUMENTS = _canonical_documents() + [
    # other spellings of good entries
    _with_row(Z3, 0, "0 +1 2"),
    _with_row(Z3, 0, "00 01 002"),
    _with_row(Z3, 0, "-0 1 2"),
    _with_row(Z12, 1, "1 2 3 4 5 6 7 8 9 1_0 11 0"),
    _with_row(Z3, 1, f"{FULL_WIDTH_ONE} 2 0"),
    _with_row(Z3, 1, "1\t2\t0"),
    _with_row(Z3, 1, "1\xa02\xa00"),
    _with_row(Z3, 1, "1\x0c2\x0c0"),
    _with_row(Z3, 1, "  1   2 0  "),
    # comments and blank lines
    "3\n0 1 2\n1 2 0 # trailing comment\n2 0 1\n",
    "3\n0 1 2\n1 2 # 0 mid-row comment\n2 0 1\n",
    "3\n0 1 2\n\n   \n# comment only\n1 2 0\n\n2 0 1\n",
    "# leading comment\n\n3 # the order\n0 1 2\n1 2 0\n2 0 1\nlabel 1 g # one\n",
    # ragged and missing rows
    _with_row(Z3, 1, "1 2"),
    _with_row(Z3, 1, "1 2 0 0"),
    "3\n0 1 2\n1 2 0\n",
    "2\n0 1 0\n1 0 1\n",  # every row one entry too long
    "1\n0 0\n",
    # bad entries
    _with_row(Z3, 1, "1 -1 0"),
    _with_row(Z3, 1, "1 3 0"),
    _with_row(Z3, 1, "1 40000 0"),
    _with_row(Z3, 1, "1 65537 0"),
    _with_row(Z3, 1, "1 2 1.0"),
    _with_row(Z3, 1, "1 2 0x0"),
    _with_row(Z3, 1, "1 2 1e0"),
    _with_row(Z3, 2, "2 0 x"),
    # good entries that do not make a group
    _with_row(Z3, 1, "0 1 2"),
    "3\n1 2 0\n0 1 2\n2 0 1\n",
    # the header and label lines
    "", "3 3\n", "-3\n", "0\n", "1\n0\nnote 0 e\n", "1\n0\nlabel x e\n",
    # a bad entry in the last row
    _with_row(Z12, 11, "11 0 1 2 3 4 5 6 7 8 9 12"),
    _with_row(Z12, 11, "11 0 1 2 3 4 5 6 7 8 9 1O"),
    # every line break of str.splitlines, in and between rows
    Z3.replace("\n", "\r\n"),
    Z12.replace("\n", "\r\n"),
    Z3.replace("\n", "\r"),
    Z3.replace("\n", "\x85"),
    Z3.replace("\n", "\u2028"),
    Z3.replace("\n", "\u2029"),
    "3\x0b0 1 2\x0c1 2 0\x1c2 0 1\x1d\x1elabel 0 e\n",
    _with_row(Z3, 1, "1 2\r0"),
    _with_row(Z3, 1, "1 2 0\r"),
    _with_row(Z3, 1, "1 2\x850"),
    _with_row(Z3, 1, "1 2\u20280"),
    # comments inside the rows
    _with_row(Z12, 5, "5 6 7 8 9 10 11 0 1 2 3 4#every entry, then a comment"),
    _with_row(Z12, 5, "5 6 7 8 9 10 # 11 0 1 2 3 4"),
    Z12.replace("\n6 7", "\n# a comment line between rows\n\n6 7"),
    # line numbers after \r\n and after a slab cut
    (Z3 + "label 1 g\nlabel x e\n").replace("\n", "\r\n"),
    # ... and after lone \r, and \r beside \r\n
    (Z3 + "label 1 g\nlabel x e\n").replace("\n", "\r"),
    _with_row(Z12, 11, "11 0 1 2 3 4 5 6 7 8 9 12").replace("\n", "\r"),
    "3\r0 1 2\r\n1 2 0\r\r\n2 0 1\rlabel 3 e\r\n",
    # a missing last row in a document long enough to hold it
    "\n".join(Z12.splitlines()[:12]) + "\n# " + "x" * 400 + "\n",
    # rows split across default slabs by two comment lines of a slab each
    Z12.replace("\n3 4", "\n#" + "x" * cayley._SLAB + "\n3 4").replace(
        "\n9 10", "\n#" + "y" * cayley._SLAB + "\n9 10"),
]


def _outcome(decode, text):
    try:
        g = decode(text)
    except CayleyTableError as exc:
        return "error", str(exc), exc.line, exc.row, exc.col
    return ("group", g.order, g.identity, g.table.dtype, g.table.tolist(), g.inv.tolist(),
            g.labels, g.assoc_verified)


@pytest.mark.parametrize("slab", ["1-row", "2-rows", "default"])
@pytest.mark.parametrize("text", DOCUMENTS, ids=range(len(DOCUMENTS)))
def test_block_decode_matches_token_decoder(text, slab, monkeypatch):
    # a slab ends at the first newline at or after _SLAB - 1 characters, so
    # 1 cuts after every line, and the longest line plus 2 after every other
    if slab == "1-row":
        monkeypatch.setattr(cayley, "_SLAB", 1)
    elif slab == "2-rows":
        monkeypatch.setattr(cayley, "_SLAB", max(map(len, text.split("\n"))) + 2)
    assert _outcome(from_cayley_table, text) == _outcome(ref_from_cayley_table, text)


def test_differential_documents_cover_both_outcomes():
    kinds = [_outcome(from_cayley_table, text)[0] for text in DOCUMENTS]
    assert kinds.count("group") >= 15 and kinds.count("error") >= 15


def test_canonical_documents_skip_the_row_path(monkeypatch):
    def row_path(*args):
        raise AssertionError("the row-by-row path ran on a canonical document")

    monkeypatch.setattr(cayley, "_parse_row", row_path)
    for text in _canonical_documents():
        assert to_cayley_table(from_cayley_table(text)) == text


def test_non_ascii_rows_skip_the_block_parse(monkeypatch):
    def loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt ran on a row with a non-ASCII character")

    monkeypatch.setattr(cayley.np, "loadtxt", loadtxt)
    for row in (f"{FULL_WIDTH_ONE} 2 0", "1\xa02\xa00", "1 2 \U0009c6ca"):
        text = _with_row(Z3, 1, row)
        assert _outcome(from_cayley_table, text) == _outcome(ref_from_cayley_table, text)


def test_block_decode_fills_the_table_dtype():
    g = from_cayley_table(to_cayley_table(make_dihedral(6)))
    assert g.table.dtype == "int16" and not g.table.flags.writeable
    assert "mul" not in g.__dict__


SPLIT = DOCUMENTS[-1]  # rows split across default slabs by long comment lines


GOOD = _canonical_documents() + [
    Z12.replace("\n", "\r\n"), Z3.replace("\n", "\x1c"), SPLIT,
    _with_row(Z12, 5, "5 6 7 8 9 10 11 0 1 2 3 4#every entry, then a comment"),
    "# leading comment\n\n3 # the order\n0 1 2\n1 2 0\n2 0 1\nlabel 1 g # one\n",
]


@pytest.mark.parametrize("text", GOOD, ids=range(len(GOOD)))
@pytest.mark.parametrize("slab", [1, 1 << 18])
def test_good_documents_take_the_slab_path(text, slab, monkeypatch):
    def whole(text):
        raise AssertionError("the whole-document path ran on a good document")

    monkeypatch.setattr(cayley, "_SLAB", slab)
    monkeypatch.setattr(cayley, "_decode_whole", whole)
    assert _outcome(from_cayley_table, text)[0] == "group"


def test_one_loadtxt_call_per_slab_of_rows(monkeypatch):
    calls = []
    loadtxt = cayley.np.loadtxt

    def counting(bodies, **kwargs):
        calls.append(len(bodies))
        return loadtxt(bodies, **kwargs)

    monkeypatch.setattr(cayley.np, "loadtxt", counting)
    from_cayley_table(SPLIT)
    assert calls == [3, 6, 3]  # rows 0-2, 3-8 and 9-11 around the two comments
    calls.clear()
    from_cayley_table(Z12)
    assert calls == [12]
    for ending in ("\r", "\r\n"):  # a slab is cut after a lone \r too
        calls.clear()
        from_cayley_table(SPLIT.replace("\n", ending))
        assert calls == [3, 6, 3]


def test_order_line_alone_allocates_no_table():
    # the rows a document's text can hold bound the table allocated for them
    tracemalloc.start()
    try:
        with pytest.raises(CayleyTableError, match="^expected 20000 table rows, found 1$"):
            from_cayley_table("20000\n" + " ".join(map(str, range(20000))) + "\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**22


def test_decode_holds_one_slab_beside_the_table(monkeypatch):
    # the table and O(_SLAB) more: no list of every line, no whole-table parse
    text = to_cayley_table(make_dihedral(300))  # 1.4 million characters
    monkeypatch.setattr(cayley, "_SLAB", 1 << 16)
    monkeypatch.setattr(cayley, "make_group", lambda table, **kwargs: table)
    tracemalloc.start()
    try:
        table = from_cayley_table(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (600, 600)
    assert peak - table.nbytes < 6 * cayley._SLAB


@pytest.mark.parametrize("ending", ["\r", "\r\n"])
def test_line_ends_decode_alike_within_the_newline_bound(ending, monkeypatch):
    # a document whose lines end in \r alone is cut into slabs like one with
    # \n: the same table and labels, and one slab beside the table
    text = to_cayley_table(make_dihedral(500))  # 4.4 million characters
    monkeypatch.setattr(cayley, "make_group", lambda table, labels, **kwargs: (table, labels))
    decoded = {}
    for end in ("\n", ending):
        doc = text.replace("\n", end)
        tracemalloc.start()
        try:
            table, labels = from_cayley_table(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - table.nbytes < 6 * cayley._SLAB
        decoded[end] = table, labels
    assert np.array_equal(decoded[ending][0], decoded["\n"][0])
    assert decoded[ending][1] == decoded["\n"][1] and len(decoded["\n"][1]) == 1000


@pytest.mark.parametrize("slab", [1, 1 << 18])
@pytest.mark.parametrize("text", [
    (Z3 + "label 1 g\nlabel x e\n"),
    _with_row(Z12, 11, "11 0 1 2 3 4 5 6 7 8 9 12"),
    _with_row(Z12, 4, "4 5 6"),
    Z12.replace("\n3 4", "\n#" + "x" * 300 + "\n3 4") + "note 1 g\n",
], ids=range(4))
def test_lone_cr_keeps_error_line_numbers(text, slab, monkeypatch):
    monkeypatch.setattr(cayley, "_SLAB", slab)
    want = _outcome(from_cayley_table, text)
    assert want[0] == "error" and want[2] is not None
    for ending in ("\r", "\r\n"):
        assert _outcome(from_cayley_table, text.replace("\n", ending)) == want
