import pytest

from tsslab.cayley import CayleyTableError, from_cayley_table, to_cayley_table
from tsslab.groups import conjugacy_classes, make_symmetric


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
