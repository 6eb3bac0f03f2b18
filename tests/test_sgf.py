import pytest

from serregraph import sgf
from serregraph.core import complete_graph, half_loop_rose, petersen, rose, validate


@pytest.mark.parametrize("g", [petersen(), rose(2), half_loop_rose(3), complete_graph(4)])
def test_roundtrip(g):
    g2 = sgf.loads(sgf.dumps(g))
    assert g2.nv == g.nv
    assert g2.src == g.src and g2.dst == g.dst and g2.inv == g.inv
    assert validate(g2).ok


def test_comments_and_blank_lines():
    text = """
# a triangle
sgf 1 3 6

e 0 0 1 1
e 1 1 0 0
# middle comment
e 2 1 2 3
e 3 2 1 2
e 4 2 0 5
e 5 0 2 4
"""
    g = sgf.loads(text)
    assert g.nv == 3 and g.ne == 6
    assert validate(g).regular_degree == 2


def test_file_helpers(tmp_path):
    p = tmp_path / "g.sgf"
    sgf.dump_path(rose(1), p)
    assert p.read_text() == sgf.dumps(rose(1))
    g = sgf.load_path(p)
    assert g.nv == 1 and g.ne == 2 and g.name == str(p)


@pytest.mark.parametrize(
    "text,frag",
    [
        ("e 0 0 0 0\n", "header"),
        ("sgf 2 1 0\n", "version"),
        ("sgf 1 1\n", "header"),
        ("sgf 1 1 1\ne 1 0 0 0\n", "expected 0"),
        ("sgf 1 1 2\ne 0 0 0 0\n", "found 1"),
        ("sgf 1 1 1\ne 0 0 1 0\n", "out of range"),
        ("sgf 1 1 1\ne 0 0 0 7\n", "out of range"),
        ("sgf 1 1 1\nv 0 0 0 0\n", "expected 'e"),
        ("sgf 1 x 1\ne 0 0 0 0\n", "non-integer"),
    ],
)
def test_loader_rejections(text, frag):
    with pytest.raises(sgf.SGFError) as exc:
        sgf.loads(text)
    assert frag in str(exc.value)


def test_loader_rejects_involution_violation():
    # two edges claiming to be their own inverses while joining 0 and 1
    text = "sgf 1 2 2\ne 0 0 1 0\ne 1 1 0 1\n"
    with pytest.raises(sgf.SGFError) as exc:
        sgf.loads(text)
    assert "involution" in str(exc.value)


@pytest.mark.parametrize("field", [2 ** 70, 2 ** 63, -(2 ** 70)])
def test_loader_edge_field_past_int64_is_out_of_range(field):
    for text in (f"sgf 1 1 1\ne 0 0 {field} 0\n", f"sgf 1 1 1\ne 0 0 0 {field}\n"):
        with pytest.raises(sgf.SGFError, match="edge 0 .*out of range"):
            sgf.loads(text)
