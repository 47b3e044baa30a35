import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgespan.errors import DuplicatePointError, InstanceParseError, TooFewPointsError
from wedgespan.gadget import orient_triplet
from wedgespan.geom import Direction, Point, Wedge
from wedgespan.io import (
    Instance,
    ResultDoc,
    emit_instance,
    emit_result,
    emit_svg,
    parse_instance,
    parse_result,
)


class TestParseInstance:
    def test_json(self):
        inst = parse_instance('{"points": [[0, 0], [1, 0]]}')
        assert inst.points == [Point(0, 0), Point(1, 0)]

    def test_csv(self):
        inst = parse_instance("0,0\n1,0\n")
        assert inst.points == [Point(0, 0), Point(1, 0)]

    def test_duplicate_rejected_by_default(self):
        with pytest.raises(DuplicatePointError):
            parse_instance('{"points": [[0, 0], [0, 0]]}')

    def test_meta_preserved(self):
        inst = parse_instance('{"points": [[0, 0]], "meta": {"seed": 7}}')
        assert inst.meta == {"seed": 7}

    def test_json_error_position(self):
        with pytest.raises(InstanceParseError) as err:
            parse_instance('{"points": [[0, 0], ')
        assert err.value.line is not None

    def test_csv_error_line(self):
        with pytest.raises(InstanceParseError) as err:
            parse_instance("0,0\n1,zap\n")
        assert err.value.line == 2

    def test_csv_wrong_arity(self):
        with pytest.raises(InstanceParseError):
            parse_instance("0,0,0\n")

    def test_nonfinite_rejected(self):
        with pytest.raises(InstanceParseError):
            parse_instance('{"points": [[0, 0], [1, Infinity]]}')

    def test_empty(self):
        with pytest.raises(InstanceParseError):
            parse_instance("   ")

    @pytest.mark.parametrize(
        "pair, message",
        [
            (["0", 1], "points[1]: coordinates must be numbers"),
            ([True, 1], "points[1]: coordinates must be numbers"),
            ([None, 1], "points[1]: coordinates must be numbers"),
            ([10**400, 1], "points[1]: coordinates must be finite"),
            ([1, -(10**400)], "points[1]: coordinates must be finite"),
            ([1, 2, 3], "points[1]: expected a [x, y] pair, got [1, 2, 3]"),
        ],
    )
    def test_coordinate_messages(self, pair, message):
        with pytest.raises(InstanceParseError) as err:
            parse_instance(json.dumps({"points": [[0, 0], pair]}))
        assert str(err.value) == message


class TestInstanceRoundTrip:
    def test_json_round_trip(self):
        inst = Instance(points=[Point(0.1, 0.2), Point(1 / 3, 2 / 3)], meta={"k": 1})
        text = emit_instance(inst)
        back = parse_instance(text)
        text2 = emit_instance(Instance(points=back.points, meta=back.meta))
        assert text == text2

    def test_csv_round_trip(self):
        inst = Instance(points=[Point(0.25, -1.5), Point(3.0, 4.0)])
        back = parse_instance(emit_instance(inst, fmt="csv"))
        assert back.points == inst.points

    def test_byte_stability(self):
        inst = Instance(points=[Point(math.pi, math.e)])
        assert emit_instance(inst) == emit_instance(inst)


def _result_doc():
    return ResultDoc(
        wedges=[(0.123456789012345, 120.0, None), (240.0, 120.0, 7.0)],
        edges=[(0, 1)],
        summary={
            "alpha": 120.0,
            "weight": 1.4142135623730951,
            "mst_weight": 1.4142135623730951,
            "ratio": 1.0,
            "max_spread_deg": 0.0,
        },
        verification={"passed": True},
    )


class TestResultRoundTrip:

    def test_parse_emit_identity_on_canonical(self):
        text = emit_result(_result_doc())
        doc = parse_result(text)
        assert doc.wedges == [(0.123456789012, 120.0, None), (240.0, 120.0, 7.0)]
        assert doc.edges == [(0, 1)]
        assert emit_result(doc) == text

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 360.0, exclude_max=True),
                st.floats(1e-6, 360.0),
                st.one_of(st.none(), st.floats(1e-9, 1e9)),
            ),
            max_size=8,
        ),
        st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=8),
    )
    def test_emit_parse_emit_is_identity(self, wedges, edges):
        text = emit_result(ResultDoc(wedges, edges, {"alpha": 120.0}))
        assert emit_result(parse_result(text)) == text

    def test_radius_omitted_when_absent(self):
        obj = json.loads(emit_result(_result_doc()))
        assert "radius" not in obj["wedges"][0]
        assert obj["wedges"][1]["radius"] == 7.0

    def test_byte_stability(self):
        doc = _result_doc()
        assert emit_result(doc) == emit_result(doc)

    def test_wedges_at_points(self):
        doc = _result_doc()
        wedges = doc.wedges_at([Point(0, 0), Point(1, 1)])
        assert wedges[1].radius == 7.0
        assert wedges[0].apex == Point(0, 0)

    def test_malformed_result(self):
        with pytest.raises(InstanceParseError):
            parse_result('{"edges": []}')


class TestStrictResultValues:
    """Wedge values must be finite JSON numbers and edge ends JSON integers."""

    @staticmethod
    def _text(wedge=None, edge=None):
        obj = json.loads(emit_result(_result_doc()))
        obj["wedges"][1].update(wedge or {})
        if edge is not None:
            obj["edges"][0] = edge
        return json.dumps(obj)

    @pytest.mark.parametrize(
        "edge", [["0", 1], [0.4, 1], [True, 1], [0, 1.0], [0], [0, 1, 2], {"u": 0}, "0-1"]
    )
    def test_edge_ends_must_be_integers(self, edge):
        with pytest.raises(InstanceParseError, match=r"^edges\[0\]: expected a pair of integer indices"):
            parse_result(self._text(edge=edge))

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("bisector_deg", "240", "numbers"),
            ("aperture_deg", True, "numbers"),
            ("radius", None, "numbers"),
            ("radius", [7.0], "numbers"),
            ("aperture_deg", 10**400, "finite"),
            ("bisector_deg", math.inf, "finite"),
            ("radius", math.nan, "finite"),
        ],
        ids=["string", "true", "null", "array", "huge-int", "inf", "nan"],
    )
    def test_wedge_values_must_be_finite_numbers(self, key, value, problem):
        with pytest.raises(InstanceParseError) as err:
            parse_result(self._text(wedge={key: value}))
        assert str(err.value) == f"wedges[1].{key}: wedge values must be {problem}"

    def test_integer_wedge_values_become_floats(self):
        doc = parse_result(self._text(wedge={"bisector_deg": 240, "aperture_deg": 120, "radius": 7}))
        assert doc.wedges[1] == (240.0, 120.0, 7.0)
        assert all(type(x) is float for x in doc.wedges[1])

    def test_wedge_record_needs_its_angles(self):
        obj = json.loads(self._text())
        del obj["wedges"][0]["aperture_deg"]
        with pytest.raises(InstanceParseError, match=r"^wedges\[0\]: expected an object"):
            parse_result(json.dumps(obj))

    @pytest.mark.parametrize("key", ["wedges", "edges", "summary"])
    def test_top_level_shapes(self, key):
        obj = json.loads(self._text())
        obj[key] = "x"
        with pytest.raises(InstanceParseError, match=f'^"{key}" must be an'):
            parse_result(json.dumps(obj))

    def test_integer_past_digit_limit(self):
        with pytest.raises(InstanceParseError, match="digits"):
            parse_result(self._text().replace("240.0", "1" * 5000))


class TestSvg:
    def test_points_only(self):
        svg = emit_svg([Point(0, 0), Point(1, 1)])
        assert svg.startswith("<?xml")
        assert svg.count("<circle") == 2
        assert "<line" not in svg

    def test_gadget_sectors(self):
        pts = [Point(0, 0), Point(1, 0), Point(0.4, 0.7)]
        tri = orient_triplet(pts)
        svg = emit_svg(pts, tri.wedges, tri.tree_edges)
        assert svg.count("<path") == 3
        assert svg.count("<line") == 2

    def test_deterministic(self):
        pts = [Point(0, 0), Point(2, 1)]
        wedges = [Wedge(pts[0], Direction(30), 90.0, 2.0), Wedge(pts[1], Direction(200), 90.0)]
        assert emit_svg(pts, wedges) == emit_svg(pts, wedges)

    def test_empty_rejected(self):
        with pytest.raises(TooFewPointsError):
            emit_svg([])
