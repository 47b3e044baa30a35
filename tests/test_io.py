import json
import math

import pytest

from wedgespan.errors import DuplicatePointError, InstanceParseError
from wedgespan.gadget import orient_triplet
from wedgespan.geom import Direction, Point, Wedge
from wedgespan.io import (
    Instance,
    ResultDoc,
    WedgeRecord,
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


class TestResultRoundTrip:
    def _doc(self):
        return ResultDoc(
            wedges=[
                WedgeRecord(0.123456789012345, 120.0, None),
                WedgeRecord(240.0, 120.0, 7.0),
            ],
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

    def test_parse_emit_identity_on_canonical(self):
        doc = self._doc().canonical()
        assert parse_result(emit_result(doc)) == doc

    def test_radius_omitted_when_absent(self):
        obj = json.loads(emit_result(self._doc()))
        assert "radius" not in obj["wedges"][0]
        assert obj["wedges"][1]["radius"] == 7.0

    def test_byte_stability(self):
        doc = self._doc()
        assert emit_result(doc) == emit_result(doc)

    def test_wedges_at_points(self):
        doc = self._doc()
        wedges = doc.wedges_at([Point(0, 0), Point(1, 1)])
        assert wedges[1].radius == 7.0
        assert wedges[0].apex == Point(0, 0)

    def test_malformed_result(self):
        with pytest.raises(InstanceParseError):
            parse_result('{"edges": []}')


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
        with pytest.raises(ValueError):
            emit_svg([])
