import re
from datetime import date

from facewall.charts import render_series_chart
from facewall.timeline import BucketSeries, next_bucket_start


def month_series(counts, totals=None):
    start = date(2015, 1, 1)
    buckets = []
    for _ in counts:
        buckets.append(start)
        start = next_bucket_start(start, "month")
    return BucketSeries("happy", buckets, counts, totals or [max(c, 1) for c in counts])


def polyline_points(svg, element_id):
    m = re.search(rf'<polyline id="{element_id}"[^>]*points="([^"]*)"', svg)
    assert m, f"no polyline {element_id}"
    return m.group(1).split()


def test_one_vertex_per_bucket():
    svg = render_series_chart(month_series([1, 5, 3, 0, 2]), "t", "month")
    assert len(polyline_points(svg, "counts")) == 5
    assert len(polyline_points(svg, "proportions")) == 5


def test_single_bucket_chart():
    svg = render_series_chart(month_series([4]), "t", "month")
    assert len(polyline_points(svg, "counts")) == 1


def test_deterministic_bytes():
    series = month_series([1, 2, 3])
    assert render_series_chart(series, "t", "month") == render_series_chart(series, "t", "month")


def test_occurrence_measure_has_no_share_line():
    svg = render_series_chart(month_series([1, 2, 3]), "t", "month", measure="occurrences")
    assert '<polyline id="counts"' in svg
    assert '<polyline id="proportions"' not in svg
    assert "lexicon occurrences" in svg


def test_empty_series_renders_placeholder():
    series = BucketSeries("happy", [], [], [])
    svg = render_series_chart(series, "t", "month")
    assert "no data" in svg
    assert "<polyline" not in svg


def test_text_is_escaped_and_styling_inline():
    svg = render_series_chart(month_series([1]), "a<b&c", "month")
    assert "a&lt;b&amp;c" in svg
    assert "<style>" in svg
    # self-contained: nothing fetched at render time
    assert "href" not in svg and "@import" not in svg and "url(" not in svg


def test_the_legend_names_the_granularity_it_is_given():
    svg = render_series_chart(month_series([1, 2]), "t", "week")
    assert "happy: posts per week (solid, left axis)" in svg
    empty = render_series_chart(BucketSeries("happy", [], [], []), "t", "week")
    assert "happy: posts per bucket (solid, left axis)" in empty


def test_a_year_label_at_the_first_bucket_and_each_new_year():
    series = month_series([1] * 14)
    series.buckets[0] = date(2014, 12, 1)
    svg = render_series_chart(series, "t", "month")
    assert re.findall(r">(\d{4})</text>", svg) == ["2014", "2015", "2016"]
