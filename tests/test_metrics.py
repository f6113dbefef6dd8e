"""The dependency-free metrics registry and its exposition format.

Covers registration semantics, render → parse round-trips, the strict
parser/linter CI runs against the live scrape, and the concurrency
guarantee: a scrape taken while worker threads hammer the registry is
an atomic snapshot (no torn text, histograms internally consistent).
"""

import math
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    lint_exposition,
    parse_exposition,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


# ----------------------------------------------------------------------
# Registration and update semantics
# ----------------------------------------------------------------------

def test_counter_gauge_histogram_basics(registry):
    c = registry.counter("jobs_total", "jobs")
    c.inc()
    c.inc(2.5)
    assert registry.value("jobs_total") == 3.5

    g = registry.gauge("depth", "queue depth")
    g.set(7)
    g.inc()
    g.dec(3)
    assert registry.value("depth") == 5.0

    h = registry.histogram("latency_seconds", "latency",
                           buckets=(0.1, 1.0, 10.0))
    h.observe(0.05)
    h.observe(5.0)
    solo = h.labels()
    assert solo.count == 2
    assert solo.sum == pytest.approx(5.05)
    assert solo.cumulative() == [1, 1, 2]


def test_counters_are_monotonic(registry):
    counter = registry.counter("c_total", "c")
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_labelled_family_children_are_independent(registry):
    family = registry.counter("http_total", "reqs", ("method", "status"))
    family.labels(method="GET", status="200").inc()
    family.labels("GET", "404").inc(2)
    assert registry.value("http_total",
                          {"method": "GET", "status": "200"}) == 1
    assert registry.value("http_total",
                          {"method": "GET", "status": "404"}) == 2
    # Unknown child reads as zero, never raises.
    assert registry.value("http_total",
                          {"method": "PUT", "status": "200"}) == 0.0


def test_labelled_family_rejects_bare_updates(registry):
    family = registry.counter("x_total", "x", ("k",))
    with pytest.raises(ValueError):
        family.inc()
    with pytest.raises(ValueError):
        family.labels(k="a", extra="b")
    with pytest.raises(ValueError):
        family.labels("a", "b")


def test_reregistration_is_idempotent_but_typed(registry):
    first = registry.counter("same_total", "help")
    again = registry.counter("same_total", "help")
    assert first is again
    with pytest.raises(ValueError):
        registry.gauge("same_total", "now a gauge")
    with pytest.raises(ValueError):
        registry.counter("same_total", "other labels", ("k",))


def test_bad_names_and_buckets_rejected(registry):
    with pytest.raises(ValueError):
        registry.counter("bad-name", "x")
    with pytest.raises(ValueError):
        registry.counter("ok_total", "x", ("bad-label",))
    with pytest.raises(ValueError):
        registry.histogram("h", "x", buckets=())
    with pytest.raises(ValueError):
        registry.histogram("h", "x", buckets=(2.0, 1.0))


# ----------------------------------------------------------------------
# Exposition: render, parse, lint
# ----------------------------------------------------------------------

def test_render_parses_back_to_same_values(registry):
    registry.counter("jobs_total", "jobs", ("outcome",)) \
        .labels(outcome="succeeded").inc(3)
    registry.gauge("depth", "queue").set(2)
    registry.histogram("wall_seconds", "per-cell wall",
                       buckets=(0.5, 5.0)).observe(1.25)
    text = registry.render()

    assert "# HELP jobs_total jobs" in text
    assert "# TYPE wall_seconds histogram" in text
    samples = {(s.name, tuple(sorted(s.labels.items()))): s.value
               for s in parse_exposition(text)}
    assert samples[("jobs_total", (("outcome", "succeeded"),))] == 3
    assert samples[("depth", ())] == 2
    assert samples[("wall_seconds_bucket", (("le", "0.5"),))] == 0
    assert samples[("wall_seconds_bucket", (("le", "5"),))] == 1
    assert samples[("wall_seconds_bucket", (("le", "+Inf"),))] == 1
    assert samples[("wall_seconds_sum", ())] == 1.25
    assert samples[("wall_seconds_count", ())] == 1
    assert lint_exposition(text) == []


def test_label_values_are_escaped_round_trip(registry):
    hostile = 'quote " backslash \\ newline \n end'
    registry.counter("esc_total", "escapes", ("v",)).labels(v=hostile).inc()
    samples = parse_exposition(registry.render())
    assert [s for s in samples if s.labels.get("v") == hostile]


def test_empty_registry_renders_valid_exposition(registry):
    assert lint_exposition(registry.render()) == []


def test_scrape_hooks_refresh_before_render(registry):
    gauge = registry.gauge("depth", "queue")
    registry.on_scrape(lambda: gauge.set(42))
    samples = parse_exposition(registry.render())
    assert [s.value for s in samples if s.name == "depth"] == [42]


@pytest.mark.parametrize("text, problem", [
    ("what even is this line", "unparsable"),
    ('x_total{bad name="1"} 2', "bad label"),
    ("x_total notanumber", "bad value"),
    ('x_total{a="1",a="2"} 3', "duplicate label"),
    ("# TYPE x_total counter\n# TYPE x_total counter\nx_total 1",
     "duplicate TYPE"),
    ("x_total 1\n# TYPE x_total counter", "after its samples"),
    ("# TYPE h histogram\n"
     'h_bucket{le="1"} 5\nh_bucket{le="+Inf"} 3\nh_sum 1\nh_count 3',
     "decrease"),
    ("# TYPE h histogram\n"
     'h_bucket{le="1"} 1\nh_sum 1\nh_count 1', "missing +Inf"),
    ("# TYPE h histogram\n"
     'h_bucket{le="1"} 1\nh_bucket{le="+Inf"} 2\nh_sum 1\nh_count 3',
     "!= _count"),
])
def test_lint_rejects_malformed_exposition(text, problem):
    problems = lint_exposition(text)
    assert problems and problem in problems[0]


def test_parse_accepts_special_values():
    samples = parse_exposition("a 1e3\nb +Inf\nc -Inf\nd NaN\ne -4.5")
    by_name = {s.name: s.value for s in samples}
    assert by_name["a"] == 1000.0
    assert by_name["b"] == math.inf
    assert by_name["c"] == -math.inf
    assert math.isnan(by_name["d"])
    assert by_name["e"] == -4.5


def test_default_buckets_are_ascending():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


# ----------------------------------------------------------------------
# Histogram bucket/label edge cases (round-tripped through the parser)
# ----------------------------------------------------------------------

def test_boundary_observations_land_in_their_le_bucket(registry):
    # Prometheus buckets are `le` — less-than-OR-EQUAL: an observation
    # exactly on a bound belongs to that bucket, not the next one.
    h = registry.histogram("b_seconds", "bounds", buckets=(1.0, 2.0))
    h.observe(1.0)
    h.observe(2.0)
    samples = {(s.name, s.labels.get("le")): s.value
               for s in parse_exposition(registry.render())}
    assert samples[("b_seconds_bucket", "1")] == 1
    assert samples[("b_seconds_bucket", "2")] == 2
    assert samples[("b_seconds_bucket", "+Inf")] == 2
    assert samples[("b_seconds_count", None)] == 2


def test_labelled_histogram_children_round_trip_independently(registry):
    fam = registry.histogram("lh_seconds", "labelled", ("route",),
                             buckets=(0.5,))
    fam.labels(route="/jobs").observe(0.1)
    fam.labels(route="/jobs").observe(9.0)
    fam.labels(route="/stats").observe(0.2)
    text = registry.render()
    assert lint_exposition(text) == []

    samples = {(s.name, s.labels.get("route"), s.labels.get("le")): s.value
               for s in parse_exposition(text)}
    assert samples[("lh_seconds_bucket", "/jobs", "0.5")] == 1
    assert samples[("lh_seconds_bucket", "/jobs", "+Inf")] == 2
    assert samples[("lh_seconds_count", "/jobs", None)] == 2
    assert samples[("lh_seconds_sum", "/jobs", None)] == pytest.approx(9.1)
    assert samples[("lh_seconds_bucket", "/stats", "+Inf")] == 1
    # The per-child cumulative series each pass the linter's
    # monotonicity and +Inf==_count checks independently.
    assert samples[("lh_seconds_count", "/stats", None)] == 1


def test_histogram_with_observation_beyond_last_finite_bucket(registry):
    h = registry.histogram("o_seconds", "overflow", buckets=(0.1,))
    h.observe(1e6)
    samples = {(s.name, s.labels.get("le")): s.value
               for s in parse_exposition(registry.render())}
    assert samples[("o_seconds_bucket", "0.1")] == 0
    assert samples[("o_seconds_bucket", "+Inf")] == 1
    assert samples[("o_seconds_sum", None)] == pytest.approx(1e6)


def test_histogram_bucket_bounds_render_canonically(registry):
    # Integral bounds render without a trailing .0 so the exposition is
    # stable across Python float formatting; the parser reads them back.
    registry.histogram("c_seconds", "canon",
                       buckets=(0.025, 1.0, 10.0)).observe(0.5)
    text = registry.render()
    les = [s.labels["le"] for s in parse_exposition(text)
           if s.name == "c_seconds_bucket"]
    assert les == ["0.025", "1", "10", "+Inf"]
    assert lint_exposition(text) == []


# ----------------------------------------------------------------------
# Concurrency: scrapes are atomic snapshots
# ----------------------------------------------------------------------

def test_concurrent_updates_never_tear_a_scrape(registry):
    """Writer threads hammer counters + a histogram while the main
    thread scrapes continuously: every scrape must parse cleanly (the
    parser enforces histogram bucket/count consistency), and the final
    totals must equal everything the writers claim they wrote."""
    counter = registry.counter("ops_total", "ops", ("worker",))
    hist = registry.histogram("op_seconds", "op wall",
                              buckets=(0.001, 0.01, 0.1, 1.0))
    per_thread = 400
    threads = 4
    start = threading.Barrier(threads + 1)

    def writer(idx: int) -> None:
        child = counter.labels(worker=str(idx))
        start.wait()
        for i in range(per_thread):
            child.inc()
            hist.observe((i % 7) / 5.0)

    workers = [threading.Thread(target=writer, args=(i,))
               for i in range(threads)]
    for t in workers:
        t.start()
    start.wait()

    scrapes = 0
    while any(t.is_alive() for t in workers):
        text = registry.render()
        assert lint_exposition(text) == [], "torn scrape mid-hammer"
        # Within one scrape the histogram is self-consistent even
        # though observes are racing it.
        samples = parse_exposition(text)
        inf = [s.value for s in samples
               if s.name == "op_seconds_bucket"
               and s.labels.get("le") == "+Inf"]
        count = [s.value for s in samples if s.name == "op_seconds_count"]
        assert inf == count
        scrapes += 1
    for t in workers:
        t.join()

    assert scrapes > 0
    total = sum(registry.value("ops_total", {"worker": str(i)})
                for i in range(threads))
    assert total == threads * per_thread
    assert registry.value("op_seconds") == threads * per_thread
