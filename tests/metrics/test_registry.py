"""The Prometheus exposition renderer: buckets, format, escaping, empty
input, and the samples of a finished run."""

import re
from pathlib import Path

from repro.metrics.prometheus import BUCKETS, exposition, run_samples
from repro.utils.timers import TimerRegistry

#: the ``--metrics-prom`` snapshot of the run below,
#: kernel seconds masked
GOLDEN_PROM = Path(__file__).parent / "golden_metrics_prom.txt"


def test_histogram_cumulative_buckets():
    values = [0.0005, 0.003, 0.003, 0.3, 50.0]
    lines = exposition([("dt_seconds", "histogram", {}, values)]
                       ).splitlines()
    assert lines[0] == "# TYPE bookleaf_dt_seconds histogram"
    # cumulative ≤ bound, one line per bound, +Inf last
    assert lines[1:-2] == [
        f'bookleaf_dt_seconds_bucket{{le="{bound!r}"}} '
        f'{sum(v <= bound for v in values)}' for bound in BUCKETS
    ] + ['bookleaf_dt_seconds_bucket{le="+Inf"} 5']
    assert 'bookleaf_dt_seconds_bucket{le="0.005"} 3' in lines
    assert lines[-2:] == ["bookleaf_dt_seconds_sum 50.3065",
                          "bookleaf_dt_seconds_count 5"]


def test_prometheus_exposition_format():
    text = exposition([
        ("samples_total", "counter", {"rank": 0}, 4),
        ("energy_drift", "gauge", {"rank": 0}, -1.5e-16),
        ("dt_seconds", "histogram", {"rank": 0}, [0.7]),
    ])
    assert "# TYPE bookleaf_energy_drift gauge" in text
    assert 'bookleaf_energy_drift{rank="0"} -1.5e-16' in text
    assert 'bookleaf_samples_total{rank="0"} 4' in text
    assert 'bookleaf_dt_seconds_bucket{le="0.5",rank="0"} 0' in text
    assert 'bookleaf_dt_seconds_bucket{le="+Inf",rank="0"} 1' in text
    assert 'bookleaf_dt_seconds_count{rank="0"} 1' in text
    assert text.endswith("\n")
    # metrics by name, series by label set, whatever the input order
    names = [line.split()[2] for line in text.splitlines()
             if line.startswith("# TYPE")]
    assert names == sorted(names)


def test_same_labels_share_one_instrument():
    """A series is its label *set*: key order never matters, labels
    are stringified (rank=0 and rank="0" print alike) and series sort
    by label set whatever the input order."""
    text = exposition([
        ("hits_total", "counter", {"rank": 1, "phase": "lagstep"}, 1),
        ("hits_total", "counter", {"phase": "lagstep", "rank": "0"}, 2),
    ])
    assert text.splitlines() == [
        "# TYPE bookleaf_hits_total counter",
        'bookleaf_hits_total{phase="lagstep",rank="0"} 2',
        'bookleaf_hits_total{phase="lagstep",rank="1"} 1',
    ]


def test_prometheus_escapes_and_sanitises():
    text = exposition([("odd-name", "gauge", {"label": r'a"b\c'}, 1)])
    assert "bookleaf_odd_name" in text     # metric chars sanitised
    assert r'label="a\"b\\c"' in text      # label value escaped


def test_empty_registry_exposition_is_empty():
    assert exposition([]) == ""
    assert run_samples(TimerRegistry(), [], None) == []


def test_ingest_timers_and_comm():
    """A run's samples: per-kernel timer totals, every rank's comm
    counters, and the probe rows (gauges from the last)."""
    timers = TimerRegistry()
    with timers.region("getdt"):
        pass
    rows = [{"dt": 0.5, "mass": 1.0, "total_energy": 2.0,
             "mass_drift": 0.0, "energy_drift": 0.0,
             "hourglass_energy": 0.0, "vol_min": 1.0, "rho_min": 1.0,
             "p_min": 0.0},
            {"dt": 0.25, "mass": 1.0, "total_energy": 2.0,
             "mass_drift": 0.0, "energy_drift": 1e-16,
             "hourglass_energy": 0.0, "vol_min": 1.0, "rho_min": 1.0,
             "p_min": 0.0}]
    text = exposition(run_samples(
        timers, [{"messages": 10, "bytes": 640}, {"messages": 9,
                                                  "bytes": 576}], rows))
    assert 'bookleaf_kernel_calls_total{kernel="getdt"} 1' in text
    assert 'bookleaf_comm_messages_total{rank="1"} 9' in text
    assert 'bookleaf_comm_bytes_total{rank="0"} 640' in text
    # the gauges are the last row, the histogram and count every row
    assert 'bookleaf_energy_drift{rank="0"} 1e-16' in text
    assert 'bookleaf_diagnostics_samples_total{rank="0"} 2' in text
    assert 'bookleaf_dt_seconds_sum{rank="0"} 0.75' in text


def test_metrics_prom_snapshot_golden(tmp_path, capsys):
    """``bookleaf run --metrics-prom`` on a fixed 2-rank Noh is pinned
    line for line; only the kernel seconds (host timing) are masked."""
    from repro.cli import main

    prom = tmp_path / "m.prom"
    assert main(["run", "--problem", "noh", "--nx", "12", "--ny", "12",
                 "--max-steps", "7", "--nranks", "2",
                 "--metrics-every", "3", "--metrics-prom", str(prom)]) == 0
    capsys.readouterr()
    masked = re.sub(r"^(bookleaf_kernel_seconds_total\{[^}]*\}) \S+$",
                    r"\1 *", prom.read_text(), flags=re.M)
    assert masked == GOLDEN_PROM.read_text()
