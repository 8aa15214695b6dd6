"""Byte identity of the streaming writers against whole-document reference writers.

``ref_write_csv``, ``ref_write_json`` and ``ref_write_svgs`` keep the
straightforward export: each builds its whole document as one string, with
per-point scalar arithmetic for the SVG curves, and writes it with
``Path.write_text``. The harness writers stream row by row and compute curve
coordinates on whole arrays; every file they write must equal the
reference's byte for byte.
"""
import json
import tracemalloc
from xml.sax.saxutils import escape

import numpy as np
import pytest

from clusterbandit.harness import (
    ExperimentConfig,
    ExperimentResult,
    RunRow,
    export_result,
    preset,
    preset_names,
    run_experiment,
    write_csv,
)

# ---------------------------------------------------------------------------
# Reference writers
# ---------------------------------------------------------------------------

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)


def _ref_safe_name(name):
    return "".join(c if c.isalnum() or c in "-_." else "-" for c in name)


def _ref_csv_field(text):
    """A CSV field as RFC 4180 writes it: quoted, its quotes doubled, if it holds a comma, a quote or a line break."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _ref_xml(text):
    """Text escaped for XML character data and double-quoted attribute values."""
    return escape(text, {'"': "&quot;", "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"})


def ref_write_csv(result, path):
    lines = ["experiment_id,policy,seed,t,cumulative_regret"]
    for row in result.rows:
        eid, policy = _ref_csv_field(result.config.experiment_id(row.variant)), _ref_csv_field(row.policy)
        for t, value in zip(result.ts, row.regret):
            lines.append(f"{eid},{policy},{row.seed},{int(t)},{float(value)!r}")
    path.write_text("\n".join(lines) + "\n")


def ref_write_json(result, path):
    path.write_text(json.dumps(result.to_json(), indent=2) + "\n")


def _ref_svg_document(title, summaries):
    title = _ref_xml(title)
    width, height = 860.0, 520.0
    ml, mr, mt, mb = 70.0, 190.0, 40.0, 50.0
    pw, ph = width - ml - mr, height - mt - mb

    t_max = max(float(s.ts[-1]) for s in summaries)
    y_max = max(float((s.summary.mean_curve + s.summary.std_curve).max()) for s in summaries)
    y_max = max(y_max, 1e-9)

    def sx(t):
        return ml + pw * t / t_max

    def sy(y):
        return mt + ph * (1.0 - y / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<title>{title}</title>',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{ml:.1f}" y1="{mt + ph:.1f}" x2="{ml + pw:.1f}" y2="{mt + ph:.1f}" stroke="black"/>',
        f'<line x1="{ml:.1f}" y1="{mt:.1f}" x2="{ml:.1f}" y2="{mt + ph:.1f}" stroke="black"/>',
        f'<text x="{ml + pw / 2:.1f}" y="{height - 12:.1f}" text-anchor="middle" font-size="13">t</text>',
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">cumulative regret</text>',
        f'<text x="{ml + pw / 2:.1f}" y="22" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t_tick, y_tick = frac * t_max, frac * y_max
        parts.append(
            f'<text x="{sx(t_tick):.1f}" y="{mt + ph + 16:.1f}" text-anchor="middle" '
            f'font-size="11">{t_tick:.0f}</text>'
        )
        parts.append(
            f'<text x="{ml - 6:.1f}" y="{sy(y_tick) + 4:.1f}" text-anchor="end" '
            f'font-size="11">{y_tick:.1f}</text>'
        )
    for i, s in enumerate(summaries):
        color, label = _PALETTE[i % len(_PALETTE)], _ref_xml(s.policy)
        ts = s.ts.astype(float)
        mean, std = s.summary.mean_curve, s.summary.std_curve
        upper = [f"{sx(t):.2f},{sy(min(m + d, y_max)):.2f}" for t, m, d in zip(ts, mean, std)]
        lower = [
            f"{sx(t):.2f},{sy(max(m - d, 0.0)):.2f}"
            for t, m, d in zip(ts[::-1], mean[::-1], std[::-1])
        ]
        parts.append(
            f'<polygon class="band" data-policy="{label}" fill="{color}" '
            f'fill-opacity="0.15" stroke="none" points="{" ".join(upper + lower)}"/>'
        )
        points = " ".join(f"{sx(t):.2f},{sy(m):.2f}" for t, m in zip(ts, mean))
        parts.append(
            f'<polyline class="mean" data-policy="{label}" fill="none" '
            f'stroke="{color}" stroke-width="1.6" points="{points}"/>'
        )
        ly = mt + 16 + 18 * i
        parts.append(
            f'<line x1="{ml + pw + 12:.1f}" y1="{ly:.1f}" x2="{ml + pw + 36:.1f}" '
            f'y2="{ly:.1f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{ml + pw + 42:.1f}" y="{ly + 4:.1f}" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def ref_write_svgs(result, out_dir):
    for v in result.config.variants:
        group = [s for s in result.summaries if s.variant == v.name]
        if not group:
            continue
        doc = _ref_svg_document(result.config.experiment_id(v.name), group)
        path = out_dir / f"{_ref_safe_name(result.config.name)}__{_ref_safe_name(v.name)}.svg"
        path.write_text(doc + "\n")


def ref_export(result, out_dir):
    out_dir.mkdir(parents=True)
    base = _ref_safe_name(result.config.name)
    ref_write_csv(result, out_dir / f"{base}.csv")
    ref_write_json(result, out_dir / f"{base}.json")
    ref_write_svgs(result, out_dir)


def _assert_same_files(result, tmp_path):
    written = export_result(result, tmp_path / "new", ("csv", "json", "svg"))
    ref_export(result, tmp_path / "ref")
    want = sorted(p.name for p in (tmp_path / "ref").iterdir())
    assert sorted(p.name for p in written) == want
    for name in want:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name


# ---------------------------------------------------------------------------
# Identity
# ---------------------------------------------------------------------------

def _reduced(name, **overrides):
    doc = preset(name).to_json()
    seeds = doc["seeds"][:2]
    doc.update({"seeds": seeds, "horizon": 60, "bounds": True, **overrides})
    return ExperimentConfig.from_json(doc)


@pytest.mark.parametrize("name", preset_names())
def test_presets_with_bounds(name, tmp_path):
    result = run_experiment(_reduced(name))
    _assert_same_files(result, tmp_path)


def test_infinite_bound_values_are_covered(tmp_path):
    # hts-uct's L1 clustering is non-dominant at seed 0, where tsc_minimax is inf
    result = run_experiment(_reduced("hts-uct", seeds=[0, 1]))
    assert any(b["mean_value_at_horizon"] is None for b in result.bounds)
    _assert_same_files(result, tmp_path)


def test_single_seed_has_zero_std(tmp_path):
    result = run_experiment(_reduced("kmeans-small", seeds=[1600]))
    assert all(not s.summary.std_curve.any() for s in result.summaries)
    _assert_same_files(result, tmp_path)


def test_stride(tmp_path):
    result = run_experiment(_reduced("fig-k-sweep", horizon=97, stride=7))
    assert result.ts.tolist()[-2:] == [91, 97]
    _assert_same_files(result, tmp_path)


def test_names_that_need_safe_name(tmp_path):
    doc = preset("appendix-uniform").to_json()
    doc.update(
        {
            "name": "my run/α 2",
            "seeds": [3, 4],
            "horizon": 40,
            "policies": [{"key": "ts", "label": "plain ts"}, {"key": "tsc", "label": "tsc:two/level"}],
            "instances": [
                {"name": "N 50, K=10?", "spec": doc["instances"][0]["spec"]},
                {"name": "é/ü", "spec": doc["instances"][0]["spec"]},
            ],
        }
    )
    result = run_experiment(ExperimentConfig.from_json(doc))
    _assert_same_files(result, tmp_path)
    assert {p.name for p in (tmp_path / "new").iterdir()} == {
        "my-run-α-2.csv", "my-run-α-2.json", "my-run-α-2__N-50--K-10-.svg", "my-run-α-2__é-ü.svg"
    }


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def test_csv_writer_holds_no_whole_document(tmp_path):
    rng = np.random.default_rng(0)
    horizon = 3000
    rows = tuple(RunRow("v", "p", seed, np.cumsum(rng.random(horizon)), None) for seed in range(100))
    config = ExperimentConfig.from_json(
        {"name": "mem", "horizon": horizon, "seeds": list(range(100)), "policies": [{"key": "ts"}],
         "instance": {"kind": "uniform", "n_arms": 4, "n_clusters": 2}}
    )
    result = ExperimentResult(config=config, rows=rows, summaries=())
    path = tmp_path / "mem.csv"
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        write_csv(result, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert sum(1 for _ in path.open()) == 1 + 100 * horizon
    assert peak < size / 10, (peak, size)
