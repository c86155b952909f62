"""CLI tests (``python -m repro``)."""

import pytest

from repro.cli import FIGURES, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestInfo:
    def test_prints_table1(self, capsys):
        code, out = run_cli(capsys, "info")
        assert code == 0
        assert "1.1 GHz" in out
        assert "38.9%" in out
        assert "223 uW" in out

    def test_json_output(self, capsys):
        import json

        from repro.system import SystemConfig

        code, out = run_cli(capsys, "info", "--json")
        assert code == 0
        payload = json.loads(out)
        cfg = SystemConfig.paper_table1()
        assert payload["schema"] == "repro-config/1"
        assert payload["config"] == json.loads(json.dumps(cfg.to_flat()))
        assert payload["content_key"] == cfg.content_key()
        assert payload["power_uw_16nm_50mhz"]["cpu_hht"] > (
            payload["power_uw_16nm_50mhz"]["cpu"]
        )


class TestSpmv:
    def test_baseline_and_hht(self, capsys):
        code, out = run_cli(
            capsys, "spmv", "--rows", "32", "--cols", "32", "--sparsity", "0.5"
        )
        assert code == 0
        assert "baseline" in out
        assert "ASIC HHT" in out
        assert "x," in out or "x)" in out or "1." in out

    def test_programmable_flag(self, capsys):
        code, out = run_cli(
            capsys, "spmv", "--rows", "16", "--cols", "32",
            "--sparsity", "0.5", "--programmable", "coo",
        )
        assert code == 0
        assert "prog HHT" in out
        assert "coo firmware" in out

    def test_scalar_width(self, capsys):
        code, out = run_cli(
            capsys, "spmv", "--rows", "16", "--cols", "16", "--vl", "1"
        )
        assert code == 0
        assert "VL=1" in out


class TestSpmspv:
    def test_both_variants(self, capsys):
        code, out = run_cli(capsys, "spmspv", "--size", "32")
        assert code == 0
        assert "variant-1" in out
        assert "variant-2" in out

    def test_separate_vector_sparsity(self, capsys):
        code, out = run_cli(
            capsys, "spmspv", "--size", "32",
            "--sparsity", "0.5", "--vector-sparsity", "0.9",
        )
        assert code == 0
        # exact-count sampling rounds 0.9 on 32 elements to 29/32 zeros
        assert "matrix 50% / vector 9" in out


class TestCompare:
    def test_one_command_emits_figure_and_table(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "compare", "--size", "24",
            "--out", str(tmp_path), "--jobs", "1",
        )
        assert code == 0
        # The figure: speedups over the scalar CPU, with geomean notes.
        assert "speedup over scalar CPU" in out
        for name in ("vector", "hht", "ssr", "indexmac"):
            assert f"{name}: geomean speedup" in out
        # The table: raw cycles for all five series.
        assert "cycles per accelerator front-end" in out
        # Artifacts: both tables in all three formats.
        for stem in ("compare_speedup", "compare_cycles"):
            for ext in ("txt", "csv", "json"):
                assert (tmp_path / f"{stem}.{ext}").exists()

    def test_figure_alias(self, capsys):
        # Rides the lru-cached sweep from the test above when run in the
        # same process; standalone it just recomputes.
        code, out = run_cli(capsys, "figure", "compare", "--size", "24")
        assert code == 0
        assert "speedup over scalar CPU" in out


class TestFigure:
    def test_table1(self, capsys):
        code, out = run_cli(capsys, "figure", "table1")
        assert code == 0
        assert "Table 1" in out

    def test_fig4_small(self, capsys):
        code, out = run_cli(capsys, "figure", "fig4", "--size", "48")
        assert code == 0
        assert "Fig. 4" in out
        assert "Dedicated_HHT_2buffer" in out

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_all_figure_names_mapped(self):
        import repro.analysis as analysis

        for fn_name in FIGURES.values():
            assert hasattr(analysis, fn_name)


class TestReportAndCorpus:
    def test_corpus_listing(self, capsys):
        code, out = run_cli(capsys, "corpus")
        assert code == 0
        assert "rand98" in out
        assert "sparsity" in out

    def test_report_writes_files(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIZE", "48")
        monkeypatch.setenv("REPRO_DNN_ROWS", "8")
        code, out = run_cli(capsys, "report", "--out", str(tmp_path), "--size", "48")
        assert code == 0
        assert (tmp_path / "fig4.txt").exists()
        assert (tmp_path / "sec55.csv").exists()
        assert len(list(tmp_path.glob("*.txt"))) == len(FIGURES)

    def test_report_creates_missing_parents(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIZE", "48")
        monkeypatch.setenv("REPRO_DNN_ROWS", "8")
        nested = tmp_path / "a" / "b" / "out"
        code, _ = run_cli(capsys, "report", "--out", str(nested), "--size", "48")
        assert code == 0
        assert (nested / "fig4.txt").exists()

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestTraceCommand:
    def test_prints_trace(self, capsys):
        code, out = run_cli(capsys, "trace", "--size", "8", "--limit", "20")
        assert code == 0
        assert "spmv_hht: 20 entries" in out
        assert "seq" in out and "@0" in out
        # The HHT setup prologue leads every kernel.
        assert "hht_m_num_rows" in out

    def test_only_filter(self, capsys):
        code, out = run_cli(
            capsys, "trace", "--size", "8", "--kernel", "spmv-baseline",
            "--only", "lw", "--limit", "500",
        )
        assert code == 0
        body = out.splitlines()[2:]  # skip summary + header
        assert body
        assert all("lw" in line for line in body)

    def test_spmspv_kernel(self, capsys):
        code, out = run_cli(
            capsys, "trace", "--kernel", "spmspv", "--size", "8",
            "--limit", "10",
        )
        assert code == 0
        assert "spmspv_hht_v2" in out

    def test_truncation_footer(self, capsys):
        code, out = run_cli(capsys, "trace", "--size", "8", "--limit", "20")
        assert code == 0
        assert "... truncated after 20 instructions" in out

    def test_full_trace_has_no_footer(self, capsys):
        code, out = run_cli(
            capsys, "trace", "--size", "8", "--limit", "100000"
        )
        assert code == 0
        assert "truncated" not in out

    def test_chrome_export(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        code, out = run_cli(
            capsys, "trace", "--size", "8", "--chrome", str(out_path)
        )
        assert code == 0
        assert "perfetto" in out
        payload = json.loads(out_path.read_text())
        assert payload["otherData"]["schema"] == "repro-chrome-trace/1"
        assert payload["otherData"]["dropped_instructions"] == 0
        assert any(e.get("cat") == "cpu" for e in payload["traceEvents"])

    def test_chrome_export_respects_limit(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        code, out = run_cli(
            capsys, "trace", "--size", "8",
            "--chrome", str(out_path), "--limit", "5",
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        cpu = [e for e in payload["traceEvents"] if e.get("cat") == "cpu"]
        assert len(cpu) == 5
        assert payload["otherData"]["dropped_instructions"] > 0
        assert "dropped by --limit" in out


class TestTimelineCommand:
    def test_text_output(self, capsys):
        code, out = run_cli(capsys, "timeline", "--size", "8")
        assert code == 0
        assert "spmv_hht:" in out
        assert "cycles" in out

    def test_json_output(self, capsys):
        import json

        code, out = run_cli(capsys, "timeline", "--size", "8", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["program"] == "spmv_hht"
        assert set(payload["probes"]) == {"timeline", "contention"}
        assert payload["probes"]["timeline"]["fills"]
        assert payload["cycles"] > 0

    def test_json_matches_probe_invariants(self, capsys):
        """The dumped contention totals agree with a direct run."""
        import json

        code, out = run_cli(
            capsys, "timeline", "--size", "8", "--json", "--bin", "16"
        )
        assert code == 0
        contention = json.loads(out)["probes"]["contention"]
        assert contention["bin_cycles"] == 16
        for requester, n in contention["requests"].items():
            assert sum(contention["bins"][requester].values()) == n

    def test_sample_joins_json_output(self, capsys):
        import json

        code, out = run_cli(
            capsys, "timeline", "--size", "8", "--json", "--sample", "64"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["probes"]) == {
            "timeline", "contention", "sampler",
        }
        sampler = payload["probes"]["sampler"]
        assert sampler["every"] == 64
        assert sampler["cycle"][-1] == payload["cycles"]

    def test_sample_csv_written(self, capsys, tmp_path):
        out_path = tmp_path / "series.csv"
        code, out = run_cli(
            capsys, "timeline", "--size", "8",
            "--sample", "64", "--sample-csv", str(out_path),
        )
        assert code == 0
        assert str(out_path) in out
        header = out_path.read_text().splitlines()[0]
        assert header.startswith("cycle,")
        assert "derived.cpu_wait_fraction" in header

    def test_sample_csv_keeps_json_stdout_pure(self, capsys, tmp_path):
        import json

        code = main([
            "timeline", "--size", "8", "--sample", "64", "--json",
            "--sample-csv", str(tmp_path / "series.csv"),
        ])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)  # stdout is parseable JSON
        assert "sampler" in payload["probes"]
        assert "series.csv" in captured.err


class TestBenchCommand:
    def test_writes_bench_json(self, capsys, tmp_path, monkeypatch):
        import json

        # Pin the backend: the tier-1 suite also runs in CI with
        # REPRO_BACKEND=compiled, and this test asserts the default.
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        out_path = tmp_path / "bench.json"
        code, out = run_cli(
            capsys, "bench", "--size", "24", "--out", str(out_path)
        )
        assert code == 0
        assert "20 metrics" in out
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == "repro-bench/2"
        assert payload["suite"]["size"] == 24
        assert payload["suite"]["backend"] == "reference"
        assert "host.vector_instructions_per_sec" in payload["metrics"]

    def test_backend_flag_recorded(self, capsys, tmp_path, monkeypatch):
        import json

        # monkeypatch restores REPRO_BACKEND even though the CLI sets
        # it via os.environ inside main().
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        out_path = tmp_path / "bench.json"
        code, _ = run_cli(
            capsys, "bench", "--size", "24", "--backend", "compiled",
            "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["suite"]["backend"] == "compiled"

    def test_compare_clean_baseline_passes(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        code, _ = run_cli(capsys, "bench", "--size", "24",
                          "--out", str(base))
        assert code == 0
        code, out = run_cli(
            capsys, "bench", "--out", str(tmp_path / "cur.json"),
            "--compare", str(base),
        )
        assert code == 0
        assert "all gated metrics within threshold" in out

    def test_compare_exits_nonzero_on_regression(self, capsys, tmp_path):
        import json

        base = tmp_path / "base.json"
        code, _ = run_cli(capsys, "bench", "--size", "24",
                          "--out", str(base))
        assert code == 0
        # Inject a 10% speedup regression into the baseline's future:
        # raise the bar so the (deterministic) re-measurement fails it.
        doc = json.loads(base.read_text())
        doc["metrics"]["fig4.spmv_speedup_geomean.2buf"]["value"] *= 1.10
        base.write_text(json.dumps(doc))
        code, out = run_cli(
            capsys, "bench", "--out", str(tmp_path / "cur.json"),
            "--compare", str(base),
        )
        assert code == 1
        assert "REGRESSION" in out
        assert "fig4.spmv_speedup_geomean.2buf" in out

    def test_compare_adopts_baseline_size(self, capsys, tmp_path):
        import json

        base = tmp_path / "base.json"
        code, _ = run_cli(capsys, "bench", "--size", "24",
                          "--out", str(base))
        assert code == 0
        cur = tmp_path / "cur.json"
        code, _ = run_cli(capsys, "bench", "--out", str(cur),
                          "--compare", str(base))
        assert code == 0
        assert json.loads(cur.read_text())["suite"]["size"] == 24


def _table_lines(text):
    return [l for l in text.splitlines() if not l.startswith("sweep engine")]


class TestEngineFlags:
    # These use the "ablation" figure: unlike the fig4-8 sweeps it is not
    # memoised in-process, so every CLI invocation exercises the engine.

    def test_figure_prints_throughput_line(self, capsys):
        code, out = run_cli(capsys, "figure", "ablation", "--jobs", "1")
        assert code == 0
        assert "sweep engine:" in out
        assert "jobs=1" in out

    def test_no_cache_bypasses_cache(self, capsys, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        code, _ = run_cli(capsys, "figure", "ablation", "--jobs", "1", "--no-cache")
        assert code == 0
        assert not cache_dir.exists()

    def test_warm_cache_rerun_is_identical_with_zero_simulations(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        code, cold = run_cli(capsys, "figure", "ablation", "--jobs", "1")
        assert code == 0
        code, warm = run_cli(capsys, "figure", "ablation", "--jobs", "1")
        assert code == 0
        assert "0 cached" in cold
        assert "0 simulated" in warm
        assert _table_lines(cold) == _table_lines(warm)

    def test_parallel_figure_matches_serial(self, capsys):
        code, serial = run_cli(
            capsys, "figure", "ablation", "--jobs", "1", "--no-cache"
        )
        assert code == 0
        code, parallel = run_cli(
            capsys, "figure", "ablation", "--jobs", "2", "--no-cache"
        )
        assert code == 0
        assert _table_lines(serial) == _table_lines(parallel)

    def test_validate_accepts_engine_flags(self, capsys):
        code, out = run_cli(capsys, "validate", "--size", "64", "--jobs", "1")
        assert code == 0
        assert "ALL CLAIMS PASS" in out
        assert "sweep engine:" in out


class TestObs:
    @pytest.fixture(autouse=True)
    def _reset_engine_defaults(self):
        yield
        from repro.exec import configure

        configure(obs_dir=None, progress=None)

    def _sweep(self, capsys, tmp_path):
        obs_root = tmp_path / "obs"
        code, out = run_cli(
            capsys, "figure", "ablation", "--jobs", "1", "--no-cache",
            "--obs-log", str(obs_root),
        )
        assert code == 0
        assert f"obs log under {obs_root}" in out
        return obs_root

    def test_obs_summary_after_logged_sweep(self, capsys, tmp_path):
        obs_root = self._sweep(capsys, tmp_path)
        code, out = run_cli(capsys, "obs", "summary", "--dir", str(obs_root))
        assert code == 0
        assert "outcomes" in out
        assert "completed" in out
        assert "latency" in out

    def test_obs_summary_json(self, capsys, tmp_path):
        import json

        obs_root = self._sweep(capsys, tmp_path)
        code, out = run_cli(capsys, "obs", "summary", "--dir", str(obs_root),
                            "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["outcomes"]["completed"] == payload["specs"]
        assert payload["events"] > 0

    def test_obs_tail_shows_lifecycle(self, capsys, tmp_path):
        obs_root = self._sweep(capsys, tmp_path)
        code, out = run_cli(capsys, "obs", "tail", "--dir", str(obs_root),
                            "-n", "0")
        assert code == 0
        assert "sweep.start" in out
        assert "spec.completed" in out
        assert out.strip().splitlines()[-1].split()[2] == "sweep.end"

    def test_obs_tail_json_is_parseable(self, capsys, tmp_path):
        import json

        obs_root = self._sweep(capsys, tmp_path)
        code, out = run_cli(capsys, "obs", "tail", "--dir", str(obs_root),
                            "-n", "3", "--json")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["sweep"] for line in lines)

    def test_obs_metrics_round_trip(self, capsys, tmp_path):
        from repro.obs import parse_metrics

        obs_root = self._sweep(capsys, tmp_path)
        code, out = run_cli(capsys, "obs", "metrics", "--dir", str(obs_root))
        assert code == 0
        samples = parse_metrics(out)
        executed = [v for (name, labels), v in samples.items()
                    if name == "repro_sweep_points_total"
                    and ("kind", "executed") in labels]
        assert executed and executed[0] > 0

    def test_obs_trace_writes_perfetto_json(self, capsys, tmp_path):
        import json

        obs_root = self._sweep(capsys, tmp_path)
        out_path = tmp_path / "trace.json"
        code, out = run_cli(capsys, "obs", "trace", "--dir", str(obs_root),
                            "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["otherData"]["schema"] == "repro-sweep-trace/1"
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])

    def test_obs_without_logs_fails_cleanly(self, capsys, tmp_path):
        code = main(["obs", "summary", "--dir", str(tmp_path / "empty")])
        captured = capsys.readouterr()
        assert code == 1
        assert "no sweep event logs" in captured.err

    def test_bare_sweep_prints_no_obs_pointer(self, capsys):
        code, out = run_cli(capsys, "figure", "ablation", "--jobs", "1",
                            "--no-cache")
        assert code == 0
        assert "obs log under" not in out

    def test_cache_info_shows_provenance(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        code, _ = run_cli(capsys, "figure", "ablation", "--jobs", "1")
        assert code == 0
        code, out = run_cli(capsys, "cache", "info")
        assert code == 0
        assert "with provenance" in out
        assert "backend reference" in out
