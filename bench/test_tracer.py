"""Self-tests for the benchmark's tracer: run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_spans_survive_concurrent_threads():
    tracer = Tracer(0)
    calls_per_thread, n_threads = 2000, 8

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("inner", inner, key=lambda args, kwargs: args[0] % 7)

    def outer(x):
        return traced_inner(x)

    traced_outer = tracer.wrap("outer", outer)

    def work():
        for i in range(calls_per_thread):
            traced_outer(i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)

    spans = tracer.spans
    assert len(spans) == 2 * calls_per_thread * n_threads
    by_id = {s[0]: s for s in spans}
    assert len(by_id) == len(spans)
    for sid, parent, name, start, end, tid, _, cpu in spans:
        assert cpu >= 0.0
        if name == "outer":
            assert parent == -1
        else:
            assert by_id[parent][2] == "outer"
            assert by_id[parent][5] == tid
            assert by_id[parent][3] <= start <= end <= by_id[parent][4]
    assert len(tracer.keys["inner"]) == 7


def test_failed_call_still_records_its_span():
    tracer = Tracer(0)

    def boom():
        raise KeyError("x")

    traced = tracer.wrap("boom", boom)
    try:
        traced()
    except KeyError:
        pass
    assert [s[2] for s in tracer.spans] == ["boom"]
    assert tracer._stack() == []


def _run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{BENCH}"),
    )


def test_install_leaves_no_original_behind():
    proc = _run_python(
        "import json, tracer; t = tracer.Tracer(0); t.install(); print(json.dumps(t.unwrapped()))"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_self_check_names_a_stale_binding():
    proc = _run_python(
        "import json, numpy.fft, tracer\n"
        "import dualfrac.fixed_point as fp\n"
        "t = tracer.Tracer(0); t.install()\n"
        "fp.forward_transform = fp.forward_transform.__wrapped__\n"
        "numpy.fft.rfftn = numpy.fft.rfftn.__wrapped__\n"
        "print(json.dumps(t.unwrapped()))"
    )
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert "dualfrac.fixed_point.forward_transform" in found
    assert "numpy.fft.rfftn" in found


def test_traced_operation_reports_picard_fft_count(tmp_path):
    result = tmp_path / "op.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "operation.py"), str(result), "1", "0", "--", "solve",
         "--config", "demo", "--grid", "16", "--box", "20", "--out", str(tmp_path / "out")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(result.read_text())["trace"]
    assert trace["unwrapped"] == []
    names = [s[2] for s in trace["spans"]]
    assert names.count("cli.run_command") == 1
    assert names.count("poisson.solve_linear_system") == 1
    assert "spectral.fft" in names
