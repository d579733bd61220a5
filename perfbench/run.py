"""Benchmark for uradon: seeded CLI workloads, oracle-checked, optionally traced.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Run from anywhere; the library is imported from ``src/`` next to this
directory and nowhere else.  One client calls ``uradon.cli.main`` in this
process in a closed loop: each iteration runs the workload's invocations one
after another and starts when the previous iteration, and its checks, have
finished.  Set-up imports the library, writes the seeded inputs (median of
three repetitions) and runs one warm-up iteration.  Every iteration is
checked: exit codes, oracle gates, container read-back and the sha256 of
every output against the warm-up's.  Reported times are rescaled by a fixed
numpy kernel timed next to them (see ``SpeedGauge``).  ``--trace 1`` alternates untraced and
traced iterations and reports per-layer metrics instead of end-to-end ones.
``--workload all`` runs each workload in its own process.

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NAMES = ("roundtrip", "reconstruct", "volume", "probes")
SETUP_REPEATS = 3
# median time of SpeedGauge.measure on the reference machine (2-vCPU Intel Xeon, numpy 2.4.6)
CAL_REF_S = 0.1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: with two, OpenBLAS's idle helper spin-waits after every call and slows
# the main thread on a 2-vCPU machine (volume: 1.9 s -> 1.5 s per iteration, measured).
BLAS_THREADS = 1

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("err_rel", "ratio"),
              ("pass_frac", "ratio"))
PER_LAYER = (
    ("forward.project_s", "s"), ("forward.samples_per_s", "1/s"),
    ("grids.bilinear_s", "s"), ("grids.bilinear_points", "count"),
    ("grids.bilinear_inside_frac", "ratio"),
    ("inversion.ramp_filter_s", "s"), ("inversion.fp_filter_s", "s"),
    ("inversion.lambda_filter_s", "s"), ("inversion.tau_derivative_s", "s"),
    ("inversion.backproject_s", "s"), ("inversion.backproject_passes", "count"),
    ("inversion.backproject_px_angles", "count"),
    ("hybrid.radon_s", "s"), ("hybrid.reconstruct_s", "s"), ("hybrid.series_s", "s"),
    ("hybrid.fields", "count"),
    ("slice_theorem.lhs_s", "s"), ("slice_theorem.rhs_s", "s"), ("slice_theorem.angles", "count"),
    ("holonomy.check_s", "s"), ("holonomy.defect_s", "s"), ("holonomy.term_columns", "count"),
    ("holonomy.survivor_frac", "ratio"),
    ("container.write_s", "s"), ("container.read_s", "s"), ("container.bytes", "count"),
    ("phantoms.rasterize_s", "s"), ("phantoms.rasterize_calls", "count"),
    ("cli.self_s", "s"),
    ("trace.count_s", "s"), ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.self_sum_frac", "ratio"),
)


class SourceMissing(Exception):
    """The checkout has no library source to benchmark."""


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at BLAS_THREADS; call before numpy loads.  Returns nproc."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def import_library() -> float:
    """Import uradon from this checkout's src/; returns the import time in seconds."""
    if not (SRC / "uradon" / "__init__.py").is_file():
        raise SourceMissing(f"no library source at {SRC / 'uradon'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import uradon
    elapsed = time.perf_counter() - t0
    if Path(uradon.__file__).resolve().parent != (SRC / "uradon").resolve():
        raise SourceMissing(f"uradon was imported from {uradon.__file__}, not from {SRC}")
    return elapsed


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def call_cli(argv: list[str], rec=None) -> str | None:
    """Run one ``uradon`` invocation in-process; returns a failure reason or None."""
    import uradon.cli

    sink = io.StringIO()
    span = rec.open("cli") if rec is not None else None
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = uradon.cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash in the program is a failed iteration, not a failed run
        return f"{argv[0]} raised {type(exc).__name__}: {exc}"
    finally:
        if span is not None:
            rec.close(span)
    if code != 0:
        last = sink.getvalue().strip().splitlines()[-1:] or [""]
        return f"{argv[0]} exited with code {code}: {last[0]}"
    return None


def run_iteration(wl, rec=None) -> tuple[float, str | None]:
    """Time the workload's invocations; returns (wall seconds, first failure or None)."""
    for name in wl.OUTPUTS:
        if os.path.exists(name):
            os.remove(name)
    t0 = time.perf_counter()
    failure = None
    for argv in wl.steps():
        failure = call_cli(argv, rec)
        if failure is not None:
            break
    return time.perf_counter() - t0, failure


def verify(wl, reference: dict | None) -> tuple[dict, float, list[str]]:
    """Check the outputs on disk; returns (sha256 per output, err_rel, failures)."""
    from uradon.container import read_container

    failures = []
    hashes = {}
    for name in wl.OUTPUTS:
        if os.path.exists(name):
            hashes[name] = sha256(name)
        else:
            failures.append(f"missing output {name}")
    if reference is not None:
        changed = sorted(n for n in hashes if n in reference and hashes[n] != reference[n])
        if changed:
            failures.append("sha256 differs from the first iteration: " + ", ".join(changed))
    containers = {}
    for name in wl.OUTPUTS:
        if name.endswith(".urdn") and name in hashes:
            try:
                containers[name] = read_container(name)
            except Exception as exc:  # any read error means the container does not read back
                failures.append(f"{name} does not read back: {type(exc).__name__}: {exc}")
    err = float("nan")
    if not failures:
        try:
            err, broken = wl.check(containers)
            failures.extend(broken)
        except Exception as exc:  # a malformed output must not end the run
            failures.append(f"check raised {type(exc).__name__}: {exc}")
    return hashes, err, failures


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metadata(nproc: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "git_commit": commit or "unknown", "src_lines": src_lines(),
            "src_sha256": digest(src_files())}


def src_files() -> list[Path]:
    return sorted(SRC.rglob("*.py"))


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in src_files())


def digest(files) -> str:
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def check_counters_across_seeds(name: str, seed: int, counters: dict) -> str | None:
    """Compare exact counters with the first traced run of the same code; None if they agree."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"counters-{name}.json"
    code = digest(src_files() + sorted(Path(__file__).resolve().parent.glob("*.py")))
    if path.is_file():
        with contextlib.suppress(ValueError, OSError):
            stored = json.loads(path.read_text(encoding="utf-8"))
            if stored.get("code_sha256") == code:
                if stored["counters"] != counters:
                    return f"exact counters differ from seed {stored['seed']}"
                return None
    path.write_text(json.dumps({"code_sha256": code, "seed": seed, "counters": counters},
                               indent=1, sort_keys=True), encoding="utf-8")
    return None


def layer_metrics(rec, traced: list[tuple[int, float, float]], untraced_walls: list[float]) -> dict:
    """Per-layer metrics: medians of per-iteration self times (rescaled), exact counters."""
    import tracing

    own, inclusive = tracing.self_times(rec.spans)
    per_iteration = []
    for it, wall, scale in traced:
        row = {name: 0.0 for name, unit in PER_LAYER if unit == "s"}
        row.update({k: v * scale for k, v in own[it].items()})
        row.update({k: v * scale for k, v in inclusive[it].items()})
        row["trace.self_sum_frac"] = sum(own[it].values()) / wall
        row["trace.wall_s"] = wall * scale
        per_iteration.append(row)
    out = {name: statistics.median(r[name] for r in per_iteration) for name in per_iteration[0]}
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(untraced_walls)
    c = rec.counters[traced[0][0]]
    out.update({name: c[name] for name, unit in PER_LAYER if unit == "count"})
    busy = out["forward.project_s"] + out["grids.bilinear_s"]
    out["forward.samples_per_s"] = c["grids.bilinear_points"] / busy if busy > 0 else 0.0
    points = c["grids.bilinear_points"]
    out["grids.bilinear_inside_frac"] = c["grids.bilinear_inside"] / points if points else 0.0
    evaluated = c["holonomy.terms_evaluated"]
    out["holonomy.survivor_frac"] = c["holonomy.survivors"] / evaluated if evaluated else 0.0
    return out


class SpeedGauge:
    """Times a fixed numpy kernel that runs no library code and allocates nothing.

    On a shared 2-vCPU VM the CPU speed drifts by tens of percent over tens
    of seconds, and the drift slows the kernel and the workload alike.  Every reported
    time is therefore multiplied by ``CAL_REF_S / t_kernel``, with the kernel
    timed right before and right after the measured interval: times read as
    seconds at the speed where the kernel takes ``CAL_REF_S``.  The kernel
    writes into preallocated buffers so that the allocator state a workload
    leaves behind does not change its time.
    """

    N = 1 << 16

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.image = rng.standard_normal(129 * 129) + 1j * rng.standard_normal(129 * 129)
        self.x = rng.uniform(-10.0, 140.0, self.N)
        self.y = rng.uniform(-10.0, 140.0, self.N)
        self.fx, self.fy = np.empty(self.N), np.empty(self.N)
        self.ix, self.iy = np.empty(self.N, np.intp), np.empty(self.N, np.intp)
        self.gathered = np.empty(self.N, np.complex128)
        self.acc = np.empty(self.N, np.complex128)
        self.measure()  # first call pays for page faults and lazy initialisation

    def measure(self) -> float:
        """Seconds for 40 rounds of bilinear-style index arithmetic and gathers."""
        np = self.np
        t0 = time.perf_counter()
        for _ in range(40):
            np.clip(self.x, 0.0, 127.0, out=self.fx)
            np.clip(self.y, 0.0, 127.0, out=self.fy)
            np.copyto(self.ix, self.fx, casting="unsafe")
            np.copyto(self.iy, self.fy, casting="unsafe")
            np.subtract(self.fx, self.ix, out=self.fx)
            np.multiply(self.ix, 129, out=self.ix)
            np.add(self.ix, self.iy, out=self.ix)
            self.acc.fill(0.0)
            for offset in (0, 1, 129, 130):
                np.add(self.ix, offset, out=self.iy)
                np.take(self.image, self.iy, out=self.gathered)
                np.multiply(self.gathered, self.fx, out=self.gathered)
                np.add(self.acc, self.gathered, out=self.acc)
        return time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool, log=print) -> dict:
    """Set up, warm up and measure one workload in this process; returns the result object."""
    t_start = time.perf_counter()
    import_s = import_library()
    import numpy as np

    here = str(Path(__file__).resolve().parent)
    if here not in sys.path:
        sys.path.insert(0, here)
    import tracing
    import workloads

    gauge = SpeedGauge()
    wl = workloads.WORKLOADS[name]()
    rec = tracing.Recorder(time.perf_counter)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{name}-{os.getpid()}"
    work.mkdir()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        kernel = gauge.measure()
        generate = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.prepare(np.random.default_rng(seed))
            generate.append(time.perf_counter() - t0)
        warm_wall, failure = run_iteration(wl)
        kernel_after = gauge.measure()
        setup_raw = import_s + statistics.median(generate) + warm_wall
        setup_s = setup_raw * 2.0 * CAL_REF_S / (kernel + kernel_after)
        kernel = kernel_after
        reference, err, failures = verify(wl, None)
        if failure is not None:
            failures.insert(0, failure)
        attempted, failed = 1, int(bool(failures))
        for reason in failures:
            log(f"FAIL warm-up: {reason}")

        raw, walls, traced, kernels = [], [], [], [kernel]
        counters = None
        t_measure = time.perf_counter()
        i = 0
        while (time.perf_counter() - t_measure < seconds or not walls
               or (trace and not traced)):
            i += 1
            tracing_now = trace and i % 2 == 0
            if tracing_now:
                rec.iteration = i
                with tracing.installed(rec):
                    wall, failure = run_iteration(wl, rec)
                rec.iteration = None
            else:
                wall, failure = run_iteration(wl)
            kernel_after = gauge.measure()
            kernels.append(kernel_after)
            scale = 2.0 * CAL_REF_S / (kernel + kernel_after)
            kernel = kernel_after
            _, it_err, failures = verify(wl, reference)
            if failure is not None:
                failures.insert(0, failure)
            if tracing_now:
                traced.append((i, wall, scale))
                snapshot = {k: rec.counters[i][k] for k in tracing.EXACT_COUNTERS}
                if counters is None:
                    counters = snapshot
                elif snapshot != counters:
                    failures.append("exact counters differ from the first traced iteration")
            else:
                raw.append(wall)
                walls.append(wall * scale)
            if not failures and not it_err == err:
                failures.append(f"err_rel {it_err!r} differs from the warm-up's {err!r}")
            attempted += 1
            failed += int(bool(failures))
            for reason in failures:
                log(f"FAIL iteration {i}: {reason}")
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        mismatch = check_counters_across_seeds(name, seed, counters)
        if mismatch is not None:
            log(f"FAIL counters: {mismatch}")
            failed += 1
        write_spans(name, seed, rec, traced)
        values = layer_metrics(rec, traced, walls)
        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}
        if rec.missing:
            log("not traced (attribute missing): " + ", ".join(rec.missing))
    else:
        # err_rel reads 1.0 when the warm-up's outputs could not be checked
        values = {"wall_s": statistics.median(walls), "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "err_rel": err if math.isfinite(err) else 1.0,
                  "pass_frac": 1.0 - failed / attempted}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    q1, med, q3 = quartiles(raw)
    log(f"{name} seed={seed}: {attempted} iterations (1 warm-up), {failed} failed, "
        f"failed_frac={failed / attempted:.3f}, run {time.perf_counter() - t_start:.1f} s")
    log(f"  unscaled untraced wall: median {med:.4f} s, q1 {q1:.4f}, q3 {q3:.4f}, n={len(raw)}; "
        f"unscaled set-up {setup_raw:.4f} s; speed kernel median {statistics.median(kernels):.4f} s "
        f"(reference {CAL_REF_S} s)")
    for n, m in metrics.items():
        log(f"  {n:34s} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def write_spans(name: str, seed: int, rec, traced) -> None:
    path = OUT / f"spans-{name}-seed{seed}.json"
    doc = {"workload": name, "seed": seed,
           "traced_iterations": [{"iteration": it, "wall_s": wall, "speed_scale": scale}
                                 for it, wall, scale in traced],
           "spans": [[s.name, s.start, s.end, s.parent, s.iteration] for s in rec.spans],
           "span_fields": ["name", "start", "end", "parent", "iteration"],
           "counters": {str(k): dict(v) for k, v in rec.counters.items()}}
    path.write_text(json.dumps(doc), encoding="utf-8")


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS and imports stay per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{name} exited with code {proc.returncode}: {proc.stderr.strip()}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    nproc = cap_threads()
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print("meta " + json.dumps(metadata(nproc), sort_keys=True))
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
