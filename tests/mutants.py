"""Mutation audit of the tier-1 suite: one-line edits of ``src/`` that a
test should notice.

Each mutant replaces one line of one module.  The script copies the
repository to a temporary directory, runs tier-1 there once unmutated (it
must pass), then applies each mutant in turn, runs tier-1 with ``-x`` and
prints the first failing test, or ``survived``, and puts the line back.
Run it from the repository root::

    python tests/mutants.py              # every mutant, ~10 min on 2 CPUs
    python tests/mutants.py guard ...    # the mutants with these labels

The name has no ``test_`` prefix, so tier-1 does not collect it.  Add a
mutant here for each line whose value a later change means tests to fix.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: label -> (module under ``src/fracbvp``, line as it stands, mutated line)
MUTANTS = {
    "leading-zeros": (
        "fracops.py",
        "    out[..., : max(1, int(np.argmax(f != 0.0)))] = 0.0",
        "    out[..., :1] = 0.0"),
    "singular-tol": (
        "shooting.py",
        "SINGULAR_TOL = 1e-12",
        "SINGULAR_TOL = 1e-9"),
    "guard": (
        "ifoi.py",
        "DIVERGENCE_GUARD = 1e8",
        "DIVERGENCE_GUARD = 1e12"),
    "newton-tol": (
        "fdm.py",
        'def fdm_newton(case: "CaseSpec", n: int, tol: float = 1e-10,',
        'def fdm_newton(case: "CaseSpec", n: int, tol: float = 1e-8,'),
    "block-width": (
        "shooting.py",
        "    width = max(1, math.isqrt(steps // 8))",
        "    width = max(1, math.isqrt(steps // 2))"),
    "end-slope-first-order": (
        "shooting.py",
        "    return (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) "
        "/ (2.0 * h)",
        "    return (values[-1] - values[-2]) / h"),
    "fdm-end-slope-kh": (
        "shooting.py",
        "    return slope * (1.0 - kh / 2.0) + (kh * value + forcing) "
        "/ (2.0 * h)",
        "    return slope + (kh * value + forcing) / (2.0 * h)"),
    "end-slope-two-nodes": (
        "shooting.py",
        "    return slope * (1.0 - kh / 2.0) + (kh * value + forcing) "
        "/ (2.0 * h)",
        "    return slope"),
    "march-lead-rows": (
        "shooting.py",
        "    coef[:, :lead, 0] = 0.0",
        "    pass"),
    "sweep-offset-after-update": (
        "shooting.py",
        "            entry_a.append(a)",
        "            entry_a.append(a * u_phi + s * u_psi + u_p)"),
    "sweep-scale-index": (
        "shooting.py",
        "            t = (t - shifts[i]) / scales[i]",
        "            t = (t - shifts[i]) / scales[i - 1]"),
    "fdm-node-1": (
        "shooting.py",
        "        out[0], out[1] = u0, u0 + h * beta[0]",
        "        out[0], out[1] = u0, (u0 + h * beta[0]) * (1.0 + 1e-9)"),
    "remainder-minus-one": (
        "ifoi.py",
        "        return np.fft.rfft((k - np.arange(n + 1)) * h**2, "
        "self._built[2])",
        "        return np.fft.rfft((k - np.arange(n + 1) - 1) * h**2, "
        "self._built[2])"),
    "halving-gate": (
        "shooting.py",
        "        if not (peak < ifoi.DIVERGENCE_GUARD "
        "and update <= 0.5 * last):",
        "        if not peak < ifoi.DIVERGENCE_GUARD:"),
    "correction-zero-start": (
        "shooting.py",
        "    if not u.any():",
        "    if False:"),
    "abm-series-terms": (
        "fracops.py",
        "_ABM_SERIES_TERMS = 10",
        "_ABM_SERIES_TERMS = 6"),
    "abm-series-start": (
        "fracops.py",
        "ABM_SERIES_FROM = 32",
        "ABM_SERIES_FROM = 16"),
    "abm-plain-cumsum": (
        "ifoi.py",
        "                   - sums.reshape(r, length))",
        "                   - np.cumsum(rows[0], axis=1))"),
    "abm-column-gamma": (
        "ifoi.py",
        "        gammas = np.array([math.gamma(c + 1.0) for c in c_j])"
        "[:, None]",
        "        gammas = np.array([math.gamma(c) for c in c_j])[:, None]"),
    "table-row-count": (
        "ifoi.py",
        "    r = 1 if length > STAGED_TABLE_LENGTH else partition.stage_count",
        "    r = partition.stage_count"),
    "chain-f0-split": (
        "ifoi.py",
        '        f0 = f.values[0] if scheme == "abm" else 0.0',
        "        f0 = 0.0"),
    "chain-gamma": (
        "ifoi.py",
        "                out += f0 / math.gamma(c + 1.0) * f.nodes ** c",
        "                out += f0 / math.gamma(c) * f.nodes ** c"),
    "erf-term": (
        "cases.py",
        "    r = horner(xn * xn, _ERF_R)",
        "    r = horner(xn * xn, _ERF_R[:-1])"),
    "picard-absolute-stop": (
        "ifoi.py",
        "        if update < PICARD_TOL * max(1.0, peak):",
        "        if update < PICARD_TOL:"),
    "picard-cap": (
        "ifoi.py",
        "PICARD_MAX_ITER = 200",
        "PICARD_MAX_ITER = 100"),
    "fft-power-of-two": (
        "fracops.py",
        "    p5 = 1",
        "    return best"),
    "table-powers": (
        "ifoi.py",
        "        powers = np.array([f.h**c for c in partition.cumulative[1:]])"
        "[:, None]",
        "        powers = np.array([f.h**c for c in partition.cumulative[1:]])"
        "[:, None] * (1.0 + 1e-9)"),
    "mallopt": (
        "grid.py",
        "    _keep_freed_blocks(ctypes.CDLL(None))",
        "    pass"),
    "min-grid": (
        "ifoi.py",
        "MIN_GRID = 8",
        "MIN_GRID = 4"),
    "rect-bound": (
        "ifoi.py",
        '        if self.scheme == "rect" and self.n < m:',
        '        if self.scheme == "rect" and self.n <= m:'),
    "window-floor": (
        "fracops.py",
        "MIN_WINDOW_STEPS = 10",
        "MIN_WINDOW_STEPS = 5"),
    "forcing-only-overflow": (
        "ifoi.py",
        "            if not np.all(np.isfinite(unew)):",
        "            if False:"),
    "plot-stages-g": (
        "bench.py",
        '    stages = staged(GridFunction(forcing), partition, '
        'params["scheme"])',
        '    stages = staged(GridFunction(case.g(x)), partition, '
        'params["scheme"])'),
    "length-class": (
        "ifoi.py",
        "    return 1 << n.bit_length()",
        "    return 2 << n.bit_length()"),
    "score-degree": (
        "cases.py",
        "_DEGREE = 14",
        "_DEGREE = 6"),
    "score-end-weights": (
        "cases.py",
        "_BARY[[0, -1]] *= 0.5",
        "_BARY[[0, -1]] *= 1.0"),
    "score-blocks": (
        "cases.py",
        "_BLOCKS = 128",
        "_BLOCKS = 16"),
    "score-switch": (
        "cases.py",
        "    if n + 1 < 4 * _BLOCKS * (_DEGREE + 1):",
        "    if False:"),
    "gl-total-order": (
        "ifoi.py",
        "            np.stack((-c_j, partition.cumulative[1] - c_j)), length)",
        "            np.stack((1e-9 - c_j, partition.cumulative[1] - c_j)), "
        "length)"),
    "rect-kernel-late": (
        "fracops.py",
        "    np.subtract(p[1:], p[:-1], out=b[1:])",
        "    np.subtract(p[1:-1], p[:-2], out=b[2:])"),
    "abm-series-binomial": (
        "fracops.py",
        "        binom = (mu + 1.0) * np.cumprod((mu - (k - 2.0)) / k)",
        "        binom = (mu + 1.0) * np.cumprod((mu - (k - 1.0)) / k)"),
    "gl-column-sign": (
        "ifoi.py",
        "        np.negative(rows[1], out=rows[1])",
        "        pass"),
    "correction-own-start": (
        "shooting.py",
        "    u = sweep.values",
        "    u = sweep.solve(np.zeros(operator.n - 1))"),
}


def first_failure(root: Path) -> str:
    """Run tier-1 in ``root`` with ``-x``; the first failing test's id, or
    ``survived``.  ``tests/test_mutants.py``, which checks that this
    table's lines stand in the sources, is left out: every mutant removes
    one of them, so it would catch every mutant."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
         "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, check=False)
    for line in done.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return "survived" if done.returncode == 0 else done.stdout[-500:]


def main(labels: list[str]) -> int:
    unknown = sorted(set(labels) - set(MUTANTS))
    if unknown:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "repo"
        shutil.copytree(REPO, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache"))
        baseline = first_failure(root)
        if baseline != "survived":
            print(f"unmutated tier-1 fails: {baseline}", file=sys.stderr)
            return 1
        for label in labels or MUTANTS:
            module, line, mutated = MUTANTS[label]
            path = root / "src" / "fracbvp" / module
            text = path.read_text(encoding="utf-8")
            lines = text.split("\n")
            if lines.count(line) != 1:
                print(f"{label:24} line not found once in {module}")
                continue
            lines[lines.index(line)] = mutated
            path.write_text("\n".join(lines), encoding="utf-8")
            try:
                print(f"{label:24} {first_failure(root)}", flush=True)
            finally:
                path.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
