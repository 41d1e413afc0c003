"""Property test of the command line over generated flags and config files.

Every input ends in result rows whose statuses come from the documented
set (exit 0), or in exit 2 with a message; exit 1 is kept for I/O faults.
No input ends in an uncaught exception.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fracbvp import cli

STATUSES = {"converged", "diverged", "singular"}

# the resonant weight, values beside it, and every class of double
REALS = st.one_of(st.sampled_from([-1.0, -1.0000001, -0.9999999, 0.0]),
                  st.floats(allow_nan=True, allow_infinity=True))
# small grids keep each example to milliseconds; they cross every
# "too coarse" threshold of both solvers
INTS = st.integers(-3, 160)
# what a hand-written config file may hold in place of a valid entry
CONFIG_JUNK = st.one_of(INTS.map(str), st.text("0123456789-.xe ", max_size=5))

CONFIG_KEYS = ["case", "method", "n", "m", "alpha_spacing", "scheme",
               "repeats", "case3_a", "case3_b", "case3_c"]
OPTIONS = st.fixed_dictionaries({"case": st.sampled_from("1234")}, optional={
    "method": st.sampled_from(["fdm", "ifoi", "both"]),
    "n": INTS,
    "m": st.integers(-2, 12),
    "alpha_spacing": st.sampled_from(["regular", "quadratic"]),
    "scheme": st.sampled_from(["gl", "rect", "abm"]),
    "repeats": st.integers(-1, 2),
})
CASE3 = st.fixed_dictionaries({}, optional={
    "case3_a": REALS, "case3_b": REALS, "case3_c": REALS})


def _invoke(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _flag(key: str, value) -> str:
    # the "=" form keeps negative values from reading as options
    return f"--{key.replace('_', '-')}={value}"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["run", "sweep"]), options=OPTIONS,
       in_config=st.sets(st.sampled_from(CONFIG_KEYS)),
       junk=st.one_of(st.just({}), st.dictionaries(
           st.sampled_from(CONFIG_KEYS), CONFIG_JUNK, max_size=1)),
       case3=CASE3, n_list=st.lists(INTS, max_size=3),
       io_fault=st.one_of(st.just(None), st.just(None), st.sampled_from(
           ["missing-config", "out-is-file"])))
def test_cli_ends_in_rows_or_a_usage_error(command, options, in_config, junk,
                                           case3, n_list, io_fault):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        if io_fault == "out-is-file":
            out.write_text("", encoding="utf-8")
        argv = [command, _flag("out", out)]
        options = {**options, **case3}
        config = {k: v for k, v in options.items() if k in in_config}
        config.update(junk)
        argv += [_flag(k, v) for k, v in options.items() if k not in config]
        if command == "sweep":
            argv.append(_flag("n_list", ",".join(map(str, n_list))))
        cfg = tmp / "bench.cfg"
        if config or io_fault == "missing-config":
            argv.append(_flag("config", cfg))
        if io_fault != "missing-config":
            cfg.write_text("".join(f"{k}={v}\n" for k, v in config.items()),
                           encoding="utf-8")

        code, stdout, stderr = _invoke(argv)

    assert "Traceback" not in stdout + stderr
    if code == 0:
        rows = stdout.splitlines()
        assert rows
        assert {row.rsplit("status=", 1)[1] for row in rows} <= STATUSES
    elif code == 2:
        assert stderr.strip()
    else:
        assert code == 1 and io_fault is not None, (code, stderr)
        assert stderr.startswith("i/o error: ")
