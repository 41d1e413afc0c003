"""Write the SHA-256 digests of the plots of ``fracbvp run --trace``.

Runs ``fracbvp run --case c --method both --n 40 --trace`` for cases 1-4
into a temporary directory and writes the digest of each of the eight SVGs
to ``tests/golden_svg.json``, which ``tests/test_golden.py`` compares them
with.  From the repository root::

    PYTHONPATH=src python tests/make_golden.py

Regenerate the file only for a change that is meant to alter the plots, and
log the change and its reason.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from fracbvp import cli

GOLDEN = Path(__file__).with_name("golden_svg.json")
CASES = ("1", "2", "3", "4")


def svg_digests(out_dir) -> dict[str, str]:
    """Run the traced commands into ``out_dir``; digest of each SVG, by
    file name."""
    out_dir = Path(out_dir)
    for case in CASES:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--case", case, "--method", "both",
                             "--n", "40", "--trace", "--out", str(out_dir)])
        if code != 0:
            raise RuntimeError(f"run --case {case} exited {code}")
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.glob("*.svg"))}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = svg_digests(tmp)
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")


if __name__ == "__main__":
    main()
