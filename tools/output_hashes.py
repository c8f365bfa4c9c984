"""Print the sha256 of the two CLI output matrices the tests compare across
BLAS thread counts, each run at one BLAS thread:

    criterion-8  tests/test_acceptance._run_matrix (the d = 2 command matrix)
    degree-3     tests/test_serialize_cli._degree3_matrix

A change that should leave every CLI output byte-identical leaves both hashes
as they were.  Run from anywhere: python tools/output_hashes.py
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def main() -> int:
    threads = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    path = os.environ.get("PYTHONPATH")
    os.environ.update(threads, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    sys.path[:0] = [SRC, str(ROOT / "tests")]
    import test_acceptance
    import test_serialize_cli

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        matrices = (("criterion-8", test_acceptance._run_matrix(dict(os.environ), tmp)),
                    ("degree-3", test_serialize_cli._degree3_matrix(tmp, "1")))
    for name, out in matrices:
        print(f"{name} {hashlib.sha256(out).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
