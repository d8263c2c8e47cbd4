"""A pytest plugin that checks every call of `_kernel.rref_fp`: each entry it receives must be
an int in [0, p), since the kernel copies its rows without reducing them.

    PYTHONPATH=src:tests python -m pytest -p rref_fp_spy tests/test_linalg.py

The session's last line reads "rref_fp calls N, entries out of range M".
"""

from siltglue import _kernel

CALLS, OUT_OF_RANGE = [0], []


def pytest_configure(config):
    rref_fp = _kernel.rref_fp

    def spy(rows, p, *args, **kwargs):
        CALLS[0] += 1
        OUT_OF_RANGE.extend(x for r in rows for x in r if type(x) is not int or not 0 <= x < p)
        return rref_fp(rows, p, *args, **kwargs)

    _kernel.rref_fp = spy


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(f"rref_fp calls {CALLS[0]}, entries out of range {len(OUT_OF_RANGE)} {OUT_OF_RANGE[:5]}")
