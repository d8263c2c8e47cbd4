"""A pytest plugin that checks every call of `_kernel.rref_fp`: each entry it receives must be
an int in [0, p), since the kernel copies its rows without reducing them; and every call of
`linalg.independent_columns` over F_p: each value it receives must be an int in [1, p), since the
echelon takes a stored value as a non-zero field element without reducing it.

    PYTHONPATH=src:tests python -m pytest -p rref_fp_spy tests/test_linalg.py

The session's last lines read "rref_fp calls N, entries out of range M" and
"independent_columns F_p calls N, values out of range M".
"""

from siltglue import _kernel, homs, linalg
from siltglue.fields import PrimeField

CALLS, OUT_OF_RANGE = [0], []
COLUMN_CALLS, COLUMN_OUT_OF_RANGE = [0], []


def pytest_configure(config):
    rref_fp, independent_columns = _kernel.rref_fp, linalg.independent_columns

    def spy(rows, p, *args, **kwargs):
        CALLS[0] += 1
        OUT_OF_RANGE.extend(x for r in rows for x in r if type(x) is not int or not 0 <= x < p)
        return rref_fp(rows, p, *args, **kwargs)

    def column_spy(field, entries):
        if isinstance(field, PrimeField):
            COLUMN_CALLS[0] += 1
            COLUMN_OUT_OF_RANGE.extend(x for _, _, x in entries if type(x) is not int or not 0 < x < field.p)
        return independent_columns(field, entries)

    _kernel.rref_fp = spy
    # homs bound the function when the test modules' conftest imported it, before this hook
    linalg.independent_columns = homs.independent_columns = column_spy


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(f"rref_fp calls {CALLS[0]}, entries out of range {len(OUT_OF_RANGE)} {OUT_OF_RANGE[:5]}")
    terminalreporter.write_line(
        f"independent_columns F_p calls {COLUMN_CALLS[0]}, values out of range {len(COLUMN_OUT_OF_RANGE)} "
        f"{COLUMN_OUT_OF_RANGE[:5]}")
