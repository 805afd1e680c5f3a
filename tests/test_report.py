"""Report entries: the first witness of a check, and suite prefixes."""

from qkoszul.report import check, prefixed


def test_pass_without_witnesses():
    assert check("unit", iter(())) == {"name": "unit", "status": "pass"}


def test_fail_keeps_the_first_witness_and_reads_no_further():
    read = []

    def witnesses():
        for k in (2, 3):
            read.append(k)
            yield {"grade": k}

    entry = check("d_squared_zero", witnesses())
    assert entry == {"name": "d_squared_zero", "status": "fail",
                     "witness": {"grade": 2}}
    assert read == [2]


def test_prefixed_keeps_every_other_key():
    entries = [{"name": "a", "status": "pass", "info": "x"},
               {"name": "b", "status": "fail", "witness": {"f": "0"}}]
    assert prefixed("suite", entries) == [
        {"name": "suite.a", "status": "pass", "info": "x"},
        {"name": "suite.b", "status": "fail", "witness": {"f": "0"}}]
