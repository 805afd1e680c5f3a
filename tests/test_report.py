"""Report entries: the first witness of a check, expected failures, and
suite prefixes."""

from qkoszul.report import check, expected_failure, info, prefixed


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


def test_expected_failure_passes_with_the_first_witness():
    read = []

    def witnesses():
        for k in (2, 3):
            read.append(k)
            yield {"f": k}

    entry = expected_failure("hermitian_fails_as_expected", witnesses())
    assert entry == {"name": "hermitian_fails_as_expected", "status": "pass",
                     "witness": {"f": 2}}
    assert read == [2]


def test_expected_failure_without_a_witness_fails():
    assert expected_failure("hermitian_fails_as_expected", iter(())) == \
        {"name": "hermitian_fails_as_expected", "status": "fail"}


def test_info_passes_with_its_text():
    assert info("strong_invariance", "classical map is quantum") == \
        {"name": "strong_invariance", "status": "pass", "info": "classical map is quantum"}


def test_prefixed_keeps_every_other_key():
    entries = [{"name": "a", "status": "pass", "info": "x"},
               {"name": "b", "status": "fail", "witness": {"f": "0"}}]
    assert prefixed("suite", entries) == [
        {"name": "suite.a", "status": "pass", "info": "x"},
        {"name": "suite.b", "status": "fail", "witness": {"f": "0"}}]
