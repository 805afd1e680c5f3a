"""Report entries: the first witness of a check, the witnesses of a
per-sample identity and of a two-sided one, expected failures, and suite
prefixes."""

from qkoszul.report import check, differences, expected_failure, failures, info, prefixed


class Sample:
    """A stand-in sample that renders as its label."""

    def __init__(self, label: str):
        self.label = label

    def render(self) -> str:
        return self.label


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


def test_failures_witness_each_failing_sample_by_its_render():
    samples = [Sample(x) for x in "abcd"]
    assert list(failures(samples, lambda f: f.label in "bd")) == [{"f": "a"}, {"f": "c"}]
    assert list(failures(samples, lambda f: True)) == []


def test_failures_zip_the_columns_with_the_samples():
    seen = []

    def holds(f, x, y):
        seen.append((f.label, x, y))
        return x + y != 5

    samples = [Sample(x) for x in "abc"]
    assert list(failures(samples, holds, [1, 2, 3], [9, 3, 0])) == [{"f": "b"}]
    assert seen == [("a", 1, 9), ("b", 2, 3), ("c", 3, 0)]


def test_failures_read_no_sample_past_the_first_failure():
    tested = []

    def holds(f):
        tested.append(f.label)
        return f.label == "a"

    entry = check("unit", failures([Sample(x) for x in "abcd"], holds))
    assert entry == {"name": "unit", "status": "fail", "witness": {"f": "b"}}
    assert tested == ["a", "b"]


def test_differences_label_the_case_and_then_both_sides():
    cases = [(Sample("f"), Sample("g")), (Sample("h"), Sample("h"))]
    # the sides are plain strings, so equal labels are equal sides
    entries = differences(cases, lambda f, g: (f.label, g.label), "f", "g", "lhs", "rhs")
    assert list(entries) == [{"f": "f", "g": "g", "lhs": "f", "rhs": "g"}]


def test_differences_render_only_what_has_a_render():
    # the int of a generator and the tuple of a pair go in as they are
    entries = differences([(1, (1, 2), Sample("f"))], lambda a, pair, f: (Sample("lhs"), 0),
                          "generator", "pair", "f", "commutator", "expected")
    assert list(entries) == [{"generator": 1, "pair": (1, 2), "f": "f",
                              "commutator": "lhs", "expected": 0}]


def test_differences_of_a_check_without_inputs():
    assert list(differences([()], lambda: (Sample("1"), Sample("0")),
                            "bracket", "image_of_bracket")) == \
        [{"bracket": "1", "image_of_bracket": "0"}]
    assert list(differences([()], lambda: (0, 0), "bracket", "image_of_bracket")) == []


def test_differences_read_no_case_past_the_first_failure():
    read, computed = [], []

    def cases():
        for k in range(4):
            read.append(k)
            yield (k,)

    def sides(k):
        computed.append(k)
        return k, min(k, 1)

    entry = check("stage_equality", differences(cases(), sides, "k", "two_stage", "one_step"))
    assert entry == {"name": "stage_equality", "status": "fail",
                     "witness": {"k": 2, "two_stage": 2, "one_step": 1}}
    assert read == computed == [0, 1, 2]


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
